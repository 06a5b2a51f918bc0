import json

import numpy as np
import pytest

from cohkit import DensityMatrix, KrausMap, SearchBudget, Tolerance, classify, cli, gi_deterministic, gi_extremality
from cohkit.classify import BudgetExhaustedError
from cohkit.cli import main

from conftest import frustrated_cycle


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _vector_doc(amps):
    amps = np.asarray(amps, dtype=complex)
    return {"kind": "state_vector", "data": [[float(a.real), float(a.imag)] for a in amps]}


def _matrix_fields(m):
    m = np.asarray(m, dtype=complex)
    return {"re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _density_doc(m):
    return {"kind": "density", **_matrix_fields(m)}


def _schur_doc(m):
    return {"kind": "channel_schur", **_matrix_fields(m)}


def _kraus_doc(ops):
    return {"kind": "channel_kraus", "operators": [_matrix_fields(k) for k in ops]}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def docs(tmp_path):
    # paths of the documents that the table-driven tests name; "out", "absent" and "bad" are not written
    rng = np.random.default_rng(0)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    gram = g @ g.conj().T
    scale = np.sqrt(np.real(np.diag(gram)))
    joint = gram / np.outer(scale, scale)
    np.fill_diagonal(joint, 1.0)
    mix = np.full((3, 3), 0.6)
    np.fill_diagonal(mix, 1.0)
    paths = {
        "flip": _kraus_doc([np.array([[0, 1], [1, 0]])]),
        "ham": {"kind": "hamiltonian", "energies": [0.0, 1.0]},
        "plus": _vector_doc(np.sqrt([0.5, 0.5])),
        "minus": _vector_doc([np.sqrt(0.5), -np.sqrt(0.5)]),
        "rho": _density_doc([[0.5, 0.2], [0.2, 0.5]]),
        "sigma": _density_doc([[0.5, 0.1], [0.1, 0.5]]),
        "chi": _vector_doc([np.sqrt(0.5), 0.5, 0.5]),
        "plus3": _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])),
        "half": _vector_doc(np.sqrt([0.5, 0.5, 0.0])),
        "rank2": _vector_doc(np.sqrt([2 / 3, 1 / 3, 0.0])),
        "mix": _schur_doc(mix),
        "joint": _schur_doc(joint),
        "pops": _density_doc(np.diag([0.5, 0.3, 0.2])),
    }
    paths = {name: _write(tmp_path / f"{name}.json", doc) for name, doc in paths.items()}
    paths["out"] = str(tmp_path / "out.json")
    paths["absent"] = str(tmp_path / "absent.json")
    paths["bad"] = str(tmp_path / "bad.json")
    return paths


def test_classify_reports_flags(tmp_path, capsys):
    flip = _write(tmp_path / "flip.json", _kraus_doc([np.array([[0, 1], [1, 0]])]))
    code, out, _ = _run(capsys, ["classify", flip])
    assert code == 0
    report = json.loads(out)
    v = report["verdict"]
    assert v["io"] and v["fi"] and v["sio"] and not v["gi"] and not v["tio"]
    assert v["schur"] is None
    assert report["rule"] == "operation-class-membership"


def test_classify_with_hamiltonian(tmp_path, capsys):
    ident = _write(tmp_path / "id.json", _kraus_doc([np.eye(3)]))
    ham = _write(tmp_path / "h.json", {"kind": "hamiltonian", "energies": [0.0, 1.0, 2.5]})
    code, out, _ = _run(capsys, ["classify", ident, "--hamiltonian", ham])
    assert code == 0
    v = json.loads(out)["verdict"]
    assert v["tio"] and v["gi"] and v["fi"]


def test_convert_gi_emit_map_round_trip(tmp_path, capsys):
    rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
    sigma = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
    src = _write(tmp_path / "rho.json", _density_doc(rho))
    dst = _write(tmp_path / "sig.json", _density_doc(sigma))
    code, out, _ = _run(capsys, ["convert", "gi", src, dst, "--emit-map"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is True and verdict["probability"] == 1.0
    # the emitted map must itself be a loadable channel document
    emitted = _write(tmp_path / "map.json", verdict["map"])
    code2, out2, _ = _run(capsys, ["classify", emitted])
    assert code2 == 0
    flags = json.loads(out2)["verdict"]
    assert flags["gi"]


def test_convert_gi_pure_rule(tmp_path, capsys):
    a = _write(tmp_path / "a.json", _vector_doc(np.sqrt([0.5, 0.5])))
    b = _write(tmp_path / "b.json", _vector_doc([np.sqrt(0.5), -np.sqrt(0.5)]))
    code, out, _ = _run(capsys, ["convert", "gi", a, b])
    assert code == 0
    report = json.loads(out)
    assert report["rule"] == "pure-conversion-equal-moduli"
    assert report["verdict"]["possible"] is True


def test_convert_gi_pure_source_out_of_reach(tmp_path, capsys):
    # |sigma_01| = 2e-5 exceeds |psi_0||psi_1| = 1e-6, a bound no unit-diagonal A can beat: the report
    # says False and exits 0
    psi = np.array([np.sqrt(1.0 - 1e-12), 1e-6])
    src = _write(tmp_path / "rho.json", _density_doc(np.outer(psi, psi)))
    dst = _write(tmp_path / "sig.json", _density_doc([[1.0 - 1e-12, 2e-5], [2e-5, 1e-12]]))
    code, out, _ = _run(capsys, ["convert", "gi", src, dst, "--emit-map"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is False and verdict["reason"] == "CompletionInfeasible"


def test_convert_fi_undecided_exit(tmp_path, capsys):
    src = _write(tmp_path / "plus3.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    dst = _write(tmp_path / "rank2.json", _vector_doc(np.sqrt([2 / 3, 1 / 3, 0.0])))
    code, out, _ = _run(capsys, ["--budget", "1", "convert", "fi", src, dst])
    assert code == 4
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is None
    code, out, _ = _run(capsys, ["convert", "fi", src, dst])
    assert code == 0 and json.loads(out)["verdict"]["possible"] is True


@pytest.mark.parametrize("flags", [[], ["--budget", "100"]])
def test_convert_gi_undecided_exit(tmp_path, capsys, flags):
    # no PSD completion exists, so the search gives up at any budget: exit 4 with the library's
    # verdict, which runs on gi_deterministic's own budget when --budget is not given
    rho, sigma = frustrated_cycle(0.9)
    src = _write(tmp_path / "rho.json", _density_doc(rho))
    dst = _write(tmp_path / "sigma.json", _density_doc(sigma))
    code, out, err = _run(capsys, flags + ["convert", "gi", src, dst])
    assert (code, err) == (4, "")
    expected = gi_deterministic(DensityMatrix(rho), DensityMatrix(sigma))
    assert json.loads(out)["verdict"] == cli._verdict_json(expected, emit_map=False)
    assert expected.possible is None and expected.reason.value == "CompletionInfeasible"


@pytest.mark.parametrize("flags, budget", [([], None), (["--budget", "100"], SearchBudget(100))])
@pytest.mark.parametrize(
    "decider, argv", [("gi_deterministic", ["gi", "rho", "sigma"]), ("fi_deterministic_pure", ["fi", "plus3", "rank2"])]
)
def test_convert_passes_the_budget_through(docs, capsys, monkeypatch, flags, budget, decider, argv):
    # the CLI adds no search default of its own: without --budget each decider takes its own
    seen = []
    call = getattr(cli, decider)
    monkeypatch.setattr(cli, decider, lambda src, dst, tol, b: seen.append(b) or call(src, dst, tol, b))
    code, _, _ = _run(capsys, flags + ["convert"] + [docs.get(word, word) for word in argv])
    assert code == 0 and seen == [budget]


def test_convert_fi_on_1100_labels(tmp_path, capsys):
    # a permutation pair of 1,100 labels, decided by the sorted pairing
    rng = np.random.default_rng(1100)
    amps = np.sqrt(rng.dirichlet(np.ones(1100)))
    src = _write(tmp_path / "src.json", _vector_doc(amps))
    dst = _write(tmp_path / "dst.json", _vector_doc(amps[rng.permutation(1100)]))
    code, out, err = _run(capsys, ["convert", "fi", src, dst])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["possible"] is True


def test_convert_fi_impossible_exit(tmp_path, capsys):
    src = _write(tmp_path / "plus3.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    dst = _write(tmp_path / "half.json", _vector_doc(np.sqrt([0.5, 0.5, 0.0])))
    code, out, _ = _run(capsys, ["convert", "fi", src, dst])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is False and verdict["reason"] == "DiagonalMismatch"


def test_prob_sgi_value(tmp_path, capsys):
    chi = _write(tmp_path / "chi.json", _vector_doc([np.sqrt(0.5), 0.5, 0.5]))
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    code, out, _ = _run(capsys, ["prob", "sgi", chi, plus])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert abs(verdict["probability"] - 0.75) < 1e-10
    assert verdict["reason"] is None


def test_prob_sfi_bound(tmp_path, capsys):
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    half = _write(tmp_path / "half.json", _vector_doc(np.sqrt([0.5, 0.5, 0.0])))
    code, out, _ = _run(capsys, ["prob", "sfi", plus, half])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert abs(verdict["lower_bound"] - 2 / 3) < 1e-10
    assert verdict["exact"] is False


def test_extremal_decompose_not_mixed_unitary(tmp_path, capsys):
    # the paper's extremal non-unitary channel at d = 4, a_k = 1/k and b_k = i^k sqrt(1 - 1/k^2)
    k = np.arange(1, 5)
    channel = _write(tmp_path / "k.json", _kraus_doc([np.diag(1 / k), np.diag(1j**k * np.sqrt(1 - 1 / k**2))]))
    code, out, err = _run(capsys, ["extremal", channel, "--decompose"])
    assert (code, err) == (0, "")
    verdict = json.loads(out)["verdict"]
    assert (verdict["extremal"], verdict["decomposition"]) == (True, "not_mixed_unitary")


def test_extremal_decompose_budget_exhausted(docs, capsys, monkeypatch):
    # a decomposition that gives up is reported, with its detail, under exit 4
    monkeypatch.setattr(cli, "mixed_unitary_decompose", _budget_exhausted)
    code, out, err = _run(capsys, ["extremal", docs["mix"], "--decompose"])
    assert (code, err) == (4, "")
    verdict = json.loads(out)["verdict"]
    assert (verdict["decomposition"], verdict["detail"]) == ("budget_exhausted", "search gave up")


def test_extremal_decompose_mixture(tmp_path, capsys):
    a = np.array(
        [
            [1.0, 0.6, 0.6],
            [0.6, 1.0, 0.6],
            [0.6, 0.6, 1.0],
        ]
    )
    doc = _write(tmp_path / "mix.json", _schur_doc(a))
    code, out, _ = _run(capsys, ["extremal", doc, "--decompose"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["extremal"] is False
    terms = verdict["decomposition"]
    assert isinstance(terms, list) and len(terms) >= 2
    recon = np.zeros((3, 3), dtype=complex)
    for term in terms:
        u = np.exp(1j * np.array(term["phases"]))
        recon += term["weight"] * np.outer(u, np.conj(u))
    assert np.max(np.abs(recon - a)) < 1e-8


def test_reduce_writes_reloadable_schur(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    gram = g @ g.conj().T
    scale = np.sqrt(np.real(np.diag(gram)))
    joint = gram / np.outer(scale, scale)
    np.fill_diagonal(joint, 1.0)
    sigma = np.diag([0.5, 0.3, 0.2]).astype(complex)
    jdoc = _write(tmp_path / "joint.json", _schur_doc(joint))
    sdoc = _write(tmp_path / "sigma.json", _density_doc(sigma))
    out_path = tmp_path / "reduced.json"
    code, out, _ = _run(capsys, ["reduce", jdoc, sdoc, "--out", str(out_path)])
    assert code == 0
    code2, out2, _ = _run(capsys, ["classify", str(out_path)])
    assert code2 == 0
    flags = json.loads(out2)["verdict"]
    assert flags["gi"]


def test_exit_parse_on_missing_or_malformed(tmp_path, capsys):
    code, _, err = _run(capsys, ["classify", str(tmp_path / "absent.json")])
    assert code == 2 and "error" in json.loads(err)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(capsys, ["classify", str(bad)])
    assert code == 2
    unknown = _write(tmp_path / "odd.json", {"kind": "mystery", "data": []})
    code, _, _ = _run(capsys, ["classify", unknown])
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        b'{"kind": "state_vector", "data": [["\xff", 0], [1, 0]]}',
        b'{"kind": "state_vector", "data": [[' + b"1" * 4301 + b", 0], [1, 0]]}",
        b"[" * 200_000,
    ],
    ids=["not_utf8", "long_int", "deep_nesting"],
)
def test_exit_parse_on_undecodable_document(tmp_path, capsys, text):
    # bytes that are not UTF-8, an integer past int's digit limit and nesting past the recursion
    # limit are malformed JSON like bad syntax: a parse error (2), not an invalid input (3) or a crash
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, out, err = _run(capsys, ["prob", "sgi", str(bad), plus])
    assert code == 2 and out == ""
    assert json.loads(err)["error"].startswith(f"malformed JSON in {bad}: ")


# a malformed document, the command that reads it as "bad", and a fragment of the error message
MALFORMED = [
    ([1, 2], ["classify", "bad"], "top-level value must be an object"),
    ({"kind": "density", "re": [[1.0]]}, ["convert", "gi", "bad", "rho"], "missing 're' or 'im'"),
    ({"kind": "density", "re": [1.0, 0.0], "im": [1.0, 0.0]}, ["convert", "gi", "bad", "rho"], "two-dimensional"),
    ({"kind": "density", "re": [], "im": []}, ["convert", "gi", "bad", "rho"], "two-dimensional"),
    ({"kind": "channel_schur", "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0]]}, ["extremal", "bad"], "numeric"),
    ({"kind": "channel_schur", "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0]]}, ["extremal", "bad"], "shapes differ"),
    ({"kind": "state_vector", "data": []}, ["prob", "sgi", "bad", "plus"], "nonempty 'data' list"),
    ({"kind": "state_vector", "data": "0.6"}, ["prob", "sgi", "bad", "plus"], "nonempty 'data' list"),
    ({"kind": "state_vector", "data": [[1.0, 0.0, 0.0]]}, ["prob", "sgi", "bad", "plus"], "[re, im] pair"),
    ({"kind": "channel_kraus", "operators": []}, ["classify", "bad"], "nonempty 'operators' list"),
    ({"kind": "channel_kraus", "operators": {"re": [[1.0]]}}, ["classify", "bad"], "nonempty 'operators' list"),
    ({"kind": "channel_kraus", "operators": [[[1.0]]]}, ["classify", "bad"], "operator 0 must be an object"),
    ({"kind": "hamiltonian", "energies": []}, ["classify", "flip", "--hamiltonian", "bad"], "nonempty 'energies' list"),
    ({"kind": "hamiltonian", "energies": 1.0}, ["classify", "flip", "--hamiltonian", "bad"], "nonempty 'energies' list"),
    # an integer of 400 digits is valid JSON but beyond the float range
    ({"kind": "state_vector", "data": [[10**400, 0], [1, 0]]}, ["prob", "sgi", "bad", "plus"], "expected a number"),
]


@pytest.mark.parametrize("doc, command, message", MALFORMED)
def test_exit_parse_on_malformed_fields(docs, capsys, doc, command, message):
    with open(docs["bad"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    code, out, err = _run(capsys, [docs.get(word, word) for word in command])
    assert (code, out) == (2, "")
    assert message in json.loads(err)["error"]


def test_exit_parse_on_unwritable_out(docs, capsys):
    out_path = docs["out"] + "/reduced.json"  # below a file that does not exist
    code, out, err = _run(capsys, ["reduce", docs["joint"], docs["pops"], "--out", out_path])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"cannot write {out_path}: ")


def test_exit_parse_on_non_numeric_amplitude(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"kind": "state_vector", "data": [["a", 0], [1, 0]]})
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, _, err = _run(capsys, ["prob", "sgi", bad, plus])
    assert code == 2 and "error" in json.loads(err)


def test_exit_parse_on_null_amplitude(tmp_path, capsys):
    bad = _write(tmp_path / "bad.json", {"kind": "state_vector", "data": [[None, 0], [1, 0]]})
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, _, err = _run(capsys, ["prob", "sgi", bad, plus])
    assert code == 2 and "error" in json.loads(err)


def test_exit_parse_on_numeric_strings(tmp_path, capsys):
    # entries are JSON numbers in every document kind, never numeric strings
    bad = _write(tmp_path / "bad.json", {"kind": "state_vector", "data": [["0.6", 0], ["0.8", 0]]})
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, _, err = _run(capsys, ["prob", "sgi", bad, plus])
    assert code == 2 and "error" in json.loads(err)
    ident = _write(tmp_path / "id.json", _kraus_doc([np.eye(2)]))
    ham = _write(tmp_path / "h.json", {"kind": "hamiltonian", "energies": [0, "1"]})
    code, _, err = _run(capsys, ["classify", ident, "--hamiltonian", ham])
    assert code == 2 and "error" in json.loads(err)


def test_exit_parse_on_non_numeric_energy(tmp_path, capsys):
    ident = _write(tmp_path / "id.json", _kraus_doc([np.eye(2)]))
    ham = _write(tmp_path / "h.json", {"kind": "hamiltonian", "energies": [0, [1]]})
    code, _, err = _run(capsys, ["classify", ident, "--hamiltonian", ham])
    assert code == 2 and "error" in json.loads(err)


def test_exit_invalid_on_overflowing_energy_span(tmp_path, capsys):
    # every energy is a finite number, so the document parses; the span max - min overflows,
    # which Hamiltonian rejects (3), where tio used to be read from infinite gaps
    ident = _write(tmp_path / "id.json", _kraus_doc([np.eye(3)]))
    ham = _write(tmp_path / "h.json", {"kind": "hamiltonian", "energies": [1e308, -1e308, 0]})
    code, out, err = _run(capsys, ["classify", ident, "--hamiltonian", ham])
    assert code == 3 and out == "" and "finite range" in json.loads(err)["error"]


@pytest.mark.parametrize("entry", [None, "a", True])
def test_exit_parse_on_bad_density_entry(tmp_path, capsys, entry):
    doc = _density_doc(np.eye(2) / 2)
    doc["re"][0][1] = entry
    bad = _write(tmp_path / "rho.json", doc)
    code, _, err = _run(capsys, ["convert", "gi", bad, bad])
    assert code == 2 and "error" in json.loads(err)


def test_exit_parse_on_null_schur_entry(tmp_path, capsys):
    doc = _schur_doc(np.eye(2))
    doc["im"][1][0] = None
    bad = _write(tmp_path / "a.json", doc)
    code, _, err = _run(capsys, ["classify", bad])
    assert code == 2 and "error" in json.loads(err)


def test_exit_parse_on_null_kraus_entry(tmp_path, capsys):
    doc = _kraus_doc([np.eye(2)])
    doc["operators"][0]["re"][0][0] = None
    bad = _write(tmp_path / "k.json", doc)
    code, _, err = _run(capsys, ["classify", bad])
    assert code == 2 and "error" in json.loads(err)


def test_exit_invalid_on_bad_inputs(tmp_path, capsys):
    short = _write(tmp_path / "short.json", _vector_doc([0.5, 0.5]))
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, _, err = _run(capsys, ["prob", "sgi", short, plus])
    assert code == 3 and "error" in json.loads(err)
    rho = _write(tmp_path / "rho.json", _density_doc(np.eye(2) / 2))
    code, _, _ = _run(capsys, ["convert", "fi", rho, plus])
    assert code == 3
    code, _, _ = _run(capsys, ["classify", rho])
    assert code == 3


@pytest.mark.parametrize(
    "argv, wrong, kind, accepted",
    [
        (["classify", "rho"], "rho", "density", "channel_kraus or channel_schur"),
        (["classify", "flip", "--hamiltonian", "mix"], "mix", "channel_schur", "hamiltonian"),
        (["convert", "gi", "flip", "rho"], "flip", "channel_kraus", "state_vector or density"),
        (["convert", "fi", "plus", "rho"], "rho", "density", "state_vector"),
        (["prob", "sfi", "ham", "plus"], "ham", "hamiltonian", "state_vector"),
        (["extremal", "plus"], "plus", "state_vector", "channel_kraus or channel_schur"),
        (["reduce", "flip", "pops"], "flip", "channel_kraus", "channel_schur"),
        (["reduce", "joint", "mix"], "mix", "channel_schur", "state_vector or density"),
    ],
)
def test_exit_invalid_on_wrong_kind(docs, capsys, argv, wrong, kind, accepted):
    # a valid document of a kind the argument does not take: the error names the kinds it takes
    code, out, err = _run(capsys, [docs.get(word, word) for word in argv])
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": f"{docs[wrong]}: expected a {accepted} document, got {kind}"}


@pytest.mark.parametrize(
    "ops, message",
    [
        ([np.eye(2), np.zeros((3, 3))], "all Kraus operators must be square with equal dimension"),
        ([np.ones((2, 3)) / 3], "all Kraus operators must be square with equal dimension"),
        ([np.eye(2), np.eye(2)], "Kraus operators exceed trace preservation (sum K^dag K > 1)"),
    ],
    ids=["ragged", "non_square", "excess"],
)
@pytest.mark.parametrize("command", [["classify"], ["extremal", "--decompose"]])
def test_exit_invalid_on_malformed_kraus(tmp_path, capsys, ops, message, command):
    bad = _write(tmp_path / "k.json", _kraus_doc(ops))
    code, out, err = _run(capsys, command + [bad])
    assert (code, out) == (3, "")
    assert err == json.dumps({"error": message}) + "\n"


def test_tolerance_reaches_pure_state_validation(tmp_path, capsys):
    # squared norm 1 + 1e-8 lies within --tol 1e-6 * d but not within the default 1e-9 * d
    loose = _write(tmp_path / "loose.json", _vector_doc(np.sqrt([0.5, 0.25, 0.25]) * np.sqrt(1.0 + 1e-8)))
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    code, out, _ = _run(capsys, ["--tol", "1e-6", "prob", "sgi", loose, plus])
    assert code == 0
    assert abs(json.loads(out)["verdict"]["probability"] - 0.75) <= 1e-6
    code, _, _ = _run(capsys, ["prob", "sgi", loose, plus])
    assert code == 3


def test_state_vector_validated_by_one_rule(tmp_path, capsys):
    # squared norm 1 + 5e-11: a state_vector read as a pure state and as a density
    # passes or fails together at each --tol
    amps = np.sqrt([0.5, 0.25, 0.25]) * np.sqrt(1.0 + 5e-11)
    vec = _write(tmp_path / "s.json", _vector_doc(amps))
    rho = _write(tmp_path / "rho.json", _density_doc(np.outer(amps, amps) / (1.0 + 5e-11)))
    for tol, expected in (("1e-12", 3), ("1e-9", 0)):
        codes = {_run(capsys, ["--tol", tol, "convert", "gi", vec, target])[0] for target in (vec, rho)}
        assert codes == {expected}


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf", "-inf", "tiny", "1", "2"])
def test_exit_parse_on_bad_tolerance(tmp_path, capsys, value):
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, out, err = _run(capsys, [f"--tol={value}", "prob", "sgi", plus, plus])
    assert code == 2 and out == "" and "--tol" in err


@pytest.mark.parametrize("flag, value", [("--budget", "0"), ("--budget", "-3"), ("--seed", "-1")])
@pytest.mark.parametrize("command", [["prob", "sgi", "plus", "plus"], ["extremal", "mix", "--decompose"]])
def test_exit_parse_on_bad_budget_or_seed(docs, capsys, flag, value, command):
    code, out, err = _run(capsys, [flag, value] + [docs.get(word, word) for word in command])
    assert code == 2 and out == "" and flag in err


# a document with one entry left as a raw JSON token, and a command that reads it
NON_FINITE_CASES = [
    ('{"kind": "state_vector", "data": [[TOKEN, 0], [1, 0]]}', ["prob", "sgi", "bad", "plus"]),
    ('{"kind": "channel_kraus", "operators": [{"re": [[1, 0], [0, TOKEN]], "im": [[0, 0], [0, 0]]}]}', ["classify", "bad"]),
    ('{"kind": "hamiltonian", "energies": [0, TOKEN]}', ["classify", "flip", "--hamiltonian", "bad"]),
]


@pytest.mark.parametrize("token", ["1e999", "-1e999", "NaN", "Infinity"])
@pytest.mark.parametrize("text, command", NON_FINITE_CASES, ids=["state_vector", "channel_kraus", "hamiltonian"])
def test_exit_parse_on_non_finite_number(docs, capsys, text, command, token):
    # json reads these tokens as inf or nan: malformed entries, like null or a string
    with open(docs["bad"], "w", encoding="utf-8") as fh:
        fh.write(text.replace("TOKEN", token))
    code, out, err = _run(capsys, [docs.get(word, word) for word in command])
    assert code == 2 and out == "" and "expected a number" in json.loads(err)["error"]


def test_deterministic_output(tmp_path, capsys):
    chi = _write(tmp_path / "chi.json", _vector_doc([np.sqrt(0.5), 0.5, 0.5]))
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    _, first, _ = _run(capsys, ["prob", "sgi", chi, plus])
    _, second, _ = _run(capsys, ["prob", "sgi", chi, plus])
    assert first == second


def test_convert_gi_completion_reaches_schur_matrix(tmp_path, capsys):
    # rho_02 = 0 leaves A_02 free and both pinned 2 x 2 blocks are PSD: the completion stops
    # on the PSD rule that SchurMatrix checks, so the CLI budget yields a witness, not exit 3
    u = np.array([0.27, 0.39, 0.0]) / np.linalg.norm([0.27, 0.39, 0.0])
    v = np.array([0.0, 0.84, 0.67]) / np.linalg.norm([0.0, 0.84, 0.67])
    rho = 0.3 * np.outer(u, u) + 0.7 * np.outer(v, v)
    sigma = np.array([[1.0, 0.72, 0.0], [0.72, 1.0, 0.74], [0.0, 0.74, 1.0]]) * rho
    src = _write(tmp_path / "rho.json", _density_doc(rho))
    dst = _write(tmp_path / "sigma.json", _density_doc(sigma))
    code, out, err = _run(capsys, ["convert", "gi", src, dst, "--emit-map"])
    assert (code, err) == (0, "")
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is True
    ops = [np.array(k["re"]) + 1j * np.array(k["im"]) for k in verdict["map"]["operators"]]
    assert np.linalg.norm(sum(k @ rho @ k.conj().T for k in ops) - sigma) <= 1e-7


def _possible(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    return json.loads(out)["verdict"]["possible"]


@pytest.mark.parametrize("kind", ["state_vector", "density"])
def test_tol_sets_the_gi_population_test(tmp_path, capsys, kind):
    def doc(pops):
        pops = np.asarray(pops)
        return _vector_doc(np.sqrt(pops)) if kind == "state_vector" else _density_doc(np.diag(pops))

    half = _write(tmp_path / "half.json", doc([0.5, 0.5]))
    near = _write(tmp_path / "near.json", doc([0.5 + 1e-7, 0.5 - 1e-7]))
    assert _possible(capsys, ["--tol", "1e-6", "convert", "gi", near, half]) is True
    assert _possible(capsys, ["convert", "gi", near, half]) is False
    nearer = _write(tmp_path / "nearer.json", doc([0.5 + 1e-10, 0.5 - 1e-10]))
    assert _possible(capsys, ["--tol", "1e-12", "convert", "gi", nearer, half]) is False
    assert _possible(capsys, ["convert", "gi", nearer, half]) is True


def test_tol_sets_the_fi_coarse_graining(tmp_path, capsys):
    src = _write(tmp_path / "src.json", _vector_doc(np.sqrt([0.3, 0.2 + 1e-7, 0.5 - 1e-7])))
    dst = _write(tmp_path / "dst.json", _vector_doc(np.sqrt([0.5, 0.5, 0.0])))
    assert _possible(capsys, ["--tol", "1e-6", "convert", "fi", src, dst]) is True
    assert _possible(capsys, ["convert", "fi", src, dst]) is False


def test_tol_sets_the_extremality_rank_cut(tmp_path, capsys):
    # A's second eigenvalue is about 7.5e-9 of its largest, 4: kept at the default
    # eps, cut at 1e-6
    n = np.sqrt([1.0, 1.0 + 1e-8, 1.0, 1.0])
    channel = _write(tmp_path / "k.json", _kraus_doc([np.diag(np.ones(4) / n), np.diag([0.0, 1e-4, 0.0, 0.0] / n)]))
    for tol, rank in ((["--tol", "1e-6"], 1), ([], 4)):
        code, out, _ = _run(capsys, tol + ["extremal", channel])
        assert code == 0
        assert json.loads(out)["verdict"]["rank_required"] == rank


def test_library_tolerance_sets_the_rank_cut_the_cli_does(tmp_path, capsys):
    # Tolerance(1e-6) is what --tol 1e-6 builds: on the document above, gi_extremality under it
    # keeps the rank the CLI reports
    n = np.sqrt([1.0, 1.0 + 1e-8, 1.0, 1.0])
    ops = [np.diag(np.ones(4) / n), np.diag([0.0, 1e-4, 0.0, 0.0] / n)]
    channel = _write(tmp_path / "k.json", _kraus_doc(ops))
    for eps, rank in ((1e-6, 1), (1e-9, 4)):
        code, out, _ = _run(capsys, ["--tol", repr(eps), "extremal", channel])
        assert code == 0 and json.loads(out)["verdict"]["rank_required"] == rank
        assert gi_extremality(KrausMap(ops, Tolerance(eps)), Tolerance(eps)).rank_required == rank


def test_extremal_on_a_zero_schur_matrix_under_a_loose_tol(tmp_path, capsys):
    # the 2 x 2 zero channel_schur document is gi under --tol 0.5 (eps * d >= 1 allows A_ii = 0):
    # extremal reports rank 0 of 1, and --decompose rebuilds S A S, the identity
    zero = _write(tmp_path / "zero.json", _schur_doc(np.zeros((2, 2))))
    code, out, err = _run(capsys, ["--tol", "0.5", "extremal", zero])
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == {"extremal": False, "rank_found": 0, "rank_required": 1}
    code, out, err = _run(capsys, ["--tol", "0.5", "extremal", "--decompose", zero])
    assert code == 0 and err == ""
    terms = json.loads(out)["verdict"]["decomposition"]
    weights = np.array([term["weight"] for term in terms])
    u = np.exp(1j * np.array([term["phases"] for term in terms]))
    assert abs(weights.sum() - 1.0) <= 1e-9
    assert np.linalg.norm((u.T * weights) @ u.conj() - np.eye(2)) <= 1e-8


def test_negative_zero_kraus_document_reports_as_its_positive_twin(tmp_path, capsys, monkeypatch):
    # a channel_kraus document with -0.0 (re and im) off the diagonal is exactly diagonal: classify and
    # extremal --decompose print the same bytes on it as on its 0.0 twin, written under the same name
    diags = [np.full(3, np.sqrt(0.6)), np.sqrt(0.4) * np.array([1, 1j, -1])]
    commands = (["classify", "mix3.json"], ["extremal", "--decompose", "mix3.json"])
    runs = []
    for folder, zero in (("negative", -0.0), ("positive", 0.0)):
        ops = np.full((2, 3, 3), complex(zero, zero))
        for k, x in zip(ops, diags):
            np.fill_diagonal(k, x)
        (tmp_path / folder).mkdir()
        _write(tmp_path / folder / "mix3.json", _kraus_doc(ops))
        monkeypatch.chdir(tmp_path / folder)
        runs.append([_run(capsys, argv) for argv in commands])
    assert "-0.0" in (tmp_path / "negative" / "mix3.json").read_text()
    assert runs[0] == runs[1]
    assert all(code == 0 and err == "" for code, _, err in runs[0])
    assert json.loads(runs[0][0][1])["verdict"]["gi"] is True


def test_trace_preserving_kraus_document_within_eps_d_is_gi(tmp_path, capsys):
    # sqrt(1 + 1.5e-9) I_3: sum K^dag K is trace preserving within eps * d, and A_ii = 1 + 1.5e-9 lies in
    # SchurMatrix's diagonal window [-eps * d, 1 + eps * d], so classify reports sgi and gi
    band = _write(tmp_path / "band3.json", _kraus_doc([np.sqrt(1.0 + 1.5e-9) * np.eye(3)]))
    code, out, err = _run(capsys, ["classify", band])
    verdict = json.loads(out)["verdict"]
    assert code == 0 and (verdict["sgi"], verdict["gi"]) == (True, True)
    code, out, err = _run(capsys, ["extremal", band])
    assert code == 0 and json.loads(out)["verdict"]["rank_required"] == 1


@pytest.mark.parametrize("command", [["convert", "fi"], ["prob", "sgi"], ["prob", "sfi"]])
def test_pure_deciders_reject_a_state_with_no_amplitude_above_tol(tmp_path, capsys, command):
    # every amplitude of the uniform state at d = 16 is 0.25, below --tol 0.3: its support is empty,
    # a document that does not fit the command (3), named in the error
    uniform = _write(tmp_path / "uniform.json", _vector_doc(np.full(16, 0.25)))
    code, out, err = _run(capsys, ["--tol", "0.3", *command, uniform, uniform])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "the source state has no amplitude above eps = 0.3"
    assert _run(capsys, [*command, uniform, uniform])[0] == 0


CONVERSION = {"possible", "probability", "reason"}
FLAGS = {"io", "gi", "sgi", "fi", "sio", "mio", "dio", "tio", "schur"}
EXTREMALITY = {"extremal", "rank_found", "rank_required"}

# argv (document names resolved through `docs`), command, rule, verdict keys
REPORTS = [
    (["classify", "flip"], "classify", "operation-class-membership", FLAGS),
    (["classify", "flip", "--hamiltonian", "ham"], "classify", "operation-class-membership", FLAGS),
    (["convert", "gi", "plus", "minus"], "convert gi", "pure-conversion-equal-moduli", CONVERSION),
    (["convert", "gi", "plus", "minus", "--emit-map"], "convert gi", "pure-conversion-equal-moduli", CONVERSION | {"map"}),
    (["convert", "gi", "rho", "sigma"], "convert gi", "population-preserving-completion", CONVERSION),
    (["convert", "gi", "rho", "sigma", "--emit-map"], "convert gi", "population-preserving-completion", CONVERSION | {"map"}),
    (["convert", "fi", "plus3", "rank2"], "convert fi", "rank-monotone-conversion", CONVERSION),
    (["prob", "sgi", "chi", "plus3"], "prob sgi", "min-population-ratio", {"probability", "reason"}),
    (["prob", "sfi", "plus3", "half"], "prob sfi", "permuted-min-population-ratio", {"lower_bound", "exact"}),
    (["extremal", "mix"], "extremal", "independent-cross-term-vectors", EXTREMALITY),
    (["extremal", "mix", "--decompose"], "extremal", "independent-cross-term-vectors", EXTREMALITY | {"decomposition"}),
    (["reduce", "joint", "pops"], "reduce", "fixed-second-factor-reduction", {"reduced"}),
    (["reduce", "joint", "pops", "--out", "out"], "reduce", "fixed-second-factor-reduction", {"reduced"}),
]


@pytest.mark.parametrize("flags, seed, tol", [([], 0, 1e-9), (["--seed", "5", "--tol", "1e-8"], 5, 1e-8)])
@pytest.mark.parametrize("argv, command, rule, keys", REPORTS)
def test_report_shape(docs, capsys, argv, command, rule, keys, flags, seed, tol):
    argv = [docs.get(word, word) for word in argv]
    code, out, err = _run(capsys, flags + argv)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert set(report) == {"command", "rule", "inputs", "seed", "tolerance", "verdict"}
    assert report["command"] == command and report["rule"] == rule
    assert report["seed"] == seed and report["tolerance"] == {"abs_eps": tol, "rel_eps": tol}
    assert set(report["verdict"]) == keys
    assert report["inputs"] == [word for word in argv if word in docs.values() and word != docs["out"]]
    if "--out" in argv:
        with open(docs["out"], encoding="utf-8") as fh:
            assert json.load(fh) == report["verdict"]["reduced"]


def _budget_exhausted(*args, **kwargs):
    raise BudgetExhaustedError("search gave up")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "absent"], 2),
        (["classify", "rho"], 3),
        (["classify", "flip"], 4),
    ],
)
def test_error_report_shape(docs, capsys, monkeypatch, argv, code):
    # the deciders report a search that gave up inside the verdict; a stand-in that
    # raises reaches the error path that maps BudgetExhaustedError to exit 4
    monkeypatch.setattr(cli, "classify_channel", _budget_exhausted)
    got, out, err = _run(capsys, [docs.get(word, word) for word in argv])
    assert got == code and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert set(json.loads(err)) == {"error"}


def test_channel_schur_decompose_takes_one_eigh_of_a(tmp_path, capsys, monkeypatch):
    # a channel_schur document is read as a SchurMatrix and is the channel: classification,
    # extremality and the first peel all read the eigenpairs of its PSD check, so an order-32
    # eigh runs once before the first peel, and the SVDs are one cross-term rank test of the n^2 x d
    # products, kept on A and read again by the decomposition, and the first null direction's of the
    # d x r^2 constraint matrix; none is of a Kraus factor. The rank-2 mixture is split in one step
    # from that direction's 2 x 2 eigh, with no search
    rng = np.random.default_rng(32)
    u = np.exp(2j * np.pi * rng.random((2, 32)))
    a = 0.6 * np.outer(u[0], np.conj(u[0])) + 0.4 * np.outer(u[1], np.conj(u[1]))
    np.fill_diagonal(a, 1.0)
    doc = _write(tmp_path / "mix32.json", _schur_doc(a))
    calls, at_first_split = [], []
    eigh, svd, simplex_split = np.linalg.eigh, np.linalg.svd, classify._simplex_split

    def counted(name, f):
        def call(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            return f(m, *args, **kwargs)

        return call

    def first_split(*args):
        at_first_split.append(list(calls))
        return simplex_split(*args)

    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(classify, "_simplex_split", first_split)
    monkeypatch.setattr(classify, "_unimodular_in_range", no_search)
    code, out, _ = _run(capsys, ["extremal", doc, "--decompose"])
    assert code == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["extremal"] is False and len(verdict["decomposition"]) == 2
    assert at_first_split[0] == [("eigh", (32, 32)), ("svd", (4, 32)), ("svd", (32, 4)), ("eigh", (2, 2))]
    assert calls == at_first_split[0]
