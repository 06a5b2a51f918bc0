import json

import numpy as np
import pytest

from cohkit.cli import main


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


def test_convert_fi_undecided_exit(tmp_path, capsys):
    src = _write(tmp_path / "plus3.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    dst = _write(tmp_path / "rank2.json", _vector_doc(np.sqrt([2 / 3, 1 / 3, 0.0])))
    code, out, _ = _run(capsys, ["--budget", "1", "convert", "fi", src, dst])
    assert code == 4
    verdict = json.loads(out)["verdict"]
    assert verdict["possible"] is None
    code, out, _ = _run(capsys, ["convert", "fi", src, dst])
    assert code == 0 and json.loads(out)["verdict"]["possible"] is True


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


@pytest.mark.parametrize("value", ["0", "-1e-9", "nan", "inf", "-inf", "tiny"])
def test_exit_parse_on_bad_tolerance(tmp_path, capsys, value):
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([0.5, 0.5])))
    code, out, err = _run(capsys, [f"--tol={value}", "prob", "sgi", plus, plus])
    assert code == 2 and out == "" and "--tol" in err


def test_deterministic_output(tmp_path, capsys):
    chi = _write(tmp_path / "chi.json", _vector_doc([np.sqrt(0.5), 0.5, 0.5]))
    plus = _write(tmp_path / "plus.json", _vector_doc(np.sqrt([1 / 3, 1 / 3, 1 / 3])))
    _, first, _ = _run(capsys, ["prob", "sgi", chi, plus])
    _, second, _ = _run(capsys, ["prob", "sgi", chi, plus])
    assert first == second
