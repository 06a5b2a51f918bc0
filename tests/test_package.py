import dataclasses
import re
import tokenize
from pathlib import Path

import numpy as np
import pytest

import cohkit
from cohkit import channels, classify, convert, linalg, oracle, states
from cohkit import (
    DensityMatrix,
    Hamiltonian,
    KrausMap,
    PureState,
    SchurMatrix,
    classify_channel,
    gi_extremality,
    plus_state,
    schur_map,
    sgi_optimal_probability,
)
from cohkit.linalg import is_psd

from exhibits import extremal_nonunitary_gi_kraus

LAYERS = (states, channels, classify, convert, oracle)


def test_public_names_declared_once_in_their_modules():
    expected = ["DEFAULT_TOL", "Tolerance"] + [name for layer in LAYERS for name in layer.__all__]
    assert cohkit.__all__ == expected
    assert len(set(cohkit.__all__)) == len(cohkit.__all__)
    assert cohkit.DEFAULT_TOL is cohkit.linalg.DEFAULT_TOL
    assert cohkit.Tolerance is cohkit.linalg.Tolerance
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(cohkit, name) is getattr(layer, name)


def test_oracles_and_exhibits_are_test_code():
    # the brute-force oracles and the paper's exhibits decide nothing, so they live in tests/
    moved = [
        "search_fi_map",
        "search_cr",
        "monte_carlo_protocol",
        "extremal_nonunitary_gi_kraus",
        "pio_witness_channel",
        "pio_pattern_gap",
        "ActivationDemo",
        "build_fi_rank2_map",
        "fi_activation_demo",
    ]
    assert [name for name in moved if hasattr(cohkit, name)] == []
    assert oracle.__all__ == ["SearchBudget", "FeasibilityResult", "psd_complete", "search_sgi_probability"]


def test_unused_helpers_are_gone_and_references_are_test_code():
    # helpers that answer none of the paper's questions, and numpy one-liners and fixtures that only
    # tests called, are deleted; the entropies, the trace norm and majorization, which tests measure
    # answers with, live in tests/oracles.py
    deleted = [
        "CoherenceSet",
        "coherence_set",
        "coherence_rank",
        "dephase",
        "continuity_bound",
        "binary_entropy",
        "Permutation",
        "permutation_unitary",
        "tensor_channels",
        "fi_erase",
        "schur_product",
        "tensor",
        "partial_trace_second",
        "identity_channel",
        "dephasing_channel",
        "transform_representation",
        "fi_max_mixed_reachable",
    ]
    modules = (cohkit, linalg) + LAYERS
    assert [(m.__name__, name) for m in modules for name in deleted if hasattr(m, name)] == []
    moved = ["relative_entropy", "von_neumann_entropy", "trace_norm", "majorizes"]
    assert [name for name in moved if name in linalg.__all__ + states.__all__ + cohkit.__all__] == []


def test_thresholds_live_in_linalg():
    # every tolerance comes from a Tolerance and every round-off guard is a named
    # constant of linalg, so no other module writes a literal like 1e-9 in its code
    found = []
    for path in sorted(Path(cohkit.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        with tokenize.open(path) as fh:
            for tok in tokenize.generate_tokens(fh.readline):
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-\d", tok.string):
                    found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == []


def test_kraus_tensor_stacked_in_channels_only():
    # KrausMap holds the stacked (n, d, d) tensor every layer computes on, so only channels
    # turns operator lists into it
    found = []
    for path in sorted(Path(cohkit.__file__).parent.glob("*.py")):
        if path.name != "channels.py":
            lines = path.read_text(encoding="utf-8").splitlines()
            found += [f"{path.name}:{n}" for n, line in enumerate(lines, 1) if "np.stack(" in line]
    assert found == []


def test_validated_records_compare_by_identity():
    # the records hold arrays, so `==` and `hash` go by identity instead of raising on an array truth value
    def build():
        return [
            PureState(np.array([1.0, 0.0])),
            DensityMatrix(np.eye(2) / 2),
            KrausMap([np.eye(2)]),
            SchurMatrix(np.eye(2)),
        ]

    for record, twin in zip(build(), build()):
        assert record == record and record != twin
        assert hash(record) == hash(record)
        assert record in [twin, record] and record not in [twin]
        assert len({record, twin, record}) == 2
    verdict = sgi_optimal_probability(PureState(np.array([0.8, 0.6])), plus_state(2))
    assert verdict == dataclasses.replace(verdict)
    assert verdict != sgi_optimal_probability(PureState(np.array([0.8, 0.6])), plus_state(2))
    report = classify_channel(schur_map(SchurMatrix(np.eye(2))))
    assert report == dataclasses.replace(report)
    assert report != classify_channel(schur_map(SchurMatrix(np.eye(2))))
    witness = gi_extremality(extremal_nonunitary_gi_kraus(4))
    assert witness.witness_vectors is not None
    assert witness == witness and witness != gi_extremality(extremal_nonunitary_gi_kraus(4))
    assert len({witness, witness}) == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityMatrix(np.zeros((0, 0))),
        lambda: SchurMatrix(np.zeros((0, 0))),
        lambda: is_psd(np.zeros((0, 0))),
        lambda: KrausMap(np.zeros((1, 0, 0))),
        lambda: PureState([]),
        lambda: Hamiltonian(()),
    ],
    ids=["density", "schur", "is_psd", "kraus", "pure", "hamiltonian"],
)
def test_empty_inputs_fail_the_input_contract(build):
    with pytest.raises(ValueError):
        build()
