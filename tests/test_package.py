import cohkit
from cohkit import channels, classify, convert, oracle, states

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
