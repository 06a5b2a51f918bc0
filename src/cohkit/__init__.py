"""Toolkit for basis coherence under Schur-type and fully incoherent channels.

The package decides which operation classes a channel belongs to, whether
states convert into each other under those classes, with what probability,
and how the answers behave under composition, reduction, and mixing.

Each public name is declared once, in the `__all__` of its layer module.
"""

from . import channels, classify, convert, oracle, states
from .linalg import DEFAULT_TOL, Tolerance
from .states import *  # noqa: F401,F403
from .channels import *  # noqa: F401,F403
from .classify import *  # noqa: F401,F403
from .convert import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["DEFAULT_TOL", "Tolerance"] + [
    name for layer in (states, channels, classify, convert, oracle) for name in layer.__all__
]
