"""Desk-scale numerics for double-band sequence transforms.

The package evaluates, at finite truncations, the objects attached to a
double-band triangular operator on sequence spaces: the forward/inverse
transforms and their variable-exponent paranorms, companion matrices and
dual-set condition ladders, mapping-class condition reports, and planar core
regions of bounded sequences together with inclusion tests between them.
"""

from . import acceptance, band_ops, cores, duals, generators, matclass, verdicts
from .types import BandSystem, ExponentSeq, FiniteSeq

__all__ = [
    "BandSystem",
    "ExponentSeq",
    "FiniteSeq",
    "acceptance",
    "band_ops",
    "cores",
    "duals",
    "generators",
    "matclass",
    "verdicts",
]

__version__ = "0.1.0"
