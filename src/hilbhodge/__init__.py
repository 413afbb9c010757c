"""Exact generating-series computations for Hilbert schemes of points.

Given the twisted Hodge numbers h^{p,q}(S, L^k) of a compact complex
surface, this package computes -- in exact integer arithmetic and along
two independent evaluation routes each -- the twisted Hodge numbers,
Hodge diamonds, refined chi_y genera, Betti numbers, Hochschild homology
dimensions and deformation-theoretic cohomology dimensions of the
Hilbert schemes (Douady spaces) Hilb^n S and of the nested spaces
Hilb^{n,n+1} S.

The package namespace holds the calls of the README's library example,
their result types and the error types; every other name is imported
from its submodule (``hilbhodge.engine``, ``hilbhodge.series``,
``hilbhodge.surfaces``, ``hilbhodge.partitions``, ``hilbhodge.oracles``).
"""

from .engine import (
    EngineError,
    HodgePolynomial,
    InsufficientPowers,
    IntegralityFailure,
    hilb_coefficient,
    hilb_series,
    hilb_via_partitions,
)
from .series import SeriesError, TriSeries
from .surfaces import SurfaceDataError, SurfaceDataset, preset

__version__ = "0.1.0"
