"""Exact generating-series computations for Hilbert schemes of points.

Given the twisted Hodge numbers h^{p,q}(S, L^k) of a compact complex
surface, this package computes -- in exact integer arithmetic and along
two independent evaluation routes each -- the twisted Hodge numbers,
Hodge diamonds, refined chi_y genera, Betti numbers, Hochschild homology
dimensions and deformation-theoretic cohomology dimensions of the
Hilbert schemes (Douady spaces) Hilb^n S and of the nested spaces
Hilb^{n,n+1} S.
"""

from .engine import (
    EngineError,
    GradedDims,
    HodgePolynomial,
    InsufficientPowers,
    IntegralityFailure,
    MismatchReport,
    betti_series,
    chi_y_exp,
    chi_y_from_hodge,
    chi_y_product,
    deformation_closed_forms,
    deformation_dims,
    frolicher_check,
    hh_dims,
    hh_from_rhs,
    hh_rhs_series,
    hilb_coefficient,
    hilb_series,
    hilb_via_partitions,
    nested_coefficient,
    nested_series,
    nested_via_strata,
    sn_invariant_tangent,
    super_sym_series,
    sym_power_twisted_hodge,
    tangent_dims_from_series,
)
from .partitions import (
    PartitionMultiplicity,
    nested_index_set,
    partitions,
)
from .series import (
    BiPolynomial,
    TriSeries,
    euler_product,
)
from .surfaces import (
    DeformationInput,
    SurfaceDataset,
    SurfaceDiamond,
    TwistedTable,
    load_dataset,
    preset,
    serialize,
    validate,
)

__version__ = "0.1.0"
