"""toricgs: weighted soliton invariants and stability criteria on toric polytope data.

The package computes, for a monotone labelled polytope P and a positive
weight g on it: weighted volumes and barycenters, generalized Futaki
invariants, soliton vector fields (exponential and affine weights),
valuative stability ratios, filtration Duistermaat-Heckman measures, and a
one-dimensional real Monge-Ampere solver with the full energy-functional
suite and its comparison inequalities.
"""

__version__ = "0.1.0"

from .polytope import LabelledPolytope, builtin, builtin_names, from_facets, from_vertices
from .quadrature import WeightFunction, moments
from .invariants import (
    SolitonSolution,
    dh_marginal,
    futaki,
    solve_kr_soliton,
    solve_mabuchi_soliton,
    weighted_barycenter,
    weighted_volume,
)
from .stability import (
    FiltrationSample,
    PLConvexFunction,
    delta_toric,
    dh_g_filtration,
    ding_na_valuation,
    e_g_na,
    g_uniform_check,
    j_g_na,
    lambda_na,
    log_discrepancy,
    s_g,
    s_g_lattice,
    twist,
)
from .mafunc import (
    DiscretePotential,
    FunctionalValues,
    Grid1D,
    functionals,
    inequality_suite,
    pushforward_moments,
    random_potential,
    reference_potential,
    solve_ma,
)

__all__ = [
    "__version__",
    "LabelledPolytope",
    "builtin",
    "builtin_names",
    "from_facets",
    "from_vertices",
    "WeightFunction",
    "moments",
    "SolitonSolution",
    "weighted_volume",
    "weighted_barycenter",
    "dh_marginal",
    "futaki",
    "solve_kr_soliton",
    "solve_mabuchi_soliton",
    "PLConvexFunction",
    "FiltrationSample",
    "log_discrepancy",
    "s_g",
    "s_g_lattice",
    "dh_g_filtration",
    "e_g_na",
    "lambda_na",
    "j_g_na",
    "twist",
    "ding_na_valuation",
    "delta_toric",
    "g_uniform_check",
    "Grid1D",
    "DiscretePotential",
    "FunctionalValues",
    "reference_potential",
    "random_potential",
    "solve_ma",
    "functionals",
    "inequality_suite",
    "pushforward_moments",
]
