"""toricgs: weighted soliton invariants and stability criteria on toric polytope data.

The package computes, for a monotone labelled polytope P and a positive
weight g on it: weighted volumes and barycenters, generalized Futaki
invariants, soliton vector fields (exponential and affine weights),
valuative stability ratios, filtration Duistermaat-Heckman measures, and a
one-dimensional real Monge-Ampere solver with the full energy-functional
suite and its comparison inequalities.
"""

__version__ = "0.1.0"

from . import _exact

# each public name -> the module that defines it; a module loads at the
# first lookup of one of its names (PEP 562), and the lookup caches nothing
# here, so a name rebound in its module is seen at once
_HOME = {
    name: _exact.lazy(f"{__name__}.{module}")
    for module, names in {
        "polytope": ("LabelledPolytope", "builtin", "builtin_names", "from_facets", "from_vertices"),
        "quadrature": ("WeightFunction", "moments"),
        "invariants": ("SolitonSolution", "weighted_volume", "weighted_barycenter", "dh_marginal",
                       "futaki", "solve_kr_soliton", "solve_mabuchi_soliton"),
        "stability": ("PLConvexFunction", "FiltrationSample", "log_discrepancy", "s_g", "s_g_lattice",
                      "dh_g_filtration", "e_g_na", "lambda_na", "j_g_na", "twist",
                      "ding_na_valuation", "delta_toric", "g_uniform_check"),
        "mafunc": ("Grid1D", "DiscretePotential", "FunctionalValues", "reference_potential",
                   "random_potential", "solve_ma", "functionals", "inequality_suite",
                   "pushforward_moments"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)
