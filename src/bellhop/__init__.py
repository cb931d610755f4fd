"""bellhop: Bell-number combinatorics, boson normal ordering, exact EGF
transforms, the free-boson partition function with cutoff regularization,
and the BELL Hopf algebra of set-partition diagrams.

``import bellhop`` loads none of the submodules: each exported name is
imported from its submodule the first time it is read (PEP 562), so a
program pays only for the parts it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule each exported name lives in
_EXPORTS = {
    "combinatorics": (
        "DiagramCensus", "Monomial", "SetPartition", "bell", "bell_polynomial", "diagram_census",
        "enumerate_set_partitions", "partition_count", "stirling2",
    ),
    "dobinski": ("dobinski_bell", "dobinski_bell_poly"),
    "boson": (
        "BosonExpression", "CoherentParam", "NormalOrderedForm", "coherent_expectation",
        "forgetful_normal_order", "normal_order", "parse_expression", "stirling_via_ordering",
        "word_moments",
    ),
    "egf": ("EGFSeries", "bell_egf", "egf_exp", "egf_log", "egf_mul", "v_to_w", "w_to_v"),
    "partition_function": (
        "ModelParams", "QuadratureConfig", "closed_form_Z", "combinatorial_Z", "general_F",
        "integrand", "regularized_Z", "regularized_series_Z", "termwise_partial",
    ),
    "hopf": (
        "HopfElement", "TensorElement", "antipode", "code_diagram", "coproduct",
        "counit", "parse_element", "poly_specialize", "product", "run_all_checks",
    ),
    "errors": ("ExpressionParseError", "ResourceLimitError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# reachable as attributes of the package, like the exported names
_SUBMODULES = frozenset(_EXPORTS) | {"enclosure", "lincomb"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
