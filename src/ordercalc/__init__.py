"""Symbolic calculator, normalizer, and classifier for countable linear
order types, with a lazy concrete-realization oracle that cross-checks
every symbolic verdict on sampled points.

``import ordercalc`` loads no submodule.  A public name is imported from
its module on first use (PEP 562) and then kept in this module's
globals, so later lookups cost what a plain attribute lookup costs.
"""

from importlib import import_module as _import_module

# Submodule -> the public names it provides here; each submodule's own
# name is public too.
_EXPORTS = {
    "canon": ("CanonicalForm", "Equality", "Fin", "Pow", "Scat", "Shuf", "W", "Wstar", "Zat",
              "canonicalize", "cf_equal", "cf_to_term", "is_final_segment",
              "is_initial_segment", "reverse_form", "to_dot"),
    "classify": ("AbsorptionCase", "Decomposition", "NotSelfSimilar",
                 "SelfSimilarNotAbsorbing", "Spectrum", "absorbs", "classify_absorption",
                 "decompose", "is_self_similar", "is_square", "spectrum_description",
                 "square_two_endpoints"),
    "oracle": ("CheckReport", "InvalidCodeError", "MatchFailure", "PartialIso", "PointFacts",
               "back_and_forth", "between", "compare", "cross_check", "enumerate_points",
               "point_profile"),
    "profiles": ("DenseClass", "StructProfile", "profile"),
    "terms": ("Empty", "Finite", "InternalInvariantError", "Omega", "OmegaStar", "OrderTerm",
              "Product", "Reverse", "Shuffle", "Single", "StuckError", "Sum",
              "UnsupportedError", "ValidationError", "Zeta", "desugar", "validate"),
    "textio": ("ParseError", "SourceSpan", "ast_repr", "parse", "print_term"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
