"""Symbolic calculator, normalizer, and classifier for countable linear
order types, with a lazy concrete-realization oracle that cross-checks
every symbolic verdict on sampled points."""

from .canon import (
    CanonicalForm,
    Equality,
    Fin,
    InternalInvariantError,
    Pow,
    Scat,
    Shuf,
    StuckError,
    UnsupportedError,
    W,
    Wstar,
    Zat,
    canonicalize,
    cf_equal,
    cf_to_term,
    is_final_segment,
    is_initial_segment,
    reverse_form,
    scat_normalize,
    to_dot,
)
from .classify import (
    AbsorptionCase,
    Decomposition,
    NotSelfSimilar,
    SelfSimilarNotAbsorbing,
    Spectrum,
    absorbs,
    classify_absorption,
    decompose,
    is_self_similar,
    is_square,
    spectrum_description,
    square_two_endpoints,
)
from .oracle import (
    CheckReport,
    InvalidCodeError,
    MatchFailure,
    PartialIso,
    PointFacts,
    back_and_forth,
    between,
    compare,
    cross_check,
    enumerate_points,
    point_profile,
)
from .profiles import DenseClass, StructProfile, profile
from .terms import (
    Empty,
    Finite,
    Omega,
    OmegaStar,
    OrderTerm,
    Product,
    Reverse,
    Shuffle,
    Single,
    Sum,
    ValidationError,
    Zeta,
    desugar,
    validate,
)
from .textio import ParseError, SourceSpan, ast_repr, parse, print_term

__all__ = [name for name in dir() if not name.startswith("_")]
