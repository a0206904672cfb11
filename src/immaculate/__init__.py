"""Standard immaculate tableaux of composition shapes.

The number of standard immaculate tableaux of a composition shape equals
n! divided by the product of its hook lengths.  This package computes hooks
and counts, enumerates the tableaux, and implements the bijection behind the
formula: every filling of the diagram factors uniquely through a standard
immaculate tableau and a grid of hook values (``straighten``), and the
factorisation reverses (``unstraighten``).  A verification harness roundtrips
the bijection exhaustively on small shapes or by seeded sampling on big ones.
"""

from ._kernels import BACKEND
from .bijection import (
    HookTableau,
    Pair,
    Trace,
    circular_left_shift,
    circular_right_shift,
    hook_index_of_path,
    hook_path,
    jdt_slide,
    straighten,
    unstraighten,
)
from .composition import (
    Cell,
    Composition,
    compositions,
    count_formula,
    format_composition,
    parse_composition,
)
from .enumeration import (
    VerificationReport,
    all_hook_tableaux,
    all_standard_fillings,
    brute_force_standard_immaculate,
    count_brute,
    count_recursive,
    enumerate_standard_immaculate,
    random_hook_tableau,
    random_standard_filling,
    random_standard_immaculate,
    verify_bijection,
    verify_shapes,
)
from .errors import (
    GuardExceededError,
    ImmaculateError,
    InternalCheckError,
    InvalidInputError,
    ParseError,
)
from .tableau import INFINITY, Tableau

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Cell",
    "Composition",
    "GuardExceededError",
    "HookTableau",
    "INFINITY",
    "ImmaculateError",
    "InternalCheckError",
    "InvalidInputError",
    "Pair",
    "ParseError",
    "Tableau",
    "Trace",
    "VerificationReport",
    "all_hook_tableaux",
    "all_standard_fillings",
    "brute_force_standard_immaculate",
    "circular_left_shift",
    "circular_right_shift",
    "compositions",
    "count_brute",
    "count_formula",
    "count_recursive",
    "enumerate_standard_immaculate",
    "format_composition",
    "hook_index_of_path",
    "hook_path",
    "jdt_slide",
    "parse_composition",
    "random_hook_tableau",
    "random_standard_filling",
    "random_standard_immaculate",
    "straighten",
    "unstraighten",
    "verify_bijection",
    "verify_shapes",
]
