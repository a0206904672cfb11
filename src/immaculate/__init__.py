"""Standard immaculate tableaux of composition shapes.

The number of standard immaculate tableaux of a composition shape equals
n! divided by the product of its hook lengths.  This package computes hooks
and counts, enumerates the tableaux, and implements the bijection behind the
formula: every filling of the diagram factors uniquely through a standard
immaculate tableau and a grid of hook values (``straighten``), and the
factorisation reverses (``unstraighten``).  A verification harness roundtrips
the bijection exhaustively on small shapes or by seeded sampling on big ones.

The package loads lazily: ``import immaculate`` imports none of its
submodules, and the first read of a public name imports the submodule that
defines it (``immaculate.Composition`` loads ``composition``,
``immaculate.verify_shapes`` loads ``enumeration`` and what that imports).
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "BACKEND": "_kernels",
    **dict.fromkeys((
        "HookTableau", "Pair", "Trace", "circular_left_shift", "circular_right_shift",
        "hook_index_of_path", "hook_path", "jdt_slide", "straighten", "unstraighten",
    ), "bijection"),
    **dict.fromkeys((
        "Cell", "Composition", "compositions", "count_formula", "format_composition",
        "parse_composition",
    ), "composition"),
    **dict.fromkeys((
        "VerificationReport", "all_hook_tableaux", "all_standard_fillings",
        "brute_force_standard_immaculate", "count_brute", "count_recursive",
        "enumerate_standard_immaculate", "random_hook_tableau", "random_standard_filling",
        "random_standard_immaculate", "verify_bijection", "verify_shapes",
    ), "enumeration"),
    **dict.fromkeys((
        "GuardExceededError", "ImmaculateError", "InternalCheckError", "InvalidInputError",
        "ParseError",
    ), "errors"),
    **dict.fromkeys(("INFINITY", "Tableau"), "tableau"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines name, and keep the name here."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
