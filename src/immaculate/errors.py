"""Exception types and size guards shared across the package.

Everything raised on bad *input* derives from ValueError so callers can catch
broadly; InternalCheckError signals a broken invariant inside the library
itself and derives from RuntimeError instead.  Each class carries the exit
code the CLI returns for it and the label that starts its stderr line.
The guards are the default limits on n past which a GuardExceededError is
raised; they live here so that the CLI can name them without loading the
modules that enforce them, and so does require_within, which words each
"needs n <= guard" refusal of those modules.
"""

# Factorial growth makes these defaults generous already: 10! fillings for
# the brute-force filter, 8! roundtrips per shape when exhaustive (twice that
# for a shape whose filling scan fails), and a factorial of 100,000 for the
# count formula (0.14 s on a 2-core x86-64 host, where 10**6! takes 7.7 s).
# The brute-force count walks far fewer fillings, but keeps the same guard.
BRUTE_GUARD = 10
EXHAUSTIVE_GUARD = 8
FORMULA_GUARD = 100_000


class ImmaculateError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    label = "error"


class ParseError(ImmaculateError, ValueError):
    """Text or JSON input could not be parsed at all."""

    exit_code = 2


class InvalidInputError(ImmaculateError, ValueError):
    """Input parsed fine but violates a semantic requirement.

    Examples: a hook value outside its cell's allowed range, a tableau that
    is not a standard immaculate tableau where one is required.
    """

    exit_code = 4


class GuardExceededError(ImmaculateError, ValueError):
    """A brute-force or exhaustive operation was asked to exceed its size guard."""

    exit_code = 3


class InternalCheckError(ImmaculateError, RuntimeError):
    """A self-check that should be impossible to fail has failed.

    If one of these escapes, it is a bug in the library (or a counterexample
    to the theory it implements), never a user mistake.
    """

    exit_code = 1
    label = "internal check failed"


def require_within(n: int, guard: int, doing: str, advice: str) -> None:
    """Raise GuardExceededError when a shape of n cells is past guard."""
    if n > guard:
        raise GuardExceededError(
            f"{doing} needs n <= {guard} but the shape has {n} cells; {advice}"
        )
