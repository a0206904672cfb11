"""Command line interface.

Subcommands: hooks, count, enumerate, psi, phi, verify, info.  psi expands
a (tableau, hook values) pair into a filling; phi is its inverse; info names
the version and the kernel backend in use, and why it was chosen.  Exit codes:
0 success (also when the reader closes stdout early), 1 verification or
internal-check failure, 2 parse error, 3 size guard exceeded (also a shape
past what a kernel walk can reach, or a size that overflows a machine
integer or memory), 4 semantically invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable

from . import __version__
from .composition import parse_composition, compositions, count_formula
from .errors import (
    BRUTE_GUARD,
    EXHAUSTIVE_GUARD,
    FORMULA_GUARD,
    GuardExceededError,
    ImmaculateError,
    ParseError,
)

# Each command imports the modules it runs when it runs, so a cold start
# compiles only those: hooks loads no kernel, and phi and psi no enumeration.

# Sampled verify --n draws from each of the 2**(n-1) compositions of n and
# builds every report before it prints one, so n is guarded as in
# exhaustive mode; 16 gives 32,768 shapes.
SAMPLED_GUARD = 16


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _print_json(obj) -> None:
    # json is imported where JSON is written, so text output never loads it
    import json

    print(json.dumps(obj, indent=2))


def _print_json_stream(head: dict, key: str, items: Iterable) -> None:
    """_print_json({**head, key: list(items)}), holding one item at a time."""
    import json

    text = json.dumps({**head, key: []}, indent=2)
    # the text ends in '"key": []\n}'; each item sits two levels deep
    sys.stdout.write(text[:-len("]\n}")])
    sep = "\n"
    # each item is a list of int rows: its indent=2 text is written by hand,
    # as json.dumps(indent=2) would run the pure-Python encoder on it
    for item in items:
        rows = ",\n".join("      [\n        " + ",\n        ".join(map(str, row)) + "\n      ]"
                          for row in item)
        sys.stdout.write(sep + "    [\n" + rows + "\n    ]")
        sep = ",\n"
    sys.stdout.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def _print_trace(trace) -> None:
    for k, (t, h) in enumerate(trace.states, 1):
        print(f"state {k}")
        print("tableau:")
        print(t.to_text())
        print("hooks:")
        print(h.to_text())
        if k <= len(trace.paths):
            cells = " ".join(f"({c.row},{c.col})" for c in trace.paths[k - 1])
            print(f"path {k}: {cells}")


def cmd_hooks(args) -> int:
    from .tableau import format_grid_text

    alpha = parse_composition(args.shape)
    grid = alpha.hook_lengths()
    if args.format == "json":
        _print_json({"shape": list(alpha.parts), "hook_lengths": [list(r) for r in grid]})
    else:
        print(format_grid_text(grid))
    return 0


def cmd_count(args) -> int:
    if args.guard is not None and args.guard < 1:
        raise ParseError(f"--guard must be positive, got {args.guard}")
    alpha = parse_composition(args.shape)
    if args.method == "formula":
        count = count_formula(alpha, guard=args.guard or FORMULA_GUARD)
    elif args.method == "recursive":
        from .enumeration import count_recursive

        count = count_recursive(alpha, guard=args.guard or FORMULA_GUARD)
    else:
        from .enumeration import count_brute

        count = count_brute(alpha, guard=args.guard or BRUTE_GUARD)
    if args.format == "json":
        _print_json({"shape": list(alpha.parts), "method": args.method, "count": count})
    else:
        print(count)
    return 0


def cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        raise ParseError(f"--limit must not be negative, got {args.limit}")
    from .enumeration import enumerate_standard_immaculate

    alpha = parse_composition(args.shape)
    total = count_formula(alpha)
    # a limit above the total means no limit; range takes any size of int
    count = total if args.limit is None else min(args.limit, total)
    stream = (t for _, t in zip(range(count), enumerate_standard_immaculate(alpha)))
    if args.format == "json":
        head = {"shape": list(alpha.parts), "total": total, "count": count}
        _print_json_stream(head, "tableaux", ([list(r) for r in t.rows] for t in stream))
        return 0
    for t in stream:
        print(t.to_text())
        print()
    print(f"count: {count}")
    return 0


def _run_map(args, parse, transform, to_json_obj) -> int:
    """Read args.input with parse, map it with transform and print the result."""
    result, trace = transform(parse(_read_input(args.input)), check=args.check)
    if args.format == "json":
        obj = to_json_obj(result)
        if args.trace:
            obj["trace"] = trace.to_json_obj()
        _print_json(obj)
    else:
        if args.trace:
            _print_trace(trace)
            print("result:")
        print(result.to_text())
    return 0


def cmd_psi(args) -> int:
    from .bijection import Pair, unstraighten

    return _run_map(args, Pair.parse, unstraighten,
                    lambda t: {"shape": list(t.shape.parts), "result": [list(r) for r in t.rows]})


def cmd_phi(args) -> int:
    from .bijection import Pair, straighten
    from .tableau import Tableau

    return _run_map(args, Tableau.parse, straighten, Pair.to_json_obj)


def cmd_verify(args) -> int:
    if (args.shape is None) == (args.n is None):
        raise ParseError("verify needs a SHAPE argument or --n, but not both")
    for flag in ("n", "jobs", "samples", "guard"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ParseError(f"--{flag} must be positive, got {value}")
    # verify_shapes bounds each shape itself, by its mode's default guard
    # when --guard is not given; only sampled --n has a guard of its own
    n_guard = args.guard or SAMPLED_GUARD
    if args.shape is not None:
        shapes = [parse_composition(args.shape)]
    elif args.mode == "sampled" and args.n > n_guard:
        raise GuardExceededError(
            f"sampled verification of the 2**{args.n - 1} compositions of {args.n} needs "
            f"n <= {n_guard}; verify one shape instead, or raise --guard")
    else:
        shapes = compositions(args.n)
    from .enumeration import verify_shapes

    reports = verify_shapes(shapes, mode=args.mode, sample_size=args.samples, seed=args.seed,
                            jobs=args.jobs, guard=args.guard)
    all_ok = all(r.ok for r in reports)
    if args.format == "json":
        _print_json({"ok": all_ok, "reports": [r.to_json_obj() for r in reports]})
    else:
        for r in reports:
            print(r.summary())
        good = sum(1 for r in reports if r.ok)
        print(f"{good}/{len(reports)} shapes ok")
    if args.failures_out and not all_ok:
        import json

        payload = [
            {
                "shape": list(r.shape),
                "roundtrip_failures": r.roundtrip_failures,
                "assertion_failures": r.assertion_failures,
            }
            for r in reports
            if not r.ok
        ]
        try:
            Path(args.failures_out).write_text(json.dumps(payload, indent=2) + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.failures_out}: {exc}") from None
    return 0 if all_ok else 1


def cmd_info(args) -> int:
    from ._kernels import BACKEND, BACKEND_REASON

    info = {"version": __version__, "backend": BACKEND, "backend_reason": BACKEND_REASON}
    if args.format == "json":
        _print_json(info)
    else:
        for key, value in info.items():
            print(f"{key}: {value}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="immaculate",
        description="Standard immaculate tableaux: hook lengths, counting, and the straightening bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text",
                     help="output format (default text)")

    p = sub.add_parser("hooks", parents=[fmt], help="print the grid of hook lengths")
    p.add_argument("shape", help="composition, e.g. 2,1,2")
    p.set_defaults(func=cmd_hooks)

    p = sub.add_parser("count", parents=[fmt], help="count standard immaculate tableaux")
    p.add_argument("shape")
    p.add_argument("--method", choices=("formula", "recursive", "brute"), default="formula")
    p.add_argument("--guard", type=int, default=None,
                   help=f"size limit on n: for --method brute (default {BRUTE_GUARD}), "
                        f"for formula (default {FORMULA_GUARD}) and for recursive "
                        f"(default {FORMULA_GUARD})")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", parents=[fmt], help="list standard immaculate tableaux")
    p.add_argument("shape")
    p.add_argument("--limit", type=int, default=None, help="stop after this many tableaux")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("psi", parents=[fmt],
                       help="expand a (tableau, hook values) pair into a filling")
    p.add_argument("input", help="pair file (two blank-line-separated blocks or JSON), - for stdin")
    p.add_argument("--check", action="store_true", help="re-verify every step invariant")
    p.add_argument("--trace", action="store_true", help="show every intermediate state")
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("phi", parents=[fmt],
                       help="contract a filling into its (tableau, hook values) pair")
    p.add_argument("input", help="tableau file (text rows or JSON), - for stdin")
    p.add_argument("--check", action="store_true", help="re-verify every step invariant")
    p.add_argument("--trace", action="store_true", help="show every intermediate state")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("verify", parents=[fmt],
                       help="cross-check counts and roundtrip the bijection")
    p.add_argument("shape", nargs="?", default=None, help="one composition to verify")
    p.add_argument("--n", type=int, default=None, help="verify every composition of n instead")
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=1000,
                   help="sample count per side in sampled mode (default 1000)")
    p.add_argument("--seed", type=int, default=0, help="random seed for sampled mode (default 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for exhaustive scans (default 1)")
    p.add_argument("--guard", type=int, default=None,
                   help=f"size limit on n: for exhaustive mode (default {EXHAUSTIVE_GUARD}), "
                        f"for sampled --n (default {SAMPLED_GUARD}) and for one sampled "
                        f"SHAPE (default {FORMULA_GUARD})")
    p.add_argument("--failures-out", default=None,
                   help="write failing objects to this JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("info", parents=[fmt],
                       help="print the version and which kernel backend runs, and why")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Exact counts are the point of count, enumerate and verify, so lift
    # Python's cap on int-to-text digits while they run (0 means no cap, and
    # Python before 3.11 has none).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except ImmaculateError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OverflowError, MemoryError) as exc:
        # a size past a machine integer (a range, math.factorial) or past
        # memory, as in `hooks 99999999999999999999`; like a guard, exit 3
        print(f"error: too large to compute: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return GuardExceededError.exit_code
    except BrokenPipeError:
        # The reader stopped reading, which is its choice.  Point stdout at
        # the null device so the flush at exit has somewhere to go.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
