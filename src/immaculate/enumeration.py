"""Counting, enumeration, sampling, and the bijection verification harness.

The count of standard immaculate tableaux can be obtained three independent
ways: the hook-length formula n!/prod(hooks), the first-row recursion (one
binomial per row, multiplied), and a brute-force walk that fills the cells
one by one and counts the stable fillings it completes.
Enumeration and sampling use the same row-by-row construction as the
recursion: the smallest label left heads the row and any part - 1 of the
other labels left, sorted, fill its tail.  None of them keeps a memo table
or calls itself.  verify_bijection cross-checks all three counts and
roundtrips the straightening bijection over its whole domain (or a seeded
random sample of it), which together re-proves the formula for the given
shape.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

from ._kernels import BACKEND, get_backend
from ._kernels._pure import X_CHANGED, Y_CHANGED
from .bijection import HookTableau
from .composition import Composition, count_formula
from .errors import GuardExceededError, InternalCheckError
from .tableau import Tableau, split_flat

# Factorial growth makes these defaults generous already: 10! fillings for
# the brute-force filter, and 8! roundtrips per shape when exhaustive (twice
# that for a shape whose filling scan fails).  The brute-force count walks
# far fewer, but keeps the same guard.
BRUTE_GUARD = 10
EXHAUSTIVE_GUARD = 8


def _require_within(n: int, guard: int, doing: str, advice: str) -> None:
    if n > guard:
        raise GuardExceededError(
            f"{doing} needs n <= {guard} but the shape has {n} cells; {advice}"
        )


@contextmanager
def _walk_limits(n: int, doing: str):
    """Report a kernel walk too deep for the stack, or too long for the C
    twin's 64-bit leaf numbers, as a guard error naming the shape's size."""
    try:
        yield
    except (RecursionError, OverflowError) as exc:
        raise GuardExceededError(
            f"{doing} cannot walk a shape of {n} cells: {exc}") from None


def all_standard_fillings(alpha: Composition) -> Iterator[Tableau]:
    """All n! fillings with entries 1..n, streamed in lexicographic flat order."""
    for perm in itertools.permutations(range(1, alpha.n + 1)):
        yield Tableau.from_flat(alpha, perm)


def brute_force_standard_immaculate(
    alpha: Composition, guard: int = BRUTE_GUARD
) -> list[Tableau]:
    """Filter all n! fillings for standard immaculateness, in generation order.

    Guarded by shape size; for bigger shapes use enumerate_standard_immaculate,
    which never touches non-immaculate fillings.
    """
    _require_within(alpha.n, guard, "brute-force filtering",
                    "use enumerate_standard_immaculate instead or raise guard=")
    ops = get_backend().ShapeOps(alpha.parts)
    return [
        Tableau.from_flat(alpha, perm)
        for perm in itertools.permutations(range(1, alpha.n + 1))
        if ops.is_standard_immaculate(perm)
    ]


def count_brute(alpha: Composition, guard: int = BRUTE_GUARD) -> int:
    """Count standard immaculate tableaux by walking the fillings cell by cell.

    The kernel's count_standard fills the cells in traversal order and cuts
    every branch that breaks stability, so it never uses hook lengths or
    binomials.  It recurses once per cell.
    """
    _require_within(alpha.n, guard, "brute-force counting",
                    "use count_recursive or the formula instead, or raise guard=")
    with _walk_limits(alpha.n, "brute-force counting"):
        return get_backend().ShapeOps(alpha.parts).count_standard()


# -- row by row ---------------------------------------------------------------
#
# The order relation of the diagram is a rooted forest: column 1 is a chain
# and each row's tail hangs off the row's first cell.  So a standard
# immaculate tableau is built row by row: cell (i, 1) takes the smallest
# label left, and any part_i - 1 of the other labels left, sorted, fill the
# rest of row i.


def _fill_row(labels: list[int], tail: Sequence[int]) -> tuple[list[int], list[int]]:
    """The row headed by labels[0] with tail sorted after it, and the labels left.

    labels are the labels not yet placed, ascending; tail is drawn from labels[1:].
    """
    taken = set(tail)
    return [labels[0], *sorted(tail)], [v for v in labels[1:] if v not in taken]


def count_recursive(alpha: Composition) -> int:
    """Count standard immaculate tableaux by the first-row recursion.

    Row 1 takes label 1 and any part_1 - 1 of the other n - 1 labels, and the
    rows below form a standard immaculate tableau on the labels left, so
    f(alpha) = C(n - 1, part_1 - 1) * f(part_2, ..., part_l).
    """
    count = 1
    left = alpha.n
    for part in alpha.parts:
        count *= math.comb(left - 1, part - 1)
        left -= part
    return count


def enumerate_standard_immaculate(alpha: Composition) -> Iterator[Tableau]:
    """Stream every standard immaculate tableau of the shape exactly once.

    Builds the tableaux row by row, depth first, with one lazy
    itertools.combinations iterator per row, so memory stays proportional to
    n and no time is spent on fillings that fail the stability conditions.
    The order is lexicographic in the row tails, row 1 first, with larger
    labels first: for 2,1,2 the row-1 tails come out as 5, 4, 3, 2, and
    tableaux that share row 1 come out together.
    """
    parts = alpha.parts
    labels = list(range(1, alpha.n + 1))
    stack = [(itertools.combinations(labels[:0:-1], parts[0] - 1), labels)]
    rows: list[list[int]] = []
    while stack:
        tails, labels = stack[-1]
        tail = next(tails, None)
        if tail is None:
            stack.pop()
            continue
        depth = len(stack) - 1
        row, rest = _fill_row(labels, tail)
        rows[depth:] = [row]
        if depth + 1 == len(parts):
            # _fill_row heads each row with its smallest label left and sorts
            # the tail, and the rows share no label: a standard immaculate
            # tableau by construction
            yield Tableau._from_flat_trusted(alpha, tuple(itertools.chain.from_iterable(rows)))
        else:
            stack.append((itertools.combinations(rest[:0:-1], parts[depth + 1] - 1), rest))


def all_hook_tableaux(alpha: Composition) -> Iterator[HookTableau]:
    """Stream all hook tableaux of the shape, last flat cell varying fastest.

    The stream order matches the index convention of the pair scans: the
    j-th emitted hook tableau is the mixed-radix expansion of j.
    """
    ranges = [range(1, h + 1) for row in alpha.hook_lengths() for h in row]
    for values in itertools.product(*ranges):
        yield HookTableau.from_flat(alpha, values)


def unrank_permutation(n: int, rank: int) -> tuple[int, ...]:
    """The rank-th permutation of 1..n in lexicographic order (0-based rank)."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    pool = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        f = math.factorial(i - 1)
        idx, rank = divmod(rank, f)
        out.append(pool.pop(idx))
    return tuple(out)


def _unrank_hook_values(hooklen: Sequence[int], rem: int) -> list[int]:
    vals = [0] * len(hooklen)
    for pos in range(len(hooklen) - 1, -1, -1):
        rem, d = divmod(rem, hooklen[pos])
        vals[pos] = d + 1
    return vals


# -- random sampling --------------------------------------------------------


def random_standard_filling(alpha: Composition, rng: random.Random) -> Tableau:
    vals = list(range(1, alpha.n + 1))
    rng.shuffle(vals)
    return Tableau.from_flat(alpha, vals)


def random_hook_tableau(alpha: Composition, rng: random.Random) -> HookTableau:
    return HookTableau([[rng.randint(1, h) for h in row] for row in alpha.hook_lengths()])


def random_standard_immaculate(alpha: Composition, rng: random.Random) -> Tableau:
    """Uniformly random standard immaculate tableau of the shape.

    Builds the tableau row by row: each row's tail is a uniform sample of
    part - 1 of the labels left after the row's first cell.  Every tableau
    arises from exactly one sequence of choices, and each sequence has the
    same probability, so every tableau comes out with probability exactly
    1 / count.
    """
    labels = list(range(1, alpha.n + 1))
    rows = []
    for part in alpha.parts:
        row, labels = _fill_row(labels, rng.sample(labels[1:], part - 1))
        rows.append(row)
    return Tableau(rows)


# -- verification harness ----------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one verify_bijection run; ok summarises everything."""

    shape: tuple[int, ...]
    mode: str
    count_formula: int
    count_recursive: int
    count_bruteforce: int | None
    x_size: int | None
    y_size: int | None
    x_checked: int
    y_checked: int
    roundtrip_failures: list[dict]
    assertion_failures: list[dict]
    seed: int | None
    sample_size: int | None
    jobs: int
    backend: str
    elapsed_s: float
    # how the pair side was checked: "x-scan" (proved by the clean filling
    # scan), "y-scan" (each pair roundtripped) or "samples"
    y_covered_by: str = "y-scan"

    @property
    def counts_agree(self) -> bool:
        alpha = Composition(self.shape)
        facts = math.factorial(alpha.n)
        if self.count_formula != self.count_recursive:
            return False
        if self.count_formula * alpha.hook_product() != facts:
            return False
        if self.count_bruteforce is not None and self.count_bruteforce != self.count_formula:
            return False
        if self.x_size is not None and self.x_size != facts:
            return False
        if self.y_size is not None and self.y_size != facts:
            return False
        return True

    @property
    def ok(self) -> bool:
        complete = self.mode != "exhaustive" or (
            self.x_checked == self.x_size and self.y_checked == self.y_size
        )
        return (
            complete
            and self.counts_agree
            and not self.roundtrip_failures
            and not self.assertion_failures
        )

    def to_json_obj(self) -> dict:
        obj = {"shape": list(self.shape), "mode": self.mode, "ok": self.ok}
        for field in fields(self):
            obj.setdefault(field.name, getattr(self, field.name))
        return obj

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        counts = f"count={self.count_formula}"
        if self.count_bruteforce is not None:
            counts += f" brute={self.count_bruteforce}"
        counts += f" recursive={self.count_recursive}"
        sides = f"x_checked={self.x_checked} y_checked={self.y_checked}"
        bad = len(self.roundtrip_failures) + len(self.assertion_failures)
        tail = "" if bad == 0 else f" failures={bad}"
        return (
            f"{status} shape={','.join(map(str, self.shape))} mode={self.mode} "
            f"{counts} {sides}{tail} ({self.elapsed_s:.2f}s)"
        )


def _file_failure(failures: dict, side: str, index: int, stage: str, message: str,
                  obj) -> None:
    """File one failure, with the filling or pair it happened on, under its stage."""
    failures[stage].append({"side": side, "index": index, "stage": stage, "message": message,
                            "tableau" if side == "x" else "pair": obj})


def _scan_task(task):
    parts, side, start, stop, p_table = task
    ops = get_backend().ShapeOps(parts)
    with _walk_limits(ops.size, "exhaustive verification"):
        if side == "x":
            return ops.scan_fillings(start, stop, True)
        return 0, ops.scan_pairs(p_table, start, stop, True)


def _chunks(total: int, pieces: int) -> list[tuple[int, int]]:
    """[0, total) as at most `pieces` runs of one length, the last maybe shorter."""
    step = max(1, -(-total // pieces))
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _reshape(alpha: Composition, flat: Sequence[int]) -> list[list[int]]:
    return [list(r) for r in split_flat(alpha, flat)]


def _scan_tasks(alpha: Composition, side: str, size: int, p_table: list | None,
                workers: int) -> list[tuple]:
    """One side's scan of a shape as even runs of indices, at most one per
    worker.

    The filling walk starts and stops at any leaf, and the pair scan at any
    pair, so a run needs no subtree boundaries.  Each y task carries the
    whole P table; the kernel reads only the rows its run reaches, and
    reports the flat indices as they stand.
    """
    return [(alpha.parts, side, lo, hi, p_table) for lo, hi in _chunks(size, workers)]


def _exhaustive_report(alpha, started, p_table, x_results, run, workers, jobs):
    """Gather one shape's filling scan, scan its pairs only when that scan
    cannot prove them, and sort the failures by index on each side."""
    hook_prod = alpha.hook_product()
    n_fact, y_size = math.factorial(alpha.n), len(p_table) * hook_prod
    found: dict[str, list] = {"x": [], "y": []}
    standard_total = 0
    for standard, raw in x_results:
        standard_total += standard
        found["x"].extend(raw)
    # see verify_bijection for why a clean filling scan proves the pair side
    covered_by = "x-scan"
    if found["x"] or standard_total * hook_prod != n_fact or y_size != n_fact:
        covered_by = "y-scan"
        for _, raw in run(_scan_task, _scan_tasks(alpha, "y", y_size, p_table, workers)):
            found["y"].extend(raw)
    hooklen = [h for row in alpha.hook_lengths() for h in row]
    failures: dict[str, list[dict]] = {"roundtrip": [], "check": []}
    for side in ("x", "y"):
        for index, stage, message in sorted(found[side]):
            if side == "x":
                obj = _reshape(alpha, unrank_permutation(alpha.n, index))
            else:
                p_idx, rem = divmod(index, hook_prod)
                obj = {"P": _reshape(alpha, p_table[p_idx]),
                       "J": _reshape(alpha, _unrank_hook_values(hooklen, rem))}
            _file_failure(failures, side, index, stage, message, obj)
    return _report(alpha, "exhaustive", started, failures, count_bruteforce=standard_total,
                   x_size=n_fact, y_size=y_size, x_checked=n_fact, y_checked=y_size,
                   seed=None, sample_size=None, jobs=jobs, y_covered_by=covered_by)


def _verify_exhaustive(shapes: Iterable[Composition], jobs: int,
                       guard: int) -> Iterator[VerificationReport]:
    # Forking starts every worker at once, so never ask for more than the
    # machine has cores.  One pool serves the whole run; it starts its
    # workers at the first task, and while it scans one shape's fillings,
    # the next shape's are already queued behind it, so a worker that ends
    # its run early takes up the next shape.  That is why each side is cut
    # into one run per worker and no finer.  A shape's pair tasks join the
    # queue only after its filling results are in, and only when those
    # cannot prove the pair side.
    workers = min(jobs, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        pending: deque = deque()
        for alpha in shapes:
            _require_within(alpha.n, guard, "exhaustive verification",
                            "use mode='sampled' or raise guard=")
            started = time.perf_counter()
            p_table = [t.flat() for t in enumerate_standard_immaculate(alpha)]
            x_tasks = _scan_tasks(alpha, "x", math.factorial(alpha.n), None, workers)
            pending.append((alpha, started, p_table, run(_scan_task, x_tasks)))
            if len(pending) > 1:
                yield _exhaustive_report(*pending.popleft(), run, workers, jobs)
        while pending:
            yield _exhaustive_report(*pending.popleft(), run, workers, jobs)


def _verify_sampled(alpha: Composition, sample_size: int, seed: int) -> VerificationReport:
    # Each object is drawn, roundtripped and dropped unless it failed.
    started = time.perf_counter()
    failures: dict[str, list[dict]] = {"roundtrip": [], "check": []}
    ops = get_backend().ShapeOps(alpha.parts)
    rng = random.Random(seed)
    for i in range(sample_size):
        t = random_standard_filling(alpha, rng)
        flat = list(t.flat())
        try:
            back = ops.unstraighten(*ops.straighten(flat, check=True), check=True)
            failed = None if back == flat else ("roundtrip", X_CHANGED)
        except InternalCheckError as exc:
            failed = ("check", str(exc))
        if failed:
            _file_failure(failures, "x", i, *failed, [list(r) for r in t.rows])
    for i in range(sample_size):
        p = random_standard_immaculate(alpha, rng)
        j = random_hook_tableau(alpha, rng)
        flat_p, flat_j = list(p.flat()), list(j.flat())
        try:
            back = ops.straighten(ops.unstraighten(flat_p, flat_j, check=True), check=True)
            failed = None if back == (flat_p, flat_j) else ("roundtrip", Y_CHANGED)
        except InternalCheckError as exc:
            failed = ("check", str(exc))
        if failed:
            pair = {"P": [list(r) for r in p.rows], "J": [list(r) for r in j.rows]}
            _file_failure(failures, "y", i, *failed, pair)
    return _report(alpha, "sampled", started, failures, count_bruteforce=None, x_size=None,
                   y_size=None, x_checked=sample_size, y_checked=sample_size, seed=seed,
                   sample_size=sample_size, jobs=1, y_covered_by="samples")


def _report(alpha: Composition, mode: str, started: float, failures: dict,
            **varying) -> VerificationReport:
    return VerificationReport(
        shape=alpha.parts,
        mode=mode,
        count_formula=count_formula(alpha),
        count_recursive=count_recursive(alpha),
        roundtrip_failures=failures["roundtrip"],
        assertion_failures=failures["check"],
        backend=BACKEND,
        elapsed_s=time.perf_counter() - started,
        **varying,
    )


def verify_shapes(
    shapes: Iterable[Composition],
    mode: str = "exhaustive",
    sample_size: int = 1000,
    seed: int = 0,
    jobs: int = 1,
    guard: int = EXHAUSTIVE_GUARD,
) -> list[VerificationReport]:
    """verify_bijection for each shape in turn, one report per shape.

    shapes may be any iterable, read once, in order.  An exhaustive run
    checks each shape against guard before it scans it, and starts at most
    one pool of min(jobs, os.cpu_count()) worker processes for all of them,
    none when that is one.  The pool gets each shape's filling scan as even
    runs of leaves in walk order, one per worker, and the next shape's runs
    queue behind them, so a worker that ends its run early takes up the
    next shape.  The pair scan joins the queue, split the same way with the
    whole P table in each task, only for a shape whose filling scan failed
    or whose counts disagree (see verify_bijection).  A shape's elapsed_s runs from its setup to the
    arrival of its last result.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled":
        return [verify_bijection(alpha, mode, sample_size, seed) for alpha in shapes]
    return list(_verify_exhaustive(shapes, jobs, guard))


def verify_bijection(
    alpha: Composition,
    mode: str = "exhaustive",
    sample_size: int = 1000,
    seed: int = 0,
    jobs: int = 1,
    guard: int = EXHAUSTIVE_GUARD,
) -> VerificationReport:
    """Cross-check the count formula and roundtrip the bijection on one shape.

    Exhaustive mode roundtrips every filling x (straighten then
    unstraighten) with every structural invariant asserted at each step,
    and that proves the pair side too.  The last checked straighten step
    finds the whole of P standard immaculate, and the path check keeps
    every hook value within its hook, so straighten(x) is a pair.  The
    checked unstraighten of that pair gives x back, so straighten is
    injective from the n! fillings into the pairs.  The filling scan also
    tallies the standard immaculate fillings, and when that count and the
    number of P rows, times the hook product, both equal n!, there are as
    many pairs as fillings and straighten is a bijection.  Every pair y is
    then straighten(x) for exactly one x, whose scan already ran the checked
    unstraighten on y and the checked straighten on the result, so
    straighten(unstraighten(y)) = y.  The report then says
    y_covered_by="x-scan", with y_checked = y_size.  When the filling scan
    fails or a count disagrees, the pairs are roundtripped the other way
    around as well (y_covered_by="y-scan"), so the report names the
    failing pairs too.

    The filling scan walks the fillings as a tree: fillings that agree on
    their first traversal cells share their first straighten steps, so each
    step runs once per tree node.  The walk also runs each checked
    unstraighten step once per node, on the way back up, and compares the
    hook run of the node's cell, the one flat run that holds every cell the
    step or the slide it undoes can move, with the run before the slide.
    By induction on depth, those compares show that each node's
    inverse step acts on the state the filling's own checked unstraighten
    would reach there, so together they are that unstraighten and its exact
    comparison with the filling.  Each of its checks runs once, where its
    state first arises: the rotation's checks at the node; stability before
    the step, which is the state the slide's own check passed; and the
    consumption of every hook value, at each node and over the whole array
    back at depth 1.  A node whose inverse fails has its subtree walked
    again with the full checked unstraighten at every filling, so the
    entries read as they would one filling at a time.  The pair scan is a
    plain loop: each pair gets the full checked unstraighten and straighten,
    one pair at a time, and an exact comparison.  A failure's index is that
    of the object itself: the lexicographic rank of a filling, and for a
    pair the P row's index times the hook product plus the hook values in
    mixed radix, last flat cell fastest; the pair scan numbers its pairs the
    same way.  Failures are sorted by index on each side.  jobs > 1 splits
    the scans into runs of indices for min(jobs, os.cpu_count()) worker
    processes; see verify_shapes, which this calls for exhaustive mode.
    Sampled mode draws sample_size objects per side from the seeded
    Mersenne Twister stream instead (y_covered_by="samples"), so runs are
    reproducible; jobs is ignored there.  Counting always happens in all
    available ways.  The scans run on the active kernel backend.
    """
    if mode == "sampled":
        return _verify_sampled(alpha, sample_size, seed)
    return verify_shapes([alpha], mode, jobs=jobs, guard=guard)[0]
