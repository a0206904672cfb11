"""Pure-Python kernels for the hot loops, on flat row-major arrays.

This module is the spec of the kernels.  The compiled twin, the hand-written C
file ``_speedups.c``, shares its constructor, its per-object loops and its
``scan_fillings`` and mirrors the rest function by function.  The compiled
``ShapeOps`` copies its geometry into C arrays from a ``ShapeOps`` of this
module, so a shape is checked and laid out in one place.  The per-object
roundtrip is written once, in ``roundtrip_filling`` and ``roundtrip_pair``;
``scan_pairs``, ``_roundtrip_each`` (the per-filling loop of
``scan_fillings``) and sampled verify call them.  The compiled type holds
those two loops, ``scan_fillings`` (the filling scan's argument checks and
its 64-bit leaf limit) and the properties ``n_factorial`` and ``hook_prod``
as its own; of what they call, only the public methods and the walk
``_walk_fillings`` are C as well.
Each of ``_path_standard``, ``_slide``, ``_build_path``, ``_hook_index``,
``_rotate_hook``, the checked steps ``_checked_slide``/``_checked_rotate``
with ``_check_exhausted``, and ``_straighten_inplace``/``_unstraighten_inplace``
has a C function of the same name, the ``visit`` functions nested in
``count_standard`` and ``_walk_fillings`` are ``count_visit`` and ``fill_visit``
there, and the public methods raise the same exceptions with the same
messages.  Every stability check, that of ``is_standard_immaculate``, of a
checked slide and of a checked rotation, is ``_path_standard`` on the cells it
needs.  Which twin you get from ``immaculate._kernels`` is decided at import
time.

The twins differ in two things.  A checked step's hook path and the
``_hook_index`` verdict of a slide along it depend on the path's endpoints
alone; they are built here once per hook path and kept in a memo
(``_checked_path``), where the C twin builds each path into a buffer and
works the verdict out again on every step.  The memo of a ``ShapeOps`` holds
paths of at most PATH_MEMO_CELLS = 4,096 cells in all; past that budget an
entry is built for its step and dropped.  The filling walk never reaches
the budget (the hook paths of a shape of n <= 13 cells have at most 455
cells in all), and twenty checked roundtrips on a row of 1,000 cells leave
under a megabyte, where a memo of every path held over 200 MB.  And with
check off, ``_straighten_inplace`` and ``_unstraighten_inplace`` take each
row right of column 1 as one run here: an insertion sort with
``bisect_left`` and a Lehmer decode with ``list.pop``, where stepping cell by
cell runs an interpreted loop over every cell a slide passes.  The C twin
steps cell by cell, which costs it nothing.

Positions here are 0-based flat indices, and a key layout fact keeps
everything tight: in row-major order every hook occupies a contiguous run of
positions, so the v-th hook cell of position p is simply p + v - 1.  A move
along a hook path is named by (start, v) alone: ``_rotate_hook`` shifts the
path's row run by one slice and its column-1 cells one by one.

The public methods check input lengths (for a P table, those of the rows
a scan reaches), hook values against their hook lengths, and scan bounds;
beyond that they assume well-formed inputs (permutation contents, standard
immaculate P rows), which the public modules validate before calling in.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left

from ..composition import tree_product
from ..errors import InternalCheckError

BACKEND = "pure"

X_CHANGED = "straighten then unstraighten changed the filling"
Y_CHANGED = "unstraighten then straighten changed the pair"

# path cells the _checked_path memo of one ShapeOps may hold
PATH_MEMO_CELLS = 4096


class ShapeOps:
    """Precomputed flat geometry for one composition plus the hot operations."""

    def __init__(self, parts):
        # tuple() of lists, not generators: those tuples are resized from a
        # guessed length, and each dropped grows a free list tracemalloc sees
        parts = tuple([int(p) for p in parts])
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"bad composition parts: {parts!r}")
        n = sum(parts)
        if n > 2**31 - 1:
            # refused before any per-cell list: the compiled twin uses C ints
            raise OverflowError("composition size does not fit a C int")
        self.parts = parts
        self.size = n
        row_start = [0]
        for p in parts:
            row_start.append(row_start[-1] + p)
        self.row_start = row_start
        # every position; hook paths are sliced from it, so they share its
        # ints rather than make their own
        self._positions = list(range(n))
        self.rowof = [r for r, p in enumerate(parts) for _ in range(p)]
        self.colof = [c for p in parts for c in range(p)]
        self.right = [
            pos + 1 if self.colof[pos] + 1 < parts[self.rowof[pos]] else -1
            for pos in range(n)
        ]
        self.below = [
            row_start[self.rowof[pos] + 1]
            if self.colof[pos] == 0 and self.rowof[pos] + 1 < len(parts)
            else -1
            for pos in range(n)
        ]
        # traversal order: right-most column first, bottom-up within a column
        self.order = tuple(sorted(range(n), key=lambda p: (-self.colof[p], -self.rowof[p])))
        self.hooklen = tuple([
            n - pos if self.colof[pos] == 0 else row_start[self.rowof[pos] + 1] - pos
            for pos in range(n)
        ])
        # the row runs of the unchecked transforms: each row tail as
        # (start, stop, end), its cells [start, end) and its steps
        # [start, stop), which leave out order[0]; and the column-1 steps,
        # bottom-up
        self._tails = [(a + 1, b - (b - 1 == self.order[0]), b)
                       for a, b in zip(row_start, row_start[1:]) if b - a > 1]
        self._column1 = [pos for pos in self.order[1:] if self.colof[pos] == 0]
        self._checked_paths = {}
        self._path_budget = PATH_MEMO_CELLS

    # worked out on each read, not kept: only the scans' range arithmetic
    # reads them, and n! of a big shape costs more than all of its geometry
    @property
    def hook_prod(self) -> int:
        """Exact product of the hook lengths."""
        return tree_product(self.hooklen)

    @property
    def n_factorial(self) -> int:
        """Exact n!."""
        return math.factorial(self.size)

    # -- predicates ---------------------------------------------------------

    def is_standard_immaculate(self, entries) -> bool:
        """Stability of a flat filling, on any entries: rows weakly increase,
        column 1 strictly."""
        if len(entries) != self.size:
            raise ValueError(f"need {self.size} entries, got {len(entries)}")
        return self._path_standard(entries, self.order)

    def _path_standard(self, t, cells) -> bool:
        """Stability on the pairs of the given cells with their right and
        lower neighbours: rows weakly increase, column 1 strictly.

        On every cell, that is the stability of the whole filling.  On the
        cells of a hook path, it is what a step along the path can break in
        the traversal prefix that holds the path: a right or lower neighbour
        comes before its cell in the traversal, and a left or upper
        neighbour of a path cell is on the path too (a hook runs along rows
        and down column 1), or, for the path's first cell, after it.
        """
        right, below = self.right, self.below
        for q in cells:
            e, r, b = t[q], right[q], below[q]
            if (r >= 0 and e > t[r]) or (b >= 0 and e >= t[b]):
                return False
        return True

    # -- single moves -------------------------------------------------------

    def _slide(self, t, pos) -> list[int]:
        """Jeu de taquin on the flat array; mutates t, returns visited positions."""
        path = [pos]
        right, below, colof = self.right, self.below, self.colof
        while True:
            e = t[pos]
            r = right[pos]
            if colof[pos] > 0:
                if r < 0 or e <= t[r]:
                    break
                t[pos], t[r] = t[r], e
                pos = r
            else:
                b = below[pos]
                if (r < 0 or e <= t[r]) and (b < 0 or e < t[b]):
                    break
                if r >= 0 and b >= 0 and t[r] == t[b]:
                    raise InternalCheckError(f"tied neighbours while sliding at position {pos}")
                if b < 0 or (r >= 0 and t[r] < t[b]):
                    t[pos], t[r] = t[r], e
                    pos = r
                else:
                    t[pos], t[b] = t[b], e
                    pos = b
            path.append(pos)
        return path

    def _build_path(self, start, v) -> list[int]:
        """Positions from start to its v-th hook cell (hooks are flat runs)."""
        target = start + v - 1
        rowof, row_start = self.rowof, self.row_start
        if rowof[target] == rowof[start]:
            return self._positions[start:target + 1]
        path = [row_start[r] for r in range(rowof[start], rowof[target] + 1)]
        path += self._positions[row_start[rowof[target]] + 1:target + 1]
        return path

    def _checked_path(self, start, v):
        """The hook path from start to its v-th hook cell and the verdict of
        its closed-form hook index, as a tuple (path, hook_ok): path is
        _build_path(start, v), and hook_ok is _hook_index(start, start + v
        - 1) == v.

        Built when a checked step first takes that path and kept while
        the memo's budget of PATH_MEMO_CELLS path cells lasts, so callers
        must not change it; past the budget it is built anew each time.
        """
        key = start * self.size + v
        entry = self._checked_paths.get(key)
        if entry is None:
            path = self._build_path(start, v)
            entry = (path, self._hook_index(start, start + v - 1) == v)
            if len(path) <= self._path_budget:
                self._path_budget -= len(path)
                self._checked_paths[key] = entry
        return entry

    def _hook_index(self, start, end) -> int:
        # row-based closed form; must agree with the flat-run form end-start+1
        rs, re = self.rowof[start], self.rowof[end]
        if rs == re:
            return self.colof[end] - self.colof[start] + 1
        return self.row_start[re] - self.row_start[rs] + self.colof[end] + 1

    def _rotate_hook(self, t, start, v) -> None:
        """Circular right shift along the hook path from start to its v-th
        hook cell: each path cell takes its predecessor's entry, and start
        the last cell's.  The path ends in a flat run along the last cell's
        row, shifted as one slice; from column 1 the column-1 cells of the
        rows it crosses come first."""
        end = start + v - 1
        last = t[end]
        r, top = self.rowof[end], self.rowof[start]
        if r == top:
            t[start + 1:end + 1] = t[start:end]
        else:
            row_start = self.row_start
            run = row_start[r]
            t[run + 1:end + 1] = t[run:end]
            while r > top:
                t[row_start[r]] = t[row_start[r - 1]]
                r -= 1
        t[start] = last

    # -- full transforms ----------------------------------------------------
    #
    # Step k of straighten slides order[k]; step k of unstraighten rotates
    # the hook path of order[n - k].  Both read and write only the cells
    # order[0..k] (order[0..n-k] for unstraighten), which is what lets the
    # filling scan below share steps between fillings.  Each step's checks
    # live in one method, used by the checked transforms and by the walk
    # alike; the unchecked transforms inline the bare step.

    def _checked_slide(self, t, s, k):
        """Straighten step k with every check; returns (path, before): the
        slide path, as the shared list of its _checked_path entry, and the
        hook run of order[k] as it was before the step.

        The slide moves only the cells of its path, all in the hook of
        order[k], so the shift is checked on the path cells.  The first k
        traversal cells were stable before the step, and a row or column
        pair with no end on the path kept both its entries, so stability of
        the first k + 1 cells is _path_standard on the path.  The hook path
        and the verdict of its closed-form hook index depend on the path's
        endpoints alone, so they come from _checked_path.  On a failed check
        t and s[order[k]] are put back as they were, so a walk can go on to
        the next sibling from the same state.
        """
        pos = self.order[k]
        end = pos + self.hooklen[pos]
        before = t[pos:end]
        try:
            slid = self._slide(t, pos)
            v = slid[-1] - pos + 1
            s[pos] = v
            # the memo lookup inline, to save a call at every node of the
            # filling walk
            path, hook_ok = (
                self._checked_paths.get(pos * self.size + v) or self._checked_path(pos, v))
            if not hook_ok:
                raise InternalCheckError("hook index closed form disagrees with flat run")
            if slid != path:
                raise InternalCheckError("slide path is not the hook path of its endpoints")
            prev = path[-1]
            for q in path:
                if t[prev] != before[q - pos]:
                    raise InternalCheckError("slide result is not the circular left shift")
                prev = q
            if not self._path_standard(t, path):
                raise InternalCheckError(f"prefix standardness lost after step {k}")
        except InternalCheckError:
            t[pos:end] = before
            s[pos] = 1
            raise
        return path, before

    def _checked_rotate(self, t, j, k) -> None:
        """Unstraighten step k with its checks.  It moves only cells of the
        hook run of order[n - k]: a hook value past the hook raises
        IndexError before anything moves.

        Stability of the first n + 1 - k cells before the step is the
        caller's to check: _unstraighten_inplace checks it with
        _path_standard on the previous step's rotated path, and
        scan_fillings has it from the slide this step undoes.
        """
        n = self.size
        pos = self.order[n - k]
        v = j[pos]
        j[pos] = 1
        if v <= 1:
            return
        if v > self.hooklen[pos]:
            raise IndexError(f"hook value {v} out of range at position {pos}")
        self._rotate_hook(t, pos, v)

    @staticmethod
    def _check_exhausted(j) -> None:
        # a checked unstraighten must have consumed every hook value
        if j.count(1) != len(j):
            raise InternalCheckError("hook values not exhausted")

    # The unchecked transforms work by row runs.  The traversal takes every
    # cell off column 1 before column 1, and a slide or rotation from such
    # a cell stays in the run of its row right of column 1, its row tail.
    # So straighten sorts each row tail by insertion, right to left: a
    # slide passes the entries of the sorted run to its right that are
    # smaller, so its hook value is one more than their number.  Then it
    # slides the column-1 cells, bottom-up.  Unstraighten rotates the
    # column-1 cells top-down; the rotations of a row tail, left to right,
    # then each take the (v - 1)-th entry of those still in place to the
    # front, which is a Lehmer decode.  order[0] is no step of either, and
    # the hook values straighten writes start at 1, as its callers pass them.

    def _straighten_inplace(self, t, s, check) -> None:
        n = self.size
        if check:
            for k in range(1, n):
                self._checked_slide(t, s, k)
            return
        for start, _, end in self._tails:
            last = end - 1
            run = [t[last]]
            for pos in range(last - 1, start - 1, -1):
                e = t[pos]
                i = bisect_left(run, e)
                run.insert(i, e)
                s[pos] = i + 1
            t[start:end] = run
        for pos in self._column1:
            s[pos] = self._slide(t, pos)[-1] - pos + 1

    def _unstraighten_inplace(self, t, j, check) -> None:
        n = self.size
        if check:
            # Stability of the first n + 1 - k cells before step k: checked
            # whole before step 1, and after each rotation with
            # _path_standard on its path, whose cells the rotation alone
            # moved.  The path's first cell order[n - k] leaves the prefix,
            # so the check starts at the second; every pair with no end on
            # the path kept both entries.
            if not self.is_standard_immaculate(t):
                raise InternalCheckError("prefix standardness lost before step 1")
            for k in range(1, n):
                pos = self.order[n - k]
                v = j[pos]
                self._checked_rotate(t, j, k)
                if v > 1 and not self._path_standard(t, self._checked_path(pos, v)[0][1:]):
                    raise InternalCheckError(f"prefix standardness lost before step {k + 1}")
            self._check_exhausted(j)
            return
        hooklen = self.hooklen
        for pos in reversed(self._column1):
            v = j[pos]
            if v > 1:
                if v > hooklen[pos]:
                    raise IndexError(f"hook value {v} out of range at position {pos}")
                self._rotate_hook(t, pos, v)
        try:
            for start, stop, end in self._tails:
                rest = t[start:end]
                t[start:stop] = [rest.pop(v - 1 if v > 1 else 0) for v in j[start:stop]]
                t[stop:end] = rest
        except IndexError:
            # a hook value past its hook; name the first in step order
            pos = next(pos for pos in self.order[:0:-1]
                       if self.colof[pos] and j[pos] > hooklen[pos])
            raise IndexError(f"hook value {j[pos]} out of range at position {pos}") from None

    def straighten(self, entries, check=False) -> tuple[list[int], list[int]]:
        """Flat filling -> (flat standard immaculate filling, flat hook values)."""
        if len(entries) != self.size:
            raise ValueError(f"need {self.size} entries, got {len(entries)}")
        t = list(entries)
        s = [1] * self.size
        self._straighten_inplace(t, s, check)
        if check and not self.is_standard_immaculate(t):
            raise InternalCheckError("straighten result is not standard immaculate")
        return t, s

    def unstraighten(self, p_entries, hook_values, check=False) -> list[int]:
        """(flat standard immaculate filling, flat hook values) -> flat filling."""
        n = self.size
        if len(p_entries) != n or len(hook_values) != n:
            raise ValueError(f"need {n} entries and {n} hook values")
        t = list(p_entries)
        j = list(hook_values)
        self._unstraighten_inplace(t, j, check)
        return t

    # -- bulk scans ---------------------------------------------------------

    def count_standard(self) -> int:
        """Count the standard immaculate fillings by a pruned walk.

        The walk fills the cells depth first in traversal order, as
        scan_fillings does.  A cell's right and lower neighbours are filled
        before it, so it takes an unused value below both, and it leaves as
        many smaller unused values as there are cells left of it in its row
        and above it in column 1, which come later.  Each leaf counts one;
        no hook length or binomial is used.
        """
        n = self.size
        order, right, below, rowof, colof = self.order, self.right, self.below, self.rowof, self.colof
        t = [0] * n
        used = [False] * (n + 1)

        def visit(d):
            # order[0..d) are set
            if d == n:
                return 1
            pos = order[d]
            cap = min(t[right[pos]] if right[pos] >= 0 else n + 1,
                      t[below[pos]] if below[pos] >= 0 else n + 1)
            count = 0
            for v in [v for v in range(1, cap) if not used[v]][rowof[pos] + colof[pos]:]:
                t[pos], used[v] = v, True
                count += visit(d + 1)
                used[v] = False
            return count

        return visit(0)

    def scan_fillings(self, start, stop, check=True):
        """Roundtrip-check the fillings numbered [start, stop) in walk order.

        A depth-first walk assigns the values cell by cell in traversal
        order, smallest first, so leaf i is the filling whose entries, read
        in traversal order, form the i-th permutation of 1..n.  The node of
        depth d holds the state after straighten steps 1..d, which every
        filling below it shares.  It runs checked straighten step d once on
        the way down and inverse step n - d once on the way back up: the
        checked rotation by the hook value its slide stored in s[order[d]],
        then one compare of the hook run of order[d] with the run before the
        slide.  That run holds every cell the slide or the rotation can
        move, since a rotation past the hook raises IndexError first.  A
        leaf only tallies its filling.  A node of depth d has (n - 1 - d)!
        leaves below each child, a number it gets from its parent and passes
        on divided by n - 1 - d.

        Why the node steps are each filling's own roundtrip, by induction on
        depth: the children's compares prove that a node holds again exactly
        the state its slide left on order[0..d], so inverse step n - d acts
        on the state that the per-filling unstraighten of any leaf below
        reaches after its first n - d - 1 steps.  Later inverse steps never
        touch cell order[d], so the compares of a leaf's nodes together are
        its comparison with the filling.  Each check of the per-filling
        inverse runs once, where its state first arises: _checked_rotate at
        the node; stability of order[0..d] before the step, which the
        slide's own check found on that same state; and exhaustion of the
        hook values, as s[order[d]] == 1 after each node's step and as
        _check_exhausted(s) once the walk is back at depth 1.  The filling's
        own stability is carried down the walk from each cell's right and
        lower neighbours, as in count_standard.

        Everything else goes one filling at a time, through _roundtrip_each:
        a node whose slide raises InternalCheckError is not descended, and a
        node whose inverse step raises it or whose compare fails drops the
        entries its subtree filed but keeps its tally.  Either way
        _roundtrip_each then roundtrips the node's fillings within
        [start, stop) through the public methods, so every failure entry is
        the one a roundtrip of that filling alone gives.  The failed node
        then puts its hook run and its hook value back, so no ancestor finds
        the hook values unexhausted.  With check off the whole range goes
        through _roundtrip_each.  The clean checked scan that verify runs
        never calls it.

        Returns (standard_count, failures).  failures holds (rank, stage,
        message) in walk order, where rank is the lexicographic rank of the
        filling itself; standard_count tallies the standard immaculate
        fillings scanned.

        Only the bounds, check off, an empty range and the leaf numbers'
        width are handled here; the walk itself is _walk_fillings.  Beyond
        _walk_fillings and _roundtrip_each, this uses nothing of self but
        its public names, so both twins run it: the compiled ShapeOps holds
        this very function.  The compiled walk numbers its leaves in a C
        long long, so a checked scan of a nonempty range raises
        OverflowError on both twins when n! does not fit one (n > 20).
        """
        start, stop = operator.index(start), operator.index(stop)
        n_factorial = self.n_factorial
        if not 0 <= start <= stop <= n_factorial:
            raise ValueError(f"bad scan range [{start}, {stop}) for {self.size}! fillings")
        failures = []
        if not check:
            return self._roundtrip_each(start, stop, False, failures), failures
        if start == stop:
            return 0, failures
        if n_factorial > 2**63 - 1:
            raise OverflowError("n! too large for 64-bit leaf numbers")
        return self._walk_fillings(start, stop, n_factorial // self.size, failures), failures

    def _walk_fillings(self, start, stop, size, failures) -> int:
        """The checked walk of scan_fillings over [start, stop), which is
        nonempty and within n! < 2**63, with size = n!/n leaves below each
        child of the root; files the failures and returns the count of
        standard fillings."""
        n = self.size
        order, right, below, hooklen = self.order, self.right, self.below, self.hooklen
        x, t, s = [0] * n, [0] * n, [1] * n
        free = list(range(1, n + 1))
        standard = 0

        def visit(d, first, size, stable):
            # order[0..d) are set, stable if stable, and free[d:] holds the
            # values left, ascending; the leaves below are numbered from
            # first, size of them below each child
            nonlocal standard
            pos = order[d]
            r, b, end = right[pos], below[pos], pos + hooklen[pos]
            lo, i = first, 0
            while i < n - d and lo < stop:
                # child i takes the i-th smallest value left; swapping it to
                # the front keeps the values after it ascending
                if i:
                    free[d], free[d + i] = free[d + i], free[d]
                if lo + size > start:
                    v = x[pos] = t[pos] = free[d]
                    keep = stable and (r < 0 or v <= x[r]) and (b < 0 or v < x[b])
                    try:
                        before = self._checked_slide(t, s, d)[1] if d else None
                    except InternalCheckError:
                        standard += self._roundtrip_each(
                            max(lo, start), min(lo + size, stop), True, failures)
                    else:
                        filed = len(failures)
                        if d + 1 == n:
                            standard += keep
                        else:
                            visit(d + 1, lo, size // (n - 1 - d), keep)
                        if d:
                            # inverse step n - d; the hook run holds every
                            # cell that the slide or the rotation can move
                            try:
                                self._checked_rotate(t, s, n - d)
                                if d == 1:
                                    self._check_exhausted(s)
                                undone = s[pos] == 1 and t[pos:end] == before
                            except InternalCheckError:
                                undone = False
                            if not undone:
                                del failures[filed:]
                                self._roundtrip_each(
                                    max(lo, start), min(lo + size, stop), True, failures)
                                t[pos:end] = before
                                s[pos] = 1
                lo += size
                i += 1
            # the swaps left free[d:d + i] rotated right by one
            if i > 1:
                free[d:d + i] = free[d + 1:d + i] + free[d:d + 1]

        visit(0, 0, size, True)
        return standard

    def _roundtrip_each(self, lo, hi, check, failures) -> int:
        """Roundtrip the fillings numbered [lo, hi) in walk order one at a
        time, with roundtrip_filling, and append the failure entries of
        scan_fillings to failures; returns how many of them are standard.
        The entries of filling i, read in traversal order, are
        unrank_permutation(n, i).

        This uses nothing of self but its public names, so both twins run
        it: the compiled ShapeOps holds this very function, and both walks
        call it by name on self, so a subclass may override it.
        """
        n, order = self.size, self.order
        count = 0
        for i in range(lo, hi):
            y = [v for _, v in sorted(zip(order, unrank_permutation(n, i)))]
            count += self.is_standard_immaculate(y)
            failed = roundtrip_filling(self, y, check)
            if failed:
                failures.append((_lex_rank(y), *failed))
        return count

    def scan_pairs(self, p_table, start, stop, check=True):
        """Roundtrip-check the pairs numbered [start, stop), one at a time.

        Pair r is row p_table[r // hook_prod], read and length-checked only
        when the loop reaches it, with the hook values
        unrank_hook_values(hooklen, r % hook_prod).  Each pair goes through
        roundtrip_pair.  The loop uses nothing of self but its public names,
        so both twins run it: the compiled ShapeOps holds this very function.

        Returns failures like scan_fillings, (index, stage, message) in
        index order, where index is the pair's own r.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        hook_prod, hooklen = self.hook_prod, self.hooklen
        if not 0 <= start <= stop <= len(p_table) * hook_prod:
            raise ValueError(f"bad scan range [{start}, {stop})")
        failures = []
        for r in range(start, stop):
            row, rem = divmod(r, hook_prod)
            if r == start or rem == 0:
                p = list(p_table[row])
                if len(p) != n:
                    raise ValueError(f"need {n} entries, got {len(p)}")
            failed = roundtrip_pair(self, p, unrank_hook_values(hooklen, rem), check)
            if failed:
                failures.append((r, *failed))
        return failures


def roundtrip_filling(ops, x, check):
    """Roundtrip the flat filling x through ops.straighten and unstraighten:
    None if x comes back, else (stage, message), ("check", its message) for
    an InternalCheckError and ("roundtrip", X_CHANGED) for a change."""
    try:
        back = ops.unstraighten(*ops.straighten(x, check), check)
    except InternalCheckError as exc:
        return "check", str(exc)
    return None if back == x else ("roundtrip", X_CHANGED)


def roundtrip_pair(ops, p, j, check):
    """roundtrip_filling for the pair of flat lists (p, j), through
    ops.unstraighten and straighten; a changed pair gives Y_CHANGED."""
    try:
        back = ops.straighten(ops.unstraighten(p, j, check), check)
    except InternalCheckError as exc:
        return "check", str(exc)
    return None if back == (p, j) else ("roundtrip", Y_CHANGED)


def unrank_hook_values(hooklen, rem) -> list[int]:
    """Hook values number rem in mixed radix, last flat cell fastest: the
    value at a cell of hook length h is its digit in base h, plus one."""
    values = [0] * len(hooklen)
    for pos in range(len(hooklen) - 1, -1, -1):
        rem, d = divmod(rem, hooklen[pos])
        values[pos] = d + 1
    return values


def unrank_permutation(n: int, rank: int) -> tuple[int, ...]:
    """The rank-th permutation of 1..n in lexicographic order (0-based rank)."""
    if not 0 <= rank < math.factorial(n):
        raise ValueError(f"rank {rank} out of range for n={n}")
    pool = list(range(1, n + 1))
    out = []
    for i in range(n, 0, -1):
        idx, rank = divmod(rank, math.factorial(i - 1))
        out.append(pool.pop(idx))
    return tuple(out)


def _lex_rank(x) -> int:
    """Lexicographic rank of a permutation among all permutations of its values."""
    n = len(x)
    rank = 0
    for i, v in enumerate(x):
        rank = rank * (n - i) + sum(1 for w in x[i + 1:] if w < v)
    return rank
