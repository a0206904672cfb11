"""Pure-Python kernels for the hot loops, on flat row-major arrays.

This module is the spec of the kernels.  The compiled twin, the hand-written
C file ``_speedups.c``, mirrors it function by function: each of
``_prefix_standard``, ``_slide``, ``_build_path``, ``_hook_index``,
``_rotate_hook``, the checked steps ``_checked_slide``/``_checked_rotate``
with ``_check_exhausted``, ``_straighten_inplace``/``_unstraighten_inplace``
and ``_lex_rank`` has a C function of the same name, the functions nested in
``count_standard`` (``visit``) and ``scan_fillings`` (``visit``, ``leaf``,
``undo``) are ``count_visit`` and ``fill_visit``/``fill_leaf``/``fill_undo``
there, and the public methods raise the same exceptions with the same
messages.  Which twin you get from ``immaculate._kernels`` is decided at
import time.

Where the twins differ: what a checked slide learns from its path alone,
the ``_hook_index`` verdict and the row and column pairs whose stability it
checks, is computed here once per hook path and kept in a memo
(``_checked_path``).  The C twin builds each path into a buffer and works
both out again on every slide, the pairs in its ``_path_standard``.  And
with check off, ``_straighten_inplace`` and ``_unstraighten_inplace`` take
each row right of column 1 as one run here: an insertion sort with
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

from ..errors import InternalCheckError

BACKEND = "pure"

X_CHANGED = "straighten then unstraighten changed the filling"
Y_CHANGED = "unstraighten then straighten changed the pair"


class ShapeOps:
    """Precomputed flat geometry for one composition plus the hot operations."""

    def __init__(self, parts):
        parts = tuple(int(p) for p in parts)
        if not parts or any(p < 1 for p in parts):
            raise ValueError(f"bad composition parts: {parts!r}")
        self.parts = parts
        n = sum(parts)
        self.size = n
        row_start = [0]
        for p in parts:
            row_start.append(row_start[-1] + p)
        self.row_start = row_start
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
        self.order = sorted(range(n), key=lambda p: (-self.colof[p], -self.rowof[p]))
        self.hooklen = tuple(
            n - pos if self.colof[pos] == 0 else row_start[self.rowof[pos] + 1] - pos
            for pos in range(n)
        )
        self.hook_prod = 1
        for h in self.hooklen:
            self.hook_prod *= h
        self.n_factorial = math.factorial(n)
        # the row runs of the unchecked transforms: each row tail as
        # (start, stop, end), its cells [start, end) and its steps
        # [start, stop), which leave out order[0]; and the column-1 steps,
        # bottom-up
        self._tails = [(a + 1, b - (b - 1 == self.order[0]), b)
                       for a, b in zip(row_start, row_start[1:]) if b - a > 1]
        self._column1 = [pos for pos in self.order[1:] if self.colof[pos] == 0]
        self._checked_paths = {}
        # Stability, in traversal order: each cell with a right neighbour
        # makes a row pair and each column-1 cell with one below a column
        # pair.  Both neighbours of a traversal cell come before it in the
        # traversal, so the first `count` cells are stable exactly when the
        # first prefix_cut[count] row and column pairs hold.
        self.row_pairs = [(pos, self.right[pos]) for pos in self.order if self.right[pos] >= 0]
        self.col_pairs = [(pos, self.below[pos]) for pos in self.order if self.below[pos] >= 0]
        self.prefix_cut = [(0, 0)]
        for pos in self.order:
            rows, cols = self.prefix_cut[-1]
            self.prefix_cut.append((rows + (self.right[pos] >= 0), cols + (self.below[pos] >= 0)))

    # -- predicates ---------------------------------------------------------

    def is_standard_immaculate(self, entries) -> bool:
        """Stability of a flat filling, on any entries: rows weakly increase,
        column 1 strictly."""
        if len(entries) != self.size:
            raise ValueError(f"need {self.size} entries, got {len(entries)}")
        # _prefix_standard(entries, n) without its slices
        for a, b in self.row_pairs:
            if entries[a] > entries[b]:
                return False
        for a, b in self.col_pairs:
            if entries[a] >= entries[b]:
                return False
        return True

    def _prefix_standard(self, t, count) -> bool:
        # stability of the first `count` traversal cells, treating everything
        # outside that prefix as infinite: rows weakly increase, column 1
        # strictly
        rows, cols = self.prefix_cut[count]
        for a, b in self.row_pairs[:rows]:
            if t[a] > t[b]:
                return False
        for a, b in self.col_pairs[:cols]:
            if t[a] >= t[b]:
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
            return list(range(start, target + 1))
        path = [row_start[r] for r in range(rowof[start], rowof[target] + 1)]
        path.extend(range(row_start[rowof[target]] + 1, target + 1))
        return path

    def _checked_path(self, start, v):
        """What the checks of a slide from start to its v-th hook cell read
        from the path alone, as a tuple (path, hook_ok, row_pairs, col_pairs).

        Built once per (start, v), when a checked slide first takes that
        path, and shared after that, so callers must not change it.  path
        is _build_path(start, v), and hook_ok the verdict
        _hook_index(start, start + v - 1) == v.  row_pairs and col_pairs are
        the row and column pairs that have an end on path and lie in the
        traversal prefix that ends at start: the pairs whose stability the
        slide can break.  A right or lower neighbour comes before its cell
        in the traversal, so every pair of a path cell with one of those is
        in.  A left or upper neighbour of a path cell is on the path too (a
        hook runs along rows and down column 1), or, for start itself, comes
        after start; so no other pair is.  A row pair (a, a + 1) is given by
        its left cell a, to keep the memo small; a column pair as (a, b).
        """
        key = start * self.size + v
        entry = self._checked_paths.get(key)
        if entry is None:
            path = self._build_path(start, v)
            right, below = self.right, self.below
            entry = (path, self._hook_index(start, start + v - 1) == v,
                     tuple(q for q in path if right[q] >= 0),
                     tuple((q, below[q]) for q in path if below[q] >= 0))
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
        the first k + 1 cells is checked on the pairs with an end on the
        path.  The closed-form hook index and those pairs depend on the path
        alone, so they come from _checked_path, built once per path.  On a
        failed check t is put back as it was, so a walk can go on to the
        next sibling from the same state.
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
            path, hook_ok, row_pairs, col_pairs = (
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
            for a in row_pairs:
                if t[a] > t[a + 1]:
                    raise InternalCheckError(f"prefix standardness lost after step {k}")
            for a, b in col_pairs:
                if t[a] >= t[b]:
                    raise InternalCheckError(f"prefix standardness lost after step {k}")
        except InternalCheckError:
            t[pos:end] = before
            raise
        return path, before

    def _checked_rotate(self, t, j, k) -> None:
        """Unstraighten step k with its checks.  It moves only cells of the
        hook run of order[n - k]: a hook value past the hook raises
        IndexError before anything moves.

        Stability of the first n + 1 - k cells before the step is the
        caller's to check: _unstraighten_inplace rescans it, and
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
            for k in range(1, n):
                if not self._prefix_standard(t, n + 1 - k):
                    raise InternalCheckError(f"prefix standardness lost before step {k}")
                self._checked_rotate(t, j, k)
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
        filling below it shares.  It runs straighten step d once on the way
        down and inverse step n - d once on the way back up: the checked
        rotation by the hook value its slide stored in s[order[d]], then one
        compare of the hook run of order[d] with the run before the slide.
        That run holds every cell the slide or the rotation can move, since
        a rotation past the hook raises IndexError first.  A leaf only
        tallies its filling and files the check that failed above it, if
        any.  A check that fails at a slide fails every leaf below it with
        that message, as it would one filling at a time.

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

        When a node's inverse step raises InternalCheckError or its compare
        fails, the entries its subtree filed are dropped and the subtree is
        walked again, within [start, stop), with the per-filling inverse at
        every leaf: _unstraighten_inplace on a copy and the full comparison
        with the filling.  So every entry is the one a roundtrip of that
        filling alone gives; that path runs only on failure.  The walk again
        starts from the hook run before the slide, slid once more, and each
        node of it, like the failed node after it, puts that run back and
        its hook value to 1, so no ancestor finds the hook values
        unexhausted and walks its subtree again too.

        Returns (standard_count, failures).  failures holds (rank, stage,
        message) in walk order, where rank is the lexicographic rank of the
        filling itself; standard_count tallies the standard immaculate
        fillings scanned.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        if not 0 <= start <= stop <= self.n_factorial:
            raise ValueError(f"bad scan range [{start}, {stop}) for {n}! fillings")
        order, right, below, hooklen = self.order, self.right, self.below, self.hooklen
        # leaves below one node of depth d + 1, that is with order[0..d] set
        leaves = [math.factorial(n - 1 - d) for d in range(n)]
        x, t, s = [0] * n, [0] * n, [1] * n
        free = list(range(1, n + 1))
        failures = []
        standard = 0
        per_leaf = False  # while a failed node's subtree is walked again

        def leaf(stable, error):
            nonlocal standard
            standard += stable
            if error is None:
                if not per_leaf:
                    return
                back, j = list(t), list(s)
                try:
                    self._unstraighten_inplace(back, j, check)
                except InternalCheckError as exc:
                    error = str(exc)
                else:
                    if back != x:
                        failures.append((_lex_rank(x), "roundtrip", X_CHANGED))
                    return
            failures.append((_lex_rank(x), "check", error))

        def undo(d, before) -> bool:
            # inverse step n - d at the depth-d node; before holds the hook
            # run of order[d] as it was before the slide, and the run holds
            # every cell that the slide or the rotation can move
            pos = order[d]
            try:
                if check:
                    self._checked_rotate(t, s, n - d)
                    if d == 1:
                        self._check_exhausted(s)
                    if s[pos] != 1:
                        return False
                else:
                    v = s[pos]
                    if v > 1:
                        if v > hooklen[pos]:
                            raise IndexError(f"hook value {v} out of range at position {pos}")
                        self._rotate_hook(t, pos, v)
            except InternalCheckError:
                return False
            return t[pos:pos + hooklen[pos]] == before

        def visit(d, first, error, stable):
            # order[0..d) are set, stable if stable, and free[d:] holds the
            # values left, ascending; the leaves below are numbered from first
            nonlocal standard, per_leaf
            if d == n:
                leaf(stable, error)
                return
            pos, size = order[d], leaves[d]
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
                    before, err = None, error
                    if d and err is None:
                        try:
                            if check:
                                before = self._checked_slide(t, s, d)[1]
                            else:
                                before = t[pos:end]
                                s[pos] = self._slide(t, pos)[-1] - pos + 1
                        except InternalCheckError as exc:
                            before, err = None, str(exc)
                    filed, tally = len(failures), standard
                    if d + 1 == n:
                        leaf(keep, err)
                    else:
                        visit(d + 1, lo, err, keep)
                    if before is not None:
                        if per_leaf:
                            t[pos:end] = before
                            s[pos] = 1
                        else:
                            hook = s[pos]
                            if not undo(d, before):
                                # walk the subtree again from the state the
                                # slide left, with the per-filling inverse
                                del failures[filed:]
                                standard = tally
                                t[pos:end] = before
                                self._slide(t, pos)
                                s[pos] = hook
                                per_leaf = True
                                visit(d + 1, lo, None, keep)
                                per_leaf = False
                                t[pos:end] = before
                                s[pos] = 1
                lo += size
                i += 1
            # the swaps left free[d:d + i] rotated right by one
            if i > 1:
                free[d:d + i] = free[d + 1:d + i] + free[d:d + 1]

        if start < stop:
            visit(0, 0, None, True)
        return standard, failures

    def scan_pairs(self, p_table, start, stop, check=True):
        """Roundtrip-check the pairs numbered [start, stop), one at a time.

        Pair r is row p_table[r // hook_prod], read and length-checked only
        when the loop reaches it, with the hook values of r % hook_prod in
        mixed radix, last flat cell fastest.  Each pair runs
        _unstraighten_inplace and then _straighten_inplace on copies, and
        the result is compared with the pair.

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
            jv = [0] * n
            for pos in range(n - 1, -1, -1):
                rem, d = divmod(rem, hooklen[pos])
                jv[pos] = d + 1
            back, j, s = list(p), list(jv), [1] * n
            try:
                self._unstraighten_inplace(back, j, check)
                self._straighten_inplace(back, s, check)
            except InternalCheckError as exc:
                failures.append((r, "check", str(exc)))
                continue
            if back != p or s != jv:
                failures.append((r, "roundtrip", Y_CHANGED))
        return failures


def _lex_rank(x) -> int:
    """Lexicographic rank of a permutation among all permutations of its values."""
    n = len(x)
    rank = 0
    for i, v in enumerate(x):
        rank = rank * (n - i) + sum(1 for w in x[i + 1:] if w < v)
    return rank
