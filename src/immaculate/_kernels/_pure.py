"""Pure-Python kernels for the hot loops, on flat row-major arrays.

This module is the spec of the kernels.  The compiled twin, the hand-written
C file ``_speedups.c``, mirrors it function by function: each of
``_prefix_standard``, ``_slide``, ``_build_path``, ``_hook_index``,
``_rotate_left``/``_rotate_right``, the checked steps ``_checked_slide``/
``_checked_rotate`` with ``_check_exhausted``, ``_straighten_inplace``/
``_unstraighten_inplace`` and ``_lex_rank`` has a C function of the same
name, the ``visit``/``leaf`` functions nested in ``count_standard``,
``scan_fillings`` and ``scan_pairs`` are ``count_visit``, ``fill_visit``/
``fill_leaf`` and ``pair_visit``/``pair_leaf`` there, and the public methods
raise the same exceptions with the same messages.  Which twin you get from
``immaculate._kernels`` is decided at import time.

Positions here are 0-based flat indices, and a key layout fact keeps
everything tight: in row-major order every hook occupies a contiguous run of
positions, so the v-th hook cell of position p is simply p + v - 1.

The public methods check input lengths (for a P table, those of the rows
a scan reaches), hook values against their hook lengths, and scan bounds;
beyond that they assume well-formed inputs (permutation contents, standard
immaculate P rows), which the public modules validate before calling in.
"""

from __future__ import annotations

import math
import operator

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
        self.hooklen = [
            n - pos if self.colof[pos] == 0 else row_start[self.rowof[pos] + 1] - pos
            for pos in range(n)
        ]
        self.hook_prod = 1
        for h in self.hooklen:
            self.hook_prod *= h
        self.n_factorial = math.factorial(n)
        self._hook_paths = {}
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
        """Positions from start to its v-th hook cell (hooks are flat runs).

        Built once per (start, v) and shared after that, so callers must
        not change the list.
        """
        key = start * self.size + v
        path = self._hook_paths.get(key)
        if path is None:
            target = start + v - 1
            rowof, row_start = self.rowof, self.row_start
            if rowof[target] == rowof[start]:
                path = list(range(start, target + 1))
            else:
                path = [row_start[r] for r in range(rowof[start], rowof[target] + 1)]
                path.extend(range(row_start[rowof[target]] + 1, target + 1))
            self._hook_paths[key] = path
        return path

    def _hook_index(self, start, end) -> int:
        # row-based closed form; must agree with the flat-run form end-start+1
        rs, re = self.rowof[start], self.rowof[end]
        if rs == re:
            return self.colof[end] - self.colof[start] + 1
        return self.row_start[re] - self.row_start[rs] + self.colof[end] + 1

    @staticmethod
    def _rotate_right(t, path) -> None:
        last = t[path[-1]]
        for k in range(len(path) - 1, 0, -1):
            t[path[k]] = t[path[k - 1]]
        t[path[0]] = last

    @staticmethod
    def _rotate_left(t, path) -> None:
        first = t[path[0]]
        for k in range(len(path) - 1):
            t[path[k]] = t[path[k + 1]]
        t[path[-1]] = first

    # -- full transforms ----------------------------------------------------
    #
    # Step k of straighten slides order[k]; step k of unstraighten rotates
    # the hook path of order[n - k].  Both read and write only the cells
    # order[0..k] (order[0..n-k] for unstraighten), which is what lets the
    # scans below share steps between objects.  Each step's checks live in
    # one method, used by the checked transforms and by the walks alike; the
    # unchecked transforms inline the bare step.

    def _checked_slide(self, t, s, k) -> list[int]:
        """Straighten step k with every check; returns the slide path.

        On a failed check t is put back as it was, so a walk can go on to the
        next sibling from the same state.
        """
        pos = self.order[k]
        before = t[:]
        try:
            path = self._slide(t, pos)
            v = path[-1] - path[0] + 1
            s[pos] = v
            if self._hook_index(path[0], path[-1]) != v:
                raise InternalCheckError("hook index closed form disagrees with flat run")
            if path != self._build_path(pos, v):
                raise InternalCheckError("slide path is not the hook path of its endpoints")
            rotated = before[:]
            self._rotate_left(rotated, path)
            if rotated != t:
                raise InternalCheckError("slide result is not the circular left shift")
            if not self._prefix_standard(t, k + 1):
                raise InternalCheckError(f"prefix standardness lost after step {k}")
        except InternalCheckError:
            t[:] = before
            raise
        return path

    def _checked_rotate(self, t, j, k):
        """Unstraighten step k with every check; returns the rotated path, or
        None when the hook value is 1 and nothing moves."""
        n = self.size
        pos = self.order[n - k]
        if not self._prefix_standard(t, n + 1 - k):
            raise InternalCheckError(f"prefix standardness lost before step {k}")
        v = j[pos]
        j[pos] = 1
        if v <= 1:
            return None
        if v > self.hooklen[pos]:
            raise IndexError(f"hook value {v} out of range at position {pos}")
        path = self._build_path(pos, v)
        self._rotate_right(t, path)
        return path

    @staticmethod
    def _check_exhausted(j) -> None:
        # a checked unstraighten must have consumed every hook value
        if j.count(1) != len(j):
            raise InternalCheckError("hook values not exhausted")

    def _straighten_inplace(self, t, s, check) -> None:
        n = self.size
        if check:
            for k in range(1, n):
                self._checked_slide(t, s, k)
            return
        order = self.order
        for k in range(1, n):
            pos = order[k]
            s[pos] = self._slide(t, pos)[-1] - pos + 1

    def _unstraighten_inplace(self, t, j, check) -> None:
        n = self.size
        if check:
            for k in range(1, n):
                self._checked_rotate(t, j, k)
            self._check_exhausted(j)
            return
        order, hooklen = self.order, self.hooklen
        for k in range(1, n):
            pos = order[n - k]
            v = j[pos]
            if v > 1:
                if v > hooklen[pos]:
                    raise IndexError(f"hook value {v} out of range at position {pos}")
                self._rotate_right(t, self._build_path(pos, v))

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
        in traversal order, form the i-th permutation of 1..n.  Each tree
        node runs its straighten step once, on the state all its leaves
        share, and undoes it on the way back by rotating the slide path
        right.  Each leaf runs the full unstraighten on a copy and compares
        it with the filling.  A check that fails at a node fails every leaf
        below it with that message, as it would have one filling at a time.

        Returns (standard_count, failures).  failures holds (rank, stage,
        message) in walk order, where rank is the lexicographic rank of the
        filling itself; standard_count tallies the standard immaculate
        fillings scanned.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        if not 0 <= start <= stop <= self.n_factorial:
            raise ValueError(f"bad scan range [{start}, {stop}) for {n}! fillings")
        order = self.order
        # leaves below one node of depth d + 1, that is with order[0..d] set
        leaves = [math.factorial(n - 1 - d) for d in range(n)]
        x, t, s = [0] * n, [0] * n, [1] * n
        used = [False] * (n + 1)
        failures = []
        standard = 0

        def leaf(error):
            nonlocal standard
            standard += self.is_standard_immaculate(x)
            if error is None:
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

        def visit(d, first, error):
            # order[0..d) are set; the leaves below are numbered from first
            if d == n:
                leaf(error)
                return
            pos, size = order[d], leaves[d]
            lo = first
            for v in range(1, n + 1):
                if used[v]:
                    continue
                if lo >= stop:
                    return
                if lo + size > start:
                    x[pos] = t[pos] = v
                    path, err = None, error
                    if d and err is None:
                        try:
                            if check:
                                path = self._checked_slide(t, s, d)
                            else:
                                path = self._slide(t, pos)
                                s[pos] = path[-1] - pos + 1
                        except InternalCheckError as exc:
                            err = str(exc)
                    used[v] = True
                    visit(d + 1, lo, err)
                    used[v] = False
                    if path is not None:
                        self._rotate_right(t, path)
                lo += size

        if start < stop:
            visit(0, 0, None)
        return standard, failures

    def scan_pairs(self, p_table, start, stop, check=True):
        """Roundtrip-check the pairs numbered [start, stop) in walk order.

        Pair r takes row p_table[r // hook_prod], read and length-checked
        only when the walk reaches it.  Below each row a
        depth-first walk assigns the hook values in unstraighten order, the
        values of order[n-1], order[n-2], ..., order[1], smallest first; the
        hook value of order[0] is always 1.  Each tree node runs its
        unstraighten step once and undoes it on the way back by rotating the
        path left.  Each leaf runs the full straighten on a copy and
        compares it with the pair.  A check that fails at a node fails every
        leaf below it with that message.

        Returns failures like scan_fillings, in walk order, but each index
        is the flat one: the row index times hook_prod plus the hook values
        read in mixed radix, last flat cell fastest.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        hook_prod = self.hook_prod
        if not 0 <= start <= stop <= len(p_table) * hook_prod:
            raise ValueError(f"bad scan range [{start}, {stop})")
        order, hooklen = self.order, self.hooklen
        # leaves below one node of depth k, that is with k - 1 steps done
        leaves = [1] * (n + 1)
        for k in range(n - 1, 0, -1):
            leaves[k - 1] = leaves[k] * hooklen[order[n - k]]
        j, jv = [1] * n, [1] * n
        failures = []
        row = p = t = None

        def flat_index():
            index = row
            for pos in range(n):
                index = index * hooklen[pos] + jv[pos] - 1
            return index

        def leaf(error):
            if error is None:
                try:
                    if check:
                        self._check_exhausted(j)
                    back, s = list(t), [1] * n
                    self._straighten_inplace(back, s, check)
                except InternalCheckError as exc:
                    error = str(exc)
                else:
                    if back != p or s != jv:
                        failures.append((flat_index(), "roundtrip", Y_CHANGED))
                    return
            failures.append((flat_index(), "check", error))

        def visit(k, first, error):
            # steps 1..k-1 are done; the leaves below are numbered from first
            if k == n:
                leaf(error)
                return
            pos, size = order[n - k], leaves[k]
            lo = first
            for v in range(1, hooklen[pos] + 1):
                if lo >= stop:
                    return
                if lo + size > start:
                    jv[pos] = j[pos] = v
                    path, err = None, error
                    if err is None:
                        try:
                            if check:
                                path = self._checked_rotate(t, j, k)
                            elif v > 1:
                                path = self._build_path(pos, v)
                                self._rotate_right(t, path)
                        except InternalCheckError as exc:
                            err = str(exc)
                    visit(k + 1, lo, err)
                    if path is not None:
                        self._rotate_left(t, path)
                lo += size

        for row in range(start // hook_prod, -(-stop // hook_prod)):
            p = list(p_table[row])
            if len(p) != n:
                raise ValueError(f"need {n} entries, got {len(p)}")
            t = list(p)
            visit(1, row * hook_prod, None)
        return failures


def _lex_rank(x) -> int:
    """Lexicographic rank of a permutation among all permutations of its values."""
    n = len(x)
    rank = 0
    for i, v in enumerate(x):
        rank = rank * (n - i) + sum(1 for w in x[i + 1:] if w < v)
    return rank
