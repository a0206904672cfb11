"""Pure-Python kernels for the hot loops, on flat row-major arrays.

This module is the spec of the kernels.  The compiled twin, the hand-written
C file ``_speedups.c``, mirrors it function by function: each of
``_prefix_standard``, ``_slide``, ``_build_path``, ``_hook_index``,
``_rotate_left``/``_rotate_right`` and ``_straighten_inplace``/
``_unstraighten_inplace`` has a C function of the same name, and the public
methods raise the same exceptions with the same messages.  Which twin you
get from ``immaculate._kernels`` is decided at import time.

Positions here are 0-based flat indices, and a key layout fact keeps
everything tight: in row-major order every hook occupies a contiguous run of
positions, so the v-th hook cell of position p is simply p + v - 1.

The public methods check input lengths and scan bounds; beyond that they
assume well-formed inputs (permutation contents, hook values in range), which
the public modules validate before calling in.
"""

from __future__ import annotations

import itertools
import math
import operator

from ..errors import InternalCheckError

BACKEND = "pure"


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
        self.rank = [0] * n
        for k, pos in enumerate(self.order):
            self.rank[pos] = k
        self.hooklen = [
            n - pos if self.colof[pos] == 0 else row_start[self.rowof[pos] + 1] - pos
            for pos in range(n)
        ]
        self.hook_prod = 1
        for h in self.hooklen:
            self.hook_prod *= h
        self.n_factorial = math.factorial(n)
        # (a, b) meaning entries[a] < entries[b] is required; for permutation
        # contents this is exactly the standard-immaculate condition
        pairs = []
        for pos in range(n):
            if self.right[pos] >= 0:
                pairs.append((pos, self.right[pos]))
            if self.below[pos] >= 0:
                pairs.append((pos, self.below[pos]))
        self.pairs = pairs

    # -- predicates ---------------------------------------------------------

    def is_standard_immaculate(self, entries) -> bool:
        """Stability of a flat filling whose entries are a permutation of 1..n."""
        if len(entries) != self.size:
            raise ValueError(f"need {self.size} entries, got {len(entries)}")
        for a, b in self.pairs:
            if entries[a] > entries[b]:
                return False
        return True

    def _prefix_standard(self, t, count) -> bool:
        # stability of the first `count` traversal cells, treating everything
        # outside that prefix as infinite
        order, rank, right, below, colof = self.order, self.rank, self.right, self.below, self.colof
        for m in range(count):
            pos = order[m]
            e = t[pos]
            r = right[pos]
            if r >= 0 and rank[r] < count and e > t[r]:
                return False
            if colof[pos] == 0:
                b = below[pos]
                if b >= 0 and rank[b] < count and e >= t[b]:
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
        if self.rowof[target] == self.rowof[start]:
            return list(range(start, target + 1))
        path = [self.row_start[r] for r in range(self.rowof[start], self.rowof[target] + 1)]
        path.extend(range(self.row_start[self.rowof[target]] + 1, target + 1))
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

    def _straighten_inplace(self, t, s, check) -> None:
        n = self.size
        order = self.order
        for k in range(1, n):
            pos = order[k]
            before = list(t) if check else None
            path = self._slide(t, pos)
            v = path[-1] - path[0] + 1
            s[pos] = v
            if check:
                if self._hook_index(path[0], path[-1]) != v:
                    raise InternalCheckError("hook index closed form disagrees with flat run")
                if path != self._build_path(pos, v):
                    raise InternalCheckError("slide path is not the hook path of its endpoints")
                rotated = list(before)
                self._rotate_left(rotated, path)
                if rotated != t:
                    raise InternalCheckError("slide result is not the circular left shift")
                if not self._prefix_standard(t, k + 1):
                    raise InternalCheckError(f"prefix standardness lost after step {k}")

    def _unstraighten_inplace(self, t, j, check) -> None:
        n = self.size
        order = self.order
        for k in range(1, n):
            pos = order[n - k]
            if check and not self._prefix_standard(t, n + 1 - k):
                raise InternalCheckError(f"prefix standardness lost before step {k}")
            v = j[pos]
            j[pos] = 1
            if v > 1:
                if v > n - pos:
                    raise IndexError(f"hook value {v} out of range at position {pos}")
                self._rotate_right(t, self._build_path(pos, v))
        if check and any(v != 1 for v in j):
            raise InternalCheckError("hook values not exhausted")

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
        """Brute-force count of standard immaculate fillings over all n! fillings."""
        pairs = self.pairs
        count = 0
        for perm in itertools.permutations(range(1, self.size + 1)):
            for a, b in pairs:
                if perm[a] > perm[b]:
                    break
            else:
                count += 1
        return count

    def scan_fillings(self, start, stop, check=True):
        """Roundtrip-check fillings with lexicographic ranks in [start, stop).

        Returns (standard_count, failures) where failures is a list of
        (rank, stage, message) and standard_count tallies how many scanned
        fillings were standard immaculate.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        if not 0 <= start <= stop <= self.n_factorial:
            raise ValueError(f"bad scan range [{start}, {stop}) for {n}! fillings")
        pairs = self.pairs
        standard = 0
        failures = []
        perms = itertools.islice(itertools.permutations(range(1, n + 1)), start, stop)
        for rank, perm in enumerate(perms, start):
            for a, b in pairs:
                if perm[a] > perm[b]:
                    break
            else:
                standard += 1
            t = list(perm)
            s = [1] * n
            try:
                self._straighten_inplace(t, s, check)
                self._unstraighten_inplace(t, s, check)
            except InternalCheckError as exc:
                failures.append((rank, "check", str(exc)))
                continue
            if tuple(t) != perm:
                failures.append((rank, "roundtrip", "straighten then unstraighten changed the filling"))
        return standard, failures

    def scan_pairs(self, p_table, start, stop, check=True):
        """Roundtrip-check pairs with combined indices in [start, stop).

        Index r encodes row p_table[r // hook_prod] together with the
        (r % hook_prod)-th hook-value assignment in lexicographic order
        (last flat cell varying fastest).  Returns a failure list like
        scan_fillings.
        """
        n = self.size
        start, stop = operator.index(start), operator.index(stop)
        if not 0 <= start <= stop <= len(p_table) * self.hook_prod:
            raise ValueError(f"bad scan range [{start}, {stop})")
        hooklen = self.hooklen
        failures = []
        j = [0] * n
        for r in range(start, stop):
            p_idx, rem = divmod(r, self.hook_prod)
            p = p_table[p_idx]
            for pos in range(n - 1, -1, -1):
                rem, d = divmod(rem, hooklen[pos])
                j[pos] = d + 1
            t = list(p)
            jj = list(j)
            try:
                self._unstraighten_inplace(t, jj, check)
                s = [1] * n
                self._straighten_inplace(t, s, check)
            except InternalCheckError as exc:
                failures.append((r, "check", str(exc)))
                continue
            if list(p) != t or s != j:
                failures.append((r, "roundtrip", "unstraighten then straighten changed the pair"))
        return failures
