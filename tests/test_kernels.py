"""Parity tests binding the kernels to the reference implementation and to
each other.  The pure backend always exists; the compiled one is skipped
gracefully when the extension did not build."""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from immaculate._kernels import BACKEND, BACKEND_REASON, get_backend
from immaculate.bijection import HookTableau, Pair, straighten, unstraighten
from immaculate.composition import Composition, compositions, count_formula
from immaculate.errors import InternalCheckError
from immaculate.tableau import Tableau

pure = get_backend("pure")
try:
    compiled = get_backend("compiled")
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(compiled is None, reason="extension not built")


def random_shape(rng, n):
    parts = []
    while n > 0:
        p = rng.randint(1, n)
        parts.append(p)
        n -= p
    return tuple(parts)


class TestPureAgainstReference:
    def test_exhaustive(self):
        for n in range(1, 5):
            for alpha in compositions(n):
                ops = pure.ShapeOps(alpha.parts)
                for perm in itertools.permutations(range(1, n + 1)):
                    t = Tableau.from_flat(alpha, perm)
                    pair, _ = straighten(t, check=True)
                    p, j = ops.straighten(list(perm), check=True)
                    assert tuple(p) == pair.tableau.flat()
                    assert tuple(j) == tuple(v for r in pair.hooks.rows for v in r)
                    assert tuple(ops.unstraighten(p, j, check=True)) == perm
                    assert ops.is_standard_immaculate(perm) == t.is_standard_immaculate()

    def test_random_medium(self):
        rng = random.Random(11)
        for _ in range(25):
            parts = random_shape(rng, 10)
            alpha = Composition(parts)
            ops = pure.ShapeOps(parts)
            vals = list(range(1, 11))
            rng.shuffle(vals)
            t = Tableau.from_flat(alpha, vals)
            pair, _ = straighten(t, check=True)
            p, j = ops.straighten(vals, check=True)
            assert tuple(p) == pair.tableau.flat()
            assert tuple(j) == tuple(v for r in pair.hooks.rows for v in r)

    def test_count_matches_formula(self):
        for n in range(1, 7):
            for alpha in compositions(n):
                assert pure.ShapeOps(alpha.parts).count_standard() == count_formula(alpha)


@needs_compiled
class TestCompiledAgainstPure:
    def test_exhaustive(self):
        for n in range(1, 6):
            for alpha in compositions(n):
                a = compiled.ShapeOps(alpha.parts)
                b = pure.ShapeOps(alpha.parts)
                assert a.hook_prod == b.hook_prod
                assert a.n_factorial == b.n_factorial
                assert a.count_standard() == b.count_standard()
                for perm in itertools.permutations(range(1, n + 1)):
                    assert a.is_standard_immaculate(perm) == b.is_standard_immaculate(perm)
                    assert a.straighten(perm, check=True) == b.straighten(perm, check=True)
                p, j = a.straighten(tuple(range(n, 0, -1)), check=True)
                assert a.unstraighten(p, j, check=True) == b.unstraighten(p, j, check=True)

    def test_random_large(self):
        rng = random.Random(17)
        for n in (12, 16, 20):
            for _ in range(10):
                parts = random_shape(rng, n)
                a = compiled.ShapeOps(parts)
                b = pure.ShapeOps(parts)
                vals = list(range(1, n + 1))
                rng.shuffle(vals)
                assert a.straighten(vals, check=True) == b.straighten(vals, check=True)
                p, j = a.straighten(vals)
                assert a.unstraighten(p, j, check=True) == b.unstraighten(p, j, check=True) == vals

    def test_scans_agree(self):
        for alpha in compositions(5):
            a = compiled.ShapeOps(alpha.parts)
            b = pure.ShapeOps(alpha.parts)
            total = math.factorial(5)
            assert a.scan_fillings(0, total, True) == b.scan_fillings(0, total, True)
            p_table = [t.flat() for t in _sits(alpha)]
            y = len(p_table) * a.hook_prod
            assert a.scan_pairs(p_table, 0, y, True) == b.scan_pairs(p_table, 0, y, True) == []


@pytest.mark.parametrize("backend", ["pure", pytest.param("compiled", marks=needs_compiled)])
@pytest.mark.parametrize("check", [False, True])
def test_object_layer_matches_kernel(backend, check):
    # straighten/unstraighten only validate and wrap the kernel, so on every
    # backend the objects carry exactly the kernel's flat results
    rng = random.Random(23)
    for n in (1, 5, 20, 49, 100):
        for _ in range(4):
            parts = random_shape(rng, n)
            ops = get_backend(backend).ShapeOps(parts)
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            pair, _ = straighten(Tableau.from_flat(Composition(parts), vals), check=check)
            p, j = ops.straighten(vals, check)
            assert pair.tableau.flat() == tuple(p)
            assert pair.hooks.flat() == tuple(j)
            back, _ = unstraighten(pair, check=check)
            assert back.flat() == tuple(ops.unstraighten(p, j, check)) == tuple(vals)


def _sits(alpha):
    for perm in itertools.permutations(range(1, alpha.n + 1)):
        t = Tableau.from_flat(alpha, perm)
        if t.is_standard_immaculate():
            yield t


@pytest.mark.parametrize("backend", ["pure"] + (["compiled"] if compiled else []))
class TestScanSemantics:
    def test_chunks_concatenate(self, backend):
        ops = get_backend(backend).ShapeOps((2, 1, 2))
        total = math.factorial(5)
        whole = ops.scan_fillings(0, total, True)
        split = [ops.scan_fillings(lo, min(lo + 17, total), True) for lo in range(0, total, 17)]
        assert sum(s for s, _ in split) == whole[0] == 4
        assert [f for _, fs in split for f in fs] == whole[1] == []

    def test_scan_counts_standard(self, backend):
        for alpha in compositions(6):
            ops = get_backend(backend).ShapeOps(alpha.parts)
            standard, failures = ops.scan_fillings(0, math.factorial(6), True)
            assert standard == count_formula(alpha)
            assert failures == []

    def test_range_validation(self, backend):
        ops = get_backend(backend).ShapeOps((2, 1))
        with pytest.raises(ValueError):
            ops.scan_fillings(0, 7, True)
        with pytest.raises(ValueError):
            ops.scan_fillings(-1, 2, True)
        with pytest.raises(ValueError):
            ops.scan_pairs([(1, 2, 3)], 0, 99, True)

    def test_pair_scan_index_convention(self, backend):
        # index r must decode to (row r // H, mixed-radix digits of r % H)
        alpha = Composition((2, 1, 2))
        ops = get_backend(backend).ShapeOps(alpha.parts)
        p_table = [t.flat() for t in _sits(alpha)]
        hooklen = [alpha.hook_length(c) for c in alpha.cells()]
        r = 2 * ops.hook_prod + 7  # third tableau, eighth hook assignment
        digits = []
        rem = 7
        for h in reversed(hooklen):
            rem, d = divmod(rem, h)
            digits.append(d + 1)
        digits.reverse()
        t = ops.unstraighten(list(p_table[2]), digits)
        p2, j2 = ops.straighten(t)
        assert tuple(p2) == p_table[2] and j2 == digits
        assert ops.scan_pairs(p_table, r, r + 1, True) == []

    def test_tie_detection(self, backend):
        # non-permutation input can produce the forbidden tie; the kernels
        # must refuse rather than pick a side silently
        ops = get_backend(backend).ShapeOps((2, 1))
        with pytest.raises(InternalCheckError):
            ops.straighten([9, 2, 2], check=True)


class TestBackendSelection:
    def test_active_backend_matches_environment(self):
        if os.environ.get("IMMACULATE_PURE", "").strip() not in ("", "0"):
            assert BACKEND == "pure"
        elif compiled is not None:
            assert BACKEND == "compiled"
        else:
            assert BACKEND == "pure"

    def test_env_var_forces_pure(self):
        env = dict(os.environ, IMMACULATE_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", "import immaculate; print(immaculate.BACKEND)"],
            capture_output=True, text=True, env=env,
        )
        assert out.stdout.strip() == "pure"

    def test_reason_names_the_choice(self):
        assert isinstance(BACKEND_REASON, str) and BACKEND_REASON
        if BACKEND == "pure" and os.environ.get("IMMACULATE_PURE", "").strip() in ("", "0"):
            # the swallowed ImportError text is kept, and names the module
            assert "_speedups" in BACKEND_REASON
            assert "circular import" not in BACKEND_REASON

    def test_reason_logged_at_debug_only(self):
        env = dict(os.environ, IMMACULATE_PURE="1")
        code = ("import logging, sys; logging.basicConfig(level=logging.DEBUG, stream=sys.stdout);"
                "import immaculate._kernels as k; print(k.BACKEND_REASON)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert "kernel backend pure" in out.stdout
        assert "IMMACULATE_PURE" in out.stdout
        quiet = subprocess.run([sys.executable, "-m", "immaculate.cli", "hooks", "2,1,2"],
                               capture_output=True, text=True, env=env)
        assert quiet.stdout == "5 1\n3\n2 1\n" and quiet.stderr == ""

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            get_backend("turbo")
