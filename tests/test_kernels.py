"""Parity tests binding the kernels to the reference implementation and to
each other.  The pure backend always exists; the compiled one is skipped
gracefully when the extension did not build (test_build.py builds it into a
temporary directory and runs this module against it with nothing skipped)."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc

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


BACKENDS = ["pure", pytest.param("compiled", marks=needs_compiled)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("call, error, message", [
    (lambda ops: ops.straighten([1, 2, 3, 4]), ValueError, "need 3 entries, got 4"),
    (lambda ops: ops.straighten([1, 2]), ValueError, "need 3 entries, got 2"),
    (lambda ops: ops.is_standard_immaculate([1, 2, 3, 0]), ValueError, "need 3 entries, got 4"),
    (lambda ops: ops.is_standard_immaculate([1, 2]), ValueError, "need 3 entries, got 2"),
    (lambda ops: ops.unstraighten([1, 2, 3], [1, 1]), ValueError,
     "need 3 entries and 3 hook values"),
    (lambda ops: ops.unstraighten([1, 2], [1, 1, 1]), ValueError,
     "need 3 entries and 3 hook values"),
    (lambda ops: ops.scan_fillings(0.5, 2), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda ops: ops.scan_fillings(0, 2.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda ops: ops.scan_pairs([(1, 2, 3)], 0.5, 2), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda ops: ops.scan_fillings(0, 7), ValueError, "bad scan range [0, 7) for 3! fillings"),
    (lambda ops: ops.scan_pairs([(1, 2, 3)], 0, 4), ValueError, "bad scan range [0, 4)"),
    (lambda ops: ops.straighten([9, 2, 2], check=True), InternalCheckError,
     "tied neighbours while sliding at position 0"),
    (lambda ops: ops.unstraighten([1, 2, 3], [4, 1, 1]), IndexError,
     "hook value 4 out of range at position 0"),
])
def test_input_contract(backend, call, error, message):
    # both twins refuse the same malformed inputs with the same exception
    ops = get_backend(backend).ShapeOps((2, 1))
    with pytest.raises(error) as info:
        call(ops)
    assert type(info.value) is error and str(info.value) == message


class TestTypeSurface:
    NAMES = ("parts", "size", "hook_prod", "n_factorial")

    @needs_compiled
    def test_attributes_agree_and_are_read_only(self):
        for parts in ((1,), (2, 1), (4, 1, 4, 2, 1), (7,) * 7, (1, 3) * 10):
            a, b = compiled.ShapeOps(parts), pure.ShapeOps(parts)
            assert [getattr(a, k) for k in self.NAMES] == [getattr(b, k) for k in self.NAMES]
            assert type(a.parts) is tuple and type(a.hook_prod) is int
            for name in self.NAMES:
                with pytest.raises(AttributeError):
                    setattr(a, name, getattr(a, name))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hook_prod_exact_past_long_long(self, backend):
        ops = get_backend(backend).ShapeOps((1,) * 21)
        assert ops.hook_prod == ops.n_factorial == math.factorial(21) > 2**63

    @needs_compiled
    def test_compiled_pair_scan_refuses_long_hook_prod(self):
        ops = compiled.ShapeOps((1,) * 21)
        with pytest.raises(OverflowError, match="hook product too large"):
            ops.scan_pairs([tuple(range(1, 22))], 0, 1)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_subclass(self, backend):
        # perfbench/spans.py subclasses the active ShapeOps to wrap its methods
        base = get_backend(backend).ShapeOps
        calls = []

        def init(self, parts):
            calls.append("init")
            base.__init__(self, parts)

        def wrapped(self, entries, check=False):
            calls.append("straighten")
            return base.straighten(self, entries, check)

        ops = type("T", (base,), {"__init__": init, "straighten": wrapped})((2, 1))
        assert ops.straighten([3, 2, 1], True) == ([1, 2, 3], [3, 1, 1])
        assert ops.parts == (2, 1) and calls == ["init", "straighten"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_keyword_arguments(self, backend):
        ops = get_backend(backend).ShapeOps(parts=(2, 1))
        assert ops.is_standard_immaculate(entries=[1, 2, 3])
        assert ops.straighten(entries=[3, 2, 1], check=True) == ([1, 2, 3], [3, 1, 1])
        assert ops.unstraighten(p_entries=[1, 2, 3], hook_values=[3, 1, 1], check=True) == [3, 2, 1]
        assert ops.scan_fillings(start=0, stop=6, check=False) == (2, [])
        assert ops.scan_pairs(p_table=[(1, 2, 3)], start=0, stop=3, check=False) == []

    @needs_compiled
    def test_size_past_c_int_refused_before_allocating(self):
        # only the compiled twin: the pure one would build lists of 2**32 cells
        with pytest.raises(OverflowError):
            compiled.ShapeOps((2**31 - 1, 2**31 - 1, 2))


@needs_compiled
def test_compiled_reference_counts_do_not_leak():
    # tracemalloc sees every Python object and every PyMem buffer the
    # extension allocates; a reference or buffer leaked per call grows the
    # traced total by tens of bytes per call, about a megabyte in all
    ops = compiled.ShapeOps((2, 1))
    big = compiled.ShapeOps((4, 1, 4, 2, 1, 3, 2, 1, 1, 1))
    vals = list(range(20, 0, -1))
    p, j = big.straighten(vals)
    good, bad = [(1, 2, 3)], [(3, 2, 1)]

    def raises(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ValueError, TypeError, OverflowError, InternalCheckError):
            return
        raise AssertionError(f"{fn.__name__} did not raise")

    def calls():
        big.straighten(vals)
        big.straighten(vals, check=True)
        big.unstraighten(p, j)
        big.unstraighten(p, j, check=True)
        big.is_standard_immaculate(vals)
        ops.count_standard()
        ops.scan_fillings(0, 6, True)
        ops.scan_pairs(good, 0, 3, True)
        assert len(ops.scan_pairs(bad, 0, 3, True)) == 3  # check failures
        assert ops.scan_pairs(bad, 0, 3, False)  # roundtrip failures
        compiled.ShapeOps((3, 1, 2))
        raises(ops.straighten, [9, 2, 2], check=True)
        raises(ops.straighten, [1, 2, 3, 4])
        raises(ops.unstraighten, [1, 2, 3], [1, 1])
        raises(ops.is_standard_immaculate, [1, 2])
        raises(ops.scan_fillings, 0.5, 2)
        raises(ops.scan_fillings, 0, 7)
        raises(ops.straighten, [1, 2, 3], chek=True)
        raises(compiled.ShapeOps, (2, 0))
        raises(compiled.ShapeOps, (2**31 - 1, 2**31 - 1, 2))

    for _ in range(200):
        calls()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20_000):
            calls()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth < 64 * 1024, f"traced memory grew by {growth} bytes"


@pytest.mark.parametrize("backend", BACKENDS)
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
