"""Parity tests binding the kernels to the reference implementation and to
each other.  The pure backend always exists; the compiled one is skipped
gracefully when the extension did not build (test_build.py builds it into a
temporary directory and runs this module against it with nothing skipped).

Tests marked ``pure_twin`` test the pure twin; test_build.py leaves them out
of its run against the compiled build, as the session that starts it runs
them itself."""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import immaculate
from immaculate import bijection
from immaculate._kernels import BACKEND, BACKEND_REASON, get_backend
from immaculate.bijection import HookTableau, Pair, straighten, unstraighten
from immaculate.composition import Composition, compositions, count_formula
from immaculate.enumeration import brute_force_standard_immaculate
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


BACKENDS = [pytest.param("pure", marks=pytest.mark.pure_twin),
            pytest.param("compiled", marks=needs_compiled)]


@pytest.fixture
def on_backend(backend, monkeypatch):
    """Run the object API (straighten, unstraighten, Pair, Trace) on the
    test's backend, whichever one is active."""
    kernel = bijection._kernel
    monkeypatch.setattr(bijection, "_kernel",
                        lambda parts, name=None: kernel(parts, name or backend))


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
    # a P row's length is checked when the walk reaches the row
    (lambda ops: ops.scan_pairs([(1, 2, 3), (1, 2)], 2, 4), ValueError,
     "need 3 entries, got 2"),
    (lambda ops: ops.scan_pairs([(1, 2, 3), (1, 2, 3, 4)], 0, 6), ValueError,
     "need 3 entries, got 4"),
    (lambda ops: ops.straighten([9, 2, 2], check=True), InternalCheckError,
     "tied neighbours while sliding at position 0"),
    (lambda ops: ops.unstraighten([1, 2, 3], [4, 1, 1]), IndexError,
     "hook value 4 out of range at position 0"),
    # cell 1 of 2,2 has hook length 1, though its hook value 2 stays inside the array
    (lambda ops: type(ops)((2, 2)).unstraighten([1, 2, 3, 4], [1, 2, 1, 1], check=True),
     IndexError, "hook value 2 out of range at position 1"),
    (lambda ops: type(ops)((2, 2)).unstraighten([1, 2, 3, 4], [1, 2, 1, 1]), IndexError,
     "hook value 2 out of range at position 1"),
    # two values past their hooks: the error names the first in step order,
    # which runs down column 2 before column 3, not the first in its row
    (lambda ops: type(ops)((3, 3)).unstraighten([1, 2, 3, 4, 5, 6], [1, 1, 2, 1, 3, 1]),
     IndexError, "hook value 3 out of range at position 4"),
])
def test_input_contract(backend, call, error, message):
    # both twins refuse the same malformed inputs with the same exception
    ops = get_backend(backend).ShapeOps((2, 1))
    with pytest.raises(error) as info:
        call(ops)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("parts, hook_values, filling", [
    # order[0], the last cell of the traversal's first column, is no step,
    # so a value past its hook there is ignored
    ((1, 2), [3, 2, 2], [3, 2, 1]),
    ((1, 1, 1, 1), [4, 2, 1, 2], [4, 2, 1, 3]),
    # values of 1 or less move nothing
    ((3, 3), [2, 0, 1, 3, -4, 1], [2, 1, 3, 6, 4, 5]),
])
def test_unchecked_unstraighten_outside_the_contract(backend, parts, hook_values, filling):
    ops = get_backend(backend).ShapeOps(parts)
    assert ops.unstraighten(list(range(1, len(filling) + 1)), hook_values) == filling


@pytest.mark.parametrize("backend", BACKENDS)
def test_unchecked_transforms_equal_checked(backend):
    # the unchecked transforms take whole row runs at a time, the checked
    # ones go step by step
    rng = random.Random(41)
    cases = [(alpha.parts, list(x)) for n in range(1, 7) for alpha in compositions(n)
             for x in itertools.permutations(range(1, n + 1))]
    shapes = [random_shape(rng, n) for n in (20, 49, 100) for _ in range(10)]
    shapes += [(4, 1, 4, 2, 1, 3, 2, 1, 1, 1), (7,) * 7, (10,) * 10]
    cases += [(parts, rng.sample(range(1, sum(parts) + 1), sum(parts)))
              for parts in shapes for _ in range(3)]
    ops = None
    for parts, x in cases:
        if ops is None or ops.parts != parts:
            ops = get_backend(backend).ShapeOps(parts)
        p, j = ops.straighten(x)
        assert (p, j) == ops.straighten(x, check=True)
        assert ops.unstraighten(p, j) == ops.unstraighten(p, j, check=True) == x


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad_row", [(1, 2), (1, 2, 3, 4), None])
def test_pair_scan_never_reads_rows_past_its_range(backend, bad_row):
    ops = get_backend(backend).ShapeOps((2, 1))
    assert ops.scan_pairs([(1, 2, 3), bad_row], 0, 3, True) == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestStabilityAndCountWalk:
    def test_kernel_stability_is_object_stability_on_any_entries(self, backend):
        # rows weakly increase and column 1 strictly, with repeated entries
        # too: [1, 1] on shape 1,1 is not stable
        for n in range(1, 6):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                for flat in itertools.product(range(1, 4), repeat=n):
                    t = Tableau.from_flat(alpha, flat)
                    stable = all(t.is_stable(c) for c in alpha.cells())
                    assert ops.is_standard_immaculate(flat) == stable, (alpha, flat)

    def test_count_walk_matches_formula_through_n9(self, backend):
        for n in range(1, 10):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                assert ops.count_standard() == count_formula(alpha), alpha

    def test_count_walk_matches_brute_force_oracle_through_n7(self, backend):
        for n in range(1, 8):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                assert ops.count_standard() == len(brute_force_standard_immaculate(alpha)), alpha


def _cli(backend, *args):
    """The CLI as a subprocess on one backend, from the tree these tests import."""
    env = {k: v for k, v in os.environ.items() if k != "IMMACULATE_PURE"}
    if backend == "pure":
        env["IMMACULATE_PURE"] = "1"
    tree = str(Path(immaculate.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [tree, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "immaculate.cli", *args],
                          capture_output=True, text=True, timeout=120, env=env)


class TestWalkLimits:
    """Shapes past what a kernel walk can reach exit 3 with one stderr line."""

    def _exits_3(self, out, n):
        assert (out.returncode, out.stdout) == (3, ""), out.stderr
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
        assert f"{n} cells" in out.stderr

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_verify_past_the_recursion_limit(self, backend):
        # pure recurses past Python's limit; compiled cannot number 1000! leaves
        self._exits_3(_cli(backend, "verify", "1000", "--guard", "1000"), 1000)

    @needs_compiled
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_compiled_verify_past_64_bit_leaf_numbers(self, jobs):
        # 21! > 2**63, so every task of the split scan fails at once
        self._exits_3(_cli("compiled", "verify", "21", "--guard", "21", "--jobs", jobs), 21)


class TestTypeSurface:
    NAMES = ("parts", "size", "hook_prod", "n_factorial", "hooklen")

    @needs_compiled
    def test_attributes_agree_and_are_read_only(self):
        for parts in ((1,), (2, 1), (4, 1, 4, 2, 1), (7,) * 7, (1, 3) * 10):
            a, b = compiled.ShapeOps(parts), pure.ShapeOps(parts)
            assert [getattr(a, k) for k in self.NAMES] == [getattr(b, k) for k in self.NAMES]
            assert type(a.parts) is tuple and type(a.hook_prod) is int
            assert type(a.hooklen) is tuple and {type(h) for h in a.hooklen} == {int}
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

    @needs_compiled
    def test_compiled_filling_scan_refuses_long_factorial(self):
        # refused whatever the range, even one whose leaf numbers all fit
        with pytest.raises(OverflowError, match="n! too large"):
            compiled.ShapeOps((21,)).scan_fillings(0, 1)

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
    ops, square = compiled.ShapeOps((2, 1)), compiled.ShapeOps((2, 2))
    row21 = compiled.ShapeOps((21,))
    big = compiled.ShapeOps((4, 1, 4, 2, 1, 3, 2, 1, 1, 1))
    vals = list(range(20, 0, -1))
    p, j = big.straighten(vals)
    good, bad, tied = [(1, 2, 3)], [(3, 2, 1)], [(1, 1, 2)]

    def raises(fn, *args, **kwargs):
        try:
            fn(*args, **kwargs)
        except (ValueError, TypeError, OverflowError, IndexError, InternalCheckError):
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
        ops.scan_fillings(1, 5, False)
        ops.scan_pairs(good, 0, 3, True)
        ops.scan_pairs(good, 1, 2, False)
        assert len(ops.scan_pairs(bad, 0, 3, True)) == 3  # failed in unstraighten
        assert ops.scan_pairs(bad, 0, 3, False)  # roundtrip failures
        assert len(ops.scan_pairs(tied, 0, 3, True)) == 2  # a changed pair, a tie in straighten
        raises(ops.scan_pairs, bad + [(1, 2)], 0, 6, True)  # short row after failures
        compiled.ShapeOps((3, 1, 2))
        raises(ops.straighten, [9, 2, 2], check=True)
        raises(ops.straighten, [1, 2, 3, 4])
        raises(ops.unstraighten, [1, 2, 3], [1, 1])
        raises(ops.is_standard_immaculate, [1, 2])
        raises(ops.scan_fillings, 0.5, 2)
        raises(ops.scan_fillings, 0, 7)
        raises(row21.scan_fillings, 0, 1)
        raises(ops.straighten, [1, 2, 3], chek=True)
        raises(compiled.ShapeOps, (2, 0))
        raises(compiled.ShapeOps, (2**31 - 1, 2**31 - 1, 2))
        raises(square.unstraighten, [1, 2, 3, 4], [1, 2, 1, 1], check=True)
        raises(square.unstraighten, [1, 2, 3, 4], [1, 2, 1, 1])

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


@pytest.mark.pure_twin
def test_unchecked_moves_keep_no_hook_paths():
    # an unchecked move is named by (start, v) alone, so a long-lived shape
    # keeps none of the paths its moves ran along; a memo of them held
    # about 180 MB here, toward the n**3 / 6 cells of all hook paths
    rng = random.Random(3)
    tracemalloc.start()
    try:
        ops = pure.ShapeOps((1000,))
        for _ in range(20):
            vals = rng.sample(range(1, 1001), 1000)
            p, j = ops.straighten(vals)
            assert ops.unstraighten(p, j) == vals
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1024 * 1024, f"the shape and its last roundtrip hold {held} bytes"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("check", [False, True])
@pytest.mark.usefixtures("on_backend")
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


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.usefixtures("on_backend")
def test_trusted_objects_equal_validated_ones(backend):
    # straighten, unstraighten and the trace wrap kernel output without the
    # public constructors' checks; rebuilt through those constructors, each
    # grid is equal and hashes equally, holds tuples of ints and keeps the
    # input's shape object
    def as_public(grid, shape):
        public = type(grid)(grid.rows)
        assert grid == public and hash(grid) == hash(public)
        assert hash(grid) == hash((type(grid).__name__, grid.rows))
        assert type(grid.rows) is tuple and {type(r) for r in grid.rows} == {tuple}
        assert {type(v) for r in grid.rows for v in r} == {int}
        assert grid.shape is shape and grid.shape == public.shape

    rng = random.Random(31)
    cases = [(alpha, 4) for n in range(1, 7) for alpha in compositions(n)]
    cases += [(Composition(random_shape(rng, n)), 1) for n in (20, 100) for _ in range(5)]
    for alpha, count in cases:
        for _ in range(count):
            t = Tableau.from_flat(alpha, rng.sample(range(1, alpha.n + 1), alpha.n))
            pair, trace = straighten(t)
            as_public(pair.tableau, t.shape)
            as_public(pair.hooks, t.shape)
            public = Pair(Tableau(pair.tableau.rows), HookTableau(pair.hooks.rows))
            assert pair == public and hash(pair) == hash(public)
            back, back_trace = unstraighten(pair)
            as_public(back, t.shape)
            assert back == t
            for tableau, hooks in trace.states + back_trace.states:
                as_public(tableau, t.shape)
                as_public(hooks, t.shape)


def _sits(alpha):
    for perm in itertools.permutations(range(1, alpha.n + 1)):
        t = Tableau.from_flat(alpha, perm)
        if t.is_standard_immaculate():
            yield t


@pytest.mark.parametrize("backend", BACKENDS[:1] + (["compiled"] if compiled else []))
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
            assert ops.scan_fillings(0, math.factorial(6), False) == (standard, [])

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


X_CHANGED = "straighten then unstraighten changed the filling"
Y_CHANGED = "unstraighten then straighten changed the pair"


def _oracle_fillings(ops):
    """scan_fillings over every filling, one public roundtrip at a time."""
    standard, failures = 0, []
    for rank, perm in enumerate(itertools.permutations(range(1, ops.size + 1))):
        standard += ops.is_standard_immaculate(perm)
        try:
            back = ops.unstraighten(*ops.straighten(perm, check=True), check=True)
        except InternalCheckError as exc:
            failures.append((rank, "check", str(exc)))
            continue
        if back != list(perm):
            failures.append((rank, "roundtrip", X_CHANGED))
    return standard, failures


def _oracle_pairs(ops, p_table):
    """scan_pairs over every pair, one public roundtrip at a time, by flat index."""
    hooks = list(itertools.product(*(range(1, h + 1) for h in ops.hooklen)))
    failures = []
    for row, p in enumerate(p_table):
        for rem, j in enumerate(hooks):
            index = row * ops.hook_prod + rem
            try:
                back = ops.straighten(ops.unstraighten(p, j, check=True), check=True)
            except InternalCheckError as exc:
                failures.append((index, "check", str(exc)))
                continue
            if back != (list(p), list(j)):
                failures.append((index, "roundtrip", Y_CHANGED))
    return failures


def _odd_table(alpha):
    # beyond the kernel's contract, so that checks fail: a repeated entry
    # fails some leaves, a decreasing row fails everything at its root
    table = [t.flat() for t in _sits(alpha)]
    if alpha.n > 1:
        table += [(1, 1, *range(2, alpha.n)), tuple(range(alpha.n, 0, -1))]
    return table


@pytest.mark.parametrize("backend", BACKENDS)
class TestWalks:
    def test_fillings_match_oracle_in_any_split(self, backend):
        rng = random.Random(5)
        for n in range(1, 6):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                total = math.factorial(n)
                standard, failures = whole = ops.scan_fillings(0, total, True)
                assert (standard, sorted(failures)) == _oracle_fillings(ops)
                cuts = sorted(rng.sample(range(total + 1), min(3, total + 1)))
                for bounds in (range(total + 1), [0, *cuts, total]):
                    parts = [ops.scan_fillings(lo, hi, True) for lo, hi in zip(bounds, bounds[1:])]
                    assert sum(c for c, _ in parts) == whole[0]
                    assert [f for _, fs in parts for f in fs] == whole[1]

    def test_pairs_match_oracle_in_any_split(self, backend):
        rng = random.Random(6)
        for n in range(1, 6):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                table = _odd_table(alpha)
                total = len(table) * ops.hook_prod
                whole = ops.scan_pairs(table, 0, total, True)
                assert whole == _oracle_pairs(ops, table)
                assert len({index for index, _, _ in whole}) == len(whole)
                assert whole or n == 1
                cuts = sorted(rng.sample(range(total + 1), min(3, total + 1)))
                for bounds in (range(total + 1), [0, *cuts, total]):
                    parts = [ops.scan_pairs(table, lo, hi, True) for lo, hi in zip(bounds, bounds[1:])]
                    assert [f for fs in parts for f in fs] == whole


    def test_pairs_roundtrip_on_every_shape_through_six(self, backend):
        # verify scans the pairs only to explain a failed filling scan, so
        # this keeps the pair side's own checked roundtrips on every small shape
        for n in range(1, 7):
            for alpha in compositions(n):
                ops = get_backend(backend).ShapeOps(alpha.parts)
                table = [t.flat() for t in _sits(alpha)]
                assert len(table) * ops.hook_prod == math.factorial(n)
                assert ops.scan_pairs(table, 0, math.factorial(n), True) == []


@pytest.mark.pure_twin
class TestPlantedFaults:
    """Faults planted in the pure twin's steps, where the walks meet them
    once per tree node and the public transforms once per object."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_node_fault_fails_exactly_its_subtree(self, n):
        rng = random.Random(n)
        for alpha in compositions(n):
            clean = pure.ShapeOps(alpha.parts)
            order = clean.order
            for d in range(1, n - 1):
                x0 = rng.sample(range(1, n + 1), n)
                t0, s0 = list(x0), [1] * n
                for k in range(1, d):
                    clean._checked_slide(t0, s0, k)
                cells, steps = order[:d + 1], order[1:d]

                def at_node(t, s):
                    return ([t[q] for q in cells], [s[q] for q in steps]) == (
                        [t0[q] for q in cells], [s0[q] for q in steps])

                class Faulty(pure.ShapeOps):
                    def _checked_slide(self, t, s, k):
                        if k == d and at_node(t, s):
                            raise InternalCheckError("planted")
                        return super()._checked_slide(t, s, k)

                ops = Faulty(alpha.parts)
                below = [(rank, "check", "planted")
                         for rank, x in enumerate(itertools.permutations(range(1, n + 1)))
                         if all(x[q] == x0[q] for q in cells)]
                assert len(below) == math.factorial(n - d - 1)
                standard, failures = ops.scan_fillings(0, math.factorial(n), True)
                assert sorted(failures) == below == _oracle_fillings(ops)[1]
                assert standard == count_formula(alpha)
                # the subtree is one run of walk order, here split in two
                first = [r for r in range(math.factorial(n)) if ops.scan_fillings(r, r + 1)[1]]
                assert first == list(range(first[0], first[0] + len(below)))
                mid = first[0] + len(below) // 2
                halves = ops.scan_fillings(0, mid)[1] + ops.scan_fillings(mid, math.factorial(n))[1]
                assert halves == failures

    @pytest.mark.parametrize("fault", ["raises", "one cell short", "hook value left",
                                       "off the path"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_node_inverse_fault_matches_oracle(self, n, fault):
        # the filling walk runs inverse step n - d once at a depth-d node; a
        # fault there must give, in any split, the entries of one roundtrip
        # per filling, which meet the fault once per filling below the node
        rng = random.Random(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        for alpha in compositions(n):
            clean = pure.ShapeOps(alpha.parts)
            order, sits = clean.order, [t.flat() for t in _sits(alpha)]
            # the raising fault sits above a standard filling, so that the
            # walk tallies below it; the off-path one where two hook cells
            # follow the slide's end; the others where the slide moved a cell
            while True:
                x0, d = rng.choice(sits if fault == "raises" else perms), rng.randrange(1, n)
                t0, s0 = list(x0), [1] * n
                for k in range(1, d + 1):
                    clean._checked_slide(t0, s0, k)
                pos = order[d]
                if fault == "off the path":
                    if s0[pos] + 2 <= clean.hooklen[pos]:
                        break
                elif fault == "raises" or s0[pos] > 1:
                    break
            cells = order[:d + 1]

            class Faulty(pure.ShapeOps):
                def _checked_rotate(self, t, j, k):
                    if k != n - d or j[pos] != s0[pos] or any(t[q] != t0[q] for q in cells):
                        return super()._checked_rotate(t, j, k)
                    if fault == "raises":
                        raise InternalCheckError("planted")
                    if fault == "one cell short":
                        j[pos] -= 1
                        return super()._checked_rotate(t, j, k)
                    if fault == "off the path":
                        # a right rotation, then a swap of the two hook
                        # cells after its end, on neither step's path
                        super()._checked_rotate(t, j, k)
                        end = pos + s0[pos] - 1
                        t[end + 1], t[end + 2] = t[end + 2], t[end + 1]
                        return None
                    path = super()._checked_rotate(t, j, k)
                    j[pos] = s0[pos]
                    return path

            ops = Faulty(alpha.parts)
            total = math.factorial(n)
            standard, failures = ops.scan_fillings(0, total, True)
            assert (standard, sorted(failures)) == _oracle_fillings(ops)
            # every filling below the node fails, and those fillings are one
            # run of walk order: the leaf numbers rank the entries read in
            # traversal order
            below = [x for x in perms if all(x[q] == x0[q] for q in cells)]
            assert {perms.index(x) for x in below} <= {rank for rank, _, _ in failures}
            walk = sorted(perms.index(tuple(x[q] for q in order)) for x in below)
            first, size = walk[0], len(walk)
            assert walk == list(range(first, first + size))
            for bounds in (sorted({0, first + 1, first + size - 1, total}),
                           sorted({0, first + size // 2, total}), range(total + 1)):
                parts = [ops.scan_fillings(lo, hi, True) for lo, hi in zip(bounds, bounds[1:])]
                assert sum(c for c, _ in parts) == standard
                assert [f for _, fs in parts for f in fs] == failures

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_failed_node_walked_again_once(self, d):
        # a failed node's subtree is walked again with one per-filling
        # inverse at each leaf; the walk then puts the node's hook value
        # back to 1, so no ancestor finds the hook values unexhausted and
        # walks its own subtree again too
        parts, n = (2, 1, 3), 6
        clean = pure.ShapeOps(parts)
        order, perms = clean.order, list(itertools.permutations(range(1, n + 1)))
        rng = random.Random(d)
        nodes = {}
        for x0 in [(2, 6, 1, 3, 4, 5)] + rng.sample(perms, 40):
            t0, s0 = list(x0), [1] * n
            for k in range(1, d + 1):
                clean._checked_slide(t0, s0, k)
            if s0[order[d]] > 1:
                nodes.setdefault(tuple(t0[q] for q in order[:d + 1]), (t0, s0))
        assert len(nodes) >= 5
        for t0, s0 in list(nodes.values())[:5]:
            pos, cells = order[d], order[:d + 1]
            inverses = 0

            class Faulty(pure.ShapeOps):
                def _checked_rotate(self, t, j, k):
                    if k == n - d and j[pos] == s0[pos] and all(t[q] == t0[q] for q in cells):
                        j[pos] -= 1  # a rotation one cell short
                    return super()._checked_rotate(t, j, k)

                def _unstraighten_inplace(self, t, j, check):
                    nonlocal inverses
                    inverses += 1
                    return super()._unstraighten_inplace(t, j, check)

            ops = Faulty(parts)
            standard, failures = ops.scan_fillings(0, math.factorial(n), True)
            assert failures and inverses == len(failures)
            assert (standard, sorted(failures)) == _oracle_fillings(ops)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_unstraighten_fault_caught_at_its_pair(self, n):
        rng = random.Random(n)
        for alpha in compositions(n):
            clean = pure.ShapeOps(alpha.parts)
            hooklen, order = clean.hooklen, clean.order
            # the last step with a choice: every pair meets it at its own state
            k0 = max(k for k in range(1, n) if hooklen[order[n - k]] > 1)
            pos = order[n - k0]
            table = [t.flat() for t in _sits(alpha)]
            row = rng.randrange(len(table))
            j0 = [rng.randint(1, h) for h in hooklen]
            j0[pos] = rng.randint(2, hooklen[pos])
            t0, j = list(table[row]), list(j0)
            for k in range(1, k0):
                clean._checked_rotate(t0, j, k)

            class Faulty(pure.ShapeOps):
                def _checked_rotate(self, t, j, k):
                    if k == k0 and t == t0 and j[pos] == j0[pos]:
                        j[pos] -= 1  # a rotation one cell short
                    return super()._checked_rotate(t, j, k)

            ops = Faulty(alpha.parts)
            index = row * ops.hook_prod
            for pos_, v in enumerate(j0):
                index += (v - 1) * math.prod(hooklen[pos_ + 1:])
            failures = ops.scan_pairs(table, 0, len(table) * ops.hook_prod, True)
            assert failures == [(index, "roundtrip", Y_CHANGED)] == _oracle_pairs(ops, table)


@pytest.mark.pure_twin
class TestPathMemoFaults:
    """Faults in what a checked slide reads from its path's memo entry, the
    closed-form hook index and the stability pairs.  Both are worked out
    once per hook path, so the fault must still fail every filling whose
    straighten slides along that path, in any split of the walk."""

    @pytest.mark.parametrize("fault", ["hook index", "stability"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_filling_through_the_path_fails(self, n, fault):
        rng = random.Random(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        total, tested = len(perms), 0
        for alpha in compositions(n):
            clean = pure.ShapeOps(alpha.parts)
            # (pos, end): the ranks of the fillings that slide pos to end
            slid = {}
            for rank, x in enumerate(perms):
                t, s = list(x), [1] * n
                for k in range(1, n):
                    path, _ = clean._checked_slide(t, s, k)
                    slid.setdefault((path[0], path[-1]), []).append(rank)

            def extends(pos, end):
                # the hook path one cell longer is this path and end + 1
                v = end - pos + 1
                return v < clean.hooklen[pos] and (
                    clean._build_path(pos, v + 1) == clean._build_path(pos, v) + [end + 1])

            paths = sorted(key for key in slid if fault == "hook index" or extends(*key))
            if not paths:
                continue
            pos0, end0 = rng.choice(paths)
            if fault == "hook index":
                message = "hook index closed form disagrees with flat run"

                class Faulty(pure.ShapeOps):
                    def _hook_index(self, start, end):
                        right = super()._hook_index(start, end)
                        return right + 1 if (start, end) == (pos0, end0) else right
            else:
                message = f"prefix standardness lost after step {clean.order.index(pos0)}"

                class Faulty(pure.ShapeOps):
                    def _slide(self, t, pos):
                        # one cell past end0 along the hook: still the
                        # circular left shift of a hook path, but the entry
                        # passes a larger neighbour
                        path = super()._slide(t, pos)
                        if (pos, path[-1]) == (pos0, end0):
                            t[end0], t[end0 + 1] = t[end0 + 1], t[end0]
                            path.append(end0 + 1)
                        return path

            ops = Faulty(alpha.parts)
            expected = [(rank, "check", message) for rank in slid[pos0, end0]]
            standard, failures = ops.scan_fillings(0, total, True)
            assert sorted(failures) == expected == _oracle_fillings(ops)[1]
            assert standard == count_formula(alpha)
            cuts = sorted({0, *rng.sample(range(total + 1), 3), total})
            for bounds in (range(total + 1), cuts):
                # on the memo the whole scan filled, and on a fresh one
                for split in (ops, Faulty(alpha.parts)):
                    parts = [split.scan_fillings(lo, hi, True) for lo, hi in zip(bounds, bounds[1:])]
                    assert sum(c for c, _ in parts) == standard
                    assert [f for _, fs in parts for f in fs] == failures
            tested += 1
        assert tested >= 2 ** (n - 1) - 1


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
