import itertools
import json
import math
import random
import types

import pytest

from immaculate import cli, enumeration
from immaculate._kernels import BACKEND, _pure
from immaculate.bijection import HookTableau, Pair, straighten, unstraighten
from immaculate.composition import Composition, compositions, count_formula
from immaculate.enumeration import (
    VerificationReport,
    all_hook_tableaux,
    all_standard_fillings,
    brute_force_standard_immaculate,
    count_brute,
    count_recursive,
    enumerate_standard_immaculate,
    random_hook_tableau,
    random_standard_filling,
    random_standard_immaculate,
    unrank_permutation,
    verify_bijection,
    verify_shapes,
)
from immaculate.errors import FORMULA_GUARD, GuardExceededError, InternalCheckError
from immaculate.tableau import Tableau, split_flat


class TestAllStandardFillings:
    def test_counts_and_order(self):
        alpha = Composition((2, 1, 2))
        fillings = list(all_standard_fillings(alpha))
        assert len(fillings) == 120
        assert len(set(fillings)) == 120
        assert fillings[0] == Tableau([[1, 2], [3], [4, 5]])
        assert fillings[-1] == Tableau([[5, 4], [3], [2, 1]])

    def test_single_cell(self):
        assert list(all_standard_fillings(Composition((1,)))) == [Tableau([[1]])]


class TestBruteForce:
    def test_known_set(self):
        found = brute_force_standard_immaculate(Composition((2, 1, 2)))
        assert [t.rows for t in found] == [
            ((1, 2), (3,), (4, 5)),
            ((1, 3), (2,), (4, 5)),
            ((1, 4), (2,), (3, 5)),
            ((1, 5), (2,), (3, 4)),
        ]

    def test_guard(self):
        with pytest.raises(GuardExceededError, match="enumerate_standard_immaculate"):
            brute_force_standard_immaculate(Composition((11,)))
        # guard= moves the limit: one cell past it is refused, at it allowed
        with pytest.raises(GuardExceededError, match="enumerate_standard_immaculate"):
            brute_force_standard_immaculate(Composition((4,)), guard=3)
        assert len(brute_force_standard_immaculate(Composition((4,)), guard=4)) == 1

    def test_count_brute_guard(self):
        with pytest.raises(GuardExceededError):
            count_brute(Composition((6, 6)))
        assert count_brute(Composition((3, 2))) == 6


class TestRecursiveEnumeration:
    def test_matches_brute_force_everywhere(self):
        for n in range(1, 7):
            for alpha in compositions(n):
                fast = list(enumerate_standard_immaculate(alpha))
                assert len(fast) == len(set(fast))
                assert set(fast) == set(brute_force_standard_immaculate(alpha))
                # built without the public checks: tuples of ints on alpha itself
                assert all(t.shape is alpha and {type(r) for r in t.rows} == {tuple}
                           and {type(v) for r in t.rows for v in r} == {int} for t in fast)

    def test_streaming_does_not_share_state(self):
        # consuming lazily must give the same objects as list() up front
        alpha = Composition((3, 1, 2))
        eager = [t.rows for t in enumerate_standard_immaculate(alpha)]
        lazy = []
        for t in enumerate_standard_immaculate(alpha):
            lazy.append(t.rows)
        assert eager == lazy

    def test_single_column_and_single_row(self):
        assert list(enumerate_standard_immaculate(Composition((1, 1, 1)))) == [
            Tableau([[1], [2], [3]])
        ]
        assert list(enumerate_standard_immaculate(Composition((4,)))) == [
            Tableau([[1, 2, 3, 4]])
        ]

    def test_order_groups_by_first_row(self):
        # row tails are taken lexicographically from row 1 down, larger
        # labels first
        rows = [t.rows for t in enumerate_standard_immaculate(Composition((2, 2, 1)))]
        assert rows == [
            ((1, 5), (2, 4), (3,)), ((1, 5), (2, 3), (4,)),
            ((1, 4), (2, 5), (3,)), ((1, 4), (2, 3), (5,)),
            ((1, 3), (2, 5), (4,)), ((1, 3), (2, 4), (5,)),
            ((1, 2), (3, 5), (4,)), ((1, 2), (3, 4), (5,)),
        ]

    def test_count_recursive_agrees(self):
        for n in range(1, 8):
            for alpha in compositions(n):
                assert count_recursive(alpha) == count_formula(alpha)

    def test_count_recursive_guard_refuses_before_the_first_binomial(self, monkeypatch):
        def no_comb(*args):
            raise AssertionError(f"math.comb{args} called")

        monkeypatch.setattr(math, "comb", no_comb)
        for parts in [(FORMULA_GUARD + 1,), (2 ** 62, 2 ** 62 - 1)]:
            with pytest.raises(GuardExceededError, match=f"needs n <= {FORMULA_GUARD} "):
                count_recursive(Composition(parts))
        with pytest.raises(GuardExceededError, match="needs n <= 4 but the shape has 5 cells"):
            count_recursive(Composition((2, 1, 2)), guard=4)

    def test_count_recursive_guard_is_inclusive_and_can_be_raised(self):
        assert count_recursive(Composition((2, 1, 2)), guard=5) == 4
        assert count_recursive(Composition((2, FORMULA_GUARD - 2))) == FORMULA_GUARD - 1
        assert count_recursive(Composition((1, FORMULA_GUARD)), guard=FORMULA_GUARD + 1) == 1


class TestAllHookTableaux:
    def test_cardinality(self):
        alpha = Composition((2, 1, 2))
        all_j = list(all_hook_tableaux(alpha))
        assert len(all_j) == alpha.hook_product() == 30
        assert len(set(all_j)) == 30

    def test_order_last_cell_fastest(self):
        alpha = Composition((2, 1))
        rows = [j.rows for j in all_hook_tableaux(alpha)]
        assert rows == [
            ((1, 1), (1,)), ((2, 1), (1,)), ((3, 1), (1,)),
        ]

    def test_single_cell(self):
        assert [j.rows for j in all_hook_tableaux(Composition((1,)))] == [((1,),)]

    def test_pairs_with_tableaux_cover_all_fillings(self):
        # |X| = n!: every filling arises from exactly one (tableau, hooks) pair
        alpha = Composition((1, 2, 1))
        seen = set()
        for p in enumerate_standard_immaculate(alpha):
            for j in all_hook_tableaux(alpha):
                t, _ = unstraighten(Pair(p, j))
                seen.add(t)
        assert len(seen) == math.factorial(4)


class TestUnrankPermutation:
    def test_matches_itertools(self):
        for n in range(1, 6):
            for rank, perm in enumerate(itertools.permutations(range(1, n + 1))):
                assert unrank_permutation(n, rank) == perm

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            unrank_permutation(3, 6)
        with pytest.raises(ValueError):
            unrank_permutation(3, -1)


class TestSampling:
    def test_deterministic_per_seed(self):
        alpha = Composition((4, 1, 4, 2, 1))
        a = [random_standard_immaculate(alpha, random.Random(5)).rows for _ in range(3)]
        b = [random_standard_immaculate(alpha, random.Random(5)).rows for _ in range(3)]
        assert a == b

    def test_sampled_objects_are_valid(self):
        rng = random.Random(0)
        alpha = Composition((3, 1, 2))
        for _ in range(50):
            assert random_standard_immaculate(alpha, rng).is_standard_immaculate()
            random_hook_tableau(alpha, rng)  # constructor enforces bounds
            assert random_standard_filling(alpha, rng).is_standard()

    def test_uniform_coverage_small(self):
        # 4 tableaux, 400 draws: every one should show up many times
        alpha = Composition((2, 1, 2))
        rng = random.Random(123)
        counts = {}
        for _ in range(400):
            t = random_standard_immaculate(alpha, rng)
            counts[t.rows] = counts.get(t.rows, 0) + 1
        assert len(counts) == 4
        assert all(c > 50 for c in counts.values())

    @pytest.mark.parametrize("parts, seed", [((3, 1, 2, 2), 11), ((2, 3, 1, 2), 12)])
    def test_chi_square_uniform(self, parts, seed):
        # 200 draws per tableau; Pearson's statistic has mean df and standard
        # deviation sqrt(2 df) under uniformity, so df + 4 sqrt(2 df) is a
        # four-sigma bound
        alpha = Composition(parts)
        everything = {t.rows for t in enumerate_standard_immaculate(alpha)}
        f = count_formula(alpha)
        assert len(everything) == f
        rng = random.Random(seed)
        counts = dict.fromkeys(everything, 0)
        for _ in range(200 * f):
            counts[random_standard_immaculate(alpha, rng).rows] += 1
        assert len(counts) == f
        df = f - 1
        chi2 = sum((c - 200) ** 2 / 200 for c in counts.values())
        assert chi2 < df + 4 * math.sqrt(2 * df)


class TestVerifyExhaustive:
    def test_small_shape_fully(self):
        report = verify_bijection(Composition((2, 1, 2)))
        assert report.ok
        assert report.count_formula == report.count_bruteforce == report.count_recursive == 4
        assert report.x_size == report.y_size == 120
        assert report.x_checked == 120 and report.y_checked == 120
        assert report.roundtrip_failures == [] and report.assertion_failures == []
        assert report.backend == BACKEND

    def test_all_shapes_through_six(self):
        for n in range(1, 7):
            for alpha in compositions(n):
                report = verify_bijection(alpha)
                assert report.ok, report.summary()
                assert report.x_size == math.factorial(n)
                assert report.y_size == math.factorial(n)

    def test_parallel_matches_serial(self):
        alpha = Composition((3, 1, 2))
        serial = verify_bijection(alpha, jobs=1).to_json_obj()
        parallel = verify_bijection(alpha, jobs=3).to_json_obj()
        for key in ("elapsed_s", "jobs"):
            serial.pop(key), parallel.pop(key)
        assert serial == parallel

    def test_parallel_matches_serial_across_shapes(self):
        # all 16 shapes of n = 5 through one run on a real pool, report by report
        shapes = list(compositions(5))
        serial = [r.to_json_obj() for r in verify_shapes(shapes, jobs=1)]
        parallel = [r.to_json_obj() for r in verify_shapes(shapes, jobs=2)]
        for obj in serial + parallel:
            obj.pop("elapsed_s"), obj.pop("jobs")
        assert len(serial) == 16 and serial == parallel

    def test_guard(self):
        with pytest.raises(GuardExceededError, match="sampled"):
            verify_bijection(Composition((9,)))
        with pytest.raises(ValueError):
            verify_bijection(Composition((2, 1)), mode="fast")

    def test_workers_capped_at_cpu_count(self, pool_sizes):
        report = verify_bijection(Composition((2, 1)), jobs=10_000)
        assert pool_sizes == [2]
        assert report.ok and report.jobs == 10_000
        verify_bijection(Composition((2, 1)), jobs=1)
        assert pool_sizes == [2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_clean_filling_scan_proves_the_pairs(self, pool_sizes, scan_sides, jobs):
        report = verify_bijection(Composition((3, 1, 2)), jobs=jobs)
        assert report.ok and report.y_covered_by == "x-scan"
        assert report.y_checked == report.y_size == 720
        assert scan_sides and set(scan_sides) == {"x"}

    @pytest.mark.parametrize("jobs, pools", [(2, [2]), (1, [])])
    def test_one_pool_per_cli_run(self, pool_sizes, capsys, jobs, pools):
        # all 8 shapes of n = 4 share the run's one pool, and jobs 1 needs none
        assert cli.main(["verify", "--n", "4", "--jobs", str(jobs)]) == 0
        assert "8/8 shapes ok" in capsys.readouterr().out
        assert pool_sizes == pools


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool started, on a stand-in pool that
    maps in this process, so no worker is ever started; two cores."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("immaculate.enumeration.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    return sizes


@pytest.fixture
def scan_sides(monkeypatch):
    """The side of every scan task run in this process."""
    sides = []
    scan = enumeration._scan_task

    def spy(task):
        sides.append(task[1])
        return scan(task)

    monkeypatch.setattr("immaculate.enumeration._scan_task", spy)
    return sides


class TestVerifySampled:
    def test_reproducible(self):
        alpha = Composition((4, 1, 4, 2, 1))
        a = verify_bijection(alpha, mode="sampled", sample_size=60, seed=9).to_json_obj()
        b = verify_bijection(alpha, mode="sampled", sample_size=60, seed=9).to_json_obj()
        a.pop("elapsed_s"), b.pop("elapsed_s")
        assert a == b

    def test_large_shape(self):
        report = verify_bijection(
            Composition((5, 1, 6, 4, 3, 1)), mode="sampled", sample_size=150, seed=2
        )
        assert report.ok
        assert report.x_size is None and report.count_bruteforce is None
        assert report.x_checked == report.y_checked == 150

    def test_report_json_fields_stable(self):
        report = verify_bijection(Composition((2, 1)), mode="sampled", sample_size=5, seed=0)
        obj = report.to_json_obj()
        assert set(obj) == {
            "shape", "mode", "ok", "count_formula", "count_recursive",
            "count_bruteforce", "x_size", "y_size", "x_checked", "y_checked",
            "roundtrip_failures", "assertion_failures", "seed", "sample_size",
            "jobs", "backend", "elapsed_s", "y_covered_by",
        }
        assert obj["y_covered_by"] == "samples"
        json.dumps(obj)

    def test_guard_refuses_a_shape_before_its_kernel_or_any_draw(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a refused shape reached its kernel or a draw")

        monkeypatch.setattr(enumeration, "get_backend", refused)
        monkeypatch.setattr(enumeration, "random_standard_filling", refused)
        alpha = Composition((3, 3))
        message = "^too large to compute: sampled verification needs n <= 5 but the shape has 6 "
        with pytest.raises(GuardExceededError, match=message):
            verify_bijection(alpha, mode="sampled", guard=5)
        with pytest.raises(GuardExceededError, match=message):
            verify_shapes([alpha], mode="sampled", guard=5)
        # by default a sampled shape is bounded as its exact counts are
        with pytest.raises(GuardExceededError, match=f"needs n <= {FORMULA_GUARD} "):
            verify_bijection(Composition((FORMULA_GUARD + 1,)), mode="sampled")
        monkeypatch.undo()
        assert verify_bijection(alpha, mode="sampled", sample_size=5, guard=6).ok
        assert verify_shapes([alpha], mode="sampled", sample_size=5, guard=6)[0].ok


class TestVerifyArguments:
    # a worker count or sample size below one is refused in either mode, as
    # the CLI refuses --jobs and --samples, before any shape is read or scanned
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("name, value", [("jobs", 0), ("jobs", -1),
                                             ("sample_size", 0), ("sample_size", -3)])
    def test_below_one_raises_value_error_naming_it(self, mode, name, value, pool_sizes):
        def shapes():
            raise AssertionError("a shape was read")
            yield

        message = f"^{name} must be at least 1, got {value}$"
        with pytest.raises(ValueError, match=message):
            verify_bijection(Composition((2, 1)), mode=mode, **{name: value})
        with pytest.raises(ValueError, match=message):
            verify_shapes(shapes(), mode=mode, **{name: value})
        assert pool_sizes == []

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_one_is_enough(self, mode):
        report = verify_bijection(Composition((3, 1, 2)), mode=mode, sample_size=1, jobs=1)
        assert report.ok and report.jobs == 1
        assert report.x_checked == (720 if mode == "exhaustive" else 1)


class _FaultyOps(_pure.ShapeOps):
    """Pure kernel with a planted fault in one step of each side, where the
    walks and the single transforms both meet it: the straighten step
    refuses to slide n out of the first cell while the last cell holds 1,
    and the first unstraighten step takes a hook value of 2 for 1."""

    def _checked_slide(self, t, s, k):
        if self.order[k] == 0 and t[0] == self.size and t[-1] == 1:
            raise InternalCheckError("injected")
        return super()._checked_slide(t, s, k)

    def _checked_rotate(self, t, j, k):
        if k == 1 and j[0] == 2:
            j[0] = 1
        return super()._checked_rotate(t, j, k)


X_CHANGED = "straighten then unstraighten changed the filling"
Y_CHANGED = "unstraighten then straighten changed the pair"


class TestFailureReports:
    @pytest.fixture(autouse=True)
    def faulty_kernel(self, monkeypatch):
        # forked pool workers inherit the patched lookup
        faulty = types.SimpleNamespace(ShapeOps=_FaultyOps)
        monkeypatch.setattr("immaculate.enumeration.get_backend", lambda name=None: faulty)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_exhaustive_entries(self, jobs):
        # the same entries as straightening and unstraightening each of the
        # 6 fillings and 6 pairs of 2,1 one by one on the faulty kernel
        report = verify_bijection(Composition((2, 1)), jobs=jobs)
        assert not report.ok
        assert report.roundtrip_failures == [
            {"side": "x", "index": 2, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[2, 1], [3]]},
            {"side": "x", "index": 4, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[3, 1], [2]]},
            {"side": "y", "index": 1, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 3], [2]], "J": [[2, 1], [1]]}},
            {"side": "y", "index": 4, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 2], [3]], "J": [[2, 1], [1]]}},
        ]
        assert report.assertion_failures == [
            {"side": "x", "index": 5, "stage": "check", "message": "injected",
             "tableau": [[3, 2], [1]]},
            {"side": "y", "index": 5, "stage": "check", "message": "injected",
             "pair": {"P": [[1, 2], [3]], "J": [[3, 1], [1]]}},
        ]

    def test_sampled_entries(self):
        report = verify_bijection(Composition((2, 1)), mode="sampled", sample_size=6, seed=1)
        assert not report.ok
        assert report.roundtrip_failures == [
            {"side": "x", "index": 1, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[3, 1], [2]]},
            {"side": "x", "index": 5, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[3, 1], [2]]},
            {"side": "y", "index": 0, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 3], [2]], "J": [[2, 1], [1]]}},
            {"side": "y", "index": 3, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 2], [3]], "J": [[2, 1], [1]]}},
        ]
        assert report.assertion_failures == [
            {"side": "y", "index": 4, "stage": "check", "message": "injected",
             "pair": {"P": [[1, 2], [3]], "J": [[3, 1], [1]]}},
        ]


def _one_state_fault(parts, p0, j0):
    """Pure kernel whose unstraighten goes wrong at one state of one step,
    straighten staying right.  At the last step with a choice, k0, the
    rotation stops one cell short when the cells that the step reads hold
    what unstraightening the pair (p0, j0) brings there: the prefix
    order[0..n-k0] and the hook value of order[n-k0].  The filling walk
    meets that state at one node, so every filling below the node fails; a
    pair fails wherever its first k0 - 1 steps lead to that state."""
    clean = _pure.ShapeOps(parts)
    n, order, hooklen = clean.size, clean.order, clean.hooklen
    k0 = max(k for k in range(1, n) if hooklen[order[n - k]] > 1)
    pos, cells = order[n - k0], order[:n - k0 + 1]
    t0, j = list(p0), list(j0)
    for k in range(1, k0):
        clean._checked_rotate(t0, j, k)

    class OneStateFault(_pure.ShapeOps):
        def _checked_rotate(self, t, j, k):
            if k == k0 and j[pos] == j0[pos] and all(t[q] == t0[q] for q in cells):
                j[pos] -= 1
            return super()._checked_rotate(t, j, k)

    return OneStateFault


def _roundtrip_oracle(ops, alpha):
    """The failure entries of an exhaustive verify whose pair side is
    walked, from one public roundtrip per filling and per pair."""
    failures = {"roundtrip": [], "check": []}

    def grid(flat):
        return [list(r) for r in split_flat(alpha, flat)]

    for rank, x in enumerate(itertools.permutations(range(1, alpha.n + 1))):
        try:
            back = ops.unstraighten(*ops.straighten(x, check=True), check=True)
            failed = None if back == list(x) else ("roundtrip", X_CHANGED)
        except InternalCheckError as exc:
            failed = ("check", str(exc))
        if failed:
            failures[failed[0]].append({"side": "x", "index": rank, "stage": failed[0],
                                        "message": failed[1], "tableau": grid(x)})
    hooks = list(itertools.product(*(range(1, h + 1) for row in alpha.hook_lengths()
                                      for h in row)))
    for row, p in enumerate(t.flat() for t in enumerate_standard_immaculate(alpha)):
        for rem, j in enumerate(hooks):
            try:
                back = ops.straighten(ops.unstraighten(p, j, check=True), check=True)
                failed = None if back == (list(p), list(j)) else ("roundtrip", Y_CHANGED)
            except InternalCheckError as exc:
                failed = ("check", str(exc))
            if failed:
                failures[failed[0]].append({
                    "side": "y", "index": row * len(hooks) + rem, "stage": failed[0],
                    "message": failed[1], "pair": {"P": grid(p), "J": grid(j)}})
    return failures


class TestPairOnlyFault:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_caught_through_the_filling_scan(self, monkeypatch, jobs):
        # the fillings below the faulty node come back changed; the pair
        # walk then runs and names the pairs that meet the faulty state
        alpha = Composition((2, 1, 2))
        p0, j0 = [1, 3, 2, 4, 5], [2, 1, 3, 2, 1]
        faulty = types.SimpleNamespace(ShapeOps=_one_state_fault(alpha.parts, p0, j0))
        monkeypatch.setattr("immaculate.enumeration.get_backend", lambda name=None: faulty)
        report = verify_bijection(alpha, jobs=jobs)
        assert not report.ok and report.y_covered_by == "y-scan"
        expected = [
            {"side": "x", "index": 53, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[3, 1], [5], [4, 2]]},
            {"side": "x", "index": 99, "stage": "roundtrip", "message": X_CHANGED,
             "tableau": [[5, 1], [3], [4, 2]]},
            {"side": "y", "index": 9, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 5], [2], [3, 4]], "J": [[2, 1], [2], [2, 1]]}},
            {"side": "y", "index": 71, "stage": "roundtrip", "message": Y_CHANGED,
             "pair": {"P": [[1, 3], [2], [4, 5]], "J": [[2, 1], [3], [2, 1]]}},
        ]
        oracle = _roundtrip_oracle(faulty.ShapeOps(alpha.parts), alpha)
        assert report.roundtrip_failures == expected == oracle["roundtrip"]
        assert report.assertion_failures == [] == oracle["check"]
        # the fillings named are the ones that straighten to the pairs named
        clean = _pure.ShapeOps(alpha.parts)
        assert clean.straighten([3, 1, 5, 4, 2]) == (p0, j0)
        assert clean.straighten([5, 1, 3, 4, 2]) == ([1, 5, 2, 3, 4], [2, 1, 2, 2, 1])


class TestReportJudgement:
    def _report(self, **overrides):
        base = dict(
            shape=(2, 1, 2), mode="exhaustive", count_formula=4, count_recursive=4,
            count_bruteforce=4, x_size=120, y_size=120, x_checked=120, y_checked=120,
            roundtrip_failures=[], assertion_failures=[], seed=None, sample_size=None,
            jobs=1, backend="pure", elapsed_s=0.0,
        )
        base.update(overrides)
        return VerificationReport(**base)

    def test_ok_requires_agreeing_counts(self):
        assert self._report().ok
        assert not self._report(count_bruteforce=5).ok
        assert not self._report(count_recursive=3).ok
        assert not self._report(x_size=119, x_checked=119).ok

    def test_ok_requires_no_failures(self):
        bad = {"side": "x", "index": 0, "stage": "roundtrip", "message": "boom"}
        assert not self._report(roundtrip_failures=[bad]).ok
        assert not self._report(assertion_failures=[bad]).ok

    def test_ok_requires_complete_exhaustive_scan(self):
        assert not self._report(x_checked=60).ok

    def test_shape_counts_worked_out_once(self, monkeypatch):
        # cmd_verify reads ok up to three times per report; n! and the hook
        # product depend on the shape alone, the count fields are read fresh
        calls = []
        factorial, hook_product = math.factorial, Composition.hook_product
        monkeypatch.setattr(math, "factorial", lambda n: calls.append(n) or factorial(n))
        monkeypatch.setattr(Composition, "hook_product",
                            lambda self: calls.append(self.parts) or hook_product(self))
        report = self._report()
        assert [report.ok, report.ok, report.ok] == [True, True, True]
        assert calls == [5, (2, 1, 2)]
        report.count_recursive = 3
        assert not report.ok
        report.shape, report.count_recursive = (2, 2, 1), 4
        assert not report.ok
        assert calls == [5, (2, 1, 2), 5, (2, 2, 1)]

    def test_summary_mentions_failures(self):
        bad = {"side": "y", "index": 3, "stage": "check", "message": "boom"}
        line = self._report(assertion_failures=[bad]).summary()
        assert "FAILED" in line and "failures=1" in line

    def test_keyword_construction_and_equality(self):
        report = self._report()
        assert report.y_covered_by == "y-scan" and report.elapsed_s == 0.0
        assert report == self._report() and report != self._report(elapsed_s=1.0)
        assert report != self._report(y_covered_by="x-scan")
        report.elapsed_s = 1.0
        assert report == self._report(elapsed_s=1.0)
        with pytest.raises(TypeError):
            hash(report)
        assert repr(report).startswith("VerificationReport(shape=(2, 1, 2), mode='exhaustive', ")

    def test_json_key_order(self):
        assert list(self._report(y_covered_by="x-scan").to_json_obj()) == [
            "shape", "mode", "ok", "count_formula", "count_recursive", "count_bruteforce",
            "x_size", "y_size", "x_checked", "y_checked", "roundtrip_failures",
            "assertion_failures", "seed", "sample_size", "jobs", "backend", "elapsed_s",
            "y_covered_by",
        ]
