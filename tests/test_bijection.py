import copy
import itertools
import json
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from immaculate import bijection
from immaculate._kernels import BACKEND
from immaculate.bijection import (
    HookTableau,
    Pair,
    Trace,
    circular_left_shift,
    circular_right_shift,
    hook_index_of_path,
    hook_path,
    jdt_slide,
    straighten,
    unstraighten,
)
from immaculate.composition import Cell, Composition, compositions
from immaculate.errors import InternalCheckError, InvalidInputError, ParseError
from immaculate.tableau import Tableau

# One fully worked expansion, used as the master fixture: shape (4,1,4,2,1),
# every intermediate state and path written out by hand.
WIDE = Composition((4, 1, 4, 2, 1))
WIDE_P = Tableau([[1, 5, 8, 9], [2], [3, 4, 11, 12], [6, 10], [7]])
WIDE_J = HookTableau([[8, 2, 1, 1], [3], [6, 3, 1, 1], [1, 1], [1]])
WIDE_T = Tableau([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]])
WIDE_PATHS = [
    [(1, 1), (2, 1), (3, 1), (3, 2), (3, 3)],
    [(2, 1), (3, 1), (3, 2)],
    [(3, 1), (4, 1), (4, 2)],
    [(4, 1)],
    [(5, 1)],
    [(1, 2), (1, 3)],
    [(3, 2), (3, 3), (3, 4)],
    [(4, 2)],
    [(1, 3)],
    [(3, 3)],
    [(1, 4)],
]
WIDE_STATES = [
    ([[1, 5, 8, 9], [2], [3, 4, 11, 12], [6, 10], [7]],
     [[8, 2, 1, 1], [3], [6, 3, 1, 1], [1, 1], [1]]),
    ([[11, 5, 8, 9], [1], [2, 3, 4, 12], [6, 10], [7]],
     [[1, 2, 1, 1], [3], [6, 3, 1, 1], [1, 1], [1]]),
    ([[11, 5, 8, 9], [3], [1, 2, 4, 12], [6, 10], [7]],
     [[1, 2, 1, 1], [1], [6, 3, 1, 1], [1, 1], [1]]),
    ([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]],
     [[1, 2, 1, 1], [1], [1, 3, 1, 1], [1, 1], [1]]),
    ([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]],
     [[1, 2, 1, 1], [1], [1, 3, 1, 1], [1, 1], [1]]),
    ([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]],
     [[1, 2, 1, 1], [1], [1, 3, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 2, 4, 12], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 3, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 1, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 1, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 1, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 1, 1, 1], [1, 1], [1]]),
    ([[11, 8, 5, 9], [3], [10, 12, 2, 4], [1, 6], [7]],
     [[1, 1, 1, 1], [1], [1, 1, 1, 1], [1, 1], [1]]),
]


@st.composite
def shapes(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return Composition(tuple(parts))


@st.composite
def fillings(draw, max_n=7):
    alpha = draw(shapes(max_n))
    vals = draw(st.permutations(list(range(1, alpha.n + 1))))
    return Tableau.from_flat(alpha, vals)


class TestHookTableau:
    def test_bounds_enforced(self):
        HookTableau([[5, 1], [3], [2, 1]])
        with pytest.raises(InvalidInputError, match=r"\(1, 2\)"):
            HookTableau([[5, 2], [3], [2, 1]])
        with pytest.raises(InvalidInputError):
            HookTableau([[0, 1], [3], [2, 1]])

    def test_all_ones(self):
        assert HookTableau.all_ones(Composition((2, 1, 2))).rows == ((1, 1), (1,), (1, 1))

    def test_value_at(self):
        j = HookTableau([[3, 1], [2], [1, 1]])
        assert j.value_at((1, 1)) == 3
        with pytest.raises(ValueError):
            j.value_at((1, 3))

    def test_immutable(self):
        j = HookTableau([[3, 1], [2], [1, 1]])
        with pytest.raises(AttributeError, match="HookTableau is immutable"):
            j.rows = ((1, 1), (1,), (1, 1))

    def test_never_equals_tableau_with_same_rows(self):
        rows = [[1, 1], [1], [1, 1]]
        assert Tableau(rows) != HookTableau(rows)
        assert HookTableau(rows) != Tableau(rows)

    def test_equal_hook_tableaux_hash_equally(self):
        a = HookTableau([[3, 1], [2], [1, 1]])
        b = HookTableau(((3, 1), (2,), (1, 1)))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("HookTableau", a.rows))
        assert len({a, b}) == 1
        # the same flat values on another shape
        assert HookTableau([[1], [1, 1]]) != HookTableau([[1, 1], [1]])

    def test_repr(self):
        assert repr(HookTableau([[3, 1], [2], [1, 1]])) == "HookTableau([[3, 1], [2], [1, 1]])"


class TestPair:
    def test_requires_standard_immaculate(self):
        with pytest.raises(InvalidInputError):
            Pair(Tableau([[2, 1], [3], [4, 5]]), HookTableau.all_ones(Composition((2, 1, 2))))

    def test_requires_matching_shapes(self):
        with pytest.raises(InvalidInputError):
            Pair(Tableau([[1, 2], [3], [4, 5]]), HookTableau.all_ones(Composition((2, 1, 1, 1))))

    def test_text_round_trip(self):
        pair = Pair(Tableau([[1, 2], [3], [4, 5]]), HookTableau([[3, 1], [2], [1, 1]]))
        text = pair.to_text()
        assert text == "1 2\n3\n4 5\n\n3 1\n2\n1 1"
        assert Pair.parse(text) == pair

    def test_json_round_trip(self):
        pair = Pair(WIDE_P, WIDE_J)
        obj = json.loads(json.dumps(pair.to_json_obj()))
        assert Pair.from_json_obj(obj) == pair
        assert Pair.parse(json.dumps(obj)) == pair

    @pytest.mark.parametrize("bad", ["1 2\n3", "1\n\n1\n\n1", '{"P": {"rows": [[1]]}}'])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            Pair.parse(bad)

    @pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                        copy.copy, copy.deepcopy])
    def test_pickle_and_copy(self, copier):
        # grids built by the public constructors and kernel output wrapped
        # without rows, and pairs of each
        pair, _ = straighten(WIDE_T)
        for obj in (WIDE_P, WIDE_J, Pair(WIDE_P, WIDE_J), pair.tableau, pair.hooks, pair):
            back = copier(obj)
            assert type(back) is type(obj) and back == obj and hash(back) == hash(obj)

    def test_equality_hash_and_repr(self):
        pair = Pair(Tableau([[1, 2], [3], [4, 5]]), HookTableau([[3, 1], [2], [1, 1]]))
        same = Pair(hooks=HookTableau([[3, 1], [2], [1, 1]]), tableau=Tableau([[1, 2], [3], [4, 5]]))
        other = Pair(Tableau([[1, 2], [3], [4, 5]]), HookTableau.all_ones(pair.shape))
        assert pair == same and hash(pair) == hash(same) == hash((pair.tableau, pair.hooks))
        assert pair != other and pair != (pair.tableau, pair.hooks)
        assert len({pair, same, other}) == 2
        assert repr(pair) == ("Pair(tableau=Tableau([[1, 2], [3], [4, 5]]), "
                              "hooks=HookTableau([[3, 1], [2], [1, 1]]))")

    def test_immutable(self):
        pair = Pair(WIDE_P, WIDE_J)
        for name in ("tableau", "hooks", "other"):
            with pytest.raises(AttributeError, match="Pair is immutable"):
                setattr(pair, name, WIDE_P)
        with pytest.raises(AttributeError, match="Pair is immutable"):
            del pair.hooks
        assert pair.tableau is WIDE_P and pair.hooks is WIDE_J


class TestHookPath:
    def test_descends_then_runs_right(self):
        assert hook_path(WIDE, (1, 1), 8) == (
            Cell(1, 1), Cell(2, 1), Cell(3, 1), Cell(3, 2), Cell(3, 3),
        )

    def test_within_row(self):
        assert hook_path(Composition((2, 1, 2)), (1, 1), 2) == (Cell(1, 1), Cell(1, 2))

    def test_index_one_is_the_cell_itself(self):
        assert hook_path(WIDE, (3, 2), 1) == (Cell(3, 2),)

    def test_column_hook(self):
        assert hook_path(Composition((2, 1, 2)), (2, 1), 3) == (
            Cell(2, 1), Cell(3, 1), Cell(3, 2),
        )

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            hook_path(Composition((2, 1, 2)), (1, 2), 2)
        with pytest.raises(ValueError):
            hook_path(Composition((2, 1, 2)), (1, 1), 6)


class TestHookIndexOfPath:
    def test_inverts_hook_path_everywhere(self):
        # and the kernel's rotation by (start, v) is the circular right
        # shift along that path
        for n in range(1, 7):
            for alpha in compositions(n):
                ops = bijection._kernel(alpha.parts, "pure")
                t = Tableau.from_flat(alpha, range(1, n + 1))
                for pos, c in enumerate(alpha.cells()):
                    for v in range(1, alpha.hook_length(c) + 1):
                        path = hook_path(alpha, c, v)
                        assert hook_index_of_path(alpha, path, check=True) == v
                        flat = list(t.flat())
                        ops._rotate_hook(flat, pos, v)
                        assert Tableau.from_flat(alpha, flat) == circular_right_shift(t, path)

    def test_known_values(self):
        alpha = Composition((2, 1, 2))
        assert hook_index_of_path(alpha, [(2, 1), (3, 1), (3, 2)]) == 3
        assert hook_index_of_path(alpha, [(1, 2)]) == 1
        assert hook_index_of_path(WIDE, WIDE_PATHS[0]) == 8

    def test_malformed_paths(self):
        alpha = Composition((2, 1, 2))
        with pytest.raises(ValueError):
            hook_index_of_path(alpha, [])
        with pytest.raises(ValueError):
            hook_index_of_path(alpha, [(1, 2), (1, 1)])  # ends left of start
        with pytest.raises(ValueError):
            hook_index_of_path(alpha, [(1, 2), (3, 2)])  # descends off column 1
        with pytest.raises(ValueError):
            hook_index_of_path(alpha, [(1, 3)])  # outside the diagram


def test_active_backend_shares_the_named_kernel():
    # one ShapeOps per shape and backend: on the pure backend, straighten
    # and the pure-only helpers (hook paths, trace replays) share one shape
    # and its checked-path memo
    parts = (2, 1, 2)
    assert bijection._kernel(parts) is bijection._kernel(parts, BACKEND)


class TestCircularShifts:
    def test_right_shift_known(self):
        before = Tableau([[1, 5, 8, 9], [2], [3, 4, 11, 12], [6, 10], [7]])
        after = circular_right_shift(before, WIDE_PATHS[0])
        assert after == Tableau([[11, 5, 8, 9], [1], [2, 3, 4, 12], [6, 10], [7]])

    def test_single_cell_is_identity(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        assert circular_right_shift(t, [(2, 1)]) == t
        assert circular_left_shift(t, [(2, 1)]) == t

    @given(fillings(max_n=6), st.data())
    def test_left_inverts_right(self, t, data):
        cells = list(t.shape.cells())
        k = data.draw(st.integers(min_value=1, max_value=len(cells)))
        path = data.draw(st.permutations(cells))[:k]
        assert circular_left_shift(circular_right_shift(t, path), path) == t
        assert circular_right_shift(circular_left_shift(t, path), path) == t

    def test_rejects_cells_outside(self):
        with pytest.raises(ValueError):
            circular_right_shift(Tableau([[1]]), [(1, 2)])


class TestJdtSlide:
    def test_worked_example(self):
        t = Tableau([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]])
        result, path = jdt_slide(t, 10, check=True)
        assert path == (Cell(3, 1), Cell(4, 1), Cell(4, 2))
        assert result == Tableau([[11, 5, 8, 9], [3], [1, 2, 4, 12], [6, 10], [7]])

    def test_stable_value_stays(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        result, path = jdt_slide(t, 3, check=True)
        assert result == t and path == (Cell(2, 1),)

    def test_moves_right_off_first_column(self):
        result, path = jdt_slide(Tableau([[3, 2], [4], [1, 5]]), 3, check=True)
        assert path == (Cell(1, 1), Cell(1, 2))
        assert result == Tableau([[2, 3], [4], [1, 5]])

    def test_requires_standard_filling(self):
        with pytest.raises(InvalidInputError):
            jdt_slide(Tableau([[1, 1], [2], [3, 3]]), 2)

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            jdt_slide(Tableau([[1, 2], [3], [4, 5]]), 6)

    @given(fillings(max_n=7), st.data())
    @settings(max_examples=60)
    def test_path_form_and_shift_law(self, t, data):
        # stated for every slide: the result is the circular left shift of
        # the visited path, and the path itself is a hook path
        value = data.draw(st.integers(min_value=1, max_value=t.n))
        result, path = jdt_slide(t, value, check=True)
        assert circular_left_shift(t, path) == result
        v = hook_index_of_path(t.shape, path, check=True)
        assert t.shape.hook_cells(path[0])[v - 1] == path[-1]


class TestUnstraighten:
    def test_full_worked_trace(self):
        result, trace = unstraighten(Pair(WIDE_P, WIDE_J), check=True)
        assert result == WIDE_T
        assert len(trace.states) == 12 and len(trace.paths) == 11
        for k, (rows_t, rows_j) in enumerate(WIDE_STATES):
            assert trace.states[k][0] == Tableau(rows_t), f"state {k + 1} tableau"
            assert trace.states[k][1] == HookTableau(rows_j), f"state {k + 1} hooks"
        assert [[tuple(c) for c in p] for p in trace.paths] == WIDE_PATHS

    def test_all_ones_is_identity(self):
        p = Tableau([[1, 2], [3], [4, 5]])
        result, trace = unstraighten(Pair(p, HookTableau.all_ones(p.shape)), check=True)
        assert result == p
        assert all(t == p for t, _ in trace.states)

    def test_small_example(self):
        pair = Pair(Tableau([[1, 2], [3], [4, 5]]), HookTableau([[3, 1], [2], [1, 1]]))
        result, _ = unstraighten(pair, check=True)
        assert result == Tableau([[3, 2], [4], [1, 5]])

    def test_adjacent_states_differ_only_on_path(self):
        _, trace = unstraighten(Pair(WIDE_P, WIDE_J), check=True)
        for k, path in enumerate(trace.paths):
            before, after = trace.states[k][0], trace.states[k + 1][0]
            onpath = set(path)
            for c in before.shape.cells():
                if c not in onpath:
                    assert before.entry_at(c) == after.entry_at(c)


class TestStraighten:
    def test_inverts_worked_example(self):
        pair, trace = straighten(WIDE_T, check=True)
        assert pair.tableau == WIDE_P
        assert pair.hooks == WIDE_J
        # the contraction replays the expansion backwards, state for state
        _, up = unstraighten(Pair(WIDE_P, WIDE_J), check=True)
        assert trace.states == tuple(reversed(up.states))
        assert trace.paths == tuple(reversed(up.paths))

    def test_standard_immaculate_is_fixed(self):
        t = Tableau([[1, 3], [2], [4, 5]])
        pair, _ = straighten(t, check=True)
        assert pair.tableau == t
        assert pair.hooks == HookTableau.all_ones(t.shape)

    def test_small_example(self):
        pair, _ = straighten(Tableau([[3, 2], [4], [1, 5]]), check=True)
        assert pair.tableau == Tableau([[1, 2], [3], [4, 5]])
        assert pair.hooks == HookTableau([[3, 1], [2], [1, 1]])

    def test_rejects_non_standard(self):
        with pytest.raises(InvalidInputError):
            straighten(Tableau([[1, 1], [2], [3, 3]]))

    @pytest.mark.parametrize("check", [False, True])
    @pytest.mark.parametrize("p, j, reason", [
        ([1, 2, 3, 4, 4], [3, 1, 2, 1, 1], "permutation of 1..n"),
        ([2, 1, 3, 4, 5], [3, 1, 2, 1, 1], "standard immaculate"),
        ([1, 2, 3, 4, 5], [3, 2, 2, 1, 1], r"hook value 2 at cell \(1, 2\) is outside 1..1"),
        ([1, 2, 3, 4, 5], [0, 1, 2, 1, 1], r"hook value 0 at cell \(1, 1\) is outside 1..5"),
    ])
    def test_invalid_kernel_result_is_an_internal_error(self, monkeypatch, check, p, j, reason):
        # the object layer wraps kernel output without the public checks, so
        # it must catch a kernel that returns something other than a pair
        kernel = bijection._kernel

        class Faulty:
            def __init__(self, ops):
                self.ops = ops

            def __getattr__(self, name):
                return getattr(self.ops, name)

            def straighten(self, entries, check=False):
                return list(p), list(j)

        monkeypatch.setattr(bijection, "_kernel",
                            lambda parts, backend=None: Faulty(kernel(parts, backend)))
        with pytest.raises(InternalCheckError, match="straighten produced an invalid pair: .*"
                           + reason):
            straighten(Tableau([[3, 2], [4], [1, 5]]), check=check)


class TestRoundTrip:
    def test_exhaustive_small(self):
        for n in range(1, 5):
            for alpha in compositions(n):
                for perm in itertools.permutations(range(1, n + 1)):
                    t = Tableau.from_flat(alpha, perm)
                    pair, _ = straighten(t, check=True)
                    back, _ = unstraighten(pair, check=True)
                    assert back == t

    @given(fillings())
    @settings(max_examples=80)
    def test_random_fillings(self, t):
        pair, _ = straighten(t, check=True)
        back, _ = unstraighten(pair, check=True)
        assert back == t

    def test_check_flag_never_changes_results(self):
        for alpha in compositions(4):
            for perm in itertools.permutations(range(1, 5)):
                t = Tableau.from_flat(alpha, perm)
                assert straighten(t, check=True)[0] == straighten(t)[0]


class TestTrace:
    @given(fillings())
    @settings(max_examples=60)
    def test_replay_follows_hook_values(self, t):
        pair, down = straighten(t)
        _, up = unstraighten(pair)
        order = t.shape.cell_order()
        assert up.states[0] == (pair.tableau, pair.hooks)
        assert up.states[-1] == (t, HookTableau.all_ones(t.shape))
        for k, path in enumerate(up.paths):
            # step k + 1 consumes the hook value of the (k + 1)-th cell from
            # the end of the traversal order, and touches nothing off its path
            cell = order[-1 - k]
            assert path == hook_path(t.shape, cell, pair.hooks.value_at(cell))
            before, after = up.states[k][0], up.states[k + 1][0]
            onpath = set(path)
            assert all(before.entry_at(c) == after.entry_at(c)
                       for c in t.shape.cells() if c not in onpath)
        assert down.states == tuple(reversed(up.states))
        assert down.paths == tuple(reversed(up.paths))

    def test_straighten_does_not_build_the_trace(self):
        # an eager trace of 30x30 holds 900 states of 900 entries each (over
        # 10 MB); the lazy one costs only the kernel's flat arrays
        alpha = Composition((30,) * 30)
        vals = list(range(1, alpha.n + 1))
        random.Random(5).shuffle(vals)
        t = Tableau.from_flat(alpha, vals)
        tracemalloc.start()
        try:
            pair, trace = straighten(t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, peak
        assert len(trace.states) == alpha.n
        assert trace.states[-1] == (pair.tableau, pair.hooks)

    def test_json_shape(self):
        _, trace = unstraighten(Pair(WIDE_P, WIDE_J))
        obj = trace.to_json_obj()
        assert obj["shape"] == [4, 1, 4, 2, 1]
        assert len(obj["states"]) == 12
        assert obj["states"][0]["tableau"] == [[1, 5, 8, 9], [2], [3, 4, 11, 12], [6, 10], [7]]
        assert obj["paths"][0] == [[1, 1], [2, 1], [3, 1], [3, 2], [3, 3]]
        json.dumps(obj)  # must be serialisable as-is
