import copy
import itertools
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from immaculate.composition import (
    Cell,
    Composition,
    compositions,
    count_formula,
    format_composition,
    parse_composition,
)
from immaculate.errors import FORMULA_GUARD, GuardExceededError, ParseError


@st.composite
def comps(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    return Composition(tuple(parts))


class TestConstruction:
    def test_basics(self):
        alpha = Composition((4, 1, 2, 3))
        assert alpha.n == 10
        assert len(alpha) == 4
        assert tuple(alpha) == (4, 1, 2, 3)
        assert str(alpha) == "4,1,2,3"

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (2, 0, 1), (1.5,), ("2",)])
    def test_rejects_bad_parts(self, bad):
        with pytest.raises(ValueError):
            Composition(bad)

    def test_contains(self):
        alpha = Composition((2, 1, 2))
        assert (1, 2) in alpha
        assert (3, 2) in alpha
        assert (1, 3) not in alpha
        assert (4, 1) not in alpha
        assert (0, 1) not in alpha


class TestValueSemantics:
    def test_equality_and_hash(self):
        alpha = Composition((2, 1, 2))
        same = Composition(parts=[2, 1, 2])
        assert alpha == same and hash(alpha) == hash(same) == hash(((2, 1, 2),))
        assert alpha != Composition((2, 2, 1)) and alpha != (2, 1, 2)
        assert len({alpha, same, Composition((1,))}) == 2

    def test_repr(self):
        assert repr(Composition((2, 1, 2))) == "Composition(parts=(2, 1, 2))"

    @pytest.mark.parametrize("copier", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                        copy.copy, copy.deepcopy])
    def test_pickle_and_copy(self, copier):
        alpha = Composition((3, 1, 2))
        hooks = alpha.hook_lengths()
        back = copier(alpha)
        assert type(back) is Composition and back == alpha and hash(back) == hash(alpha)
        assert back.hook_lengths() == hooks and back.n == 6

    def test_immutable(self):
        alpha = Composition((2, 1))
        with pytest.raises(AttributeError, match="Composition is immutable"):
            alpha.parts = (1, 2)
        with pytest.raises(AttributeError, match="Composition is immutable"):
            del alpha.parts
        assert alpha.parts == (2, 1)


class TestCellOrder:
    def test_row_major_cells(self):
        assert Composition((2, 1, 2)).cells() == (
            Cell(1, 1), Cell(1, 2), Cell(2, 1), Cell(3, 1), Cell(3, 2),
        )

    def test_order_small(self):
        assert Composition((2, 1, 2)).cell_order() == (
            Cell(3, 2), Cell(1, 2), Cell(3, 1), Cell(2, 1), Cell(1, 1),
        )

    def test_order_wide(self):
        # right-most column bottom-up, then leftward column by column
        assert Composition((4, 1, 4, 2, 1)).cell_order() == (
            Cell(3, 4), Cell(1, 4), Cell(3, 3), Cell(1, 3), Cell(4, 2), Cell(3, 2),
            Cell(1, 2), Cell(5, 1), Cell(4, 1), Cell(3, 1), Cell(2, 1), Cell(1, 1),
        )

    def test_single_cell(self):
        assert Composition((1,)).cell_order() == (Cell(1, 1),)

    @given(comps())
    def test_order_is_a_permutation_ending_at_origin(self, alpha):
        order = alpha.cell_order()
        assert sorted(order) == sorted(alpha.cells())
        assert order[-1] == Cell(1, 1)
        # first cell: bottom of the right-most column
        maxcol = max(c.col for c in order)
        assert order[0] == max((c for c in order if c.col == maxcol), key=lambda c: c.row)

    @given(comps())
    def test_order_rank(self, alpha):
        for k, c in enumerate(alpha.cell_order(), 1):
            assert alpha.order_rank(c) == k


class TestHooks:
    def test_hook_lengths_known(self):
        alpha = Composition((4, 1, 2, 3))
        assert alpha.hook_length(Cell(1, 2)) == 3
        assert alpha.hook_length(Cell(2, 1)) == 6

    def test_hook_grid(self):
        assert Composition((2, 1, 2)).hook_lengths() == ((5, 1), (3,), (2, 1))

    def test_hook_cells_first_column(self):
        assert Composition((2, 1, 2)).hook_cells(Cell(2, 1)) == (
            Cell(2, 1), Cell(3, 1), Cell(3, 2),
        )

    def test_hook_cells_row_tail(self):
        assert Composition((4, 1, 2, 3)).hook_cells(Cell(1, 2)) == (
            Cell(1, 2), Cell(1, 3), Cell(1, 4),
        )

    def test_single_column(self):
        alpha = Composition((1, 1, 1))
        assert alpha.hook_lengths() == ((3,), (2,), (1,))

    @given(comps())
    def test_hook_length_matches_cells(self, alpha):
        for c in alpha.cells():
            assert alpha.hook_length(c) == len(alpha.hook_cells(c))

    @given(comps())
    def test_corner_hook_is_one(self, alpha):
        # the first traversal cell always has hook length 1
        assert alpha.hook_length(alpha.cell_order()[0]) == 1

    def test_bad_cell(self):
        with pytest.raises(ValueError):
            Composition((2, 1, 2)).hook_length((1, 3))
        with pytest.raises(ValueError):
            Composition((2, 1, 2)).hook_cells((0, 1))


def _count_by_definition(parts):
    """Independent oracle: filter all fillings by the raw inequalities."""
    n = sum(parts)
    cells = [(i, j) for i, p in enumerate(parts) for j in range(p)]
    at = {c: k for k, c in enumerate(cells)}
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        def entry(i, j):
            return perm[at[(i, j)]] if (i, j) in at else math.inf
        ok = True
        for (i, j) in cells:
            e = entry(i, j)
            if j > 0:
                ok = e <= entry(i, j + 1)
            else:
                ok = e <= entry(i, j + 1) and e < entry(i + 1, 0)
            if not ok:
                break
        count += ok
    return count


class TestCountFormula:
    def test_known_small(self):
        assert count_formula(Composition((2, 1, 2))) == 4

    @pytest.mark.parametrize("parts,expected", [
        ((1,), 1), ((5,), 1), ((1, 1, 1, 1), 1), ((3, 2), 6), ((2, 2), 3), ((1, 2), 1),
    ])
    def test_against_definition_oracle(self, parts, expected):
        assert _count_by_definition(parts) == expected
        assert count_formula(Composition(parts)) == expected

    def test_divisibility_across_shapes(self):
        # the formula only makes sense because the hook product divides n!
        for n in range(1, 8):
            for alpha in compositions(n):
                assert math.factorial(n) % alpha.hook_product() == 0

    @given(comps(max_n=6))
    def test_matches_oracle_everywhere(self, alpha):
        assert count_formula(alpha) == _count_by_definition(alpha.parts)

    def test_guard_refuses_before_the_factorial(self, monkeypatch):
        def no_factorial(n):
            raise AssertionError(f"math.factorial({n}) called")

        monkeypatch.setattr(math, "factorial", no_factorial)
        for parts in [(FORMULA_GUARD + 1,), (2 ** 63 - 1,), (2 ** 62, 2 ** 62)]:
            with pytest.raises(GuardExceededError, match=f"needs n <= {FORMULA_GUARD} "):
                count_formula(Composition(parts))
        with pytest.raises(GuardExceededError, match="needs n <= 4 but the shape has 5 cells"):
            count_formula(Composition((2, 1, 2)), guard=4)

    def test_guard_is_inclusive_and_can_be_raised(self):
        assert count_formula(Composition((2, 1, 2)), guard=5) == 4
        assert count_formula(Composition((FORMULA_GUARD,))) == 1
        assert count_formula(Composition((1, FORMULA_GUARD)), guard=FORMULA_GUARD + 1) == 1


class TestParse:
    def test_parse_round_trip(self):
        alpha = parse_composition("4,1,2,3")
        assert alpha.parts == (4, 1, 2, 3)
        assert format_composition(alpha) == "4,1,2,3"

    def test_parens_and_spaces(self):
        assert parse_composition("(2, 1, 2)").parts == (2, 1, 2)
        assert parse_composition(" 3 ").parts == (3,)

    @pytest.mark.parametrize("bad", ["", "()", "a", "1,,2", "0,2", "-1", "2,", "1;2"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_composition(bad)


class TestCompositions:
    @pytest.mark.parametrize("n,total", [(1, 1), (2, 2), (3, 4), (6, 32)])
    def test_counts(self, n, total):
        found = list(compositions(n))
        assert len(found) == total
        assert len(set(found)) == total
        assert all(alpha.n == n for alpha in found)

    def test_lexicographic_order(self):
        assert [c.parts for c in compositions(3)] == [(1, 1, 1), (1, 2), (2, 1), (3,)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(compositions(0))
