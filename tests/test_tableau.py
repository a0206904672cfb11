import itertools
import json

import pytest
from hypothesis import given, strategies as st

from immaculate.bijection import HookTableau
from immaculate.composition import Composition, compositions
from immaculate.errors import InvalidInputError, ParseError
from immaculate.tableau import INFINITY, Tableau


@st.composite
def standard_fillings(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=n))
        parts.append(p)
        n -= p
    total = sum(parts)
    vals = draw(st.permutations(list(range(1, total + 1))))
    return Tableau.from_flat(Composition(tuple(parts)), vals)


class TestConstruction:
    def test_shape_derived_from_rows(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        assert t.shape.parts == (2, 1, 2)
        assert t.n == 5
        assert t.rows == ((1, 2), (3,), (4, 5))

    @pytest.mark.parametrize("bad", [[], [[]], [[1], []], [[0]], [[1, -2]], [[1.5]]])
    def test_rejects_bad_rows(self, bad):
        with pytest.raises(ValueError):
            Tableau(bad)

    def test_equality_and_hash(self):
        a = Tableau([[1, 2], [3]])
        b = Tableau(((1, 2), (3,)))
        assert a == b and hash(a) == hash(b)
        assert hash(a) == hash(("Tableau", a.rows))
        assert a != Tableau([[2, 1], [3]])
        # the same flat entries on another shape
        assert Tableau([[1], [2, 3]]) != a

    def test_immutable(self):
        t = Tableau([[1]])
        with pytest.raises(AttributeError):
            t.rows = ((2,),)


class TestEntries:
    def test_entry_at(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        assert t.entry_at((1, 2)) == 2
        assert t.entry_at((3, 1)) == 4
        assert t.entry_at((1, 3)) == INFINITY
        assert t.entry_at((4, 1)) == INFINITY

    def test_flat_round_trip(self):
        alpha = Composition((2, 1, 2))
        t = Tableau.from_flat(alpha, (5, 1, 4, 2, 3))
        assert t.rows == ((5, 1), (4,), (2, 3))
        assert t.flat() == (5, 1, 4, 2, 3)

    def test_from_flat_length_mismatch(self):
        with pytest.raises(ValueError):
            Tableau.from_flat(Composition((2, 1)), (1, 2))

    def test_from_flat_keeps_the_callers_shape(self):
        alpha = Composition((2, 1))
        t = Tableau.from_flat(alpha, [1, 2, 3])
        h = HookTableau.from_flat(alpha, [3, 1, 1])
        assert t.shape is alpha and h.shape is alpha
        assert t == Tableau([[1, 2], [3]]) and h == HookTableau([[3, 1], [1]])
        # the constructors' checks still run
        with pytest.raises(ValueError, match="positive"):
            Tableau.from_flat(alpha, [1, 0, 3])
        with pytest.raises(InvalidInputError, match="outside 1..1"):
            HookTableau.from_flat(alpha, [3, 2, 1])


class TestStability:
    def test_stable_everywhere(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        assert all(t.is_stable(c) for c in t.shape.cells())

    def test_unstable_in_row(self):
        assert not Tableau([[2, 1], [3], [4, 5]]).is_stable((1, 1))

    def test_unstable_down_column(self):
        # first-column entries must grow strictly downward
        t = Tableau([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]])
        assert not t.is_stable((3, 1))
        assert t.is_stable((4, 1))

    def test_missing_neighbours_never_block(self):
        t = Tableau([[9]])
        assert t.is_stable((1, 1))

    def test_equal_right_is_stable_equal_below_is_not(self):
        assert Tableau([[1, 1]]).is_stable((1, 1))
        assert not Tableau([[1], [1]]).is_stable((1, 1))


class TestPredicates:
    def test_content(self):
        assert Tableau([[1, 2], [3], [4, 5]]).content() == (1, 1, 1, 1, 1)
        assert Tableau([[1, 1], [2], [3, 3]]).content() == (2, 1, 2)
        assert Tableau([[1, 3], [4], [5, 6]]).content() == (1, 0, 1, 1, 1, 1)

    def test_immaculate_examples(self):
        assert Tableau([[1, 1], [2], [3, 3]]).is_immaculate()
        # repeated value straddling a first-column step breaks strictness
        assert not Tableau([[1, 1], [2], [2, 3]]).is_immaculate()
        # content gap
        assert not Tableau([[1, 3], [4], [5, 6]]).is_immaculate()
        # instability
        assert not Tableau([[2, 1], [3], [4, 5]]).is_immaculate()

    def test_standard(self):
        assert Tableau([[3, 2], [4], [1, 5]]).is_standard()
        assert not Tableau([[1, 1], [2], [3, 3]]).is_standard()
        assert not Tableau([[1, 2], [3], [4, 6]]).is_standard()

    def test_standard_immaculate_examples(self):
        yes = [
            [[1, 2], [3], [4, 5]],
            [[1, 3], [2], [4, 5]],
            [[1, 4], [2], [3, 5]],
            [[1, 5], [2], [3, 4]],
        ]
        for rows in yes:
            assert Tableau(rows).is_standard_immaculate()
        assert not Tableau([[1, 2], [4], [3, 5]]).is_standard_immaculate()
        assert not Tableau([[1, 1], [2], [3, 3]]).is_standard_immaculate()

    def test_rows_and_first_column_strict_in_standard_immaculate(self):
        for alpha in compositions(5):
            for perm in itertools.permutations(range(1, 6)):
                t = Tableau.from_flat(alpha, perm)
                if not t.is_standard_immaculate():
                    continue
                for i, row in enumerate(t.rows, 1):
                    assert all(a < b for a, b in zip(row, row[1:]))
                    if i > 1:
                        assert t.rows[i - 2][0] < row[0]


class TestPrefixStandard:
    def test_partial_state_from_midway(self):
        t = Tableau([[11, 5, 8, 9], [3], [10, 2, 4, 12], [1, 6], [7]])
        assert t.is_prefix_standard((5, 1))
        assert t.is_prefix_standard((3, 1), inclusive=False)
        assert not t.is_prefix_standard((3, 1))
        assert not t.is_standard_immaculate()

    def test_empty_prefix(self):
        t = Tableau([[2, 1], [3], [4, 5]])
        first = t.shape.cell_order()[0]
        assert t.is_prefix_standard(first, inclusive=False)

    def test_full_prefix_equals_standard_immaculate(self):
        for alpha in compositions(4):
            for perm in itertools.permutations(range(1, 5)):
                t = Tableau.from_flat(alpha, perm)
                assert t.is_prefix_standard((1, 1)) == t.is_standard_immaculate()

    @given(standard_fillings())
    def test_full_prefix_equals_standard_immaculate_random(self, t):
        assert t.is_prefix_standard((1, 1)) == t.is_standard_immaculate()

    @given(standard_fillings(max_n=6))
    def test_prefix_monotone_under_shrinking(self, t):
        # dropping cells from the end of the prefix can only help
        order = t.shape.cell_order()
        verdicts = [t.is_prefix_standard(c) for c in order]
        for shorter, longer in zip(verdicts, verdicts[1:]):
            if longer:
                assert shorter


class TestSerialization:
    def test_text_round_trip(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        assert t.to_text() == "1 2\n3\n4 5"
        assert Tableau.from_text(t.to_text()) == t

    def test_json_round_trip(self):
        t = Tableau([[1, 2], [3], [4, 5]])
        obj = t.to_json_obj()
        assert obj == {"shape": [2, 1, 2], "rows": [[1, 2], [3], [4, 5]]}
        assert Tableau.from_json_obj(json.loads(json.dumps(obj))) == t

    def test_parse_auto_detects(self):
        assert Tableau.parse("1 2\n3") == Tableau([[1, 2], [3]])
        assert Tableau.parse('{"rows": [[1, 2], [3]]}') == Tableau([[1, 2], [3]])

    def test_blank_lines_ignored_in_text(self):
        assert Tableau.from_text("\n1 2\n\n3\n") == Tableau([[1, 2], [3]])

    @pytest.mark.parametrize("bad", ["", "1 x", "{", '{"shape": [3], "rows": [[1, 2]]}',
                                     '{"shape": [2]}', "0 1"])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            Tableau.parse(bad)

    @given(standard_fillings())
    def test_round_trips_random(self, t):
        assert Tableau.from_text(t.to_text()) == t
        assert Tableau.from_json_obj(t.to_json_obj()) == t
