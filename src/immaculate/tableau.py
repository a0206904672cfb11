"""Fillings of composition diagrams and the immaculate/standard predicates."""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Iterable, Sequence

from .composition import Cell, Composition
from .errors import InvalidInputError, ParseError

# Entry value reported for cells outside the diagram.  Using a real infinity
# makes every comparison against missing neighbours come out the right way
# without case analysis.
INFINITY = math.inf


def parse_grid_text(text: str) -> tuple[tuple[int, ...], ...]:
    """Parse rows of whitespace-separated integers, one diagram row per line."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ParseError(f"bad entry on line {lineno}: {line.strip()!r}") from None
    if not rows:
        raise ParseError("no rows found")
    return tuple(rows)


def format_grid_text(rows: Iterable[Iterable[int]]) -> str:
    """Render rows as lines of space-separated integers (no trailing newline)."""
    return "\n".join(" ".join(str(v) for v in row) for row in rows)


def split_flat(shape: Composition, entries: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cut row-major entries into the rows of shape."""
    if len(entries) != shape.n:
        raise ValueError(f"need {shape.n} entries for shape {shape}, got {len(entries)}")
    entries = tuple(entries)  # a slice of a tuple is already a tuple
    rows = []
    pos = 0
    for part in shape.parts:
        rows.append(entries[pos : pos + part])
        pos += part
    return tuple(rows)


def _validate_rows(rows) -> tuple[tuple[int, ...], ...]:
    out = []
    for i, row in enumerate(rows, 1):
        row = tuple(row)
        if not row:
            raise ValueError(f"row {i} is empty")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"entries must be positive integers, got {v!r} in row {i}")
        out.append(row)
    if not out:
        raise ValueError("a tableau needs at least one row")
    return tuple(out)


class Grid:
    """An immutable grid of integers on a composition diagram.

    The grid stores its entries flat, in row-major order (the layout the
    kernels use), with its shape; ``rows``, where ``rows[i-1][j-1]`` holds
    the value of cell (i, j), is cut from them on first read and kept.
    Subclasses validate the rows in ``__init__``; ``noun`` names the grid in
    parse errors.  Two grids are equal when they have the same class, the
    same flat entries and the same shape: grids of different classes never
    compare equal, even with equal rows.
    """

    __slots__ = ("_flat", "_rows", "shape")

    _flat: tuple[int, ...]
    shape: Composition
    noun: str

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set_rows(self, rows: tuple[tuple[int, ...], ...], shape: Composition) -> None:
        # for __init__, on the rows it has validated and their shape
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_flat", tuple(chain.from_iterable(rows)))
        object.__setattr__(self, "shape", shape)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        try:
            return self._rows
        except AttributeError:
            rows = split_flat(self.shape, self._flat)
            object.__setattr__(self, "_rows", rows)
            return rows

    def flat(self) -> tuple[int, ...]:
        """All entries in row-major order (the layout the kernels use)."""
        return self._flat

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._flat == other._flat
                and self.shape.parts == other.shape.parts)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.rows))

    def __reduce__(self):
        # rebuilt through the validating public constructor
        return type(self), (self.rows,)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(map(list, self.rows))!r})"

    def __str__(self) -> str:
        return self.to_text()

    @classmethod
    def _from_flat_trusted(cls, shape: Composition, flat: Sequence[int]):
        """Wrap a flat grid the package built and checked itself.

        Skips the validation of the public constructors, keeps the caller's
        shape object and copies flat, which the caller may go on changing,
        without cutting it into rows.  Each caller names, beside its call,
        the check that makes flat a valid grid of cls on shape.
        """
        flat = tuple(flat)
        if len(flat) != shape.n:
            raise ValueError(f"need {shape.n} entries for shape {shape}, got {len(flat)}")
        grid = object.__new__(cls)
        object.__setattr__(grid, "_flat", flat)
        object.__setattr__(grid, "shape", shape)
        return grid

    @classmethod
    def from_flat(cls, shape: Composition, entries: Sequence[int]):
        """Cut row-major entries into the rows of shape and validate them as
        the constructor does.  The grid keeps the caller's shape object, so
        the shape's cached hook grid and cell lists are shared, not built
        again."""
        grid = cls(split_flat(shape, entries))
        object.__setattr__(grid, "shape", shape)
        return grid

    def to_json_obj(self) -> dict:
        return {"shape": list(self.shape.parts), "rows": [list(r) for r in self.rows]}

    @classmethod
    def from_json_obj(cls, obj):
        """Build from {"rows": [...], "shape": [...]}; the shape is optional but must match."""
        if not isinstance(obj, dict) or "rows" not in obj:
            raise ParseError(f"{cls.noun} JSON must be an object with a 'rows' key")
        try:
            grid = cls(obj["rows"])
        except InvalidInputError:
            raise
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad {cls.noun} rows: {exc}") from None
        if "shape" in obj:
            declared = obj["shape"]
            if not isinstance(declared, list):
                raise ParseError(f"declared shape must be a list, got {declared!r}")
            if tuple(declared) != grid.shape.parts:
                raise ParseError(
                    f"declared shape {declared} does not match rows of shape {grid.shape}"
                )
        return grid


def parse_json_or_text(cls, text: str):
    """cls.from_json_obj of the JSON when text starts with "{", else cls.from_text."""
    if not text.lstrip().startswith("{"):
        return cls.from_text(text)
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"bad JSON: {exc}") from None
    return cls.from_json_obj(obj)


class Tableau(Grid):
    """An immutable filling of a composition diagram with positive integers.

    All transformations elsewhere in the package build new tableaux instead
    of mutating.
    """

    __slots__ = ()
    noun = "tableau"

    def __init__(self, rows: Iterable[Iterable[int]]):
        rows = _validate_rows(rows)
        self._set_rows(rows, Composition(tuple(len(r) for r in rows)))

    @property
    def n(self) -> int:
        return self.shape.n

    def entry_at(self, cell) -> int | float:
        """Entry of cell, or INFINITY when cell lies outside the diagram."""
        row, col = cell
        if (row, col) in self.shape:
            return self.rows[row - 1][col - 1]
        return INFINITY

    def is_stable(self, cell) -> bool:
        """Local order condition at cell, with INFINITY for missing neighbours.

        Off the first column the entry only needs to be <= its right
        neighbour.  On the first column it must additionally be strictly
        below the entry underneath: <= to the right, < downward.
        """
        row, col = self.shape.require_cell(cell)
        e = self.rows[row - 1][col - 1]
        right = self.entry_at((row, col + 1))
        if col > 1:
            return e <= right
        return e <= right and e < self.entry_at((row + 1, 1))

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector: entry k occurs content()[k-1] times.

        The length is the largest entry, so trailing zeros never appear but
        interior zeros can (and make the filling non-immaculate).
        """
        counts = [0] * max(max(row) for row in self.rows)
        for row in self.rows:
            for v in row:
                counts[v - 1] += 1
        return tuple(counts)

    def is_immaculate(self) -> bool:
        """True when every cell is stable and the content has no gaps."""
        return 0 not in self.content() and all(
            self.is_stable(c) for c in self.shape.cells()
        )

    def is_standard(self) -> bool:
        """True when the entries are exactly 1..n, each once (no order demanded)."""
        return sorted(self.flat()) == list(range(1, self.n + 1))

    def is_standard_immaculate(self) -> bool:
        return self.is_standard() and all(self.is_stable(c) for c in self.shape.cells())

    def is_prefix_standard(self, cell, inclusive: bool = True) -> bool:
        """Stability restricted to the traversal-order prefix ending at cell.

        Only cells up to cell in cell_order() are considered, and neighbours
        beyond the prefix count as INFINITY, mirroring how partially built
        tableaux are judged mid-bijection.  With inclusive=False the prefix
        stops just before cell.
        """
        order = self.shape.cell_order()
        cutoff = self.shape.order_rank(cell)
        if not inclusive:
            cutoff -= 1
        prefix = set(order[:cutoff])

        def look(c: Cell) -> int | float:
            # prefix only ever contains diagram cells, so this also covers
            # neighbours that fall outside the diagram entirely
            return self.rows[c.row - 1][c.col - 1] if c in prefix else INFINITY

        for c in order[:cutoff]:
            e = self.rows[c.row - 1][c.col - 1]
            if e > look(Cell(c.row, c.col + 1)):
                return False
            if c.col == 1 and e >= look(Cell(c.row + 1, 1)):
                return False
        return True

    # Grid's, as attributes of Tableau itself, which perfbench/spans.py
    # wraps by name
    flat = Grid.flat
    from_flat = Grid.__dict__["from_flat"]

    def to_text(self) -> str:
        return format_grid_text(self.rows)

    @classmethod
    def from_text(cls, text: str) -> "Tableau":
        try:
            return cls(parse_grid_text(text))
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc)) from None

    @classmethod
    def parse(cls, text: str) -> "Tableau":
        """Parse either the text format or the JSON format, by first character."""
        return parse_json_or_text(cls, text)
