"""The hook-walk shift map, the modified jeu de taquin, and their inverse.

Two mutually inverse transformations live here.  ``unstraighten`` turns a
(standard immaculate tableau, hook tableau) pair into an arbitrary standard
filling by a sequence of circular right shifts along hook paths; together the
pairs index exactly the n! fillings, which is what makes the hook-length
count formula work.  ``straighten`` recovers the pair by repeatedly sliding
entries with a modified jeu de taquin and recording where each slide stopped.

Both maps validate their input, run the shape's cached flat-array kernel
(``_kernels``; check=True is its per-step invariant check) and wrap the
result with the trusted grid constructor, which skips the public
constructors' per-entry validation.  Grids store their entries flat, so the
kernel reads a grid's flat tuple as it is, and its output is wrapped without
being cut into rows; rows are cut when first read.  With check off, the
pure kernel takes whole row runs at a time (see ``_pure``), which the
checked, step-by-step transforms must agree with.  What the skipped
validation proved is checked once, on the flat arrays: straighten tests,
with check on or off, that P is a standard immaculate permutation of 1..n
and every hook value lies in its hook, in one O(n) pass; unstraighten only
permutes the entries of a validated P, so its result needs no check.  The
Trace they return replays the intermediate states on first access, since
the hook values log the whole run.  The hook paths, the slide and the
replay use the pure kernel, the reference for its compiled twin; the
circular shifts take any path, so they rotate it here.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, lru_cache
from typing import Sequence

from . import _kernels
from .composition import Cell, Composition
from .errors import InternalCheckError, InvalidInputError, ParseError
from .tableau import Grid, Tableau, format_grid_text, parse_grid_text, parse_json_or_text

Path = tuple[Cell, ...]


def _kernel(parts: tuple[int, ...], backend: str | None = None):
    """The cached ShapeOps of a shape, on the active backend unless named,
    one per backend however it is named.  Only the pure kernel's single
    moves are callable from Python."""
    return _shape_ops(parts, backend or _kernels.BACKEND)


@lru_cache(maxsize=64)
def _shape_ops(parts: tuple[int, ...], backend: str):
    return _kernels.get_backend(backend).ShapeOps(parts)


def _position(ops, cell: Cell) -> int:
    return ops.row_start[cell.row - 1] + cell.col - 1


def _cells(ops, positions) -> Path:
    rowof, colof = ops.rowof, ops.colof
    return tuple(Cell(rowof[p] + 1, colof[p] + 1) for p in positions)


class HookTableau(Grid):
    """A grid assigning every cell a value between 1 and its hook length.

    The bounds are enforced at construction, so holding a HookTableau is
    proof of validity.  Note the bottom cell of the right-most column has
    hook length 1, forcing its value to 1.
    """

    __slots__ = ()
    noun = "hook tableau"

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(not r for r in rows):
            raise ValueError("hook tableau rows must be non-empty")
        shape = Composition(tuple(len(r) for r in rows))
        for i, (row, hooks) in enumerate(zip(rows, shape.hook_lengths()), 1):
            for j, (v, h) in enumerate(zip(row, hooks), 1):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"hook value at cell ({i}, {j}) must be an integer, got {v!r}")
                if not 1 <= v <= h:
                    raise InvalidInputError(
                        f"hook value {v} at cell ({i}, {j}) is outside 1..{h} for shape {shape}"
                    )
        self._set_rows(rows, shape)

    @classmethod
    def all_ones(cls, shape: Composition) -> "HookTableau":
        return cls(tuple((1,) * p for p in shape.parts))

    def value_at(self, cell) -> int:
        row, col = self.shape.require_cell(cell)
        return self.rows[row - 1][col - 1]

    def to_text(self) -> str:
        return format_grid_text(self.rows)

    @classmethod
    def from_text(cls, text: str) -> "HookTableau":
        return cls(parse_grid_text(text))


class Pair:
    """A standard immaculate tableau together with a hook tableau of the same shape.

    Immutable: pairs compare and hash by both grids.
    """

    tableau: Tableau
    hooks: HookTableau

    def __init__(self, tableau: Tableau, hooks: HookTableau) -> None:
        if tableau.shape != hooks.shape:
            raise InvalidInputError(
                f"tableau shape {tableau.shape} differs from hook tableau shape {hooks.shape}"
            )
        if not (
            tableau.is_standard()
            and _kernel(tableau.shape.parts).is_standard_immaculate(tableau.flat())
        ):
            raise InvalidInputError("the tableau component of a pair must be standard immaculate")
        object.__setattr__(self, "tableau", tableau)
        object.__setattr__(self, "hooks", hooks)

    @classmethod
    def _trusted(cls, tableau: Tableau, hooks: HookTableau) -> "Pair":
        """A pair the caller has already checked, built without __init__'s checks."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "tableau", tableau)
        object.__setattr__(pair, "hooks", hooks)
        return pair

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.tableau, self.hooks) == (other.tableau, other.hooks)

    def __hash__(self) -> int:
        return hash((self.tableau, self.hooks))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(tableau={self.tableau!r}, hooks={self.hooks!r})"

    @property
    def shape(self) -> Composition:
        return self.tableau.shape

    def to_text(self) -> str:
        """Two blocks separated by a blank line: tableau first, hook values second."""
        return self.tableau.to_text() + "\n\n" + self.hooks.to_text()

    @classmethod
    def from_text(cls, text: str) -> "Pair":
        blocks = [b for b in re.split(r"\n[ \t]*\n", text.strip()) if b.strip()]
        if len(blocks) != 2:
            raise ParseError(
                f"expected two blocks separated by a blank line, found {len(blocks)}"
            )
        return cls(Tableau.from_text(blocks[0]), HookTableau.from_text(blocks[1]))

    def to_json_obj(self) -> dict:
        return {"P": self.tableau.to_json_obj(), "J": self.hooks.to_json_obj()}

    @classmethod
    def from_json_obj(cls, obj) -> "Pair":
        if not isinstance(obj, dict) or "P" not in obj or "J" not in obj:
            raise ParseError("pair JSON must be an object with 'P' and 'J' keys")
        return cls(Tableau.from_json_obj(obj["P"]), HookTableau.from_json_obj(obj["J"]))

    @classmethod
    def parse(cls, text: str) -> "Pair":
        return parse_json_or_text(cls, text)


class Trace:
    """Every intermediate state of one run of straighten or unstraighten.

    states[k] holds (filling, hook values) after k steps, so states[0] is the
    input and states[-1] the output; paths[k] is the cell path step k+1 moved
    entries along.  A shape with n cells always yields n states and n-1 paths.

    Only the pair is stored; states and paths are replayed on first access.
    Unstraighten step k takes the k-th cell from the end of the traversal
    order, rotates entries right along its hook as far as its hook value
    says, and resets that value to 1.  A straighten run is the same replay
    read backwards.
    """

    def __init__(self, pair: Pair, reverse: bool = False):
        self._pair = pair
        self._reverse = reverse

    @cached_property
    def _replay(self) -> tuple[tuple[tuple[Tableau, HookTableau], ...], tuple[Path, ...]]:
        pair = self._pair
        shape = pair.shape
        ops = _kernel(shape.parts, "pure")
        n = ops.size
        t = list(pair.tableau.flat())
        j = list(pair.hooks.flat())
        states = [(pair.tableau, pair.hooks)]
        paths = []
        # each step permutes the entries of the validated pair's P and resets
        # one hook value to 1, so every state is a standard filling with
        # hook values inside their hooks
        for k in range(1, n):
            pos = ops.order[n - k]
            v, j[pos] = j[pos], 1
            ops._rotate_hook(t, pos, v)
            states.append((Tableau._from_flat_trusted(shape, t),
                           HookTableau._from_flat_trusted(shape, j)))
            paths.append(_cells(ops, ops._build_path(pos, v)))
        if self._reverse:
            states.reverse()
            paths.reverse()
        return tuple(states), tuple(paths)

    @property
    def states(self) -> tuple[tuple[Tableau, HookTableau], ...]:
        return self._replay[0]

    @property
    def paths(self) -> tuple[Path, ...]:
        return self._replay[1]

    def to_json_obj(self) -> dict:
        return {
            "shape": list(self._pair.shape.parts),
            "states": [
                {"tableau": [list(r) for r in t.rows], "hooks": [list(r) for r in h.rows]}
                for t, h in self.states
            ],
            "paths": [[[c.row, c.col] for c in path] for path in self.paths],
        }


def hook_path(shape: Composition, start, index: int) -> Path:
    """Cells from start up to the index-th cell of start's hook, inclusive.

    Within a row this is just a rightward run.  From a first-column cell the
    hook continues through lower rows, so the path first walks down column 1
    and then right along the target's row.
    """
    start = shape.require_cell(start)
    h = shape.hook_length(start)
    if not 1 <= index <= h:
        raise ValueError(f"hook index {index} out of range 1..{h} for cell {tuple(start)}")
    ops = _kernel(shape.parts, "pure")
    return _cells(ops, ops._build_path(_position(ops, start), index))


def _path_cells_valid(shape: Composition, path: Sequence) -> tuple[Cell, ...]:
    if not path:
        raise ValueError("empty path")
    return tuple(shape.require_cell(c) for c in path)


def hook_index_of_path(shape: Composition, path: Sequence, check: bool = False) -> int:
    """Position of path's end within the hook of path's start (1-based).

    Uses the closed form: a same-row path of length m has index m, and a path
    descending from (i, 1) to (i', j') has index parts[i-1] + ... + parts[i'-2] + j'.
    With check=True the whole path must equal hook_path(start, index).
    """
    cells = _path_cells_valid(shape, path)
    start, end = cells[0], cells[-1]
    if end.row == start.row:
        if end.col < start.col:
            raise ValueError(f"path ends left of its start: {tuple(start)} -> {tuple(end)}")
        index = end.col - start.col + 1
    elif start.col == 1 and end.row > start.row:
        index = sum(shape.parts[start.row - 1 : end.row - 1]) + end.col
    else:
        raise ValueError(f"no hook runs from {tuple(start)} to {tuple(end)}")
    if check and hook_path(shape, start, index) != cells:
        raise InternalCheckError(
            f"path {[tuple(c) for c in cells]} is not the hook path of its endpoints"
        )
    return index


def _rotate_left(flat: list, positions: Sequence[int]) -> None:
    # each position takes the entry of the next, the last that of the first
    first = flat[positions[0]]
    for a, b in zip(positions, positions[1:]):
        flat[a] = flat[b]
    flat[positions[-1]] = first


def _shifted(t: Tableau, path: Sequence, right: bool) -> Tableau:
    cells = _path_cells_valid(t.shape, path)
    ops = _kernel(t.shape.parts, "pure")
    flat = list(t.flat())
    positions = [_position(ops, c) for c in cells]
    _rotate_left(flat, positions[::-1] if right else positions)
    return Tableau.from_flat(t.shape, flat)


def circular_right_shift(t: Tableau, path: Sequence) -> Tableau:
    """New tableau with entries along path rotated one step toward the path's end.

    The entry of the last path cell wraps around to the first.  Cells off the
    path are untouched; a single-cell path is a no-op.
    """
    return _shifted(t, path, right=True)


def circular_left_shift(t: Tableau, path: Sequence) -> Tableau:
    """Inverse of circular_right_shift on the same path."""
    return _shifted(t, path, right=False)


def jdt_slide(t: Tableau, value: int, check: bool = False) -> tuple[Tableau, Path]:
    """Modified jeu de taquin: slide the cell holding value until stable.

    One move swaps the wandering entry with its right neighbour, except on
    the first column where the smaller of the right and lower neighbours is
    chosen (missing neighbours count as infinite).  t must be a standard
    filling (entries exactly 1..n).  Returns the new tableau and the path of
    cells the value visited; a value that is already stable stays put and
    yields a single-cell path.  check=True asserts, as the kernel's check
    mode does for every slide, that the path is the hook path of its
    endpoints and the result is the circular left shift along it.
    """
    if not t.is_standard():
        raise InvalidInputError("jeu de taquin needs a filling with entries exactly 1..n")
    if not 1 <= value <= t.n:
        raise ValueError(f"value {value} does not occur (entries run 1..{t.n})")
    ops = _kernel(t.shape.parts, "pure")
    before = t.flat()
    start = before.index(value)
    flat = list(before)
    path = ops._slide(flat, start)
    if check:
        if path != ops._build_path(start, path[-1] - start + 1):
            raise InternalCheckError("slide path is not the hook path of its endpoints")
        rotated = list(before)
        _rotate_left(rotated, path)
        if rotated != flat:
            raise InternalCheckError("slide result is not the circular left shift of its path")
    return Tableau.from_flat(t.shape, flat), _cells(ops, path)


def unstraighten(pair: Pair, check: bool = False) -> tuple[Tableau, Trace]:
    """Expand a pair into a standard filling by hook-path right shifts.

    Walks the cells in reverse traversal order; at each cell the hook value
    says how far along the cell's hook to rotate entries, and the consumed
    hook value is reset to 1.  The final filling together with the Trace
    determines the input, which is what straighten exploits.
    """
    shape = pair.shape
    flat = _kernel(shape.parts).unstraighten(pair.tableau.flat(), pair.hooks.flat(), check)
    # unstraighten only permutes the entries of the validated P, so flat is a
    # standard filling
    return Tableau._from_flat_trusted(shape, flat), Trace(pair)


def straighten(t: Tableau, check: bool = False) -> tuple[Pair, Trace]:
    """Contract a standard filling to its (standard immaculate, hook values) pair.

    Walks the cells in traversal order, sliding each cell's entry stable with
    the modified jeu de taquin and recording, as the cell's hook value, how
    far along the original cell's hook the entry travelled.  Inverse of
    unstraighten; the traces of the two runs mirror each other.
    """
    shape = t.shape
    flat = t.flat()
    one_to_n = list(range(1, shape.n + 1))
    if sorted(flat) != one_to_n:
        raise InvalidInputError("straighten needs a filling with entries exactly 1..n")
    ops = _kernel(shape.parts)
    p, j = ops.straighten(flat, check)
    # what Pair(...) and the two grid constructors checked, on the flat
    # arrays; _from_flat_trusted below still rejects a result of the wrong
    # length
    if sorted(p) != one_to_n or not ops.is_standard_immaculate(p):
        raise InternalCheckError(
            "straighten produced an invalid pair: P is not a standard immaculate"
            " permutation of 1..n")
    if min(j) < 1 or not all(map(operator.le, j, ops.hooklen)):
        k, v, h = next((k, v, h) for k, (v, h) in enumerate(zip(j, ops.hooklen))
                       if not 1 <= v <= h)
        raise InternalCheckError(
            f"straighten produced an invalid pair: hook value {v} at cell"
            f" {tuple(shape.cells()[k])} is outside 1..{h}")
    pair = Pair._trusted(Tableau._from_flat_trusted(shape, p),
                         HookTableau._from_flat_trusted(shape, j))
    return pair, Trace(pair, reverse=True)
