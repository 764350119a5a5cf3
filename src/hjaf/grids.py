"""Uniform grids and gridded scalar fields with boundary-aware indexing.

Everything downstream (smoothness indicators, monotone and high-order
schemes) reads neighbor values through the ghost machinery defined here,
so boundary handling lives in exactly one place.  One rule, periodic wrap
or clamp-to-edge, maps an out-of-range index back into the grid, and it
is applied in one place: :func:`pad_ghosts` fills a ghost layer around a
fresh copy of an array.  Ghost nodes carry the field's data values; no
stencil pads a derived array (a curvature or a beta).  Those are laid out
like a padded copy instead, and read the same way.

A field's values are read-only, and :meth:`GridField.memo` keeps what
is built from them: the padded copy (:meth:`GridField.neighbors`,
``STENCIL_REACH`` ghost nodes wide), its undivided first and second
differences (:meth:`GridField.first_differences`, read by the one-sided
slopes and the quadrant betas, and :meth:`GridField.second_differences`,
read by the time curvature and the 1D and quadrant betas), one listing
per axis each, the slopes several kernels read and, per hamiltonian, the
time curvature.  So no kernel pads its own input, and one step of the
solver pads its field once.  A multi-stage step makes each later stage a
field of its own, which pads itself the same way.

Whole-grid stencils read a padded copy in the *run layout*
(:class:`Neighbors`).  The copy, padded by ``w`` ghost nodes, is read as
one flat buffer whose rows are ``row = nx + 2w`` long.  Every stencil
offset (dj, di) over the grid grown by ``g`` nodes per side is then one
contiguous slice of it, a run, whose element ``(i + g)*row + j + g`` is
``u[i + di, j + dj]`` for every node (i, j) of the grown grid.  Kernels
name a run by its node offset, ``at(dj, di, grow=g)``, read arrays laid
out like a run the same way (``at.of``), do their arithmetic on runs,
where numpy runs one inner loop over the whole grid instead of one per
grid row, and cut only their result back to the (ny, nx) interior
(:meth:`Neighbors.grid`).  The elements a run holds between two grid rows
are throw-away values computed from ghost columns; only the cut reaches
a reduction, a selection or a hamiltonian.  A 1D field is one row: its
runs are the grid-shaped arrays themselves.  Flat positions are computed
by :class:`Neighbors` alone: its runs, and the one difference of a whole
flat array laid out like the padded copy (:meth:`Neighbors.difference`).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import TextIO, Union

import numpy as np

# Ghost nodes per side of a field's padded copy (GridField.neighbors):
# the widest stencil reaches 2 nodes (fourth-order slopes, 1D and quadrant
# betas).  No stencil composes across Runge-Kutta stages: each stage is
# a field that pads its own values.
STENCIL_REACH = 2


class BoundaryCondition(Enum):
    """How out-of-range node indices are mapped back into the grid."""

    PERIODIC = "periodic"
    NEUMANN_ZERO = "neumann-zero"


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: node j sits at ``x0 + j*dx`` for j in [0, n)."""

    x0: float
    dx: float
    n: int

    def __post_init__(self) -> None:
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.n < 3:
            raise ValueError(f"need at least 3 nodes, got {self.n}")

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    def nodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)


@dataclass(frozen=True)
class Grid2D:
    """Uniform 2D grid: node (j, i) sits at ``(x0 + j*dx, y0 + i*dy)``.

    Field arrays are stored row-major as ``values[i, j]`` with i the
    y index and j the x index.
    """

    x0: float
    y0: float
    dx: float
    dy: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.dx > 0 and self.dy > 0):
            raise ValueError(f"spacings must be positive, got {self.dx}, {self.dy}")
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {self.nx}x{self.ny}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def delta(self) -> float:
        return max(self.dx, self.dy)

    def xnodes(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)

    def ynodes(self) -> np.ndarray:
        return self.y0 + self.dy * np.arange(self.ny)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of node coordinates, shaped like field values.
        Memoized per grid; treat the returned arrays as read-only."""
        return _cached_meshes(self)


Grid = Union[Grid1D, Grid2D]


@functools.lru_cache(maxsize=32)
def _cached_meshes(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    X, Y = np.meshgrid(grid.xnodes(), grid.ynodes())
    X.setflags(write=False)
    Y.setflags(write=False)
    return X, Y


def pad_ghosts(values: np.ndarray, bc: BoundaryCondition,
               width: int) -> np.ndarray:
    """Copy of ``values`` with ``width`` ghost nodes on every side, filled by
    the boundary rule: a ghost node holds the value at its index wrapped
    around the grid (periodic) or clamped to its edge (Neumann-zero).
    ``width`` is at most the node count of every axis."""
    if width > min(values.shape):
        raise ValueError(f"ghost width {width} exceeds the grid {values.shape}")
    out = np.empty(tuple(map((2 * width).__add__, values.shape)), values.dtype)
    out[(slice(width, -width or None),) * values.ndim] = values
    # Axis by axis, the low and then the high ghost slab copies the slab the
    # rule maps it to; a later axis copies whole slabs, ghosts of earlier
    # axes included, so corners follow the rule on both axes.
    for axis, n in enumerate(values.shape):
        lead = (slice(None),) * axis
        if bc is BoundaryCondition.PERIODIC:
            # ghost p holds padded node p + n below the grid, p - n above it
            low, high = slice(n, n + width), slice(width, 2 * width)
        else:
            low, high = slice(width, width + 1), slice(n + width - 1, n + width)
        out[lead + (slice(0, width),)] = out[lead + (low,)]
        out[lead + (slice(n + width, None),)] = out[lead + (high,)]
    return out


class Neighbors:
    """Runs of one ghost-padded copy of an array (the module's run layout).

    ``at(dj, di, grow=0)`` is the read-only run of offset (dj, di) over the
    grid grown by ``grow`` nodes per side; a read past the padding,
    ``|dj|`` or ``|di|`` above ``width - grow``, raises ``IndexError``.
    ``at.of(array, width)`` reads the runs of another array the same way:
    one laid out like a run over the grid grown by ``width`` nodes per side
    (by default the padded copy's own ``width``, so an array laid out like
    the copy itself).  :meth:`grid` cuts a run over the grid back to the
    grid's shape, and :meth:`difference` differences an array laid out
    like the copy.  ``flat`` is the array read, ``row`` its row length.
    """

    __slots__ = ("flat", "width", "shape", "row")

    def __init__(self, values: np.ndarray, bc: BoundaryCondition, width: int):
        padded = pad_ghosts(values, bc, width)
        self.flat = padded.reshape(-1)
        self.flat.flags.writeable = False
        self.width, self.shape, self.row = width, values.shape, padded.shape[-1]

    def of(self, array: np.ndarray, width: int | None = None) -> "Neighbors":
        """The runs of ``array``, a flat array laid out like a run over the
        grid grown by ``width`` nodes per side (default: this copy's)."""
        other = object.__new__(Neighbors)
        other.flat, other.shape, other.row = array, self.shape, self.row
        other.width = self.width if width is None else width
        return other

    def difference(self, array: np.ndarray, dj: int = 0,
                   di: int = 0) -> np.ndarray:
        """At each position m of ``array``, a flat array laid out like the
        padded copy, its difference across node offset o = (dj, di), later
        position minus earlier: a(m + o) - a(m), or a(m) - a(m + o) for an
        o before m.  Laid out like ``array``, NaN where m + o leaves it."""
        s = dj + di * self.row
        t, d = abs(s), np.empty_like(array)
        ends, inner = ((slice(-t, None), slice(None, -t)) if s > 0
                       else (slice(None, t), slice(t, None)))
        d[ends] = np.nan
        np.subtract(array[t:], array[:-t], out=d[inner])
        return d

    def __call__(self, dj: int = 0, di: int = 0, grow: int = 0) -> np.ndarray:
        reach = self.width - grow
        if abs(dj) > reach or abs(di) > reach:
            raise IndexError(f"shift ({dj}, {di}) on the grid grown by {grow} "
                             f"exceeds padding {self.width}")
        if len(self.shape) == 1:
            if di != 0:
                raise ValueError("di shift on a 1D field")
            return self.flat[reach + dj:reach + dj + self.shape[0] + 2 * grow]
        ny, nx = self.shape
        k = (reach + di) * self.row + reach + dj
        return self.flat[k:k + (ny + 2 * grow - 1) * self.row + nx + 2 * grow]

    def grid(self, run: np.ndarray) -> np.ndarray:
        """View of a run over the grid, or of any array laid out like one,
        in the grid's shape.  The view's ``base`` is the array that owns
        ``run``'s memory."""
        size = run.itemsize
        return np.ndarray(self.shape, run.dtype, run, 0,
                          (self.row * size, size)[-len(self.shape):])


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _padded(field: "GridField") -> Neighbors:
    return Neighbors(field.values, field.bc, STENCIL_REACH)


def _first_differences(field: "GridField") -> tuple[np.ndarray, ...]:
    # F(m) = u(m + s) - u(m) per axis
    at = field.neighbors()
    return read_only(*map(at.difference, (at.flat,) * field.values.ndim,
                          (1, 0), (0, 1)))


def _second_differences(field: "GridField") -> tuple[np.ndarray, ...]:
    # D(m) = F(m) - F(m - s) per axis
    return read_only(*map(field.neighbors().difference,
                          field.first_differences(), (-1, 0), (0, -1)))


class GridField:
    """Scalar values on a grid plus the boundary rule used to read past it.

    ``values`` is a read-only view of the float64 array the field was
    given, or that array itself when it is read-only: no :meth:`memo`
    entry can go stale through the field.
    """

    __slots__ = ("grid", "values", "bc", "_memo")

    def __init__(self, grid: Grid, values, bc: BoundaryCondition,
                 validate: bool = True):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}")
        if validate and not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = values.view() if values.flags.writeable else values
        self.values.flags.writeable = False
        self.bc = bc
        self._memo = {}

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def like(self, values: np.ndarray) -> "GridField":
        """New field on the same grid/BC.  Skips the finite check; time
        steppers validate once per step instead of once per stage."""
        return GridField(self.grid, values, self.bc, validate=False)

    def memo(self, build, *args):
        """``build(self, *args)``, built once and kept for the field's
        lifetime, one entry per ``build`` and ``args``; callers share it,
        so ``build`` returns :func:`read_only` arrays."""
        key = (build, *args)
        if key not in self._memo:
            self._memo[key] = build(self, *args)
        return self._memo[key]

    def neighbors(self) -> Neighbors:
        """The runs of the field's one padded copy, ``at(dj, di)`` for
        ``|dj|, |di| <= STENCIL_REACH`` (a :meth:`memo` entry)."""
        return self.memo(_padded)

    def first_differences(self) -> tuple[np.ndarray, ...]:
        """Per axis (x, y), ``u[+1] - u``, laid out and read like the padded
        copy (a :meth:`memo` entry); NaN where the stencil leaves the copy:
        its last element (x), its last row (y)."""
        return self.memo(_first_differences)

    def second_differences(self) -> tuple[np.ndarray, ...]:
        """Per axis (x, y), ``(u[+1] - u) - (u - u[-1])``, a difference of
        :meth:`first_differences` (each rounds relative to itself, not to
        |u|), laid out and read like them (a :meth:`memo` entry).  An
        element whose stencil leaves the copy holds NaN: the copy's first
        and last element (x), its first and last row (y)."""
        return self.memo(_second_differences)

    def shifted(self, dj: int = 0, di: int = 0) -> np.ndarray:
        """Whole-grid array of ``u[i + di, j + dj]`` with the boundary rule
        applied, for ``|dj|, |di| <= STENCIL_REACH``: a read-only view of
        the field's padded copy."""
        at = self.neighbors()
        return at.grid(at(dj, di))


def write_field_csv(grid: Grid, out: TextIO, **columns: np.ndarray) -> None:
    """Plain-text dump, one row per node, row-major, 17 significant digits:
    the node coordinates, then one value column per keyword, named by it,
    an array of the grid's shape (any other shape raises ValueError).  A
    boolean column prints 1 and 0."""
    names, cols = tuple(columns), tuple(columns.values())
    for name, c in columns.items():
        if c.shape != grid.shape:
            raise ValueError(f"column {name!r} has shape {c.shape}, "
                             f"not the grid's {grid.shape}")
    if isinstance(grid, Grid1D):
        out.write(",".join(("x", *names)) + "\n")
        fmt = ",".join(["%.17g"] * (1 + len(cols))) + "\n"
        out.writelines([fmt % t for t in zip(grid.nodes().tolist(),
                                             *(c.tolist() for c in cols))])
        return
    out.write(",".join(("x", "y", *names)) + "\n")
    # Python numbers from tolist() format about twice as fast as numpy
    # scalars, to the same digits; one grid row at a time keeps few alive,
    # and each row's y is formatted once.
    xs = grid.xnodes().tolist()
    for y, *rows in zip(grid.ynodes().tolist(), *cols):
        fmt = f"%.17g,{y:.17g}" + ",%.17g" * len(rows) + "\n"
        out.writelines([fmt % t for t in zip(xs, *(r.tolist() for r in rows))])
