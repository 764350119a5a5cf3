"""Uniform grids and gridded scalar fields with boundary-aware indexing.

Everything downstream (smoothness indicators, monotone and high-order
schemes) reads neighbor values through the ghost machinery defined here,
so boundary handling lives in exactly one place.  One rule, periodic wrap
or clamp-to-edge, maps an out-of-range index back into the grid.  It is
applied in two places: :func:`ghost_value` maps one scalar index (the
reference the tests check against), and :func:`pad_ghosts` materializes a
ghost layer around an array.  Whole-grid stencils read offsets of one
padded copy as views through :meth:`GridField.neighbors`.  Ghost nodes
always carry data values: no stencil pads a derived array (a curvature or
a beta) instead.  Fields themselves never store ghost nodes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import TextIO, Union

import numpy as np

# Largest offset per side that ghost_value and GridField.shifted accept.
# The widest stencil reaches 2 nodes (fourth-order slopes, 1D and
# quadrant betas).  No stencil composes across Runge-Kutta stages: each stage pads
# its own input again.
GHOST_REACH = 8


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


def _mapped_index(j: int, n: int, bc: BoundaryCondition) -> int:
    if bc is BoundaryCondition.PERIODIC:
        return j % n
    return min(max(j, 0), n - 1)


def pad_ghosts(values: np.ndarray, bc: BoundaryCondition, width: int) -> np.ndarray:
    """Copy of ``values`` with ``width`` ghost nodes on every side, filled by
    the boundary rule: ``pad_ghosts(u, bc, w)[i + w, j + w]`` is the value
    :func:`ghost_value` reads at (i, j) for every index within ``w`` of
    the grid."""
    mode = "wrap" if bc is BoundaryCondition.PERIODIC else "edge"
    return np.pad(values, width, mode=mode)


class GridField:
    """Scalar values on a grid plus the boundary rule used to read past it."""

    __slots__ = ("grid", "values", "bc")

    def __init__(self, grid: Grid, values, bc: BoundaryCondition,
                 validate: bool = True):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise ValueError(
                f"values shape {values.shape} does not match grid shape {grid.shape}")
        if validate and not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")
        self.grid = grid
        self.values = values
        self.bc = bc

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def like(self, values: np.ndarray) -> "GridField":
        """New field on the same grid/BC.  Skips the finite check; time
        steppers validate once per step instead of once per stage."""
        return GridField(self.grid, values, self.bc, validate=False)

    def neighbors(self, width: int):
        """Pad the field once by ``width`` ghost nodes and return
        ``at(dj, di)``: the whole-grid array of ``u[i + di, j + dj]`` with
        the boundary rule applied, as a read-only view into that copy, for
        ``|dj|, |di| <= width``."""
        padded = pad_ghosts(self.values, self.bc, width)
        padded.flags.writeable = False
        shape = self.values.shape

        def at(dj: int = 0, di: int = 0) -> np.ndarray:
            if abs(dj) > width or abs(di) > width:
                raise IndexError(f"shift ({dj}, {di}) exceeds padding {width}")
            if len(shape) == 1:
                if di != 0:
                    raise ValueError("di shift on a 1D field")
                return padded[width + dj:width + dj + shape[0]]
            return padded[width + di:width + di + shape[0],
                          width + dj:width + dj + shape[1]]
        return at

    def shifted(self, dj: int = 0, di: int = 0) -> np.ndarray:
        """Whole-grid array of ``u[i + di, j + dj]`` with the boundary rule
        applied, i.e. the vectorized form of :func:`ghost_value`."""
        if abs(dj) > GHOST_REACH or abs(di) > GHOST_REACH:
            raise IndexError(f"shift ({dj}, {di}) exceeds ghost reach {GHOST_REACH}")
        return self.neighbors(max(abs(dj), abs(di)))(dj, di)


def ghost_value(field: GridField, j: int, i: int | None = None) -> float:
    """Value at signed index (j, i), applying the field's boundary rule.

    Indices may run past the grid by at most ``GHOST_REACH`` per side.
    """
    if field.ndim == 1:
        if i is not None:
            raise ValueError("1D field takes a single index")
        n = field.grid.n
        if j < -GHOST_REACH or j >= n + GHOST_REACH:
            raise IndexError(f"index {j} beyond ghost reach of grid with {n} nodes")
        return float(field.values[_mapped_index(j, n, field.bc)])
    if i is None:
        raise ValueError("2D field needs both indices")
    nx, ny = field.grid.nx, field.grid.ny
    if j < -GHOST_REACH or j >= nx + GHOST_REACH:
        raise IndexError(f"x index {j} beyond ghost reach of grid with {nx} nodes")
    if i < -GHOST_REACH or i >= ny + GHOST_REACH:
        raise IndexError(f"y index {i} beyond ghost reach of grid with {ny} nodes")
    jj = _mapped_index(j, nx, field.bc)
    ii = _mapped_index(i, ny, field.bc)
    return float(field.values[ii, jj])


def write_field_csv(field: GridField, out: TextIO, column: str = "value",
                    **columns: np.ndarray) -> None:
    """Plain-text dump, one row per node, row-major, 17 significant digits.
    The field's values fill the value column named ``column``; each keyword
    adds a value column of that name, an array of the grid's shape."""
    names = (column, *columns)
    cols = (field.values, *columns.values())
    if field.ndim == 1:
        out.write(",".join(("x", *names)) + "\n")
        fmt = ",".join(["%.17g"] * (1 + len(cols))) + "\n"
        out.writelines([fmt % t for t in zip(field.grid.nodes().tolist(),
                                             *(c.tolist() for c in cols))])
        return
    out.write(",".join(("x", "y", *names)) + "\n")
    # Python numbers from tolist() format about twice as fast as numpy
    # scalars, to the same digits; one grid row at a time keeps few alive,
    # and each row's y is formatted once.
    xs = field.grid.xnodes().tolist()
    for y, *rows in zip(field.grid.ynodes().tolist(), *cols):
        fmt = f"%.17g,{y:.17g}" + ",%.17g" * len(rows) + "\n"
        out.writelines([fmt % t for t in zip(xs, *(r.tolist() for r in rows))])
