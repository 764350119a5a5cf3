import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjaf.grids import (BoundaryCondition, STENCIL_REACH, Grid1D, Grid2D,
                        GridField, Neighbors, pad_ghosts, write_field_csv)

from oracles import GHOST_REACH, ghost_value


PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO


def field_1d(values, bc, dx=0.5):
    g = Grid1D(x0=0.0, dx=dx, n=len(values))
    return GridField(g, np.asarray(values, dtype=float), bc)


class TestGhostValue:
    def test_periodic_wraps(self):
        f = field_1d([10.0, 11.0, 12.0, 13.0], PER)
        assert ghost_value(f, -1) == 13.0
        assert ghost_value(f, 4) == 10.0
        assert ghost_value(f, -4) == 10.0

    def test_neumann_clamps(self):
        f = field_1d([10.0, 11.0, 12.0, 13.0], NEU)
        assert ghost_value(f, -2) == 10.0
        assert ghost_value(f, 7) == 13.0

    def test_interior_identity(self):
        f = field_1d([10.0, 11.0, 12.0, 13.0], NEU)
        assert ghost_value(f, 2) == 12.0

    def test_beyond_reach_raises(self):
        f = field_1d([1.0, 2.0, 3.0, 4.0], PER)
        with pytest.raises(IndexError):
            ghost_value(f, 4 + GHOST_REACH)
        with pytest.raises(IndexError):
            ghost_value(f, -GHOST_REACH - 1)

    def test_periodic_is_n_periodic(self):
        f = field_1d(np.arange(5, dtype=float), PER)
        for j in range(-GHOST_REACH, 5 + GHOST_REACH):
            assert ghost_value(f, j) == f.values[j % 5]

    def test_2d_indexing(self):
        g = Grid2D(0, 0, 1.0, 1.0, 4, 3)
        vals = np.arange(12, dtype=float).reshape(3, 4)
        f = GridField(g, vals, PER)
        assert ghost_value(f, -1, 0) == vals[0, 3]
        assert ghost_value(f, 0, -1) == vals[2, 0]
        f2 = GridField(g, vals, NEU)
        assert ghost_value(f2, -3, 5) == vals[2, 0]

    def test_neumann_boundary_differences_vanish(self):
        # constant-extension: one-sided differences across the edge are zero
        f = field_1d([3.0, 1.0, 4.0, 1.5], NEU)
        assert ghost_value(f, -1) - ghost_value(f, 0) == 0.0
        assert ghost_value(f, 4) - ghost_value(f, 3) == 0.0


def ghost_array(f, dj, di):
    """``u[i + di, j + dj]`` over the whole grid, one ghost_value per node."""
    if f.ndim == 1:
        return np.array([ghost_value(f, j + dj) for j in range(f.grid.n)])
    ny, nx = f.values.shape
    return np.array([[ghost_value(f, j + dj, i + di) for j in range(nx)]
                     for i in range(ny)])


class TestShifted:
    def test_matches_ghost_value(self):
        rng = np.random.default_rng(0)
        g = Grid2D(0, 0, 1.0, 1.0, 5, 4)
        vals = rng.normal(size=(4, 5))
        line = rng.normal(size=5)
        for bc in (PER, NEU):
            for f in (field_1d(line, bc), GridField(g, vals, bc)):
                for w in range(STENCIL_REACH + 1):
                    at = Neighbors(f.values, bc, w)
                    for di in (range(-w, w + 1) if f.ndim == 2 else (0,)):
                        for dj in range(-w, w + 1):
                            view = at.grid(at(dj, di))
                            assert not view.flags.writeable
                            assert np.array_equal(view, ghost_array(f, dj, di))
                    with pytest.raises(IndexError):
                        at(w + 1, 0)
            f = GridField(g, vals, bc)
            for dj, di in ((1, 0), (-2, 1), (0, -2), (2, 2)):
                s = f.shifted(dj, di)
                assert not s.flags.writeable
                assert np.array_equal(s, ghost_array(f, dj, di))
                # a view of the field's own padded copy
                assert np.shares_memory(s, f.neighbors().flat)

    def test_1d_rejects_di(self):
        f = field_1d(np.zeros(6), NEU)
        with pytest.raises(ValueError):
            f.neighbors()(0, 1)
        with pytest.raises(ValueError):
            f.shifted(0, 1)

    def test_padding_matches_ghost_value(self):
        rng = np.random.default_rng(1)
        g = Grid2D(0, 0, 1.0, 1.0, 4, 3)
        vals = rng.normal(size=(3, 4))
        for bc in (PER, NEU):
            f = GridField(g, vals, bc)
            for w in range(STENCIL_REACH + 2):
                p = pad_ghosts(vals, bc, w)
                assert p.shape == (3 + 2 * w, 4 + 2 * w)
                for i in range(-w, 3 + w):
                    for j in range(-w, 4 + w):
                        assert p[i + w, j + w] == ghost_value(f, j, i)

    def test_padding_wider_than_the_grid_refused(self):
        for bc in (PER, NEU):
            pad_ghosts(np.zeros(3), bc, 3)
            with pytest.raises(ValueError, match="exceeds the grid"):
                pad_ghosts(np.zeros(3), bc, 4)
            with pytest.raises(ValueError, match="exceeds the grid"):
                pad_ghosts(np.zeros((3, 5)), bc, 4)

    def test_reach_limit(self):
        f = field_1d(np.zeros(12), PER)
        with pytest.raises(IndexError):
            f.shifted(STENCIL_REACH + 1)
        g = GridField(Grid2D(0, 0, 1.0, 1.0, 12, 12), np.zeros((12, 12)), PER)
        with pytest.raises(IndexError):
            g.shifted(0, -STENCIL_REACH - 1)

    def test_field_keeps_one_read_only_padded_copy(self):
        vals = np.arange(12.0).reshape(3, 4)
        for f in (field_1d(vals[0], PER),
                  GridField(Grid2D(0, 0, 1.0, 1.0, 4, 3), vals, NEU)):
            at = f.neighbors()
            assert f.neighbors() is at
            assert at.width == STENCIL_REACH
            assert np.array_equal(at.grid(at()), f.values)
            with pytest.raises(ValueError):
                f.values[0] = 1.0
            with pytest.raises(ValueError):
                f.values += 1.0
        # the field aliases a float64 array it is given, read-only; the
        # caller's own array stays writable, and a read-only one is kept
        assert np.shares_memory(f.values, vals) and vals.flags.writeable
        assert f.like(f.values).values is f.values


@st.composite
def run_reads(draw):
    """A 1D or 2D field of 3..12 nodes per axis (nx and ny drawn apart)
    under either boundary rule, a padding width and a read (dj, di, grow)
    that stays inside it."""
    bc = draw(st.sampled_from([PER, NEU]))
    nx = draw(st.integers(3, 12))
    vals = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        f = field_1d(vals.normal(size=nx), bc)
    else:
        ny = draw(st.integers(3, 12))
        f = GridField(Grid2D(0, 0, 1.0, 1.0, nx, ny), vals.normal(size=(ny, nx)),
                      bc)
    width = draw(st.integers(0, STENCIL_REACH))
    grow = draw(st.integers(0, width))
    reach = width - grow
    dj = draw(st.integers(-reach, reach))
    di = draw(st.integers(-reach, reach)) if f.ndim == 2 else 0
    return f, width, (dj, di, grow)


def grown_view(at, run, grow):
    """``run``, a run over the grid grown by ``grow`` nodes per side, in the
    grown grid's shape: element (i + grow, j + grow) is node (i, j)."""
    shape = tuple(n + 2 * grow for n in at.shape)
    return np.ndarray(shape, run.dtype, run, 0,
                      (at.row * run.itemsize, run.itemsize)[-len(shape):])


def grown_ghost_array(f, dj, di, grow):
    """``u[i + di, j + dj]`` for every node (i, j) of the grid grown by
    ``grow`` nodes per side, one ghost_value per node."""
    if f.ndim == 1:
        return np.array([ghost_value(f, j + dj)
                         for j in range(-grow, f.grid.n + grow)])
    ny, nx = f.values.shape
    return np.array([[ghost_value(f, j + dj, i + di)
                      for j in range(-grow, nx + grow)]
                     for i in range(-grow, ny + grow)])


class TestRunAccessor:
    """``at(dj, di, grow)`` and ``at.of(array, width)`` against the scalar
    boundary rule, node by node."""

    @settings(max_examples=200, deadline=None)
    @given(run_reads())
    def test_run_is_the_offset_over_the_grown_grid(self, case):
        f, width, (dj, di, grow) = case
        at = Neighbors(f.values, f.bc, width)
        run = at(dj, di, grow)
        assert not run.flags.writeable
        want = grown_ghost_array(f, dj, di, grow)
        assert np.array_equal(grown_view(at, run, grow), want)
        if grow == 0:
            assert np.array_equal(at.grid(run), want)
        # the run of an offset past the padding is refused
        with pytest.raises(IndexError):
            at(width - grow + 1, 0, grow)
        if f.ndim == 2:
            with pytest.raises(IndexError):
                at(0, -(width - grow + 1), grow)

    @settings(max_examples=200, deadline=None)
    @given(run_reads())
    def test_of_reads_an_array_laid_out_like_a_run(self, case):
        f, width, (dj, di, grow) = case
        at = f.neighbors()
        want = grown_ghost_array(f, dj, di, grow)
        # a copy of the run over the grid grown by ``width``, and one of the
        # whole padded copy, each read by node offset
        laid_out = np.array(at(0, 0, width))
        copy = np.array(at.flat)
        for array, reader in ((laid_out, at.of(laid_out, width)),
                              (copy, at.of(copy))):
            got = reader(dj, di, grow)
            assert np.shares_memory(got, array)
            assert np.array_equal(grown_view(at, got, grow), want)
        with pytest.raises(IndexError):
            at.of(laid_out, width)(width - grow + 1, 0, grow)


class TestGridValidation:
    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, -0.1, 5)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            Grid2D(0, 0, 0.1, 0.1, 2, 5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridField(Grid1D(0, 0.1, 4), np.zeros(5), PER)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            GridField(Grid1D(0, 0.1, 4), np.array([0.0, np.nan, 1.0, 2.0]), PER)

    def test_delta_is_max_spacing(self):
        assert Grid2D(0, 0, 0.1, 0.25, 4, 4).delta == 0.25


class TestCsvDump:
    def test_1d_header_and_rows(self):
        f = field_1d([1.0, 2.0, 3.0], NEU, dx=0.5)
        buf = io.StringIO()
        write_field_csv(f.grid, buf, value=f.values)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4
        assert lines[1].split(",") == ["0", "1"]

    def test_2d_row_major(self):
        g = Grid2D(0, 0, 1.0, 2.0, 3, 3)
        buf = io.StringIO()
        write_field_csv(g, buf, value=np.arange(1.0, 10.0).reshape(3, 3))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,value"
        assert [ln.split(",")[2] for ln in lines[1:]] == [str(k) for k in range(1, 10)]
        # x varies fastest within a row
        assert lines[1].split(",")[:2] == ["0", "0"]
        assert lines[2].split(",")[:2] == ["1", "0"]

    def test_column_header(self):
        buf = io.StringIO()
        write_field_csv(Grid1D(0, 1.0, 3), buf, omega=np.zeros(3))
        assert buf.getvalue().splitlines()[0] == "x,omega"
        buf = io.StringIO()
        write_field_csv(Grid2D(0, 0, 1.0, 1.0, 3, 3), buf, phi=np.zeros((3, 3)))
        assert buf.getvalue().splitlines()[0] == "x,y,phi"

    def test_named_columns(self):
        buf = io.StringIO()
        write_field_csv(Grid1D(0, 0.5, 3), buf, omega=np.array([0.25, 2.0, 3.0]),
                        phi=np.array([0, 1, 1], dtype=np.int8))
        assert buf.getvalue().splitlines() == [
            "x,omega,phi", "0,0.25,0", "0.5,2,1", "1,3,1"]
        buf = io.StringIO()
        g = Grid2D(0, 0, 1.0, 2.0, 3, 3)
        b = np.arange(9.0).reshape(3, 3) / 3.0 + 1e-13
        write_field_csv(g, buf, a=np.zeros((3, 3)), b=b)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,a,b"
        assert lines[4].split(",")[:3] == ["0", "2", "0"]
        assert [float(ln.split(",")[3]) for ln in lines[1:]] == b.ravel().tolist()

    @pytest.mark.parametrize("grid", [Grid1D(0, 0.5, 4), Grid2D(0, 0, 1.0, 2.0, 4, 3)],
                             ids=["1d", "2d"])
    def test_boolean_column_prints_as_its_float_copy(self, grid):
        mask = np.arange(np.prod(grid.shape)).reshape(grid.shape) % 3 == 0
        as_bool, as_float = io.StringIO(), io.StringIO()
        write_field_csv(grid, as_bool, phi=mask)
        write_field_csv(grid, as_float, phi=mask.astype(np.float64))
        assert as_bool.getvalue() == as_float.getvalue()
        assert {ln.rsplit(",", 1)[1]
                for ln in as_bool.getvalue().splitlines()[1:]} == {"0", "1"}

    @pytest.mark.parametrize("grid,shape", [(Grid1D(0, 1.0, 3), (2,)),
                                            (Grid2D(0, 0, 1.0, 1.0, 3, 4), (3, 3))],
                             ids=["1d", "2d"])
    def test_misshaped_column_refused(self, grid, shape):
        # zip would cut the rows short without a word
        buf = io.StringIO()
        with pytest.raises(ValueError, match="column 'value' has shape"):
            write_field_csv(grid, buf, value=np.zeros(shape))
        assert buf.getvalue() == ""

    def test_17_digit_round_trip(self):
        v = 1.0 / 3.0 + 1e-13
        buf = io.StringIO()
        write_field_csv(Grid1D(0, 1.0, 3), buf, value=np.full(3, v))
        back = float(buf.getvalue().splitlines()[1].split(",")[1])
        assert back == v
