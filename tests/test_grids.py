import io

import numpy as np
import pytest

from hjaf.grids import (BoundaryCondition, GHOST_REACH, STENCIL_REACH, Grid1D,
                        Grid2D, GridField, Neighbors, pad_ghosts,
                        write_field_csv)

from oracles import ghost_value


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
        # widths past the node count read ghosts that wrap more than once
        rng = np.random.default_rng(0)
        g = Grid2D(0, 0, 1.0, 1.0, 5, 4)
        vals = rng.normal(size=(4, 5))
        line = rng.normal(size=5)
        for bc in (PER, NEU):
            for f in (field_1d(line, bc), GridField(g, vals, bc)):
                for w in (0, 1, 2, GHOST_REACH):
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

    def test_1d_rejects_di(self):
        f = field_1d(np.zeros(6), NEU)
        with pytest.raises(ValueError):
            f.neighbors()(0, 1)
        with pytest.raises(ValueError):
            f.shifted(0, 1)

    def test_padding_matches_ghost_value(self):
        # widths past the node count wrap more than once
        rng = np.random.default_rng(1)
        g = Grid2D(0, 0, 1.0, 1.0, 4, 3)
        vals = rng.normal(size=(3, 4))
        for bc in (PER, NEU):
            f = GridField(g, vals, bc)
            for w in (0, 1, 2, GHOST_REACH):
                p = pad_ghosts(vals, bc, w)
                assert p.shape == (3 + 2 * w, 4 + 2 * w)
                for i in range(-w, 3 + w):
                    for j in range(-w, 4 + w):
                        assert p[i + w, j + w] == ghost_value(f, j, i)

    def test_reach_limit(self):
        f = field_1d(np.zeros(12), PER)
        with pytest.raises(IndexError):
            f.shifted(GHOST_REACH + 1)

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
        write_field_csv(f, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 4
        assert lines[1].split(",") == ["0", "1"]

    def test_2d_row_major(self):
        g = Grid2D(0, 0, 1.0, 2.0, 3, 3)
        f = GridField(g, np.arange(1.0, 10.0).reshape(3, 3), NEU)
        buf = io.StringIO()
        write_field_csv(f, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,value"
        assert [ln.split(",")[2] for ln in lines[1:]] == [str(k) for k in range(1, 10)]
        # x varies fastest within a row
        assert lines[1].split(",")[:2] == ["0", "0"]
        assert lines[2].split(",")[:2] == ["1", "0"]

    def test_column_header(self):
        buf = io.StringIO()
        write_field_csv(field_1d([1.0, 2.0, 3.0], NEU), buf, "omega")
        assert buf.getvalue().splitlines()[0] == "x,omega"
        buf = io.StringIO()
        write_field_csv(GridField(Grid2D(0, 0, 1.0, 1.0, 3, 3), np.zeros((3, 3)), NEU),
                        buf, "phi")
        assert buf.getvalue().splitlines()[0] == "x,y,phi"

    def test_named_columns(self):
        buf = io.StringIO()
        write_field_csv(field_1d([0.25, 2.0, 3.0], NEU), buf, "omega",
                        phi=np.array([0, 1, 1], dtype=np.int8))
        assert buf.getvalue().splitlines() == [
            "x,omega,phi", "0,0.25,0", "0.5,2,1", "1,3,1"]
        buf = io.StringIO()
        g = Grid2D(0, 0, 1.0, 2.0, 3, 3)
        b = np.arange(9.0).reshape(3, 3) / 3.0 + 1e-13
        write_field_csv(GridField(g, np.zeros((3, 3)), NEU), buf, "a", b=b)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,y,a,b"
        assert lines[4].split(",")[:3] == ["0", "2", "0"]
        assert [float(ln.split(",")[3]) for ln in lines[1:]] == b.ravel().tolist()

    def test_17_digit_round_trip(self):
        v = 1.0 / 3.0 + 1e-13
        f = field_1d([v, v, v], NEU)
        buf = io.StringIO()
        write_field_csv(f, buf)
        back = float(buf.getvalue().splitlines()[1].split(",")[1])
        assert back == v
