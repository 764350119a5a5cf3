"""Run-layout kernels against their 2D-view forms (``oracles.view_*``):
equal arrays, not merely close ones, under both boundary rules and on
non-square grids down to 3 nodes per axis, where a row-width slip (nx
read for ny) shows.  Also: how often one step pads its field and takes
the slopes its kernels share."""
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hjaf.filtering as filtering
import hjaf.grids as grids
import hjaf.highorder as highorder
import hjaf.monotone as monotone
from hjaf.filtering import (EPS_FLOOR, SolverConfig, _adaptive_step,
                            af_evolve, epsilon_n)
from hjaf.grids import BoundaryCondition, Grid1D, Grid2D, GridField
from hjaf.hamiltonians import shifted_quadratic_hamiltonian
from hjaf.harness import CliConfig, solver_config
from hjaf.highorder import (centered_slopes, cross_diff, fourth_order_slopes,
                            high_order_step, second_diffs)
from hjaf.indicators1d import beta_fields_1d
from hjaf.indicators2d import (Formula2D, Indicator2DConfig, omega_field_2d,
                               quadrant_beta_fields, smoothness_2d)
from hjaf.monotone import (CFL_LIMIT, MonotoneKind, monotone_hamiltonian,
                           monotone_step, one_sided_slopes)
from hjaf.problems import make_test

from oracles import (closed_form_slot_differences, eight_call_bounds,
                     swapped_slot_differences, view_epsilon_n,
                     view_omega_field_2d, view_phi_2d,
                     view_quadrant_beta_fields, view_stencils)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO


@st.composite
def fields(draw):
    """Raw noise, or a smooth or a kinked surface with a little noise, on
    3..12 nodes per axis under either boundary rule."""
    ny, nx = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    dx, dy = (draw(st.floats(0.01, 2.0)) for _ in range(2))
    noise = draw(arrays(np.float64, (ny, nx),
                        elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    g = Grid2D(-0.5 * nx * dx, -0.5 * ny * dy, dx, dy, nx, ny)
    X, Y = g.meshes()
    values = {"raw": noise,
              "smooth": np.sin(X) * np.cos(2 * Y) + 1e-6 * noise,
              "kink": np.abs(X) + np.abs(Y - 0.1 * dy) + 1e-6 * noise,
              }[draw(st.sampled_from(["raw", "smooth", "kink"]))]
    return GridField(g, values, draw(st.sampled_from([PER, NEU])))


def assert_bitwise(got, want, name):
    assert got.shape == want.shape, name
    assert np.array_equal(got, want), name


class TestDifferences:
    @settings(max_examples=150, deadline=None)
    @given(fields())
    def test_match_view_forms(self, f):
        want = view_stencils(f)
        got = {"one_sided": one_sided_slopes(f),
               "centered": centered_slopes(f),
               "second": second_diffs(f), "cross": (cross_diff(f),),
               "fourth": fourth_order_slopes(f)}
        for name, arrays_want in want.items():
            for a, b in zip(got[name], arrays_want, strict=True):
                assert_bitwise(a, b, name)


class TestIndicator:
    @settings(max_examples=150, deadline=None)
    @given(fields(), st.sampled_from([Formula2D.FULL, Formula2D.PARTIAL]))
    def test_quadrant_betas(self, f, formula):
        want = view_quadrant_beta_fields(f, full=formula is Formula2D.FULL)
        got = quadrant_beta_fields(f, formula)
        assert got.keys() == want.keys()
        for key in want:
            for a, b in zip(got[key], want[key], strict=True):
                assert_bitwise(a, b, key)

    @settings(max_examples=150, deadline=None)
    @given(fields(), st.sampled_from(list(Formula2D)),
           st.floats(0.01, 0.49), st.floats(0.1, 5.0))
    def test_omega_and_phi(self, f, variant, M, sigma):
        cfg = Indicator2DConfig(sigma=sigma, M=M, variant=variant)
        omega = view_omega_field_2d(f, sigma, variant.value)
        phi = view_phi_2d(omega, M)
        assert_bitwise(omega_field_2d(f, cfg), omega, "omega")
        sm = smoothness_2d(f, cfg)
        assert_bitwise(sm.omega, omega, "omega from the shared copy")
        assert sm.phi.dtype == np.bool_
        assert_bitwise(sm.phi, phi, "phi")


class TestSecondDifferenceEnds:
    """The second differences are laid out like the padded copy, and each
    element whose stencil leaves the copy holds NaN.  On finite data no
    kernel that reads them returns a NaN, not even in the throw-away
    elements of an inner beta run."""

    @settings(max_examples=100, deadline=None)
    @given(fields())
    def test_readers_return_finite_arrays(self, f):
        at = f.neighbors()
        for d, s in zip(f.second_differences(), (1, at.row)):
            for z in (1, -1):
                assert np.isnan(d[z][:s]).all() and np.isnan(d[z][-s:]).all()
                assert np.isfinite(d[z][s:-s]).all()
        line = GridField(Grid1D(0.0, f.grid.dx, f.grid.nx), f.values[0], f.bc)
        outputs = [*second_diffs(f),
                   highorder.time_curvature(f, shifted_quadratic_hamiltonian()),
                   *beta_fields_1d(f, "x"), *beta_fields_1d(f, "y"),
                   *beta_fields_1d(line)]
        for formula in (Formula2D.FULL, Formula2D.PARTIAL):
            for b0, b1 in quadrant_beta_fields(f, formula).values():
                outputs += [b0, b1, b0.base]
        for variant in Formula2D:
            outputs.append(omega_field_2d(f, Indicator2DConfig(variant=variant)))
        for a in outputs:
            assert np.isfinite(a).all()


def jump_field(bc, nx=13, ny=9):
    """A field whose rows, read one after another in the flat padded copy,
    jump where a run's throw-away values sit between them.

    Neumann: u = x + 0.3 |y - y0| + 0.05 sin(5 y).  Each row's last node
    (x = 1.2) sits next to the next row's first node (x = 0) behind the
    ghost columns.  Periodic: u = |sin(pi y / Ly)| + 0.2 sin(2 pi x / Lx)
    on cells ten times longer in y than in x, so a step from one row to
    the next, read as an x difference, is far steeper than any real one.
    Both carry a kink line, so some nodes are untrusted."""
    if bc is NEU:
        g = Grid2D(0.0, 0.0, 0.1, 0.12, nx, ny)
        X, Y = g.meshes()
        y0 = Y[ny // 2, 0] + 0.37 * g.dy
        return GridField(g, X + 0.3 * np.abs(Y - y0) + 0.05 * np.sin(5 * Y), bc)
    g = Grid2D(0.0, 0.0, 0.05, 0.5, nx, ny)
    X, Y = g.meshes()
    values = (np.abs(np.sin(np.pi * Y / (ny * g.dy)))
              + 0.2 * np.sin(2 * np.pi * X / (nx * g.dx)))
    return GridField(g, values, bc)


LLF = MonotoneKind.LOCAL_LAX_FRIEDRICHS


def llf_h(H, x, y):
    return lambda pm, pp, qm, qp: monotone_hamiltonian(LLF, H, x, y, pm, pp,
                                                       qm, qp)[0]


class TestGhostColumns:
    """No throw-away ghost-column value reaches a reduction: the switching
    scale's max, the trust count, the realized-speed guard."""

    H = shifted_quadratic_hamiltonian()
    SPEED = 2.0 * (1.0 + 1.5)     # H's speed 2(1 + |p|) at |p| = 1.5
    K = 1.0

    def dt(self, f):
        return 0.4 * f.grid.dx / self.SPEED

    @pytest.mark.parametrize("bc", [PER, NEU])
    def test_throw_away_values_would_trip_the_guard(self, bc):
        # the premise: leaked, these slopes would break the step bound
        f = jump_field(bc)
        at = f.neighbors()
        run = (at() - at(-1, 0)) / f.grid.dx
        junk = np.ones(run.size, dtype=bool)
        junk[np.arange(f.grid.ny)[:, None] * at.row + np.arange(f.grid.nx)] = False
        speeds = np.abs(2.0 * (run[junk] + 1.0))
        assert self.dt(f) / f.grid.dx * speeds.max() > 2 * CFL_LIMIT
        real = np.abs(2.0 * (one_sided_slopes(f)[0] + 1.0))
        assert self.dt(f) / f.grid.dx * real.max() < CFL_LIMIT

    @pytest.mark.parametrize("bc", [PER, NEU])
    def test_epsilon_and_diagnostics_match_view_oracle(self, bc):
        f = jump_field(bc)
        cfg = SolverConfig(hamiltonian=self.H, scheme="af-rkc4",
                           indicator=Indicator2DConfig(), K=self.K)
        dt, ind = self.dt(f), cfg.indicator
        u1, diag1 = af_evolve(f, cfg, dt, 1)
        _, diag2 = af_evolve(f, cfg, 2 * dt, 2)
        x, y = f.grid.meshes()
        for step, u in ((1, f), (2, u1)):
            omega = view_omega_field_2d(u, ind.sigma, ind.variant.value)
            phi = view_phi_2d(omega, ind.M)
            # the step's mask is the oracle's, as a boolean
            trusted = smoothness_2d(u, ind).phi
            assert trusted.dtype == np.bool_
            assert np.array_equal(trusted, phi == 1)
            eps = view_epsilon_n(
                u, self.H,
                lambda *s: closed_form_slot_differences(self.H, x, y, *s),
                dt, phi == 1, self.K)
            assert 0 < eps < 1e3
            assert epsilon_n(u, self.H, LLF, dt, phi == 1, self.K) == eps
            # the eight calls, within the bound of their own arithmetic
            slopes = view_stencils(u)["one_sided"]
            closed = closed_form_slot_differences(self.H, x, y, *slopes)
            calls = swapped_slot_differences(llf_h(self.H, x, y), *slopes)
            bounds = eight_call_bounds(self.H, x, y, *slopes)
            for a, b, bound in zip(closed, calls, bounds):
                assert np.all(np.abs(a - b) <= bound)
            assert diag2.rows[step - 1] == (step, step * dt, eps,
                                            int(np.sum(phi == 0)))
        assert diag1.rows == diag2.rows[:1]
        assert diag2.rows[0][3] > 0          # the kink leaves untrusted nodes

    @pytest.mark.parametrize("bc", [PER, NEU])
    def test_no_false_cfl_violation(self, bc):
        f = jump_field(bc)
        out = monotone_step(f, LLF, self.H, self.dt(f))
        assert np.all(np.isfinite(out.values))
        cfg = SolverConfig(hamiltonian=self.H, scheme="af-rkc4")
        af_evolve(f, cfg, 3 * self.dt(f), 3)


class TestGhostFills:
    """One step in any mode pads u once, by two ghost nodes, and pads no
    boolean array (the trust mask is read at its own node only).  The only
    other ghost fills are the later stages of the high-order step, each a
    field of its own that pads its values once, two ghost nodes wide."""

    STAGE_FILLS = {"hc": 1, "lw": 0, "lw2": 0, "richtmyer": 0, "rkc4": 3}

    @pytest.mark.parametrize("scheme", sorted(STAGE_FILLS))
    @pytest.mark.parametrize("variant", ["full", "split"])
    def test_one_pad_per_step(self, monkeypatch, scheme, variant):
        prob = make_test("8")
        cfg = CliConfig(test_id="8", scheme=f"af-{scheme}", refinements=1,
                        indicator=variant)
        sc = solver_config(cfg, prob, 0)
        dt = prob.T_final / prob.n_steps(0)
        calls = []
        original = grids.pad_ghosts

        def counting(values, bc, width):
            calls.append((values, width))
            return original(values, bc, width)

        monkeypatch.setattr(grids, "pad_ghosts", counting)
        u = prob.initial_field(0)
        for _ in range(2):
            calls.clear()
            u_next, eps, _ = _adaptive_step(u, sc, high_order_step(scheme), dt)
            assert eps > EPS_FLOOR          # the high-order step ran
            pads = [w for values, w in calls if values is u.values]
            assert pads == [2]
            rings = [w for values, w in calls if values.dtype == bool]
            assert rings == []
            stages = [(values, w) for values, w in calls
                      if values is not u.values]
            assert [w for _, w in stages] == [2] * self.STAGE_FILLS[scheme]
            # each stage pads the read-only values of a field of its own
            assert len({id(values) for values, _ in stages}) == len(stages)
            assert not any(values.flags.writeable for values, _ in stages)
            u = u_next

    @pytest.mark.parametrize("scheme", [
        "monotone", "hc", "rkc4", "f-hc-fixed",
        *(f"af-{name}" for name in sorted(STAGE_FILLS))])
    def test_one_pad_per_evolve_step_in_every_mode(self, monkeypatch, scheme):
        prob = make_test("8")
        sc = solver_config(CliConfig(test_id="8", scheme=scheme,
                                     refinements=1), prob, 0)
        u = prob.initial_field(0)
        widths = []
        original = grids.pad_ghosts

        def counting(values, bc, width):
            if values is u.values:
                widths.append(width)
            return original(values, bc, width)

        monkeypatch.setattr(grids, "pad_ghosts", counting)
        af_evolve(u, sc, prob.T_final / prob.n_steps(0), 1)
        assert widths == [2]


class TestSharedStencils:
    """The slopes, second differences and time curvature several kernels of
    a step read are memo entries of the field: one adaptive step takes u's
    one-sided and centered slopes, its second differences (read by the
    indicator, full or split, and the time curvature) and its time
    curvature once each (af-lw reads the curvature in the switching scale
    and in lw_step), and hands them out read-only."""

    @pytest.mark.parametrize("scheme", sorted(TestGhostFills.STAGE_FILLS))
    @pytest.mark.parametrize("variant", ["full", "split"])
    def test_each_slope_kernel_runs_once_on_u(self, monkeypatch, scheme,
                                              variant):
        prob = make_test("8")
        sc = solver_config(CliConfig(test_id="8", scheme=f"af-{scheme}",
                                     refinements=1, indicator=variant), prob, 0)
        u = prob.initial_field(0)
        runs = []
        for module, name in ((monotone, "_one_sided_slopes"),
                             (highorder, "_centered_slopes"),
                             (grids, "_second_differences"),
                             (highorder, "_time_curvature")):
            def counting(field, *args, kernel=getattr(module, name), name=name):
                if field is u:
                    runs.append(name)
                return kernel(field, *args)
            monkeypatch.setattr(module, name, counting)
        _, eps, _ = _adaptive_step(u, sc, high_order_step(scheme),
                                   prob.T_final / prob.n_steps(0))
        assert eps > EPS_FLOOR          # the high-order step ran
        assert sorted(runs) == ["_centered_slopes", "_one_sided_slopes",
                                "_second_differences", "_time_curvature"]

    def test_time_curvature_is_kept_per_hamiltonian(self):
        f = jump_field(PER)
        H = shifted_quadratic_hamiltonian()
        bracket = highorder.time_curvature(f, H)
        assert highorder.time_curvature(f, H) is bracket
        assert not bracket.flags.writeable
        other = highorder.time_curvature(f, shifted_quadratic_hamiltonian())
        assert other is not bracket
        # the switching scale reads the bracket and leaves it as it was
        want = bracket.copy()
        epsilon_n(f, H, MonotoneKind.LOCAL_LAX_FRIEDRICHS, 1e-3,
                  np.ones(f.grid.shape, bool))
        assert np.array_equal(bracket, want)

    def test_memo_arrays_are_shared_and_read_only(self):
        f = jump_field(PER)
        for kernel in (one_sided_slopes, centered_slopes,
                       GridField.second_differences):
            assert kernel(f) is kernel(f)
        second = [d[z] for d in f.second_differences() for z in (1, -1)]
        for a in (*one_sided_slopes(f), *centered_slopes(f), *second):
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a += 1.0

    def test_evolve_frees_the_initial_memo_after_step_1(self, monkeypatch):
        # af_evolve steps an alias of the initial field, so the slopes it
        # memoizes go after step 1 although the caller keeps the field
        prob = make_test("8")
        sc = solver_config(CliConfig(test_id="8", scheme="af-rkc4",
                                     refinements=1), prob, 0)
        u = prob.initial_field(0)
        first, alive = [], []
        kernel, smoothness = monotone._one_sided_slopes, filtering.smoothness_2d

        def keeping(field):
            out = kernel(field)
            if not first:
                first.append(weakref.ref(out[0]))
            return out

        def probing(field, cfg):
            if first:
                alive.append(first[0]() is not None)
            return smoothness(field, cfg)

        monkeypatch.setattr(monotone, "_one_sided_slopes", keeping)
        monkeypatch.setattr(filtering, "smoothness_2d", probing)
        af_evolve(u, sc, 2 * prob.T_final / prob.n_steps(0), 2)
        assert alive == [False]
