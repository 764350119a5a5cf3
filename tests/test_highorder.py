import numpy as np
import pytest

from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.hamiltonians import (eikonal_hamiltonian, rotation_hamiltonian,
                               transport_hamiltonian)
from hjaf.highorder import (SCHEME_ORDERS, fourth_order_slopes, hc_step,
                            high_order_step, lw2_step, lw_step,
                            richtmyer_step, rkc4_step, _staggered_secants)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO

ALL_STEPS = {
    "hc": hc_step,
    "lw": lw_step,
    "lw2": lambda f, H, dt: lw2_step(f, H, dt, corrected=True),
    "richtmyer": lambda f, H, dt: richtmyer_step(f, H, dt, corrected=True),
    "rkc4": rkc4_step,
}


def periodic_field(fn, n=32, L=2 * np.pi):
    g = Grid2D(0.0, 0.0, L / n, L / n, n, n)
    X, Y = g.meshes()
    return GridField(g, fn(X, Y), PER)


class TestFixedPoints:
    @pytest.mark.parametrize("name", sorted(SCHEME_ORDERS))
    def test_constants_fixed(self, name):
        g = Grid2D(0, 0, 0.1, 0.1, 12, 12)
        f = GridField(g, np.full((12, 12), 2.0), NEU)
        for H in (transport_hamiltonian(), eikonal_hamiltonian()):
            out = high_order_step(name)(f, H, 0.02)
            assert np.array_equal(out.values, f.values)
        # the literal secant variants preserve constants too
        for step in (lambda fld, H, dt: lw2_step(fld, H, dt, corrected=False),
                     lambda fld, H, dt: richtmyer_step(fld, H, dt, corrected=False)):
            out = step(f, transport_hamiltonian(), 0.02)
            assert np.array_equal(out.values, f.values)

    @pytest.mark.parametrize("name", sorted(ALL_STEPS))
    def test_affine_exact_for_transport(self, name):
        # slope operators are exact on affine data; the time derivative is
        # the constant a + b (corrected secants for the staggered family).
        # interior excludes the clamped-boundary band up to the composed
        # stencil reach of the four-stage scheme
        g = Grid2D(0, 0, 0.1, 0.1, 22, 22)
        X, Y = g.meshes()
        a, b = 0.3, 0.7
        f = GridField(g, a * X + b * Y, NEU)
        dt = 0.02
        out = ALL_STEPS[name](f, transport_hamiltonian(), dt)
        interior = np.s_[8:-8, 8:-8]
        expect = (a * X + b * Y - dt * (a + b))[interior]
        assert out.values[interior] == pytest.approx(expect, abs=1e-13)


class TestLegacySecantPattern:
    def test_literal_secants_on_affine_data(self):
        # the legacy index pattern leaves a spurious half-slope in the
        # backward x-secant and a sign flip in the backward y-secant; on
        # u = a x + b y with H = p + q this gives (b/2)/dx and 2b/dy
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        X, Y = g.meshes()
        a, b = 0.3, 0.7
        f = GridField(g, a * X + b * Y, PER)
        H = transport_hamiltonian()
        hx, hy = _staggered_secants(f, H, corrected=False)
        assert hx[2:-2, 2:-2] == pytest.approx((b / 2) / 0.1, rel=1e-12)
        assert hy[2:-2, 2:-2] == pytest.approx(2 * b / 0.1, rel=1e-12)
        cx, cy = _staggered_secants(f, H, corrected=True)
        assert cx[2:-2, 2:-2] == pytest.approx(0.0, abs=1e-13)
        assert cy[2:-2, 2:-2] == pytest.approx(0.0, abs=1e-13)

    def test_literal_form_is_low_order(self):
        # consistency residual of the literal staggered form does not decay
        def residual(n):
            f = periodic_field(lambda X, Y: np.sin(X) * np.cos(Y), n)
            dt = 0.2 * f.grid.dx
            out = lw2_step(f, transport_hamiltonian(), dt, corrected=False)
            h_eff = (f.values - out.values) / dt
            X, Y = f.grid.meshes()
            return np.abs(h_eff - (np.cos(X) * np.cos(Y)
                                   - np.sin(X) * np.sin(Y))).max()

        assert residual(32) / residual(64) < 1.5  # order ~ 0, not ~ 2


class TestConsistencyOrders:
    @pytest.mark.parametrize("name", ["hc", "lw", "lw2", "richtmyer"])
    def test_second_order_residual(self, name):
        # residual against H corrected by the leading time-curvature term
        H = transport_hamiltonian()

        def residual(n):
            f = periodic_field(lambda X, Y: np.sin(X) * np.cos(Y), n)
            dt = 0.2 * f.grid.dx
            out = ALL_STEPS[name](f, H, dt)
            h_eff = (f.values - out.values) / dt
            X, Y = f.grid.meshes()
            vx, vy = np.cos(X) * np.cos(Y), -np.sin(X) * np.sin(Y)
            vxx = -np.sin(X) * np.cos(Y)
            vxy = -np.cos(X) * np.sin(Y)
            vyy = -np.sin(X) * np.cos(Y)
            target = (vx + vy) - 0.5 * dt * ((vxx + vxy) + (vxy + vyy))
            return np.abs(h_eff - target).max()

        r32, r64, r128 = residual(32), residual(64), residual(128)
        assert np.log2(r32 / r64) >= 1.9
        assert np.log2(r64 / r128) >= 1.9

    def test_rkc4_spatial_fourth_order(self):
        H = transport_hamiltonian()

        def residual(n):
            f = periodic_field(lambda X, Y: np.sin(X) * np.cos(Y), n)
            X, Y = f.grid.meshes()
            dxu, dyu = fourth_order_slopes(f)
            exact = np.cos(X) * np.cos(Y) - np.sin(X) * np.sin(Y)
            return np.abs(H.eval(X, Y, dxu, dyu) - exact).max()

        r32, r64, r128 = residual(32), residual(64), residual(128)
        assert np.log2(r32 / r64) >= 3.9
        assert np.log2(r64 / r128) >= 3.9

    def test_rkc4_exact_on_cubics(self):
        # fourth-order slopes differentiate cubics exactly; for H = p + q
        # every stage sees the exact (affine) slope field
        g = Grid2D(0, 0, 0.1, 0.1, 16, 16)
        X, Y = g.meshes()
        f = GridField(g, X ** 3, NEU)
        dt = 0.01
        out = rkc4_step(f, transport_hamiltonian(), dt)
        interior = np.s_[8:-8, 8:-8]
        # characteristics: value translates; one step of RK4 on the exact
        # slope field reproduces the Taylor series through dt^4
        exact = (X - dt) ** 3
        assert out.values[interior] == pytest.approx(exact[interior], abs=1e-9)


class TestGlobalOrder:
    def test_corrected_lw2_second_order_on_smooth_run(self):
        from hjaf.filtering import SolverConfig, af_evolve
        from hjaf.problems import make_test
        from hjaf.reporting import error_norms, observed_order
        prob = make_test("8-regular")
        errs = []
        for level in (0, 1, 2):
            cfg = SolverConfig(hamiltonian=prob.hamiltonian,
                               monotone=prob.monotone, scheme="lw2",
                               lw2_corrected=True)
            u, _ = af_evolve(prob.initial_field(level), cfg, prob.T_final,
                             prob.n_steps(level))
            errs.append(error_norms(u, prob.exact_field(prob.T_final,
                                                        level).values)[1])
        orders = [observed_order(errs[i], errs[i + 1]) for i in range(2)]
        assert all(1.7 <= o <= 2.3 for o in orders)


class TestLipschitz:
    @pytest.mark.parametrize("name", sorted(ALL_STEPS))
    def test_bounded_sensitivity(self, name):
        # |h(u + d) - h(u)| <= C ||d||_inf / dx with C stable across grids
        H = transport_hamiltonian()
        rng = np.random.default_rng(30)

        def constant(n):
            f = periodic_field(lambda X, Y: np.sin(X) * np.cos(Y), n)
            dt = 0.2 * f.grid.dx
            delta = 1e-4 * rng.uniform(-1, 1, f.values.shape)
            g = f.like(f.values + delta)
            a = ALL_STEPS[name](f, H, dt)
            b = ALL_STEPS[name](g, H, dt)
            dh = np.abs((b.values - a.values) - delta).max() / dt
            return dh * f.grid.dx / np.abs(delta).max()

        c1, c2 = constant(24), constant(48)
        assert c1 < 20 and c2 < 20
        assert c2 < 4 * max(c1, 1e-12) + 4


class TestRichtmyerPrecondition:
    def test_rejects_space_dependent_h(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        f = GridField(g, np.zeros((10, 10)), NEU)
        with pytest.raises(ValueError):
            richtmyer_step(f, rotation_hamiltonian(2.5), 0.01)


class TestQuadraticTaylor:
    def test_lw_on_parabola_matches_hand_value(self):
        # u = x^2/2 with H = p: the corrected hamiltonian at node x is
        # x - dt/2 (centered slope is exact, uxx = 1)
        g = Grid2D(-1.0, -1.0, 0.1, 0.1, 21, 21)
        X, Y = g.meshes()
        f = GridField(g, 0.5 * X ** 2, NEU)
        H = transport_hamiltonian()  # restriction q = 0 makes H act like p
        dt = 0.02
        out = lw_step(f, H, dt)
        h_eff = (f.values - out.values) / dt
        interior = np.s_[2:-2, 2:-2]
        assert h_eff[interior] == pytest.approx((X - 0.5 * dt)[interior],
                                                abs=1e-12)
