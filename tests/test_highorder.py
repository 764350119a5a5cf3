import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.hamiltonians import (eikonal_hamiltonian, rotation_hamiltonian,
                               shifted_quadratic_hamiltonian,
                               transport_hamiltonian)
from hjaf.highorder import (SCHEME_ORDERS, centered_slopes, cross_diff,
                            fourth_order_slopes, hc_step, high_order_step,
                            lw2_step, lw_step, richtmyer_step, rkc4_step,
                            second_diffs, time_curvature, _staggered_secants)
from hjaf.monotone import (CflViolation, MonotoneKind, htilde_differences,
                           monotone_step, one_sided_slopes)

from oracles import broadcasting_hamiltonian, space_derivatives

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
            cfg = SolverConfig(hamiltonian=prob.hamiltonian, scheme="lw2",
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
            richtmyer_step(f, rotation_hamiltonian(), 0.01)


def zeros_time_curvature(field, H):
    """The time curvature in the library's operation order, with H_x and
    H_y as arrays of +0.0 for an H independent of (x, y)."""
    x, y = field.grid.meshes()
    dxu, dyu = centered_slopes(field)
    d2x, d2y = second_diffs(field)
    hp, hq = H.dp(x, y, dxu, dyu), H.dq(x, y, dxu, dyu)
    hx, hy = space_derivatives(H, x, y, dxu, dyu)
    return (hp * d2x + hx) * hp + (hq * d2y + hy) * hq \
        + 2.0 * hp * hq * cross_diff(field)


def zeros_lw2_values(field, H, dt, corrected):
    """lw2_step's values, with H_x and H_y as arrays of +0.0 for an H
    independent of (x, y)."""
    x, y = field.grid.meshes()
    dxu, dyu = centered_slopes(field)
    hp, hq = H.dp(x, y, dxu, dyu), H.dq(x, y, dxu, dyu)
    hx, hy = space_derivatives(H, x, y, dxu, dyu)
    hx_star, hy_star = _staggered_secants(field, H, corrected)
    h = (H.eval(x, y, dxu, dyu)
         - 0.5 * dt * hp * (hx_star + hx)
         - 0.5 * dt * hq * (hy_star + hy))
    return field.values - dt * h


def same_bits(a, b) -> bool:
    """Bitwise equality of two float64 arrays: signs of zeros count."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


@st.composite
def zero_curvature_fields(draw):
    """A field on a 3x3..10x10 grid under either boundary rule whose
    interior second differences are exact zeros: an integer ramp, each of
    whose zeros is +0.0 or -0.0.  A slope below -1 makes H_p < 0 (or
    H_q < 0) on the shifted quadratic, so that H_p * uxx = -0; a ramp along
    one axis only, through a row of signed zeros, carries that sign into
    the time curvature's sum."""
    ny, nx = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    dx, dy = (draw(st.floats(0.05, 0.9)) for _ in range(2))
    g = Grid2D(-0.5 * nx * dx, -0.5 * ny * dy, dx, dy, nx, ny)
    sx, sy = draw(st.integers(-3, 1)), draw(st.integers(-3, 1))
    X, Y = np.meshgrid(np.arange(nx), np.arange(ny))
    values = (sx * X + sy * Y + draw(st.integers(-2, 2))).astype(float)
    negative = draw(arrays(np.bool_, (ny, nx)))
    values[(values == 0) & negative] = -0.0
    return GridField(g, values, draw(st.sampled_from([PER, NEU])))


# A ramp of slope -2 in y through a row of alternating signed zeros: at
# the row's +0 nodes H_p > 0, H_q < 0, uxx = -0 and uyy = uxy = +0.  Its
# transpose swaps the axes.
SIGNED_ROW = np.array([[2.0] * 5, [1.0] * 5, [-0.0, 0.0, -0.0, 0.0, -0.0],
                       [-1.0] * 5, [-2.0] * 5])
# Signed zeros around a +0 centre with uxx = uyy = uxy = -0: on transport
# (H_p = H_q = 1) the sign of H_x + H_y's zeros reaches the sum.
SIGNED_CROSS = np.zeros((5, 5))
SIGNED_CROSS[1:4, 1:4] = [[-0.0, -0.0, 0.0], [-0.0, 0.0, -0.0],
                          [0.0, -0.0, -0.0]]


class TestExactZeroSpaceDerivatives:
    """For an H independent of (x, y) the time curvature and the LW2 step
    add the scalar +0.0 where H_x, H_y enter: bitwise what adding arrays
    of +0.0 gives, signs of zeros included."""

    @settings(max_examples=150, deadline=None)
    @given(zero_curvature_fields(),
           st.sampled_from(["transport", "shifted-quadratic"]))
    @example(GridField(Grid2D(0.0, 0.0, 0.5, 0.5, 5, 5), SIGNED_ROW, NEU),
             "shifted-quadratic")
    @example(GridField(Grid2D(0.0, 0.0, 0.5, 0.5, 5, 5), SIGNED_ROW.T, PER),
             "shifted-quadratic")
    @example(GridField(Grid2D(0.0, 0.0, 0.5, 0.5, 5, 5), SIGNED_CROSS, NEU),
             "transport")
    def test_scalar_zero_rounds_like_zero_arrays(self, f, name):
        H = (transport_hamiltonian() if name == "transport"
             else shifted_quadratic_hamiltonian())
        assert not H.space_dependent
        assert same_bits(time_curvature(f, H), zeros_time_curvature(f, H))
        dt = 0.1 * min(f.grid.dx, f.grid.dy)
        for corrected in (False, True):
            assert same_bits(lw2_step(f, H, dt, corrected).values,
                             zeros_lw2_values(f, H, dt, corrected))


@st.composite
def closure_fields(draw):
    """A field on 3..8 nodes per axis under either boundary rule, with one
    node column on x = 0 and one node row on y = 0, where the rotation's
    H_p = -y and H_q = x are signed zeros: noise, or small integers whose
    zeros carry either sign."""
    ny, nx = draw(st.integers(3, 8)), draw(st.integers(3, 8))
    dx, dy = (draw(st.floats(0.05, 0.9)) for _ in range(2))
    kx, ky = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
    g = Grid2D(-(kx * dx), -(ky * dy), dx, dy, nx, ny)
    if draw(st.booleans()):
        elements = st.floats(-1e3, 1e3, allow_subnormal=False)
    else:
        elements = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])
    values = draw(arrays(np.float64, (ny, nx), elements=elements))
    return GridField(g, values, draw(st.sampled_from([PER, NEU])))


def same_bits_or_nan(a, b) -> bool:
    """Bitwise equality, signs of zeros included; NaN at the same places
    (an IEEE operation may pass on either NaN payload)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a.view(np.uint64)[~nan],
                               b.view(np.uint64)[~nan]))


def outcome(call, H):
    """The arrays ``call(H)`` returns, or the refusal it raises."""
    try:
        with np.errstate(all="ignore"):
            out = call(H)
    except CflViolation as exc:
        return str(exc)
    return out if isinstance(out, tuple) else (out,)


# At (x, y) = (-0.5, 0): H_p = -y = -0.0 and H_x = q = -0.0 there, so the
# sign of H_x's zero reaches the time curvature.
SIGNED_AXIS = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, -0.0, -0.0]])

CLOSURE_HS = {"transport": transport_hamiltonian(),
              "rotation": rotation_hamiltonian(),
              "shifted-quadratic": shifted_quadratic_hamiltonian()}
# the speed that fixes each hamiltonian's dt: transport's 1, the rotation's
# max(|x|, |y|) for |x|, |y| <= 2.5, the shifted quadratic's 2(1 + |p|) for
# |p| <= 8
CLOSURE_SPEEDS = {"transport": 1.0, "rotation": 2.5,
                  "shifted-quadratic": 2.0 * (1.0 + 8.0)}


class TestClosuresReturnTheirFormula:
    """Closures that return their formula (a float for a constant) give
    every solver call the bits that closures broadcast to their arguments'
    shape gave (``oracles.broadcasting_hamiltonian``)."""

    @settings(max_examples=150, deadline=None)
    @given(closure_fields(), st.sampled_from(sorted(CLOSURE_HS)))
    @example(GridField(Grid2D(-1.0, -1.0, 0.5, 0.5, 3, 3), SIGNED_AXIS, NEU),
             "rotation")
    def test_solver_calls_match_broadcast_closures(self, f, name):
        H = CLOSURE_HS[name]
        wide = broadcasting_hamiltonian(H, name)
        dt = 0.4 * min(f.grid.dx, f.grid.dy) / CLOSURE_SPEEDS[name]
        x, y = f.grid.meshes()
        llf = MonotoneKind.LOCAL_LAX_FRIEDRICHS
        calls = {
            "time_curvature": lambda H: time_curvature(f, H),
            "monotone_step": lambda H: monotone_step(f, llf, H, dt).values,
            "htilde_differences": lambda H: htilde_differences(
                llf, H, x, y, *one_sided_slopes(f)),
        }
        steps = {"lw2": lw2_step}
        if not H.space_dependent:
            steps["richtmyer"] = richtmyer_step
        for step_name, step in steps.items():
            for corrected in (False, True):
                calls[f"{step_name}-{corrected}"] = (
                    lambda H, step=step, corrected=corrected:
                    step(f, H, dt, corrected).values)
        for call_name, call in calls.items():
            got, want = outcome(call, H), outcome(call, wide)
            if isinstance(want, str):
                assert got == want, call_name
                continue
            assert len(got) == len(want), call_name
            for a, b in zip(got, want):
                assert same_bits_or_nan(a, b), call_name


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
