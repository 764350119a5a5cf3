import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.hamiltonians import (Hamiltonian, eikonal_hamiltonian,
                               rotation_hamiltonian,
                               shifted_quadratic_hamiltonian,
                               transport_hamiltonian)
from hjaf.monotone import (CflViolation, MonotoneKind, h_eikonal,
                           htilde_differences, monotone_hamiltonian,
                           monotone_step, one_sided_slopes)
from hjaf.problems import ALL_TEST_IDS, ProblemSpec, make_test

from oracles import (UNIT_ROUNDOFF, closed_form_slot_differences,
                     eight_call_bounds, scan_bounds, scan_max_abs,
                     swapped_slot_differences)

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO
EIK = MonotoneKind.EIKONAL
LLF = MonotoneKind.LOCAL_LAX_FRIEDRICHS


def grid(n=12, dx=0.1):
    return Grid2D(0.0, 0.0, dx, dx, n, n)


def scanned_hamiltonian():
    """H = sin p + q^2/2 + x q, non-affine in p and space-dependent, whose
    interval bounds are the sampled scan of the oracles."""
    H = Hamiltonian(
        eval=lambda x, y, p, q: np.sin(p) + 0.5 * q * q + x * q,
        dp=lambda x, y, p, q: np.cos(p) * np.ones(np.broadcast(x, y, p, q).shape),
        dq=lambda x, y, p, q: q + x * np.ones(np.broadcast(x, y, p, q).shape),
        dx_=lambda x, y, p, q: q * np.ones(np.broadcast(x, y, p, q).shape),
        dy_=lambda x, y, p, q: np.zeros(np.broadcast(x, y, p, q).shape))
    alpha_p, alpha_q = scan_bounds(H)
    return dataclasses.replace(H, alpha_p=alpha_p, alpha_q=alpha_q)


@st.composite
def grid_fields(draw):
    """Random field on a 3x3..12x12 grid centered on the origin, under
    either boundary rule, with a flat patch (zero slopes) where a random
    mask holds one constant."""
    ny, nx = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    dx, dy = (draw(st.floats(0.05, 2.0)) for _ in range(2))
    g = Grid2D(-0.5 * nx * dx, -0.5 * ny * dy, dx, dy, nx, ny)
    values = draw(arrays(np.float64, (ny, nx), elements=st.floats(-10, 10),
                         fill=st.nothing()))
    flat = draw(arrays(np.bool_, (ny, nx)))
    values = np.where(flat, draw(st.floats(-10, 10)), values)
    return GridField(g, values, draw(st.sampled_from([PER, NEU])))


def scheme_and_hamiltonian(kind: str):
    return {"transport": (LLF, transport_hamiltonian()),
            "quadratic": (LLF, shifted_quadratic_hamiltonian()),
            "rotation": (LLF, rotation_hamiltonian()),
            "scanned": (LLF, scanned_hamiltonian()),
            "eikonal": (EIK, eikonal_hamiltonian())}[kind]


class TestEikonalHamiltonian:
    def test_zero(self):
        assert h_eikonal(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_one_sided(self):
        assert h_eikonal(1.0, -1.0, 0.0, 0.0) == 1.0

    def test_rarefaction(self):
        assert h_eikonal(-1.0, 1.0, -1.0, 1.0) == 0.0

    def test_consistency_on_matched_slopes(self):
        rng = np.random.default_rng(20)
        p, q = rng.normal(size=50), rng.normal(size=50)
        got = h_eikonal(p, p, q, q)
        assert got == pytest.approx(np.sqrt(p * p + q * q), rel=1e-15)


class TestLlfHamiltonian:
    def test_linear_upwind(self):
        H = transport_hamiltonian()
        v, _ = monotone_hamiltonian(LLF, H, 0.0, 0.0, np.float64(1.0),
                                    np.float64(3.0), np.float64(0.0),
                                    np.float64(0.0))
        assert float(v) == pytest.approx(1.0)

    def test_consistency_on_matched_slopes(self):
        rng = np.random.default_rng(21)
        for H in (transport_hamiltonian(), shifted_quadratic_hamiltonian(),
                  rotation_hamiltonian()):
            x, y = rng.normal(size=20), rng.normal(size=20)
            p, q = rng.normal(size=20), rng.normal(size=20)
            got, _ = monotone_hamiltonian(LLF, H, x, y, p, p, q, q)
            assert got == pytest.approx(H.eval(x, y, p, q), rel=1e-13, abs=1e-14)

    def test_quadratic_hand_value(self):
        def bound(x, y, lo, hi, other):
            return np.maximum(np.abs(2 * lo), np.abs(2 * hi))

        H = Hamiltonian(
            eval=lambda x, y, p, q: p * p + q * q,
            dp=lambda x, y, p, q: 2 * p * np.ones(np.broadcast(x, y, p, q).shape),
            dq=lambda x, y, p, q: 2 * q * np.ones(np.broadcast(x, y, p, q).shape),
            alpha_p=bound, alpha_q=bound)
        v, _ = monotone_hamiltonian(LLF, H, 0.0, 0.0, np.float64(0.0),
                                    np.float64(2.0), np.float64(0.0),
                                    np.float64(0.0))
        # H(1, 0) - (4/2)*(2-0) = 1 - 4
        assert float(v) == pytest.approx(-3.0)

    def test_interval_bound_overrides_match_scan(self):
        # every registry problem stepped by LLF (every H but the eikonal
        # one): the closed-form interval bounds equal the sampled scan,
        # bitwise
        rng = np.random.default_rng(22)
        problems = [p for p in map(make_test, ALL_TEST_IDS)
                    if isinstance(p, ProblemSpec)
                    and not p.hamiltonian.is_eikonal]
        assert {p.id for p in problems} >= {"5", "6", "8"}
        for problem in problems:
            H = problem.hamiltonian
            x = rng.uniform(-2, 2, (9, 9))
            y = rng.uniform(-2, 2, (9, 9))
            lo = rng.normal(size=(9, 9))
            hi = lo + np.abs(rng.normal(size=(9, 9)))
            other = rng.normal(size=(9, 9))
            scan = scan_max_abs(H.dp, x, y, lo, hi, other, other_is_q=True)
            assert np.array_equal(np.broadcast_to(
                H.alpha_p(x, y, lo, hi, other), scan.shape), scan)
            scan_q = scan_max_abs(H.dq, x, y, lo, hi, other, other_is_q=False)
            assert np.array_equal(np.broadcast_to(
                H.alpha_q(x, y, lo, hi, other), scan_q.shape), scan_q)

    @pytest.mark.parametrize("missing", ["alpha_p", "alpha_q"])
    def test_missing_interval_bound_refused(self, missing):
        H = dataclasses.replace(transport_hamiltonian(), **{missing: None})
        f = GridField(grid(), np.zeros((12, 12)), NEU)
        with pytest.raises(ValueError, match=f"H.{missing}"):
            monotone_step(f, LLF, H, 0.02)


def eight_calls(H, x, y, slopes):
    """The slot differences by eight calls of H's LLF hamiltonian."""
    return swapped_slot_differences(
        lambda pm, pp, qm, qp: monotone_hamiltonian(LLF, H, x, y, pm, pp,
                                                    qm, qp)[0], *slopes)


def exact_llf_slot_difference(H, pm, pp, qc):
    """The p-slot difference of H's LLF hamiltonian by its eight calls in
    rational arithmetic, the centered slopes exact averages.  ``H`` takes
    (p, q) and ``alpha`` (a, b, q) on Fractions."""
    H_, alpha = H

    def h(a, b):
        # the frozen axis adds no dissipation: its slopes are both qc
        return H_((a + b) / 2, qc) - Fraction(1, 2) * alpha(a, b, qc) * (b - a)

    pc = (pm + pp) / 2
    return (h(pc, pp) - h(pc, pm)) - (h(pp, pc) - h(pm, pc))


# test 8's shifted quadratic and its speed bound, on Fractions
EXACT_QUADRATIC = (lambda p, q: (p + 1) ** 2 + (q + 1) ** 2,
                   lambda a, b, q: max(abs(2 * (a + 1)), abs(2 * (b + 1))))


class TestSlotDifferences:
    @settings(max_examples=200, deadline=None)
    @given(grid_fields(), st.sampled_from(["transport", "quadratic", "rotation",
                                           "scanned"]))
    def test_llf_matches_closed_form_oracle(self, f, kind):
        scheme, H = scheme_and_hamiltonian(kind)
        x, y = f.grid.meshes()
        slopes = one_sided_slopes(f)
        got = htilde_differences(scheme, H, x, y, *slopes)
        want = closed_form_slot_differences(H, x, y, *slopes)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=100, deadline=None)
    @given(grid_fields())
    def test_eikonal_matches_eight_calls(self, f):
        scheme, H = scheme_and_hamiltonian("eikonal")
        x, y = f.grid.meshes()
        slopes = one_sided_slopes(f)
        got = htilde_differences(scheme, H, x, y, *slopes)
        want = swapped_slot_differences(h_eikonal, *slopes)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(grid_fields(), st.sampled_from(["transport", "quadratic", "rotation",
                                           "scanned"]))
    def test_closed_form_matches_eight_calls(self, f, kind):
        # the eight calls round values of H that cancel; they stay within
        # the bound their arithmetic and the closed form's give
        scheme, H = scheme_and_hamiltonian(kind)
        x, y = f.grid.meshes()
        slopes = one_sided_slopes(f)
        got = htilde_differences(scheme, H, x, y, *slopes)
        want = eight_calls(H, x, y, slopes)
        for g, w, bound in zip(got, want, eight_call_bounds(H, x, y, *slopes)):
            assert np.all(np.abs(g - w) <= bound)

    def test_closed_form_exact_where_eight_calls_cancel(self):
        # |p| ~ 1e3 on test 8's H, forward and backward slopes 1e-7 apart:
        # H ~ 1e6 and the slot difference ~ 2e-4.  The closed form rounds
        # pp - pm, the two bounds (2 u: c and c + 1; c + 1 > c > 0 here),
        # their sum and the product: within 5 u of the exact value to
        # first order, 6 u with the second-order terms.  The eight calls
        # round values of H against it.
        H = shifted_quadratic_hamiltonian()
        rng = np.random.default_rng(26)
        pm = rng.uniform(1e3, 2e3, 20)
        pp = pm + rng.uniform(0.5e-7, 1.5e-7, 20)
        q = rng.normal(size=20)
        x = y = np.zeros(20)
        closed = htilde_differences(LLF, H, x, y, pm, pp, q, q)[0]
        calls = eight_calls(H, x, y, (pm, pp, q, q))[0]
        worst_calls = 0.0
        for k in range(20):
            Pm, Pp = Fraction(pm[k]), Fraction(pp[k])
            exact = exact_llf_slot_difference(EXACT_QUADRATIC, Pm, Pp,
                                              Fraction(q[k]))
            pc = (Pm + Pp) / 2
            alpha = EXACT_QUADRATIC[1]
            assert exact == -(Pp - Pm) * (alpha(pc, Pp, 0) + alpha(pc, Pm, 0)) / 2
            assert (abs(Fraction(closed[k]) - exact)
                    <= 6 * Fraction(UNIT_ROUNDOFF) * abs(exact))
            worst_calls = max(worst_calls,
                              float(abs(Fraction(calls[k]) - exact) / abs(exact)))
        assert worst_calls > 1e-6


# the hamiltonian of every registry problem with interval bounds, by id
BOUNDED = {p.id: p.hamiltonian for p in map(make_test, ALL_TEST_IDS)
           if isinstance(p, ProblemSpec) and p.hamiltonian.alpha_p is not None}

# every double, both zeros and NaN among them, drawn often
ENDPOINTS = st.floats() | st.sampled_from([0.0, -0.0, np.nan, -np.nan])


class TestSpeedBoundSymmetry:
    """alpha(x, y, a, b, other) is the maximum over the interval between a
    and b, so it may not depend on which endpoint comes first: the LLF
    kernels pass their slopes unordered."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(BOUNDED)), st.sampled_from(["alpha_p", "alpha_q"]),
           *(arrays(np.float64, 8, elements=ENDPOINTS) for _ in range(2)),
           *(arrays(np.float64, 8, elements=st.floats(-5, 5)) for _ in range(3)))
    def test_registry_bounds_are_bitwise_symmetric(self, tid, slot, a, b,
                                                   x, y, other):
        bound = getattr(BOUNDED[tid], slot)
        shape = np.broadcast(x, y, a, b, other).shape
        with np.errstate(invalid="ignore", over="ignore"):
            ab = np.array(np.broadcast_to(bound(x, y, a, b, other), shape))
            ba = np.array(np.broadcast_to(bound(x, y, b, a, other), shape))
        # Bitwise, except that where both endpoints are NaN the result need
        # only be NaN: which of two NaN payloads an IEEE operation passes on
        # is left open by the standard.
        both_nan = np.broadcast_to(np.isnan(a) & np.isnan(b), ab.shape)
        assert np.array_equal(np.isnan(ab), np.isnan(ba))
        assert np.array_equal(ab.view(np.uint64)[~both_nan],
                              ba.view(np.uint64)[~both_nan])


class TestMonotoneStep:
    def test_constant_fixed_point(self):
        g = grid()
        for scheme, H in ((EIK, eikonal_hamiltonian()), (LLF, transport_hamiltonian())):
            f = GridField(g, np.full((12, 12), 4.0), NEU)
            out = monotone_step(f, scheme, H, 0.02)
            assert np.array_equal(out.values, f.values)

    def test_linear_transport_exact_interior(self):
        g = grid(n=20)
        X, Y = g.meshes()
        f = GridField(g, X + Y, NEU)
        dt = 0.2 * g.dx
        out = monotone_step(f, LLF, transport_hamiltonian(), dt)
        interior = np.s_[1:-1, 1:-1]
        assert out.values[interior] == pytest.approx((X + Y - 2 * dt)[interior],
                                                     abs=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(grid_fields(), st.sampled_from(["transport", "quadratic", "rotation",
                                           "eikonal"]),
           st.data())
    def test_monotonicity_randomized(self, f, kind, data):
        # u <= v implies S_M(u) <= S_M(v), with dt inside the realized
        # speeds of both.  The LLF coefficient of the shifted quadratic
        # grows with the slopes: at a sonic rarefaction its step is
        # monotone only while lam_x*ax + lam_y*ay <= 1/2, so that H draws
        # dt under the sum; slope-independent bounds use the max.
        scheme, H = scheme_and_hamiltonian(kind)
        g, u = f.grid, f.values
        bump = data.draw(arrays(np.float64, u.shape,
                                elements=st.floats(0.0, 5.0), fill=st.nothing()))
        v = GridField(g, u + bump, f.bc)
        x, y = g.meshes()
        speeds = [monotone_hamiltonian(scheme, H, x, y, *one_sided_slopes(w))[1]
                  for w in (f, v)]
        rates = [max(float(np.max(s[k])) for s in speeds) / d
                 for k, d in ((0, g.dx), (1, g.dy))]
        limit = 0.5 / (sum(rates) if kind == "quadratic" else max(rates))
        dt = data.draw(st.floats(0.01, 1.0)) * limit
        su = monotone_step(f, scheme, H, dt).values
        sv = monotone_step(v, scheme, H, dt).values
        scale = 1.0 + np.abs(u).max() + np.abs(v.values).max() + (
            np.abs(su - u).max() + np.abs(sv - v.values).max())
        assert (su <= sv + 64 * np.finfo(np.float64).eps * scale).all()

    def test_translation_invariance(self):
        rng = np.random.default_rng(24)
        g = grid()
        u = rng.normal(size=(12, 12))
        f = GridField(g, u, PER)
        fc = GridField(g, u + 5.0, PER)
        dt = 0.2 * g.dx
        for scheme, H in ((EIK, eikonal_hamiltonian()), (LLF, transport_hamiltonian())):
            a = monotone_step(f, scheme, H, dt)
            b = monotone_step(fc, scheme, H, dt)
            assert b.values == pytest.approx(a.values + 5.0, rel=1e-14)

    def test_first_order_consistency(self):
        # one-step error against the exact translation at fixed ratio
        H = transport_hamiltonian()

        def one_step_error(n):
            g = Grid2D(-2.0, -2.0, 4.0 / n, 4.0 / n, n + 1, n + 1)
            X, Y = g.meshes()
            v0 = np.maximum(0.0, 1.0 - X ** 2 - Y ** 2) ** 5
            dt = 0.3 * g.dx
            out = monotone_step(GridField(g, v0, NEU), LLF, H, dt)
            exact = np.maximum(0.0, 1.0 - (X - dt) ** 2 - (Y - dt) ** 2) ** 5
            return np.abs(out.values - exact).max() / dt

        ratios = [one_step_error(40) / one_step_error(80),
                  one_step_error(80) / one_step_error(160)]
        for r in ratios:
            assert 1.7 <= r <= 2.3

    def test_realized_speed_violation_refuses(self):
        # the data's slopes of 3 need LLF coefficients 2*(3 + 1) = 8, so
        # lam = 0.2 gives lam*8 = 1.6
        g = grid()
        X, Y = g.meshes()
        f = GridField(g, 3.0 * (X + Y), NEU)
        H = shifted_quadratic_hamiltonian()
        with pytest.raises(CflViolation, match=r"node \(i, j\) = \(\d+, \d+\)"):
            monotone_step(f, LLF, H, 0.02)
        monotone_step(f, LLF, H, 0.005)  # lam*8 = 0.4 passes

    def test_per_node_speed_names_its_worst_node(self):
        # the shifted quadratic's speeds differ from node to node: the
        # refusal names the node where the worse axis's speed peaks (the
        # first one, as two nodes share each slope's bound)
        g = grid()
        rng = np.random.default_rng(26)
        f = GridField(g, rng.normal(size=(12, 12)), NEU)
        H = shifted_quadratic_hamiltonian()
        x, y = g.meshes()
        _, (ax, ay) = monotone_hamiltonian(LLF, H, x, y, *one_sided_slopes(f))
        axis, speed = ("x", ax) if ax.max() >= ay.max() else ("y", ay)
        i, j = np.unravel_index(np.argmax(speed), g.shape)
        assert (i, j) != (0, 0)        # not the tie-breaking corner
        with pytest.raises(CflViolation, match=rf"on axis {axis} at node "
                           rf"\(i, j\) = \({i}, {j}\),"):
            monotone_step(f, LLF, H, 0.02)

    def test_cfl_violation_refuses(self):
        g = grid()
        f = GridField(g, np.zeros((12, 12)), NEU)
        with pytest.raises(CflViolation):
            monotone_step(f, LLF, transport_hamiltonian(), 0.6 * g.dx)

    @pytest.mark.parametrize("slot", ["alpha_p", "alpha_q"])
    def test_nan_speed_refuses(self, slot):
        # max(lam_x*ax, nan) is lam_x*ax and nan > limit is false, so a
        # guard that tests for excess lets a NaN speed through
        def alpha(x, y, a, b, other):
            out = np.ones(np.broadcast(x, y, a, b, other).shape)
            out[3, 4] = np.nan
            return out

        H = dataclasses.replace(transport_hamiltonian(), **{slot: alpha})
        f = GridField(grid(), np.zeros((12, 12)), NEU)
        axis = {"alpha_p": "x", "alpha_q": "y"}[slot]
        with pytest.raises(CflViolation, match=rf"on axis {axis} at node "
                           r"\(i, j\) = \(3, 4\),"
                           r".*max\(lam\*speed\) = nan > 0.5"):
            monotone_step(f, LLF, H, 0.02)

    @pytest.mark.parametrize("scheme, H", [(LLF, transport_hamiltonian()),
                                           (EIK, eikonal_hamiltonian())],
                             ids=["llf", "eikonal"])
    def test_nan_dt_refuses(self, scheme, H):
        f = GridField(grid(), np.zeros((12, 12)), NEU)
        with pytest.raises(CflViolation, match=r"max\(lam\*speed\) = nan"):
            monotone_step(f, scheme, H, np.nan)

    @pytest.mark.parametrize("dx, dy", [(0.1, 0.2), (0.2, 0.1)])
    def test_eikonal_speeds_are_one(self, dx, dy):
        # each slot weight of the upwind form is at most 1: the finer axis
        # binds at lam = 1/2, whatever the data; the refusal names that
        # axis and prints enough digits to read above the limit
        g = Grid2D(0.0, 0.0, dx, dy, 12, 12)
        rng = np.random.default_rng(25)
        f = GridField(g, rng.normal(size=(12, 12)), NEU)
        dt = 0.5 * min(dx, dy)
        monotone_step(f, EIK, eikonal_hamiltonian(), dt)
        finer = "x" if dx < dy else "y"
        with pytest.raises(CflViolation, match=rf"on axis {finer}, whose "
                           r"speed is the same at every node: "
                           r"max\(lam\*speed\) = \S+ > 0.5$") as err:
            monotone_step(f, EIK, eikonal_hamiltonian(), dt * (1 + 1e-9))
        printed = str(err.value).split(" = ")[-1].split(" > ")[0]
        assert float(printed) > 0.5

    def test_eikonal_scheme_requires_eikonal_h(self):
        g = grid()
        f = GridField(g, np.zeros((12, 12)), NEU)
        with pytest.raises(ValueError):
            monotone_step(f, EIK, transport_hamiltonian(), 0.01)


class TestMakeHamiltonian:
    def test_space_dependent_needs_space_derivatives(self):
        # one of dx_, dy_ without the other is refused
        closures = {name: (lambda x, y, p, q: x * p)
                    for name in ("dp", "dq", "dx_", "dy_")}
        for missing in ("dx_", "dy_"):
            kwargs = {k: v for k, v in closures.items() if k != missing}
            with pytest.raises(ValueError, match="dx_ and dy_"):
                Hamiltonian(eval=lambda x, y, p, q: x * p, **kwargs)

    def test_space_dependence_is_read_from_the_closures(self):
        # among the registry hamiltonians only the rotation depends on (x, y)
        problems = [p for p in map(make_test, ALL_TEST_IDS)
                    if isinstance(p, ProblemSpec)]
        dependent = {p.id for p in problems if p.hamiltonian.space_dependent}
        assert dependent == {"6"}
        for p in problems:
            H = p.hamiltonian
            assert H.space_dependent == (H.dx_ is not None) == (H.dy_ is not None)
        assert scanned_hamiltonian().space_dependent

    def test_space_independent_derivatives_are_exact_zeros(self):
        # an H that leaves dx_, dy_ out has H_x = H_y = +0.0 at every node
        from hjaf.highorder import _centered_derivatives
        f = GridField(grid(), np.arange(144.0).reshape(12, 12), NEU)
        for H in (transport_hamiltonian(), eikonal_hamiltonian(),
                  shifted_quadratic_hamiltonian()):
            assert H.dx_ is None and H.dy_ is None
            hx, hy = _centered_derivatives(f, H)[2:]
            for zero in (hx, hy):
                assert zero == 0.0 and np.copysign(1.0, zero) == 1.0

    def test_constant_factor_closures_match_allocating_forms(self):
        # the closures return their formula; broadcast to the arguments'
        # shape, values and signs of zeros equal the forms that multiplied
        # by a fresh np.ones
        def ones(*args):
            return np.ones(np.broadcast(*args).shape)

        def same(got, want):
            got = np.broadcast_to(got, want.shape)
            assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(want))

        p = np.array([[-1.0, -0.0, 0.0, np.nan], [2.5, -3.0, 1e300, -1.0]])
        q = p[::-1, ::-1].copy()
        x, y = np.meshgrid(np.linspace(0, 1, 4), np.linspace(0, 1, 2))
        Hs = shifted_quadratic_hamiltonian()
        Ht = transport_hamiltonian()
        for args in ((x, y, p, q), (0.3, 0.4, p, q), (x, y, 0.5, -1.0),
                     (x, y, p[0], q[0])):
            same(Hs.dp(*args), 2.0 * (args[2] + 1.0) * ones(*args))
            same(Hs.dq(*args), 2.0 * (args[3] + 1.0) * ones(*args))
            same(Ht.dp(*args), ones(*args))
            same(Ht.dq(*args), ones(*args))
        for lo, hi in ((p, q), (p[0], q), (0.5, 1.0)):
            same(Ht.alpha_p(x, y, lo, hi, q), ones(lo, hi))
            same(Ht.alpha_q(x, y, lo, hi, p), ones(lo, hi))


class TestStepGuard:
    """The step restriction, checked on the speeds the step used."""

    def test_transport_pass(self):
        f = GridField(grid(dx=0.1), np.zeros((12, 12)), NEU)
        monotone_step(f, LLF, transport_hamiltonian(), 0.02)   # lam 0.2

    def test_fail_above_half(self):
        # transport's speed is the scalar 1 on both axes: every node ties,
        # so the refusal names the axis and no node
        rng = np.random.default_rng(27)
        f = GridField(grid(dx=0.1), rng.normal(size=(12, 12)), NEU)
        with pytest.raises(CflViolation) as err:
            monotone_step(f, LLF, transport_hamiltonian(), 0.06)
        assert str(err.value) == (
            "realized speeds violate the stability bound on axis x, whose "
            "speed is the same at every node: max(lam*speed) = 0.6 > 0.5")

    def test_rotation_case(self):
        # dt/dx = pi/16 with max|y| = 2.5 on the grid sits just under the
        # limit
        g = Grid2D(-2.5, -2.5, 0.25, 0.25, 21, 21)
        X, Y = g.meshes()
        f = GridField(g, X * X + Y * Y, NEU)
        monotone_step(f, LLF, rotation_hamiltonian(), (np.pi / 16) * 0.25)
