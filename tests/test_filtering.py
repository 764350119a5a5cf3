import dataclasses
import math
import re
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hjaf
import hjaf.filtering as filtering
from hjaf.filtering import (EPS_FLOOR, SCHEME_NAMES, EvolutionError,
                            SolverConfig, af_evolve, af_step, epsilon_n)
from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.hamiltonians import (eikonal_hamiltonian, rotation_hamiltonian,
                               shifted_quadratic_hamiltonian,
                               transport_hamiltonian)
from hjaf.harness import CliConfig, solver_config
from hjaf.highorder import SCHEME_ORDERS, hc_step, high_order_step
from hjaf.indicators2d import Formula2D, Indicator2DConfig, smoothness_2d
from hjaf.monotone import (CflViolation, MonotoneKind, monotone_hamiltonian,
                           monotone_step, require_runnable)
from hjaf.problems import PROBLEM_IDS, make_test

from oracles import filter_F, scalar_switching_integrand, scan_bounds

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO
LLF = MonotoneKind.LOCAL_LAX_FRIEDRICHS


class TestFilterFunction:
    def test_identity_inside(self):
        assert filter_F(0.3) == 0.3

    def test_boundary_inclusive(self):
        assert filter_F(-1.0) == -1.0
        assert filter_F(1.0) == 1.0

    def test_zero_outside(self):
        assert filter_F(1.5) == 0.0
        assert filter_F(-7.0) == 0.0

    def test_array_and_bound(self):
        rho = np.linspace(-3, 3, 101)
        out = filter_F(rho)
        assert (np.abs(out) <= 1.0).all()
        assert filter_F(0.0) == 0.0


class TestSwitchingScale:
    def test_constant_field_zero(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        f = GridField(g, np.full((10, 10), 3.0), NEU)
        mask = np.ones((10, 10), dtype=bool)
        eps = epsilon_n(f, transport_hamiltonian(), LLF, 0.02, mask)
        assert eps == 0.0

    def test_empty_region_zero(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        f = GridField(g, np.arange(100.0).reshape(10, 10), PER)
        eps = epsilon_n(f, transport_hamiltonian(), LLF, 0.02,
                        np.zeros((10, 10), dtype=bool))
        assert eps == 0.0

    def test_matches_independent_scalar_transcription(self):
        # parabola data on the transport hamiltonian with the local
        # Lax-Friedrichs monotone scheme, checked node by node
        g = Grid2D(-1.0, -1.0, 0.1, 0.1, 15, 15)
        X, Y = g.meshes()
        f = GridField(g, 0.5 * X ** 2, NEU)
        H = transport_hamiltonian()
        dt = 0.02
        K = 1.0
        mask = np.ones((15, 15), dtype=bool)
        got = epsilon_n(f, H, LLF, dt, mask, K)

        def h_mono(x, y, pm, pp, qm, qp):
            return float(monotone_hamiltonian(
                LLF, H, x, y, np.float64(pm), np.float64(pp),
                np.float64(qm), np.float64(qp))[0])

        expected = max(scalar_switching_integrand(f, H, h_mono, dt, K, i, j)
                       for i in range(15) for j in range(15))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_random_fields_match_scalar_oracle(self):
        rng = np.random.default_rng(31)
        g = Grid2D(0.0, 0.0, 0.2, 0.15, 8, 8)
        H = transport_hamiltonian()
        for _ in range(5):
            f = GridField(g, rng.normal(size=(8, 8)), PER)
            mask = rng.uniform(size=(8, 8)) > 0.4
            if not mask.any():
                continue
            got = epsilon_n(f, H, LLF, 0.01, mask, 1.3)

            def h_mono(x, y, pm, pp, qm, qp):
                return float(monotone_hamiltonian(
                    LLF, H, x, y, np.float64(pm), np.float64(pp),
                    np.float64(qm), np.float64(qp))[0])

            vals = [scalar_switching_integrand(f, H, h_mono, 0.01, 1.3, i, j)
                    for i in range(8) for j in range(8) if mask[i, j]]
            assert got == pytest.approx(max(vals), rel=1e-12)

    @pytest.mark.parametrize("closed_form", [True, False])
    def test_llf_evaluation_count(self, closed_form):
        # one switching-scale evaluation: four speed bounds and no
        # evaluation of H (its values cancel from the slot differences),
        # whether the bounds are closed forms or the scan
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        H = transport_hamiltonian()
        alpha_p, alpha_q = (H.alpha_p, H.alpha_q) if closed_form else scan_bounds(H)
        H = dataclasses.replace(H, eval=counted("eval", H.eval),
                                alpha_p=counted("bound", alpha_p),
                                alpha_q=counted("bound", alpha_q))
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        f = GridField(g, np.random.default_rng(36).normal(size=(10, 10)), PER)
        epsilon_n(f, H, LLF, 0.02, np.ones((10, 10), dtype=bool))
        assert calls == {"bound": 4}

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(32)
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        u = rng.normal(size=(10, 10))
        mask = np.ones((10, 10), dtype=bool)
        H = transport_hamiltonian()
        a = epsilon_n(GridField(g, u, PER), H, LLF, 0.02, mask)
        b = epsilon_n(GridField(g, u + 9.0, PER), H, LLF, 0.02, mask)
        assert b == pytest.approx(a, rel=1e-10)


class TestBlendedStep:
    def _setup(self, seed=33):
        rng = np.random.default_rng(seed)
        g = Grid2D(0, 0, 0.1, 0.1, 12, 12)
        f = GridField(g, rng.normal(size=(12, 12)), PER)
        return f, transport_hamiltonian(), 0.02

    def test_all_untrusted_is_monotone_bitwise(self):
        f, H, dt = self._setup()
        phi = np.zeros((12, 12), dtype=bool)
        out = af_step(f, LLF, hc_step, H, dt, phi, eps=10.0)
        ref = monotone_step(f, LLF, H, dt)
        assert np.array_equal(out.values, ref.values)

    def test_identical_schemes_give_monotone_bitwise(self):
        f, H, dt = self._setup()
        phi = np.ones((12, 12), dtype=bool)

        def fake_high(fld, Hh, dtt):
            return monotone_step(fld, LLF, Hh, dtt)

        out = af_step(f, LLF, fake_high, H, dt, phi, eps=1.0)
        ref = monotone_step(f, LLF, H, dt)
        assert np.array_equal(out.values, ref.values)

    def test_huge_eps_gives_high_order_bitwise(self):
        f, H, dt = self._setup()
        phi = np.ones((12, 12), dtype=bool)
        out = af_step(f, LLF, hc_step, H, dt, phi, eps=1e12)
        ref = hc_step(f, H, dt)
        assert np.array_equal(out.values, ref.values)

    def test_zero_eps_gives_monotone_bitwise(self):
        f, H, dt = self._setup()
        phi = np.ones((12, 12), dtype=bool)
        out = af_step(f, LLF, hc_step, H, dt, phi, eps=0.0)
        ref = monotone_step(f, LLF, H, dt)
        assert np.array_equal(out.values, ref.values)

    def test_sandwich_bound(self):
        f, H, dt = self._setup(seed=34)
        phi = np.ones((12, 12), dtype=bool)
        for eps in (1e-4, 1e-2, 1.0):
            out = af_step(f, LLF, hc_step, H, dt, phi, eps=eps)
            ref = monotone_step(f, LLF, H, dt)
            assert (np.abs(out.values - ref.values) <= eps * dt + 1e-15).all()

    def test_every_node_is_one_of_the_two_schemes(self):
        f, H, dt = self._setup(seed=35)
        phi = np.ones((12, 12), dtype=bool)
        eps = 0.05
        out = af_step(f, LLF, hc_step, H, dt, phi, eps=eps)
        um = monotone_step(f, LLF, H, dt).values
        ua = hc_step(f, H, dt).values
        matches = (out.values == um) | (out.values == ua)
        assert matches.all()


@st.composite
def blend_cases(draw, constant=False):
    """(field, monotone scheme, high-order step, H, dt, trust mask, eps) on
    a random 3x3..12x12 grid under either boundary rule.  Every H has
    H(., ., 0, 0) = 0 and dt keeps the monotone step restriction.  eps lies
    near EPS_FLOOR, on either side, or is a multiple of the largest
    |S_A - S_M| / dt, so that both branches of the filter occur."""
    ny, nx = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    dx, dy = (draw(st.floats(0.05, 2.0)) for _ in range(2))
    bc = draw(st.sampled_from([PER, NEU]))
    g = Grid2D(-0.5 * nx * dx, -0.5 * ny * dy, dx, dy, nx, ny)
    kind = draw(st.sampled_from(["transport", "eikonal", "rotation"]))
    # speed: a bound on max|H_p|, max|H_q| over the grid
    if kind == "transport":
        H, scheme, speed = transport_hamiltonian(), LLF, 1.0
    elif kind == "eikonal":
        H, scheme, speed = eikonal_hamiltonian(), MonotoneKind.EIKONAL, 1.0
    else:
        H, scheme, speed = rotation_hamiltonian(), LLF, max(nx * dx, ny * dy)
    name = draw(st.sampled_from(sorted(SCHEME_ORDERS)))
    assume(not (name == "richtmyer" and H.space_dependent))
    dt = draw(st.floats(0.05, 0.5)) * min(dx / speed, dy / speed)
    if constant:
        values = np.full((ny, nx), draw(st.floats(-1e3, 1e3)))
    else:
        values = draw(arrays(np.float64, (ny, nx), elements=st.floats(-10, 10),
                             fill=st.nothing()))
    mask = draw(arrays(np.bool_, (ny, nx)))
    f, highorder = GridField(g, values, bc), high_order_step(name)
    if draw(st.booleans()):
        eps = draw(st.floats(0.0, 2 * EPS_FLOOR))
    else:
        gap = np.abs(highorder(f, H, dt).values - monotone_step(f, scheme, H, dt).values)
        eps = draw(st.floats(0.0, 1.5)) * float(gap.max()) / dt
    return f, scheme, highorder, H, dt, mask, eps


def _subnormal_corner_case():
    """Transport and hc on a 3x3 Neumann grid that is zero but for one
    subnormal corner value: the high-order update is subnormal where the
    monotone one is 0, and the blend formula loses digits there."""
    g = Grid2D(-1.5, -1.5, 1.0, 1.0, 3, 3)
    values = np.zeros((3, 3))
    values[0, 0] = 1e-309
    return (GridField(g, values, NEU), LLF, hc_step, transport_hamiltonian(),
            0.5, np.ones((3, 3), dtype=bool), 3.5)


class TestBlendedStepProperties:
    @settings(max_examples=150, deadline=None)
    @given(blend_cases())
    @example(_subnormal_corner_case())
    def test_selection_sandwich_and_blend_formula(self, case):
        f, scheme, highorder, H, dt, mask, eps = case
        out = af_step(f, scheme, highorder, H, dt, mask, eps).values
        u_m = monotone_step(f, scheme, H, dt).values
        u_a = highorder(f, H, dt).values
        # sandwich around the monotone update
        assert (np.abs(out - u_m) <= eps * dt).all()
        if eps <= EPS_FLOOR:
            assert np.array_equal(out, u_m)
            return
        # selection: bitwise one of the two schemes
        take = mask & (np.abs(u_a - u_m) <= eps * dt)
        assert np.array_equal(out, np.where(take, u_a, u_m))
        # the filtered blend formula, to rounding; nodes whose filter
        # argument lies within rounding of the cutoff may go either way.
        # Each operation rounds with a relative error of at most machine
        # epsilon or, when its result is subnormal, an absolute error of
        # at most tiny/2 (tiny: the smallest subnormal).  A difference or
        # sum that underflows is exact; the quotient's tiny/2 is
        # multiplied by scale in the product, which adds its own tiny/2.
        # So (scale + 1) * tiny covers the absolute part.
        scale = eps * dt
        rho = (u_a - u_m) / scale
        blend = u_m + mask * scale * filter_F(rho)
        tiny = np.finfo(np.float64).smallest_subnormal
        tol = (4.0 * np.finfo(np.float64).eps * (np.abs(u_a) + np.abs(u_m))
               + (scale + 1.0) * tiny)
        edge = np.abs(np.abs(rho) - 1.0) <= 1e-12
        assert (np.abs(out - blend) <= tol)[~edge].all()

    @settings(max_examples=100, deadline=None)
    @given(blend_cases(constant=True))
    def test_constants_are_fixed_points(self, case):
        f, scheme, highorder, H, dt, mask, eps = case
        out = af_step(f, scheme, highorder, H, dt, mask, eps)
        assert np.array_equal(out.values, f.values)


class TestEvolve:
    def _config(self, **kw):
        return SolverConfig(hamiltonian=transport_hamiltonian(), **kw)

    def test_rejects_nonpositive_time(self):
        prob = make_test("5")
        with pytest.raises(ValueError):
            af_evolve(prob.initial_field(0), self._config(), 0.0, 10)

    @pytest.mark.parametrize("T", [np.nan, np.inf])
    @pytest.mark.parametrize("scheme", ["rkc4", "af-rkc4", "monotone"])
    def test_rejects_nonfinite_time_before_stepping(self, monkeypatch, T,
                                                     scheme):
        # NaN and inf used to reach step 1, which failed with a non-finite
        # value or a CflViolation on a NaN step restriction
        import hjaf.filtering as filtering
        prob = make_test("8")
        cfg = SolverConfig(hamiltonian=prob.hamiltonian, scheme=scheme)
        # a step that ran would call None
        monkeypatch.setattr(filtering, "_adaptive_step", None)
        monkeypatch.setattr(filtering, "monotone_step", None)
        monkeypatch.setattr(filtering, "high_order_step", lambda *a: None)
        with pytest.raises(ValueError,
                           match=f"^final time must be finite and positive, "
                                 f"got {T}$"):
            af_evolve(prob.initial_field(0), cfg, T, 10)

    def test_one_step_equals_af_step(self):
        prob = make_test("5")
        u0 = prob.initial_field(0)
        dt = 0.01
        cfg = SolverConfig(hamiltonian=prob.hamiltonian)
        u1, records = af_evolve(u0, cfg, dt, 1)
        sm = smoothness_2d(u0, Indicator2DConfig())
        eps = epsilon_n(u0, prob.hamiltonian, LLF, dt, sm.phi == 1, 1.0)
        ref = af_step(u0, LLF, hc_step, prob.hamiltonian, dt,
                      sm.phi == 1, eps)
        assert np.array_equal(u1.values, ref.values)
        assert len(records) == 1
        assert records[0].epsilon_n == eps

    @pytest.mark.parametrize("test_id", ["5", "7b", "8"])
    def test_monotone_scheme_is_the_monotone_step(self, test_id):
        # the blend at eps = 0: n monotone steps, bit for bit, with no
        # switching scale and no untrusted node in any row
        prob = make_test(test_id)
        cfg = SolverConfig(hamiltonian=prob.hamiltonian, scheme="monotone")
        n = prob.n_steps(0)
        dt = prob.T_final / n
        u = prob.initial_field(0)
        out, records = af_evolve(u, cfg, prob.T_final, n)
        for _ in range(n):
            u = monotone_step(u, cfg.monotone, prob.hamiltonian, dt)
        assert np.array_equal(out.values, u.values)
        assert [r.step for r in records] == list(range(1, n + 1))
        assert all(r.epsilon_n == 0.0 and r.phi_zero_count == 0
                   for r in records)

    def test_cfl_rejected_before_stepping(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        f = GridField(g, np.zeros((10, 10)), NEU)
        # every mode with a monotone step refuses at step 1, before u moves
        for kw in ({}, {"scheme": "monotone"},
                   {"scheme": "f-hc-fixed", "epsilon_fixed": 1.0}):
            with pytest.raises(CflViolation, match=r"^step 1 \(t = 0.5\): "
                               r".* on axis x, whose speed is the same at "
                               r"every node: max\(lam\*speed\) = 5 > 0.5$"):
                af_evolve(f, self._config(**kw), 1.0, 2)  # dt/dx = 5

    @pytest.mark.parametrize("scheme", ["monotone", "af-hc"],
                             ids=["monotone", "af"])
    def test_realized_speed_violation_names_step(self, scheme):
        # at lam = 0.2 the data's LLF coefficients 2*(3 + 1) break the bound
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        X, Y = g.meshes()
        f = GridField(g, 3.0 * (X + Y), NEU)
        cfg = SolverConfig(hamiltonian=shifted_quadratic_hamiltonian(),
                           scheme=scheme)
        with pytest.raises(CflViolation, match=r"^step 1 \(t = 0.02\): .*node"):
            af_evolve(f, cfg, 0.04, 2)

    @pytest.mark.parametrize("slot", ["alpha_p", "alpha_q"])
    def test_nan_speed_names_step(self, slot):
        def alpha(x, y, a, b, other):
            out = np.ones(np.broadcast(x, y, a, b, other).shape)
            out[3, 4] = np.nan
            return out

        H = dataclasses.replace(transport_hamiltonian(), **{slot: alpha})
        f = GridField(Grid2D(0, 0, 0.1, 0.1, 10, 10), np.zeros((10, 10)), NEU)
        cfg = SolverConfig(hamiltonian=H, scheme="monotone")
        with pytest.raises(CflViolation, match=r"^step 1 \(t = 0.02\): .*"
                           r"node \(i, j\) = \(3, 4\),.* = nan > 0.5"):
            af_evolve(f, cfg, 0.04, 2)

    def test_nonfinite_aborts_with_step_number(self):
        # the bare fourth-order scheme on a kinked profile blows up
        g = Grid2D(-1, -1, 0.05, 0.05, 41, 41)
        X, Y = g.meshes()
        f = GridField(g, np.abs(X) + np.abs(Y), NEU)
        cfg = self._config(scheme="rkc4")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(EvolutionError, match="step"):
                af_evolve(f, cfg, 50.0, 500)

    def test_switching_scale_drops_after_kink_forms(self):
        # convex-hamiltonian run up to kink formation: the scale grows
        # while the profile steepens, then collapses once the steep nodes
        # are excluded from the trusted region
        prob = make_test("8")
        cfg = SolverConfig(hamiltonian=prob.hamiltonian, scheme="af-rkc4")
        _, records = af_evolve(prob.initial_field(1), cfg, prob.T_final,
                               prob.n_steps(1))
        eps = np.array([r.epsilon_n for r in records])
        flagged = np.array([r.phi_zero_count for r in records])
        quarter = len(eps) // 4
        assert (flagged[:quarter] == 0).all()       # smooth at first
        assert flagged[-quarter:].mean() > 50       # kink detected later
        assert eps.argmax() < len(eps) - quarter    # peak before the end
        assert eps[-1] < 0.5 * eps.max()            # and then it drops

    def test_fixed_mode_needs_eps(self):
        with pytest.raises(ValueError):
            self._config(scheme="f-hc-fixed")

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf")])
    def test_fixed_mode_rejects_nonpositive_or_nonfinite_eps(self, eps):
        # af_step would fall back to the monotone update without a word
        with pytest.raises(ValueError, match="finite and positive"):
            self._config(scheme="f-hc-fixed", epsilon_fixed=eps)

    def test_k_must_exceed_half(self):
        # an infinite K would make eps infinite or NaN
        for K in (0.5, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and > 1/2"):
                self._config(K=K)


# Every value each option's config accepts, extremes and subnormals
# included: sigma in (0, inf), M in (0, 1/2), K in (1/2, inf), and
# epsilon_fixed > 0.
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
THRESHOLDS = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
SAFETY_FACTORS = st.floats(min_value=0.5, exclude_min=True,
                           allow_infinity=False)
TINY, HUGE = 5e-324, sys.float_info.max


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PROBLEM_IDS),
       st.sampled_from([s for s in SCHEME_NAMES if s.startswith("af-")]
                       + ["f-hc-fixed"]),
       st.sampled_from(Formula2D), POSITIVE, THRESHOLDS, SAFETY_FACTORS,
       POSITIVE)
@example("8", "af-rkc4", Formula2D.FULL, 1e300, 0.2, 1.0, 1.0)
@example("7b", "af-rkc4", Formula2D.FULL, 1e-160, 0.2, 1.0, 1.0)
@example("8", "af-hc", Formula2D.SPLIT, TINY, 0.49, HUGE, 1.0)
@example("5", "af-rkc4", Formula2D.PARTIAL, HUGE, TINY, 0.5000000000000001,
         1.0)
@example("6", "f-hc-fixed", Formula2D.FULL, 2.0, 0.2, 1.0, HUGE)
@example("7a", "f-hc-fixed", Formula2D.FULL, 2.0, 0.2, 1.0, TINY)
def test_every_accepted_option_runs_or_is_refused(test_id, scheme, variant,
                                                  sigma, M, K, eps_fixed):
    """Three steps at level 0 complete with finite values, no NaN
    smoothness weight and a switching scale that is not NaN, or are
    refused with a message (a step's names the step; the config refuses
    Richtmyer on test 6); no other exception escapes."""
    prob = make_test(test_id)
    fixed = scheme == "f-hc-fixed"
    steps = min(3, prob.n_steps(0))

    def smoothness(field, indicator):
        sm = smoothness_2d(field, indicator)
        assert not np.isnan(sm.omega).any()
        return sm

    try:
        cfg = SolverConfig(hamiltonian=prob.hamiltonian, scheme=scheme,
                           indicator=Indicator2DConfig(sigma=sigma, M=M,
                                                       variant=variant),
                           K=SolverConfig.K if fixed else K,
                           epsilon_fixed=eps_fixed if fixed else None)
        with (np.errstate(all="ignore"),
              mock.patch.object(filtering, "smoothness_2d", smoothness)):
            u, records = af_evolve(prob.initial_field(0), cfg, steps *
                                   prob.T_final / prob.n_steps(0), steps)
    except (ValueError, CflViolation, EvolutionError) as exc:
        assert re.match(r"step \d+ \(t = |Richtmyer form requires", str(exc)), exc
        return
    assert np.all(np.isfinite(u.values))
    assert [r.step for r in records] == list(range(1, steps + 1))
    assert not any(math.isnan(r.epsilon_n) for r in records)


# Python calls per step into code under src/hjaf, in the steady state: a
# 5-step less a 2-step evolve of test 8 level 0, over 3.  The adaptive
# schemes' calls for the weight checks (smoothness_2d: NaN, sigma_h) included.
STEP_CALLS = {"monotone": 40, "hc": 40, "lw": 65, "lw2": 81, "richtmyer": 75,
              "rkc4": 101, "af-hc": 223, "af-lw": 206, "af-lw2": 242,
              "af-richtmyer": 236, "af-rkc4": 294, "f-hc-fixed": 80}


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_fixed_cost_of_a_step(scheme):
    package = str(Path(hjaf.__file__).parent) + "/"
    prob = make_test("8")
    config = solver_config(CliConfig(test_id="8", scheme=scheme), prob, 0)
    dt = prob.T_final / prob.n_steps(0)

    def calls(n_steps):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            if event == "call" and frame.f_code.co_filename.startswith(package):
                count += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            af_evolve(prob.initial_field(0), config, n_steps * dt, n_steps)
        finally:
            sys.setprofile(previous)
        return count

    calls(2)    # warm-up: the threshold w* is bisected once per M
    per_step = (calls(5) - calls(2)) / 3
    assert per_step <= STEP_CALLS[scheme], (
        f"{scheme}: {per_step:g} Python calls per step, above the bound "
        f"STEP_CALLS[{scheme!r}] = {STEP_CALLS[scheme]}")


class TestSchemeVocabulary:
    """A scheme name is the only way to choose a run, and SolverConfig
    refuses every option the scheme would ignore."""

    # (scheme, epsilon_fixed, lw2_corrected) that SolverConfig accepts
    ACCEPTED = {
        ("monotone", None, False), ("hc", None, False), ("lw", None, False),
        ("lw2", None, False), ("richtmyer", None, False),
        ("rkc4", None, False), ("af-hc", None, False), ("af-lw", None, False),
        ("af-lw2", None, False), ("af-richtmyer", None, False),
        ("af-rkc4", None, False), ("f-hc-fixed", 0.1, False),
        ("lw2", None, True), ("richtmyer", None, True),
        ("af-lw2", None, True), ("af-richtmyer", None, True),
    }

    @staticmethod
    def _accepts(build) -> bool:
        try:
            build()
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize("K", [SolverConfig.K, 2.0])
    @pytest.mark.parametrize("lw2_corrected", [False, True])
    @pytest.mark.parametrize("epsilon_fixed", [None, 0.1])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_config_accepts_exactly_what_the_cli_accepts(
            self, scheme, epsilon_fixed, lw2_corrected, K):
        prob = make_test("8")
        options = dict(scheme=scheme, epsilon_fixed=epsilon_fixed,
                       lw2_corrected=lw2_corrected)
        case = tuple(options.values())
        # a K other than the default only where epsilon_n reads it
        k_read = K == SolverConfig.K or scheme.startswith("af-")
        assert self._accepts(lambda: SolverConfig(
            hamiltonian=prob.hamiltonian, K=K, **options)) == (
                case in self.ACCEPTED and k_read)
        # the CLI fills f-hc-fixed's missing scale with 20 dx per level
        cli_accepts = k_read and (case in self.ACCEPTED
                                  or case == ("f-hc-fixed", None, False))
        assert self._accepts(lambda: solver_config(
            CliConfig(test_id="8", K=K, **options), prob, 0)) == cli_accepts

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_highorder_names_the_scheme_run_or_blended(self, scheme):
        expected = {"monotone": None, "hc": "hc", "lw": "lw", "lw2": "lw2",
                    "richtmyer": "richtmyer", "rkc4": "rkc4", "af-hc": "hc",
                    "af-lw": "lw", "af-lw2": "lw2",
                    "af-richtmyer": "richtmyer", "af-rkc4": "rkc4",
                    "f-hc-fixed": "hc"}
        assert set(expected) == set(SCHEME_NAMES)
        eps = 0.1 if scheme == "f-hc-fixed" else None
        cfg = SolverConfig(hamiltonian=transport_hamiltonian(), scheme=scheme,
                           epsilon_fixed=eps)
        assert cfg.highorder == expected[scheme]

    def test_unknown_scheme_refused(self):
        with pytest.raises(ValueError, match="unknown scheme 'af-monotone'"):
            SolverConfig(hamiltonian=transport_hamiltonian(),
                         scheme="af-monotone")

    @pytest.mark.parametrize("scheme", ["richtmyer", "af-richtmyer"])
    def test_richtmyer_refused_on_space_dependent_h(self, scheme):
        # on constant data af_step never calls the high-order step (eps = 0),
        # so only the config can refuse
        with pytest.raises(ValueError, match=r"requires H independent of \(x, y\)"):
            SolverConfig(hamiltonian=rotation_hamiltonian(), scheme=scheme)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("H, other", [
        (eikonal_hamiltonian(), LLF),
        (transport_hamiltonian(), MonotoneKind.EIKONAL)])
    def test_monotone_form_refused_when_h_cannot_run_it(self, H, other, scheme):
        # the config derives the form H runs, whatever the scheme; the
        # monotone step given the other form refuses, with the message of
        # the check a config makes
        eps = 0.1 if scheme == "f-hc-fixed" else None
        cfg = SolverConfig(hamiltonian=H, scheme=scheme, epsilon_fixed=eps)
        assert cfg.monotone is not other
        require_runnable(cfg.monotone, H)
        g = Grid2D(0.0, 0.0, 0.1, 0.1, 5, 5)
        with pytest.raises(ValueError) as step:
            monotone_step(GridField(g, np.zeros(g.shape), PER), other, H, 0.01)
        with pytest.raises(ValueError) as check:
            require_runnable(other, H)
        assert str(step.value) == str(check.value)

    @pytest.mark.parametrize("bound", ["alpha_p", "alpha_q"])
    def test_config_refuses_h_without_interval_bounds(self, bound):
        # the one form an H can lack: LLF for a non-eikonal H without an
        # interval bound; the config refuses with the step's message
        H = dataclasses.replace(transport_hamiltonian(), **{bound: None})
        g = Grid2D(0.0, 0.0, 0.1, 0.1, 5, 5)
        with pytest.raises(ValueError) as step:
            monotone_step(GridField(g, np.zeros(g.shape), PER), LLF, H, 0.01)
        with pytest.raises(ValueError) as config:
            SolverConfig(hamiltonian=H)
        assert str(config.value) == str(step.value)
        assert f"H.{bound}" in str(config.value)

    # the monotone form each registry problem declared beside its
    # hamiltonian before the form was read from H
    DECLARED_FORMS = {"5": LLF, "6": LLF, "7a": MonotoneKind.EIKONAL,
                      "7b": MonotoneKind.EIKONAL, "8": LLF, "8-regular": LLF}

    @pytest.mark.parametrize("test_id", PROBLEM_IDS)
    def test_registry_problems_run_their_declared_form(self, test_id):
        assert set(self.DECLARED_FORMS) == set(PROBLEM_IDS)
        cfg = solver_config(CliConfig(test_id=test_id), make_test(test_id), 0)
        assert cfg.monotone is self.DECLARED_FORMS[test_id]
