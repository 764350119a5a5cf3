import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjaf.grids import BoundaryCondition
from hjaf.harness import CliConfig, run_convergence
from hjaf.monotone import CflViolation
import hjaf.problems as problems
from hjaf.problems import (ALL_TEST_IDS, HOPF_LAX_SCAN, HOPF_LAX_WINDOW,
                           PROBLEM_IDS, IndicatorCase, ProblemSpec, disc_min,
                           eroded_two_squares, exact_burgers_like,
                           exact_rotation, exact_translation, hopf_lax_min_1d,
                           make_test, two_circles, two_squares,
                           _hopf_lax_objective, _hopf_lax_scan)

from oracles import hopf_lax_scan_argmin

SQ2H = math.sqrt(2) / 2


class TestRegistry:
    def test_all_ids_constructible(self):
        for tid in ALL_TEST_IDS:
            case = make_test(tid)
            assert isinstance(case, (IndicatorCase, ProblemSpec))

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            make_test("77")

    @pytest.mark.parametrize("tid", ALL_TEST_IDS)
    def test_every_id_names_one_value(self, tid):
        # built once at import, not on every call
        assert make_test(tid) is make_test(tid)

    def test_detection_vs_evolution_split(self):
        assert isinstance(make_test("1"), IndicatorCase)
        assert isinstance(make_test("5"), ProblemSpec)

    def test_transport_initial_values(self):
        prob = make_test("5")
        assert prob.initial(0.0, 0.0) == 1.0  # max(0, 1)^5
        assert prob.initial(2.0, 0.0) == 0.0
        assert prob.T_final == 0.9

    def test_cone_values(self):
        case = make_test("2")
        assert case.func(0.0, 0.0) == 1.0
        assert case.func(1.0, 0.0) == 0.0
        assert case.func(1.5, 1.5) == 0.0

    def test_burgers_like_initial(self):
        prob = make_test("8")
        assert prob.initial(0.0, 0.0) == -1.0
        assert prob.bc is BoundaryCondition.PERIODIC
        assert prob.T_final == pytest.approx(3.0 / (2 * math.pi ** 2))
        reg = make_test("8-regular")
        assert reg.T_final == pytest.approx(3.0 / (4 * math.pi ** 2))

    def test_rotation_pairing_matches_ratio(self):
        prob = make_test("6")
        ratio = prob.T_final / prob.n_steps(0) / prob.grid(0).dx
        assert ratio == pytest.approx(math.pi / 16)

    def test_fronts_pairing(self):
        prob = make_test("7b")
        ratio = prob.T_final / prob.n_steps(0) / prob.grid(0).dx
        assert ratio == pytest.approx(0.25)

    def test_oracle_required(self):
        with pytest.raises(ValueError, match="problem 5 "):
            dataclasses.replace(make_test("5"), exact=None)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_final_time_finite_and_positive(self, T):
        # inf used to be reported as a CFL pairing error, and NaN passed
        with pytest.raises(ValueError,
                           match=f"^final time must be finite and positive, "
                                 f"got {T}$"):
            dataclasses.replace(make_test("8"), T_final=T)

    def test_grid_refinement_halves_spacing(self):
        prob = make_test("5")
        g0, g1 = prob.grid(0), prob.grid(1)
        assert g1.dx == pytest.approx(g0.dx / 2)
        assert prob.n_steps(1) == 2 * prob.n_steps(0)

    def test_indicator_case_shift_validation(self):
        case = make_test("2")
        with pytest.raises(ValueError, match="placement must be node or cell"):
            case.build_field(0.1, "diagonal")

    def test_in_cell_placement_offsets_singularity(self):
        case = make_test("1")
        f = case.build_field(0.05, "cell")
        x = f.grid.nodes()
        # nearest node to the kink at 0 sits 0.3 cells away
        j = int(np.argmin(np.abs(x)))
        assert abs(x[j]) == pytest.approx(0.3 * 0.05, rel=1e-9)


class TestTranslationOracle:
    def test_initial_time_identity(self):
        prob = make_test("5")
        X, Y = prob.grid(0).meshes()
        assert np.array_equal(exact_translation(0.0, X, Y), prob.initial(X, Y))

    def test_shift_by_characteristics(self):
        assert exact_translation(0.9, 0.9, 0.9) == 1.0
        assert exact_translation(0.9, 0.0, 0.0) == pytest.approx(
            max(0.0, 1.0 - 2 * 0.81) ** 5)

    def test_max_preserved(self):
        X, Y = np.meshgrid(np.linspace(-2, 2, 401), np.linspace(-2, 2, 401))
        assert exact_translation(0.9, X, Y).max() == pytest.approx(1.0, abs=1e-4)


class TestRotationOracle:
    def test_full_turn_identity(self):
        prob = make_test("6")
        X, Y = prob.grid(0).meshes()
        assert exact_rotation(2 * math.pi, X, Y) == pytest.approx(
            prob.initial(X, Y), abs=1e-12)

    def test_half_turn_mirrors(self):
        X, Y = np.meshgrid(np.linspace(-2, 2, 41), np.linspace(-2, 2, 41))
        assert exact_rotation(math.pi, X, Y) == pytest.approx(
            make_test("6").initial(-X, -Y), abs=1e-12)

    def test_bump_center_quarter_turn(self):
        # the bump starts at (-1, 0); after a quarter turn of the flow
        # (xdot, ydot) = (-y, x) it sits at (0, -1)
        assert exact_rotation(math.pi / 2, 0.0, -1.0) == pytest.approx(1.0)

    def test_inverse_composition(self):
        rng = np.random.default_rng(40)
        X = rng.uniform(-2, 2, 100)
        Y = rng.uniform(-2, 2, 100)
        t = 1.234
        c, s = math.cos(-t), math.sin(-t)
        # rotate sample points backward, evaluate forward solution there
        Xb = X * c + Y * s
        Yb = -X * s + Y * c
        assert exact_rotation(t, Xb, Yb) == pytest.approx(
            make_test("6").initial(X, Y), abs=1e-12)


class TestVariationalOracle:
    def test_time_zero_is_initial_profile(self):
        xs = np.linspace(0, 2, 31)
        assert hopf_lax_min_1d(0.0, xs) == pytest.approx(-0.5 * np.cos(np.pi * xs))

    def test_small_time_limit(self):
        xs = np.linspace(0, 2, 31)
        v = hopf_lax_min_1d(1e-9, xs)
        assert v == pytest.approx(-0.5 * np.cos(np.pi * xs), abs=1e-8)

    def test_symmetry_in_arguments(self):
        t = 3.0 / (2 * math.pi ** 2)
        x = np.linspace(0, 2, 17)
        y = x[::-1].copy()
        assert exact_burgers_like(t, x, y) == pytest.approx(
            exact_burgers_like(t, y, x), rel=1e-13)

    def test_frozen_value_and_megascan_agreement(self):
        t = 3.0 / (2 * math.pi ** 2)
        val, arg = hopf_lax_min_1d(t, np.array([1.0]), return_argmin=True)
        assert val[0] == pytest.approx(-0.187958488819073, abs=1e-12)
        grid = np.linspace(-6, 6, 2_000_001)
        brute = _hopf_lax_objective(grid, t, np.array([1.0])).min()
        assert abs(val[0] - brute) <= 1e-9

    def test_minimizer_interior(self):
        for t in (3.0 / (4 * math.pi ** 2), 3.0 / (2 * math.pi ** 2)):
            xs = np.linspace(0, 2, 81)
            _, arg = hopf_lax_min_1d(t, xs, return_argmin=True)
            assert (arg > -6 + 0.1).all() and (arg < 6 - 0.1).all()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hopf_lax_min_1d(-0.1, np.array([0.0]))

    @pytest.mark.parametrize("block", [None, 1, 7, 33])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 161])
    def test_blocked_scan_matches_one_array(self, monkeypatch, block, n):
        # the scan in column blocks picks, bitwise, the grid index of the
        # scan over one array of every column: for n a multiple of the
        # block (32 by default) and not, and for other block sizes
        if block is not None:
            monkeypatch.setattr(problems, "HOPF_LAX_BLOCK", block)
        grid = np.linspace(*HOPF_LAX_WINDOW, HOPF_LAX_SCAN)
        xi = np.random.default_rng(n).uniform(0.0, 2.0, n)
        for t in (3.0 / (4 * math.pi ** 2), 3.0 / (2 * math.pi ** 2), 0.7):
            got = _hopf_lax_scan(grid, t, xi)
            assert np.array_equal(
                got, hopf_lax_scan_argmin(_hopf_lax_objective, grid, t, xi))

    def test_oracle_memory_does_not_grow_with_the_grid(self):
        # test 8's exact field on its 160^2 level at the final time peaks
        # below the one (HOPF_LAX_SCAN x 160) objective array that a scan
        # of every column at once holds, before its temporaries
        prob = make_test("8")
        X, Y = prob.grid(3).meshes()
        assert X.shape == (160, 160)
        tracemalloc.start()
        try:
            exact_burgers_like(prob.T_final, X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < HOPF_LAX_SCAN * 160 * 8


class TestErosionOracle:
    def test_time_zero_identity(self):
        X, Y = np.meshgrid(np.linspace(-2, 2, 11), np.linspace(-2, 2, 11))
        assert np.array_equal(disc_min(two_circles, 0.0, X, Y),
                              two_circles(X, Y))

    def test_signed_distance_erodes_linearly(self):
        # eroding a distance cone: the zero level grows by exactly t
        r0, t = 0.5, 0.3
        v0 = lambda x, y: np.hypot(x, y) - r0
        xs = np.linspace(-2, 2, 9)
        X, Y = np.meshgrid(xs, xs)
        got = disc_min(v0, t, X, Y)
        expect = np.maximum(np.hypot(X, Y) - t, 0.0) - r0
        assert got == pytest.approx(expect, abs=1e-6)

    def test_two_front_midpoint_value(self):
        got = disc_min(two_circles, 0.6, np.array([0.0]), np.array([0.0]))
        assert got[0] == pytest.approx(-0.28675968, abs=1e-8)

    def test_matches_closed_form_pre_merge(self):
        # radial closed form of the eroded double bump, valid at any time
        def closed(t, X, Y):
            out = np.full(np.broadcast(X, Y).shape, 0.5)
            for cx, cy in ((SQ2H, SQ2H), (-SQ2H, -SQ2H)):
                d = np.maximum(np.hypot(X - cx, Y - cy) - t, 0.0)
                f = (1.0 - d * d) / 0.75
                out = np.minimum(out, 0.5 - 0.5 * np.maximum(f, 0.0) ** 4)
            return out

        xs = np.linspace(-3, 3, 13)
        X, Y = np.meshgrid(xs, xs)
        for t in (0.25, 0.6):
            got = disc_min(two_circles, t, X, Y)
            assert got == pytest.approx(closed(t, X, Y), abs=1e-6)


def squares_u0(x, y):
    """Test 7b's initial data written out: an axis-aligned square around
    (sqrt2/2, sqrt2/2) and a diamond around (-1, -1), capped at 1/8."""
    sx, sy = np.sqrt(0.5) * x + SQ2H, np.sqrt(0.5) * y + SQ2H
    f1 = np.maximum(np.abs(x - SQ2H), np.abs(y - SQ2H))
    f2 = np.maximum(np.abs(sx + sy), np.abs(sx - sy))
    return np.minimum(np.minimum(f1 - 0.5, f2 - 0.5), 0.125)


class TestSquaresErosion:
    """Test 7b's oracle: two_squares eroded by the disc of radius t in
    closed form, one max-norm piece at a time."""

    T = 0.7    # test 7b's final time

    def test_registry_oracle_is_the_closed_form(self):
        prob = make_test("7b")
        X, Y = prob.grid(1).meshes()
        assert np.array_equal(prob.exact(self.T, X, Y),
                              eroded_two_squares(self.T, X, Y))
        # at t = 0 the erosion is the initial data, bitwise
        u0 = squares_u0(X, Y)
        for got in (prob.initial(X, Y), two_squares(X, Y),
                    prob.exact(0.0, X, Y)):
            assert np.array_equal(got.view(np.uint64), u0.view(np.uint64))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_never_above_the_sampled_minimum(self, level):
        # disc_min samples the disc, so it bounds the true minimum from above
        X, Y = make_test("7b").grid(level).meshes()
        closed = eroded_two_squares(self.T, X, Y)
        assert np.all(closed <= disc_min(squares_u0, self.T, X, Y) + 1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.01, 1.0))
    def test_certified_bounds(self, x, y, t):
        # Every piece and the cap are 1-Lipschitz, so is their min.  On a
        # lattice of spacing h the point nearest the true minimizer lies
        # within h/sqrt2 of it, inside the disc of radius t + h: the true
        # minimum is at least that sample's minimum - h/sqrt2; and every
        # sample inside the disc of radius t bounds it from above.
        h = t / 40.0
        k = np.arange(-41, 42) * h
        DX, DY = np.meshgrid(k, k)
        r = np.hypot(DX, DY)
        v = squares_u0(x + DX, y + DY)
        closed = float(eroded_two_squares(t, np.array(x), np.array(y)))
        assert closed >= v[r <= t + h].min() - h / math.sqrt(2.0) - 1e-12
        assert closed <= v[r <= t].min() + 1e-12

    def test_value_where_the_sampled_oracle_returned_the_cap(self):
        # at (1.7, -0.5) the first square's corner piece attains the min:
        # a + b = 2.2, a - b = sqrt2 - 1.2, s = (2.2 - sqrt(2 t^2 -
        # (a - b)^2)) / 2, minus R0; the polar samples returned the cap 0.125
        want = 0.5 * (2.2 - math.sqrt(2 * 0.49 - (math.sqrt(2) - 1.2) ** 2)) - 0.5
        got = float(eroded_two_squares(self.T, np.array(1.7), np.array(-0.5)))
        assert got == pytest.approx(want, abs=1e-15)
        assert got == pytest.approx(0.1167525091386, abs=1e-12)
        # two_squares is symmetric in x and y, and so is its erosion
        assert float(eroded_two_squares(self.T, np.array(-0.5),
                                        np.array(1.7))) == pytest.approx(got)


class TestMonotoneRuns:
    """A problem's base grid/step pairing is checked where the monotone
    step runs, on the speeds of the data it reaches."""

    @pytest.mark.parametrize("tid", PROBLEM_IDS)
    def test_monotone_runs_on_two_levels(self, tid):
        report = run_convergence(CliConfig(test_id=tid, scheme="monotone",
                                           refinements=2))
        assert len(report.rows) == 2

    @pytest.mark.parametrize("tid", ["5", "6", "8", "8-regular"])
    def test_halved_step_count_refused_at_step_1(self, tid):
        # each of these pairs sits above half the limit, so half the
        # steps (twice dt) breaks it: the problem builds, its monotone
        # run refuses before u moves
        problem = make_test(tid)
        halved = dataclasses.replace(problem, base_nt=problem.base_nt // 2)
        with pytest.raises(CflViolation, match=r"^step 1 \("):
            run_convergence(CliConfig(test_id=tid, scheme="monotone",
                                      refinements=1), halved)
