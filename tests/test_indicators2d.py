
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hjaf.indicators2d as indicators2d
from hjaf.cli import main
from hjaf.filtering import _adaptive_step
from hjaf.grids import BoundaryCondition, Grid1D, Grid2D, GridField
from hjaf.indicators1d import (Indicator1DConfig, Variant1D, map_g,
                               omega_field_1d, weno_weight)
from hjaf.indicators2d import (Formula2D, Indicator2DConfig, omega_field_2d,
                               omega_split_field, phi_2d, quadrant_beta_fields,
                               smoothness_2d, weight_threshold)
from hjaf.harness import CliConfig, solver_config
from hjaf.highorder import high_order_step
from hjaf.problems import make_test

from oracles import beta_quadrature, view_omega_field_2d, view_phi_2d

PER = BoundaryCondition.PERIODIC
NEU = BoundaryCondition.NEUMANN_ZERO
ZETAS = ("--", "+-", "-+", "++")


def patch_field(values, dx=0.13, dy=0.09, bc=NEU):
    values = np.asarray(values, dtype=float)
    ny, nx = values.shape
    g = Grid2D(0.0, 0.0, dx, dy, nx, ny)
    return GridField(g, values, bc)


def betas_at(field, i, j, formula=Formula2D.FULL):
    """{quadrant: (beta0, beta1)} at node (i, j) of the field kernel."""
    return {z: (b0[i, j], b1[i, j])
            for z, (b0, b1) in quadrant_beta_fields(field, formula).items()}


def origin_node(field):
    j0 = int(round((0 - field.grid.x0) / field.grid.dx))
    i0 = int(round((0 - field.grid.y0) / field.grid.dy))
    return i0, j0


def sampled(fn, dx, half_extent, bc=NEU, center=(0.0, 0.0)):
    n = 2 * int(round(half_extent / dx)) + 1
    g = Grid2D(center[0] - half_extent, center[1] - half_extent, dx, dx, n, n)
    X, Y = g.meshes()
    return GridField(g, fn(X, Y), bc)


class TestQuadrantBetas:
    def test_split_formula_refused(self):
        # the split baseline has no quadrant betas; it used to get the
        # PARTIAL ones
        f = make_test("8").initial_field(0)
        with pytest.raises(ValueError, match="split"):
            quadrant_beta_fields(f, Formula2D.SPLIT)

    @pytest.mark.parametrize("formula", ["full", "partial", None])
    def test_formula_must_be_a_member(self, formula):
        # any value but FULL used to get the PARTIAL coefficients
        f = make_test("8").initial_field(0)
        with pytest.raises(ValueError, match="no quadrant betas"):
            quadrant_beta_fields(f, formula)

    def test_constant_field_vanishes(self):
        f = patch_field(np.full((5, 5), 7.0))
        for formula in (Formula2D.FULL, Formula2D.PARTIAL):
            for b0, b1 in quadrant_beta_fields(f, formula).values():
                assert (b0 == 0.0).all() and (b1 == 0.0).all()

    def test_bilinear_surface(self):
        # f = x*y with equal spacings: only the mixed first difference
        # survives, beta = h^2 for every quadrant and both stencils
        h = 0.1
        f = sampled(lambda X, Y: X * Y, h, 3 * h)
        for formula in (Formula2D.FULL, Formula2D.PARTIAL):
            for b0, b1 in betas_at(f, 3, 3, formula).values():
                assert b0 == pytest.approx(h * h, rel=1e-12)
                assert b1 == pytest.approx(h * h, rel=1e-12)

    def test_parabola_surface(self):
        h = 0.1
        f = sampled(lambda X, Y: X ** 2, h, 3 * h)
        for b0, b1 in betas_at(f, 3, 3).values():
            assert b0 == pytest.approx(4 * h * h, rel=1e-12)
            assert b1 == pytest.approx(4 * h * h, rel=1e-12)

    @pytest.mark.parametrize("full", [True, False])
    def test_matches_quadrature_oracle(self, full):
        rng = np.random.default_rng(8)
        formula = Formula2D.FULL if full else Formula2D.PARTIAL
        for _ in range(60):
            f = patch_field(rng.normal(size=(5, 5)))
            betas = betas_at(f, 2, 2, formula)
            for z in ZETAS:
                got = betas[z]
                for k in (0, 1):
                    want = beta_quadrature(f, 2, 2, z, k, full=full)
                    assert got[k] == pytest.approx(want, rel=1e-11)

    def test_partial_never_exceeds_full(self):
        # the extra total-order >= 3 terms are integrals of squares
        rng = np.random.default_rng(9)
        for _ in range(1000):
            f = patch_field(rng.normal(size=(5, 5)))
            full = betas_at(f, 2, 2, Formula2D.FULL)
            part = betas_at(f, 2, 2, Formula2D.PARTIAL)
            for z in ZETAS:
                assert part[z][0] <= full[z][0] + 1e-12
                assert part[z][1] <= full[z][1] + 1e-12

    def test_field_evaluation_matches_quadrature_through_ghosts(self):
        # corner nodes read wrapped ghosts on both axes
        rng = np.random.default_rng(10)
        f = patch_field(rng.normal(size=(7, 8)), bc=PER)
        fields = quadrant_beta_fields(f, Formula2D.FULL)
        for z in ZETAS:
            for i, j in ((0, 0), (3, 4), (6, 7)):
                for k in (0, 1):
                    assert fields[z][k][i, j] == pytest.approx(
                        beta_quadrature(f, i, j, z, k), rel=1e-11)

    def test_reflection_symmetry(self):
        # mirroring the data in x swaps the quadrant pairs across the x sign
        rng = np.random.default_rng(11)
        f = patch_field(rng.normal(size=(6, 6)), dx=0.1, dy=0.1, bc=PER)
        fr = patch_field(f.values[:, ::-1], dx=0.1, dy=0.1, bc=PER)
        b = quadrant_beta_fields(f, Formula2D.FULL)
        br = quadrant_beta_fields(fr, Formula2D.FULL)
        for za, zb in (("--", "+-"), ("+-", "--"), ("-+", "++"), ("++", "-+")):
            for k in (0, 1):
                assert np.array_equal(br[zb][k][:, ::-1], b[za][k])
        # mirroring in y swaps across the y sign
        fy = patch_field(f.values[::-1, :], dx=0.1, dy=0.1, bc=PER)
        by = quadrant_beta_fields(fy, Formula2D.FULL)
        for za, zb in (("--", "-+"), ("-+", "--"), ("+-", "++"), ("++", "+-")):
            for k in (0, 1):
                assert np.array_equal(by[zb][k][::-1, :], b[za][k])

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(5, 5))
        f = patch_field(base)
        X, Y = f.grid.meshes()
        g = patch_field(base + 3.0 - 1.7 * X + 0.4 * Y)
        got, want = betas_at(g, 2, 2), betas_at(f, 2, 2)
        for z in ZETAS:
            assert got[z] == pytest.approx(want[z], rel=1e-9, abs=1e-12)


class TestOmega2D:
    def test_constant_exactly_half(self):
        f = patch_field(np.zeros((6, 6)))
        for variant in (Formula2D.FULL, Formula2D.PARTIAL, Formula2D.SPLIT):
            om = omega_field_2d(f, Indicator2DConfig(variant=variant))
            assert (om == 0.5).all()

    def test_smooth_deviation_first_order(self):
        # the quadrant weight before the remapping g
        def dev(h):
            f = sampled(lambda X, Y: np.sin(X) * np.sin(Y), h, 0.5,
                        center=(0.8, 0.7))
            sigma_h = Indicator2DConfig().sigma * f.grid.delta ** 2
            c = f.grid.nx // 2
            w = min(weno_weight(b0, b1, sigma_h)
                    for b0, b1 in betas_at(f, c, c).values())
            return abs(w - 0.5)

        d1, d2 = dev(0.05), dev(0.025)
        assert d1 / d2 >= 1.6  # O(delta)

    def test_cone_apex_flagged(self):
        case = make_test("2")
        f = case.build_field(0.05)
        w = omega_field_2d(f, Indicator2DConfig())[origin_node(f)]
        assert w < 0.2

    def test_scale_invariance_without_floor(self):
        # with the desingularization term removed, the weight is scale-free
        rng = np.random.default_rng(14)
        base = rng.normal(size=(5, 5))
        for c in (2.0, -0.5, 10.0):
            f, fc = patch_field(base), patch_field(c * base)
            betas, betas_c = betas_at(f, 2, 2), betas_at(fc, 2, 2)
            for z in ZETAS:
                b, bc_ = betas[z], betas_c[z]
                w = b[0] ** -2 / (b[0] ** -2 + b[1] ** -2)
                wc = bc_[0] ** -2 / (bc_[0] ** -2 + bc_[1] ** -2)
                assert wc == pytest.approx(w, rel=1e-9)

    def test_strong_singularity_classification_scale_stable(self):
        # nodes decisively classified on the cone (clearly flagged kinks,
        # clearly trusted smooth nodes) keep their class under rescaling;
        # only sigma_h-marginal periphery pixels may flip
        # rescaling by s multiplies every beta by s^2, which can move a
        # weight by up to (1/s^2)^2 against the fixed sigma_h floor, so
        # "decisively flagged" means omega below M/20 for s in [1/2, 2]
        case = make_test("2")
        base = case.build_field(0.05)
        cfg = Indicator2DConfig()
        om_ref = omega_field_2d(base, cfg)
        strong_kink = om_ref < cfg.M / 20
        strong_smooth = om_ref > 0.45
        assert strong_kink.sum() > 100 and strong_smooth.sum() > 1000
        for c in (0.5, 2.0):
            f = base.like(c * base.values)
            phi = phi_2d(omega_field_2d(f, cfg), cfg)
            assert (phi[strong_kink] == 0).all()
            assert (phi[strong_smooth] == 1).all()

    def test_omega_affine_invariance(self):
        # interior nodes only: boundary wrapping/clamping of ghost reads
        # breaks the affine structure within stencil reach of the edge
        rng = np.random.default_rng(16)
        base = rng.normal(size=(9, 9))
        f = patch_field(base)
        X, Y = f.grid.meshes()
        g = patch_field(base + 2.0 - 0.8 * X + 1.3 * Y)
        inner = np.s_[2:-2, 2:-2]
        for variant in (Formula2D.FULL, Formula2D.PARTIAL, Formula2D.SPLIT):
            cfg = Indicator2DConfig(variant=variant)
            assert omega_field_2d(g, cfg)[inner] == pytest.approx(
                omega_field_2d(f, cfg)[inner], rel=1e-8, abs=1e-10)

    def test_postmaps_agree_on_strong_kinks(self):
        # the remapped weight and the weight before the remapping g both
        # flag the cone's base circle and keep the smooth far field clean;
        # the unmapped weight oscillates more around 1/2
        case = make_test("2")
        f = case.build_field(0.05)
        X, Y = f.grid.meshes()
        R = np.hypot(X, Y)
        near = np.abs(R - 1.0) < 0.05
        far = (np.abs(R - 1.0) > 0.15) & (R > 0.15)
        cfg = Indicator2DConfig()
        sigma_h = cfg.sigma * f.grid.delta ** 2
        weights = [weno_weight(b0, b1, sigma_h)
                   for b0, b1 in quadrant_beta_fields(f).values()]
        devs = {}
        for mapped in (True, False):
            om = np.minimum.reduce([map_g(w) if mapped else w for w in weights])
            phi = phi_2d(om, cfg)
            assert (phi[near] == 0).mean() > 0.9
            assert (phi[far] == 1).all()
            devs[mapped] = np.abs(om[far] - 0.5).max()
        assert np.array_equal(np.minimum.reduce([map_g(w) for w in weights]),
                              omega_field_2d(f, cfg))
        assert devs[True] < devs[False]

    def test_omega_bounds(self):
        rng = np.random.default_rng(15)
        for variant in (Formula2D.FULL, Formula2D.PARTIAL, Formula2D.SPLIT):
            cfg = Indicator2DConfig(variant=variant)
            for _ in range(3):
                f = patch_field(rng.normal(size=(8, 8)), bc=PER)
                om = omega_field_2d(f, cfg)
                assert (om >= 0).all() and (om <= 1).all()


class TestSplit:
    def test_blind_at_homogeneous_ridge(self):
        case = make_test("4")
        f = case.build_field(0.05)
        cfg = Indicator2DConfig(variant=Formula2D.SPLIT)
        # both axis restrictions vanish identically at the origin
        assert omega_split_field(f, cfg)[origin_node(f)] == 0.5

    def test_axis_kink_detected(self):
        # |x| ridge along the y axis: the x-direction weight collapses
        f = sampled(lambda X, Y: np.abs(X) + 0.0 * Y, 0.1, 1.0)
        cfg = Indicator2DConfig(variant=Formula2D.SPLIT)
        om = omega_split_field(f, cfg)
        c = f.grid.nx // 2
        assert (om[:, c] < 0.2).all()

    @pytest.mark.parametrize("bc", [PER, NEU])
    def test_axis_weights_are_the_1d_indicator_per_line(self, bc):
        # each axis weight is the remapped 1D indicator of every grid row
        # (x) or column (y) as a 1D field, bitwise
        rng = np.random.default_rng(7)
        f = patch_field(rng.normal(size=(7, 9)), bc=bc)
        cfg = Indicator2DConfig(variant=Formula2D.SPLIT, sigma=0.7)
        cfg1 = Indicator1DConfig(sigma=0.7, variant=Variant1D.MAPPED_G)

        def line(values, h):
            return omega_field_1d(GridField(Grid1D(0.0, h, values.size), values, bc),
                                  cfg1)

        wx = np.array([line(row, f.grid.dx) for row in f.values])
        wy = np.array([line(col, f.grid.dy) for col in f.values.T]).T
        assert np.array_equal(omega_split_field(f, cfg), np.minimum(wx, wy))

    def test_full_sees_what_split_misses(self):
        case = make_test("4")
        f = case.build_field(0.05)
        node = origin_node(f)
        w_split = omega_split_field(f, Indicator2DConfig(variant=Formula2D.SPLIT))[node]
        w_full = omega_field_2d(f, Indicator2DConfig())[node]
        assert w_split == 0.5
        assert w_full < w_split


class TestPhi2D:
    @pytest.mark.parametrize("variant", list(Formula2D))
    def test_phi_is_the_boolean_threshold(self, variant):
        # the trust mask is omega >= M itself, no integer copy of it
        f = make_test("2").build_field(0.1)
        cfg = Indicator2DConfig(variant=variant)
        sm = smoothness_2d(f, cfg)
        assert sm.phi.dtype == np.bool_
        assert np.array_equal(sm.phi, sm.omega >= cfg.M)
        assert not sm.phi.all() and sm.phi.any()

    def test_all_trusted(self):
        phi = phi_2d(np.full((6, 6), 0.5), Indicator2DConfig())
        assert phi.all()

    def test_pyramid_kinks_flagged_faces_trusted(self):
        # the square-front pyramid is kinked along its diagonals, at its
        # apex and at the switch to the flat cap; its planar faces and the
        # far plateau are smooth
        prob = make_test("7b")
        f = prob.initial_field(1)  # dx = 0.1
        sm = smoothness_2d(f, Indicator2DConfig())
        X, Y = f.grid.meshes()
        c = np.sqrt(2) / 2
        ax, ay = np.abs(X - c), np.abs(Y - c)
        linf = np.maximum(ax, ay)
        faces = (linf > 0.2) & (linf < 0.5) & (np.abs(ax - ay) > 0.25)
        assert (sm.phi[faces] == 1).all()
        diagonals = (np.abs(ax - ay) < 0.05) & (linf > 0.15) & (linf < 0.55)
        assert (sm.phi[diagonals] == 0).all()
        cap_ring = np.abs(linf - 0.625) < 0.05
        assert (sm.phi[cap_ring] == 0).all()
        apex = (ax < 0.15) & (ay < 0.15)
        assert (sm.phi[apex] == 0).any()
        second = np.abs(np.sqrt(0.5) * (X + 1)) + np.abs(np.sqrt(0.5) * (Y + 1))
        plateau = (linf > 0.85) & (second > 0.9)
        assert (sm.phi[plateau] == 1).all()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            Indicator2DConfig(M=0.6)
        for sigma in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                Indicator2DConfig(sigma=sigma)

    @pytest.mark.parametrize("variant", ["full", "split", 42, None])
    def test_variant_must_be_a_member(self, variant):
        # "full" used to run the partial betas, and "split" too
        with pytest.raises(ValueError, match="Formula2D member"):
            Indicator2DConfig(variant=variant)


def double(bits):
    return np.asarray(bits, dtype=np.int64).view(np.float64)


def bits(w):
    return int(np.float64(w).view(np.int64))


@st.composite
def scaled_fields(draw):
    """Noise, or a kinked surface with a little noise, on 3..9 nodes per
    axis under either boundary rule, scaled by 1 or by about 1e200 (where
    the betas overflow and the weights are NaN)."""
    ny, nx = draw(st.integers(3, 9)), draw(st.integers(3, 9))
    dx, dy = (draw(st.floats(0.01, 2.0)) for _ in range(2))
    noise = draw(arrays(np.float64, (ny, nx),
                        elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    g = Grid2D(-0.5 * nx * dx, -0.5 * ny * dy, dx, dy, nx, ny)
    X, Y = g.meshes()
    values = draw(st.sampled_from([noise, np.abs(X) + np.abs(Y) + 1e-6 * noise]))
    scale = draw(st.sampled_from([1.0, 1e200, 3e199]))
    return GridField(g, scale * values, draw(st.sampled_from([PER, NEU])))


class TestMaskFromLeastWeight:
    """A certified threshold takes the trust mask from the smallest raw
    quadrant weight; the mask and the maps stay bitwise those of the
    combined remapped weight."""

    @settings(max_examples=200, deadline=None)
    @given(scaled_fields(),
           st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           st.sampled_from([Formula2D.FULL, Formula2D.PARTIAL]),
           st.floats(0.1, 5.0))
    @example(patch_field(np.abs(np.arange(25.0) - 12.0).reshape(5, 5)), 0.2,
             Formula2D.FULL, 2.0)
    @example(patch_field(np.abs(np.arange(25.0) - 12.0).reshape(5, 5)), 0.49,
             Formula2D.FULL, 2.0)
    def test_mask_and_maps_are_the_mapped_ones(self, f, M, formula, sigma):
        cfg = Indicator2DConfig(sigma=sigma, M=M, variant=formula)
        with np.errstate(all="ignore"):
            sm = smoothness_2d(f, cfg)
            omega = omega_field_2d(f, cfg)
            view = view_omega_field_2d(f, sigma, formula.value)
            assert sm.phi.dtype == np.bool_
            assert np.array_equal(sm.phi, phi_2d(omega, cfg))
            assert np.array_equal(sm.phi, view_phi_2d(view, M))
            assert np.array_equal(sm.omega, omega, equal_nan=True)
        # overflowed betas leave NaN weights, and those nodes untrusted
        assert not sm.phi[np.isnan(omega)].any()

    @pytest.mark.parametrize("M", [0.2, 0.49])
    def test_overflowed_nodes_are_untrusted(self, M):
        f = patch_field(1e200 * np.abs(np.arange(25.0) - 12.0).reshape(5, 5))
        with np.errstate(all="ignore"):
            sm = smoothness_2d(f, Indicator2DConfig(M=M))
            assert np.isnan(sm.omega).any()
        assert not sm.phi[np.isnan(sm.omega)].any()

    def test_default_threshold_is_certified(self):
        # an independent scan, 32 times wider than the certificate's band,
        # finds the rounded test map_g(w) >= M to be w >= w* around w*
        M = Indicator2DConfig().M
        w_star = weight_threshold(M)
        assert w_star is not None and 0.0 < w_star < 0.5
        assert map_g(np.nextafter(w_star, 0.0)) < M <= map_g(w_star)
        n = 2 ** 16
        assert n >= 32 * indicators2d.CROSSING_BAND
        scan = double(np.arange(bits(w_star) - n, bits(w_star) + n))
        assert np.array_equal(map_g(scan) >= M, scan >= w_star)

    def test_threshold_near_one_half_is_refused(self):
        # g' vanishes at 1/2: near its crossing the rounded test wobbles
        assert weight_threshold(0.49) is None
        lo, hi = 0, bits(0.5)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if map_g(double(mid)) >= 0.49 else (mid, hi)
        scan = double(np.arange(hi - 2 ** 16, hi + 2 ** 16))
        flips = np.count_nonzero(np.diff(map_g(scan) >= 0.49))
        assert flips > 1

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 0.5, exclude_min=True,
                                          exclude_max=True))
    @example(0.07828366734912538, 0.2)
    def test_bound_check_is_exact(self, w, M):
        # the integer form of the check against rationals
        g = 4 * Fraction(w) * (Fraction(3, 4) - Fraction(3, 2) * Fraction(w)
                               + Fraction(w) ** 2)
        rel, absolute = Fraction(1, 2 ** 48), Fraction(1, 2 ** 1071)
        assert indicators2d._g_clears(w, M, -1) == (
            g * (1 + rel) + absolute < M)
        assert indicators2d._g_clears(w, M, 1) == (
            g * (1 - rel) - absolute >= M)

    @pytest.mark.parametrize("M, calls", [(0.2, 1), (0.49, 4)])
    def test_map_g_calls_per_step(self, monkeypatch, M, calls):
        prob = make_test("8")
        cfg = CliConfig(test_id="8", scheme="af-rkc4", refinements=1, M=M)
        sc = solver_config(cfg, prob, 0)
        u = prob.initial_field(0)
        dt = prob.T_final / prob.n_steps(0)
        weight_threshold(M)     # certified once per M, at first use
        counted = []

        def counting(w):
            counted.append(w.shape)
            return map_g(w)

        monkeypatch.setattr(indicators2d, "map_g", counting)
        _adaptive_step(u, sc, high_order_step("rkc4"), dt)
        assert len(counted) == calls

    @pytest.mark.parametrize("M", [0.2, 0.49])
    def test_study_builds_the_combined_weight_only_when_read(
            self, monkeypatch, tmp_path, M):
        # an uncertified M builds it on every step, a certified one only
        # for the final maps
        built = []

        def spy(field, cfg):
            built.append(cfg.M)
            return omega_field_2d(field, cfg)

        monkeypatch.setattr(indicators2d, "omega_field_2d", spy)
        assert main(["solve", "--test", "8", "--scheme", "af-rkc4",
                     "--refinements", "1", "--M", str(M),
                     "--out", str(tmp_path)]) == 0
        steps = make_test("8").n_steps(0)
        assert built == [M] * (steps + 1 if M == 0.49 else 1)
        for name in ("omega.csv", "phi.csv", "epsilon.csv"):
            assert (tmp_path / name).stat().st_size > 0
