
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import hjaf.indicators2d as indicators2d
from hjaf.cli import main
from hjaf.filtering import _adaptive_step
from hjaf.grids import BoundaryCondition, Grid1D, Grid2D, GridField
from hjaf.indicators1d import (Indicator1DConfig, Variant1D, map_g,
                               omega_field_1d, smoothness_1d, weno_weight)
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


# Roundings on the longest path of a beta from the first differences on,
# as the indicators2d docstring counts them: the term c21 u21**2, with
# u21 = -+P.  c21 P rounds 4 times (D, P, c21 itself, the product), its
# sum with u22 / 12 once, the product with P 3 times (P's two and its
# own), the axis part's sum once, the beta's three sums, dx dy and the
# division: 14.
BETA_ROUNDINGS = 14
UNIT_ROUNDOFF = Fraction(1, 2 ** 53)


def _exact_inner_beta(pad, i, j, z1, z2, dx, dy, full, rounded, absolute):
    """The inner beta of quadrant (z1, z2) at padded node (i, j), in exact
    arithmetic, in the listing of the library's kernel.

    The leaves D, E and C are differences of first differences: of the
    exact ones, or (``rounded``) of the doubles the kernel computes, each
    read exactly.  ``absolute`` evaluates the listing on the leaves'
    magnitudes with every difference a sum: the bound on the rounding."""
    def first(a, b):        # u[a] - u[b], a and b (row, column)
        if rounded:
            return Fraction(pad[a] - pad[b])
        return Fraction(pad[a]) - Fraction(pad[b])

    def leaf(a, b, c, d):
        v = first(a, b) - first(c, d)
        return abs(v) if absolute else v

    def sub(a, b):
        return a + b if absolute else a - b

    D = {k: leaf((i + k, j + 1), (i + k, j), (i + k, j), (i + k, j - 1))
         for k in (-1, 0, 1)}
    E = {k: leaf((i + 1, j + k), (i, j + k), (i, j + k), (i - 1, j + k))
         for k in (-1, 0, 1)}
    m, n = i + min(z2, 0), j + min(z1, 0)
    C = leaf((m + 1, n + 1), (m + 1, n), (m, n + 1), (m, n))
    c21, c22 = (Fraction(17, 12), Fraction(857, 720)) if full else (
        Fraction(5, 12), Fraction(17, 720))
    G = sub(sub(D[1], D[0]), sub(D[0], D[-1]))

    def part(s, z):
        # u21 = -P(n) on the + side, P(n - 1) on the - side; read on
        # magnitudes, the sign does not matter
        u20, p = s[z], sub(s[1], s[0]) if z > 0 else sub(s[0], s[-1])
        u21 = p if absolute or z < 0 else -p
        return (u20 * sub(u20 + u21, G / 6)
                + u21 * sub(c21 * u21, G / 12))

    return (part(D, z2) + part(E, z1) + C * C + c22 * G * G) / (
        Fraction(dx) * Fraction(dy))


@st.composite
def accuracy_patches(draw):
    """Random values, near-affine data (1e-6 noise on an offset up to 1e2)
    or smooth data plus a constant, on 3..5 nodes per axis, either formula
    and boundary rule.  Drawn values are 0 or above 1e-100 in magnitude,
    so no product of differences underflows."""
    def values_in(bound):
        return arrays(np.float64, (ny, nx), elements=st.floats(
            -bound, bound).filter(lambda v: v == 0 or abs(v) > 1e-100))

    ny, nx = draw(st.integers(3, 5)), draw(st.integers(3, 5))
    dx, dy = (draw(st.floats(0.01, 2.0)) for _ in range(2))
    g = Grid2D(0.0, 0.0, dx, dy, nx, ny)
    X, Y = g.meshes()
    kind = draw(st.sampled_from(["random", "near-affine", "smooth"]))
    if kind == "random":
        values = draw(values_in(1e3))
    else:
        noise = draw(values_in(1.0))
        offset = draw(st.floats(-1e2, 1e2))
        if kind == "near-affine":
            a, b = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
            values = offset + a * X + b * Y + 1e-6 * noise
        else:
            values = offset + np.sin(X) * np.cos(2 * Y) + 1e-9 * noise
    bc = draw(st.sampled_from([PER, NEU]))
    return GridField(g, values, bc), draw(st.booleans())


class TestBetaAccuracy:
    """Each beta against its exact value on the field's double data.

    The kernel rounds every first difference once; from there on each
    monomial of a beta passes through at most BETA_ROUNDINGS roundings, so
    the computed beta is within gamma_K times the listing evaluated on
    magnitudes of the beta that the rounded first differences give exactly.
    That beta differs from the exact one only by the first differences'
    own rounding, which is taken exactly.  A listing that rounds more (a
    symmetric sum (u[+1] + u[-1]) - 2 u for the second differences) fails
    on near-affine data, where its rounding is relative to |u|."""

    @settings(max_examples=60, deadline=None)
    @given(accuracy_patches())
    def test_betas_within_the_rounding_bound(self, case):
        f, full = case
        k = BETA_ROUNDINGS * UNIT_ROUNDOFF
        gamma = k / (1 - k)
        mode = "wrap" if f.bc is PER else "edge"
        pad = np.pad(f.values, 2, mode=mode).tolist()
        pad = {(i, j): v for i, r in enumerate(pad) for j, v in enumerate(r)}
        dx, dy = f.grid.dx, f.grid.dy
        betas = quadrant_beta_fields(
            f, Formula2D.FULL if full else Formula2D.PARTIAL)
        for key, (z1, z2) in zip(ZETAS, ((-1, -1), (1, -1), (-1, 1), (1, 1))):
            for k_, (a, b, s1, s2) in enumerate(((0, 0, z1, z2),
                                                 (z1, z2, -z1, -z2))):
                got = betas[key][k_]
                for (i, j), value in np.ndenumerate(got):
                    at = (i + 2 + b, j + 2 + a, s1, s2, dx, dy, full)
                    exact = _exact_inner_beta(pad, *at, False, False)
                    rounded = _exact_inner_beta(pad, *at, True, False)
                    bound = _exact_inner_beta(pad, *at, True, True)
                    err = abs(Fraction(value) - exact)
                    assert err <= gamma * bound + abs(rounded - exact), (
                        key, k_, i, j, float(err), float(gamma * bound))


class TestSecondDifferenceAccuracy:
    """Every element of both second-difference listings (the one the 1D
    and quadrant betas and the time curvature read) against its exact
    value on the padded copy's doubles.  Each first difference rounds once
    and D once more, so an element is within its first differences' own
    rounding, taken exactly, plus u |D| of the D that the rounded first
    differences give exactly.  The symmetric sum (u[+1] - 2 u) + u[-1]
    rounds relative to |u| instead, and fails on near-affine data."""

    @settings(max_examples=100, deadline=None)
    @given(accuracy_patches())
    @example((patch_field(50.0 - 2.5 * np.add.outer(np.arange(4.0),
                                                    2.0 * np.arange(5.0))
                          + 1e-6 * np.sin(np.arange(20.0)).reshape(4, 5)),
              True))
    def test_within_the_first_difference_rounding(self, case):
        f, _ = case
        at = f.neighbors()
        u = at.flat.tolist()
        for d, s in zip(f.second_differences(), (1, at.row), strict=True):
            assert np.isnan(d[:s]).all() and np.isnan(d[-s:]).all()
            for m in range(s, len(u) - s):
                fwd, bwd = u[m + s] - u[m], u[m] - u[m - s]   # rounded
                exact_fwd = Fraction(u[m + s]) - Fraction(u[m])
                exact_bwd = Fraction(u[m]) - Fraction(u[m - s])
                bound = (abs(Fraction(fwd) - exact_fwd)
                         + abs(Fraction(bwd) - exact_bwd)
                         + UNIT_ROUNDOFF * abs(Fraction(fwd) - Fraction(bwd)))
                err = abs(Fraction(float(d[m])) - (exact_fwd - exact_bwd))
                assert err <= bound, (s, m, float(err), float(bound))


class TestOmega2D:
    def test_constant_exactly_half(self):
        f = patch_field(np.zeros((6, 6)))
        for variant in (Formula2D.FULL, Formula2D.PARTIAL, Formula2D.SPLIT):
            om = omega_field_2d(f, Indicator2DConfig(variant=variant))
            assert (om == 0.5).all()

    @pytest.mark.parametrize("variant", list(Formula2D))
    def test_constant_half_down_to_the_smallest_sigma_h(self, variant):
        # on unit spacings sigma_h = sigma; below about 1.055e-154 the two
        # terms 1 / sigma_h**2 of a node whose betas vanish sum to inf and
        # its weight reads 0: refused, in 1D too
        f = patch_field(np.zeros((5, 5)), dx=1.0, dy=1.0)
        line = GridField(Grid1D(0.0, 1.0, 5), np.zeros(5), NEU)
        sm = smoothness_2d(f, Indicator2DConfig(sigma=1.06e-154, variant=variant))
        assert (sm.omega == 0.5).all() and sm.phi.all()
        assert (smoothness_1d(line, Indicator1DConfig(sigma=1.06e-154)).omega
                == 0.5).all()
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^sigma_h(_x)? = 1.05e-154 is too small"):
            smoothness_2d(f, Indicator2DConfig(sigma=1.05e-154, variant=variant))
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=r"^sigma_h = 1.05e-154 is too small"):
            smoothness_1d(line, Indicator1DConfig(sigma=1.05e-154))

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
    """The trust mask is the smallest raw quadrant weight thresholded at
    w*; the mask and the maps stay bitwise those of the combined remapped
    weight."""

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
            omega = omega_field_2d(f, cfg)
            if np.isnan(omega).any():
                # overflowed betas leave NaN weights: refused
                with pytest.raises(ValueError, match="^NaN smoothness weight"):
                    smoothness_2d(f, cfg)
                return
            sm = smoothness_2d(f, cfg)
            view = view_omega_field_2d(f, sigma, formula.value)
            assert sm.phi.dtype == np.bool_
            assert np.array_equal(sm.phi, phi_2d(omega, cfg))
            assert np.array_equal(sm.phi, view_phi_2d(view, M))
            assert np.array_equal(sm.omega, omega)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 9), st.integers(3, 9), st.sampled_from([PER, NEU]),
           st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
           st.booleans(), st.data())
    @example(3, 7, PER, 0.2, True, None)
    @example(8, 3, NEU, 0.2, False, None)
    def test_raw_threshold_is_the_mapped_one(self, ny, nx, bc, M, finite,
                                             data):
        # the quadrant weights are drawn at w*, at its neighbouring doubles
        # and anywhere in [0, 1] (NaN too, on a field with a NaN, which is
        # not refused), laid out in runs whose throw-away elements are NaN
        w_star = weight_threshold(M)
        near = double(np.arange(bits(w_star) - 3, bits(w_star) + 4)).tolist()
        element = st.one_of(st.sampled_from(near), st.floats(0.0, 1.0),
                            *(() if finite else (st.just(np.nan),)))
        if data is None:    # an @example: every weight at w* and next to it
            weights = [np.resize(near[k:] + near[:k], (ny, nx))
                       for k in range(4)]
        else:
            weights = [data.draw(arrays(np.float64, (ny, nx), elements=element))
                       for _ in range(4)]
        values = np.zeros((ny, nx))
        values[-1, -1] = 0.0 if finite else np.nan
        f = GridField(Grid2D(0.0, 0.0, 0.1, 0.2, nx, ny), values, bc,
                      validate=False)
        at = f.neighbors()
        runs = []
        for w in weights:
            run = np.full(at(0, 0).size, np.nan)
            at.grid(run)[...] = w
            runs.append(run)
        weight = iter(runs).__next__
        with mock.patch.object(indicators2d, "normalized_weight",
                               lambda a, a_other: weight()):
            phi = smoothness_2d(f, Indicator2DConfig(M=M)).phi
        assert phi.dtype == np.bool_
        assert np.array_equal(phi, map_g(np.minimum.reduce(weights)) >= M)

    @pytest.mark.parametrize("M", [0.2, 0.49])
    def test_overflowed_nodes_are_refused(self, M):
        # 1e200 squared overflows: some quadrant's betas are both inf, and
        # its weight is inf/inf; the node is named, not left untrusted
        f = patch_field(1e200 * np.abs(np.arange(25.0) - 12.0).reshape(5, 5))
        cfg = Indicator2DConfig(M=M)
        with np.errstate(all="ignore"):
            nan = np.isnan(omega_field_2d(f, cfg))
            i, j = np.argwhere(nan)[0]
            x, y = f.grid.xnodes()[j], f.grid.ynodes()[i]
            with pytest.raises(ValueError, match=re.escape(
                    f"NaN smoothness weight at node (i, j) = ({i}, {j}), "
                    f"(x, y) = ({x:.6g}, {y:.6g}), with sigma_h = "
                    f"{cfg.sigma * f.grid.delta ** 2:.6g}: ")):
                smoothness_2d(f, cfg)

    @pytest.mark.parametrize("M", [0.1, 0.2, 0.49])
    def test_threshold_is_the_crossing(self, M):
        # w* is the first double that g takes to M or above, and a scan of
        # 2^17 doubles around it reads g(w) >= M as w >= w* (also at 0.49,
        # near the flat point of g)
        w_star = weight_threshold(M)
        assert 0.0 < w_star < 0.5
        assert map_g(np.nextafter(w_star, 0.0)) < M <= map_g(w_star)
        n = 2 ** 16
        scan = double(np.arange(bits(w_star) - n, bits(w_star) + n))
        assert np.array_equal(map_g(scan) >= M, scan >= w_star)

    @pytest.mark.parametrize("M", [0.2, 0.49])
    def test_map_g_calls_per_step(self, monkeypatch, M):
        prob = make_test("8")
        cfg = CliConfig(test_id="8", scheme="af-rkc4", refinements=1, M=M)
        sc = solver_config(cfg, prob, 0)
        u = prob.initial_field(0)
        dt = prob.T_final / prob.n_steps(0)
        weight_threshold(M)     # bisected once per M, at first use
        counted = []

        def counting(w):
            counted.append(w.shape)
            return map_g(w)

        monkeypatch.setattr(indicators2d, "map_g", counting)
        _adaptive_step(u, sc, high_order_step("rkc4"), dt)
        assert counted == []

    @pytest.mark.parametrize("M", [0.2, 0.49])
    def test_study_builds_the_combined_weight_only_when_read(
            self, monkeypatch, tmp_path, M):
        # one beta pass per step and one for the final maps, whose omega
        # is g of the final mask's smallest raw weight, not a second pass
        built = []

        def spy(field, formula):
            built.append(formula)
            return quadrant_beta_fields(field, formula)

        monkeypatch.setattr(indicators2d, "quadrant_beta_fields", spy)
        assert main(["solve", "--test", "8", "--scheme", "af-rkc4",
                     "--refinements", "1", "--M", str(M),
                     "--out", str(tmp_path)]) == 0
        steps = make_test("8").n_steps(0)
        assert len(built) == steps + 1
        for name in ("omega.csv", "phi.csv", "epsilon.csv"):
            assert (tmp_path / name).stat().st_size > 0
