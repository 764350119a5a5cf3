import numpy as np
import pytest

from hjaf.grids import BoundaryCondition, Grid1D, GridField
from hjaf.indicators1d import (Indicator1DConfig, Variant1D, beta_fields_1d,
                               map_g, omega_field_1d, phi_1d, smoothness_1d,
                               weno_weight)
from hjaf.indicators2d import Indicator2DConfig
from hjaf.problems import make_test

from oracles import divided_difference, flagged_cells_1d, ghost_value

PER = BoundaryCondition.PERIODIC


def betas_at(field, j):
    """(beta0-, beta1-, beta0+, beta1+) at node j of the field kernel."""
    return tuple(b[j] for b in beta_fields_1d(field))


def sampled(fn, x0, dx, n, bc=PER):
    g = Grid1D(x0=x0, dx=dx, n=n)
    return GridField(g, fn(g.nodes()), bc)


class TestBetaPairs:
    def test_constant_field(self):
        f = sampled(lambda x: np.full_like(x, 2.5), 0.0, 0.1, 12)
        assert betas_at(f, 6) == (0.0, 0.0, 0.0, 0.0)

    def test_parabola_all_equal(self):
        h = 0.05
        f = sampled(lambda x: x ** 2, -1.0, h, 41, BoundaryCondition.NEUMANN_ZERO)
        b = betas_at(f, 20)
        assert b == pytest.approx((4 * h * h,) * 4, rel=1e-10)

    def test_kink_at_node(self):
        f = sampled(np.abs, -1.0, 0.1, 21, BoundaryCondition.NEUMANN_ZERO)
        b0m, b1m, b0p, b1p = betas_at(f, 10)  # node exactly at x = 0
        assert (b0m, b1p) == (0.0, 0.0)
        assert b1m == pytest.approx(4.0)
        assert b0p == pytest.approx(4.0)

    def test_shift_identity(self):
        # beta+ at node j equals beta- at node j+1, component-wise
        rng = np.random.default_rng(5)
        f = sampled(lambda x: rng.normal(size=x.shape), 0.0, 0.2, 16)
        for j in range(3, 12):
            here = betas_at(f, j)
            right = betas_at(f, j + 1)
            assert here[2] == right[0]
            assert here[3] == right[1]

    def test_fields_match_divided_differences(self):
        # beta at center c = j + k is (2 dx f[x_{c-1}, x_c, x_{c+1}])^2 from
        # ghost samples, also where c itself is a ghost node
        rng = np.random.default_rng(6)
        dx, n = 0.3, 14
        for bc in (PER, BoundaryCondition.NEUMANN_ZERO):
            f = sampled(lambda x: rng.normal(size=x.shape), 0.0, dx, n, bc)
            fields = beta_fields_1d(f)
            for j in range(n):
                for beta, k in zip(fields, (-1, 0, 0, 1)):
                    c = j + k
                    dd = divided_difference([(c + m) * dx for m in (-1, 0, 1)],
                                            [ghost_value(f, c + m) for m in (-1, 0, 1)])
                    assert beta[j] == pytest.approx((2.0 * dx * dd) ** 2,
                                                    rel=1e-12, abs=1e-12)

    def test_neumann_edge_reads_ghost_data(self):
        # node 0's outer left stencil is centered at ghost node -1, whose
        # clamped data (0, 0, 0) has no curvature: weight 1/4 / (1/4 + 1)
        f = sampled(lambda x: np.array([0, 1, 3, 2, 5, 1, 0, 2], float),
                    0.0, 1.0, 8, BoundaryCondition.NEUMANN_ZERO)
        assert betas_at(f, 0) == (0.0, 1.0, 1.0, 1.0)
        assert omega_field_1d(f, Indicator1DConfig())[0] == pytest.approx(0.2)


class TestMapping:
    def test_endpoints_and_midpoint(self):
        assert map_g(0.0) == 0.0
        assert map_g(1.0) == 1.0
        assert map_g(0.5) == 0.5

    def test_quarter(self):
        assert map_g(0.25) == pytest.approx(0.4375)

    def test_flat_at_half(self):
        # both derivatives vanish at 1/2: deviation eps maps to O(eps^3)
        for eps in (1e-2, 1e-3):
            assert abs(map_g(0.5 + eps) - 0.5) <= 4.1 * eps ** 3

    def test_clamps_out_of_range(self):
        assert map_g(-0.3) == 0.0
        assert map_g(1.7) == 1.0

    def test_monotone_on_unit_interval(self):
        w = np.linspace(0, 1, 201)
        assert (np.diff(map_g(w)) >= 0).all()


class TestOmega:
    @pytest.mark.parametrize("variant", list(Variant1D))
    def test_constant_gives_exactly_half(self, variant):
        cfg = Indicator1DConfig(variant=variant)
        f = sampled(lambda x: np.full_like(x, 3.0), 0.0, 0.1, 10)
        om = omega_field_1d(f, cfg)
        assert (om == 0.5).all()

    def test_weno_weight_closed_form(self):
        # a / (a + a') with a = 1/(b + s)^2 is (b' + s)^2 / ((b + s)^2 + (b' + s)^2)
        rng = np.random.default_rng(4)
        b, c = rng.exponential(size=(2, 50))
        w = weno_weight(b, c, 0.01)
        assert w == pytest.approx((c + 0.01) ** 2
                                  / ((b + 0.01) ** 2 + (c + 0.01) ** 2), rel=1e-13)
        assert weno_weight(c, b, 0.01) == pytest.approx(1.0 - w, abs=1e-15)
        assert (weno_weight(b, b, 0.01) == 0.5).all()

    def test_equal_betas_give_half(self):
        # exactly representable parabola samples: betas bitwise equal,
        # so both side weights are exactly 1/2
        g = Grid1D(x0=0.0, dx=0.5, n=7)
        f = GridField(g, np.array([9.0, 4.0, 1.0, 0.0, 1.0, 4.0, 9.0]),
                      BoundaryCondition.NEUMANN_ZERO)
        b = betas_at(f, 3)
        assert b[0] == b[1] == b[2] == b[3]
        assert omega_field_1d(f, Indicator1DConfig())[3] == 0.5

    def test_smooth_deviation_orders(self):
        # on a smooth segment with nonzero curvature: raw O(dx),
        # remapped O(dx^3) or better
        def dev(variant, dx):
            f = sampled(lambda x: np.sin(x), 0.0, dx, int(round(2 * np.pi / dx)))
            om = omega_field_1d(f, Indicator1DConfig(variant=variant))
            x = f.grid.nodes()
            window = (np.abs(np.sin(x)) > 0.3)  # stay away from curvature zeros
            return np.abs(om[window] - 0.5).max()

        raw = [dev(Variant1D.RAW, h) for h in (0.02, 0.01)]
        assert raw[0] / raw[1] >= 1.7
        mapped = [dev(Variant1D.MAPPED_G, h) for h in (0.02, 0.01)]
        assert mapped[0] / mapped[1] >= 6.0
        znew = [dev(Variant1D.WENO_Z_NEW, h) for h in (0.02, 0.01)]
        assert znew[0] / znew[1] >= 12.0

    def test_kink_flagged_below_threshold(self):
        # kink interior to (x_{j-1}, x_{j+1}): omega collapses like dx^4
        def omega_at_kink(h):
            n = int(round(2.0 / h)) + 2
            f = sampled(np.abs, -1.0 - h / 2, h, n, BoundaryCondition.NEUMANN_ZERO)
            j = int(round((h / 2 - f.grid.x0) / h))
            return omega_field_1d(f, Indicator1DConfig())[j]

        w1, w2 = omega_at_kink(0.1), omega_at_kink(0.05)
        assert w1 < 0.2
        assert w1 / w2 >= 12.0  # O(dx^4) collapse

    def test_omega_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for variant in Variant1D:
            cfg = Indicator1DConfig(variant=variant)
            for _ in range(25):
                f = sampled(lambda x: rng.normal(size=x.shape), 0.0, 0.1, 20)
                om = omega_field_1d(f, cfg)
                assert (om >= 0.0).all() and (om <= 1.0).all()


class TestScalingLaw:
    def test_smooth_beta_halving_ratio(self):
        # C^3 data with nonzero second derivative: beta = O(dx^2)
        def beta_at(dx):
            f = sampled(np.exp, -0.5, dx, int(round(1.0 / dx)) + 1,
                        BoundaryCondition.NEUMANN_ZERO)
            j = int(round(0.5 / dx))
            return betas_at(f, j)[1]

        for h in (0.02, 0.01):
            ratio = beta_at(h) / beta_at(h / 2)
            assert 3.2 <= ratio <= 4.8

    def test_kink_beta_halving_ratio(self):
        # kink strictly inside the stencil hull: beta = O(1)
        def beta_at(dx):
            f = sampled(lambda x: np.abs(x - 0.35 * dx), -1.0, dx,
                        int(round(2.0 / dx)) + 1, BoundaryCondition.NEUMANN_ZERO)
            j = int(round(1.0 / dx))
            return betas_at(f, j)[1]

        for h in (0.02, 0.01):
            ratio = beta_at(h) / beta_at(h / 2)
            assert 0.8 <= ratio <= 1.2


class TestPhi:
    @pytest.mark.parametrize("config", [Indicator1DConfig, Indicator2DConfig])
    def test_threshold_inclusive(self, config):
        # one threshold serves both dimensions, inclusive at M
        cfg = config(M=0.2)
        assert phi_1d(np.array([0.5]), cfg)[0] == 1
        assert phi_1d(np.array([0.2]), cfg)[0] == 1
        assert phi_1d(np.array([0.19]), cfg)[0] == 0

    @pytest.mark.parametrize("variant", list(Variant1D))
    def test_phi_is_the_boolean_threshold(self, variant):
        # the trust mask is omega >= M itself, no integer copy of it
        f = make_test("1").build_field(0.1)
        cfg = Indicator1DConfig(variant=variant)
        sm = smoothness_1d(f, cfg)
        assert sm.phi.dtype == np.bool_
        assert np.array_equal(sm.phi, sm.omega >= cfg.M)
        assert not sm.phi.all() and sm.phi.any()

    def test_piecewise_function_detection(self):
        # kink at 0, jumps at 2 and 4 all flagged; smooth interior clean
        case = make_test("1")
        f = case.build_field(0.05)
        sm = smoothness_1d(f, Indicator1DConfig(variant=Variant1D.MAPPED_G))
        cells = flagged_cells_1d(sm.phi)
        x = f.grid.nodes()
        for xs in (0.0, 2.0, 4.0):
            j = int(round((xs - f.grid.x0) / f.grid.dx))
            assert cells[j - 1] or cells[j]
        # smooth sine interior stays trusted
        inner = (x > 2.4) & (x < 3.6)
        assert (sm.phi[inner] == 1).all()
        # and nothing flags away from the three singular points at all
        away = np.ones(len(x), dtype=bool)
        for xs in (0.0, 2.0, 4.0):
            away &= np.abs(x - xs) > 4 * f.grid.dx
        assert (sm.phi[away] == 1).all()

    def test_flagged_cells_edges(self):
        phi = np.array([1, 1, 0, 1, 1], dtype=np.int8)
        assert flagged_cells_1d(phi).tolist() == [False, True, True, False]


class TestConfigValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            Indicator1DConfig(M=0.5)
        with pytest.raises(ValueError):
            Indicator1DConfig(M=0.0)

    def test_sigma_positive(self):
        # an infinite sigma_h would turn every weight into inf/inf = NaN
        for sigma in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and positive"):
                Indicator1DConfig(sigma=sigma)

    @pytest.mark.parametrize("variant", ["mapped-g", "raw", 42, None])
    def test_variant_must_be_a_member(self, variant):
        # "mapped-g" used to run the weno-z-new weight
        with pytest.raises(ValueError, match="Variant1D member"):
            Indicator1DConfig(variant=variant)
