import io

import numpy as np
import pytest

import hjaf.harness as harness
from hjaf.cli import main as cli_main
from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.harness import (CliConfig, IndicatorRunConfig, run_convergence,
                          run_indicators)
from hjaf.reporting import (RunReport, error_norms, observed_order,
                            parse_report_csv)


class TestErrorNorms:
    def test_zero_error(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        u = GridField(g, np.ones((10, 10)), BoundaryCondition.NEUMANN_ZERO)
        assert error_norms(u, np.ones((10, 10))) == (0.0, 0.0)

    def test_single_node_weighting(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        vals = np.zeros((10, 10))
        vals[3, 4] = 1.0
        u = GridField(g, vals, BoundaryCondition.NEUMANN_ZERO)
        linf, l1 = error_norms(u, np.zeros((10, 10)))
        assert linf == 1.0
        assert l1 == pytest.approx(0.01)

    def test_shape_mismatch(self):
        g = Grid2D(0, 0, 0.1, 0.1, 10, 10)
        u = GridField(g, np.zeros((10, 10)), BoundaryCondition.NEUMANN_ZERO)
        with pytest.raises(ValueError):
            error_norms(u, np.zeros((9, 10)))


class TestObservedOrder:
    def test_clean_halving(self):
        assert observed_order(4e-2, 1e-2) == pytest.approx(2.0)

    def test_stagnation(self):
        assert observed_order(1e-2, 1e-2) == 0.0

    def test_second_order_table_entry(self):
        assert observed_order(2.23e-02, 5.52e-03) == pytest.approx(2.01, abs=0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            observed_order(-1.0, 1.0)


class TestReportCsv:
    def test_round_trip(self):
        rep = RunReport()
        rep.append_level(40, 30, 9.4e-2, 7.1e-2, 0.25)
        rep.append_level(80, 60, 2.2e-2, 1.7e-2, 1.5)
        buf = io.StringIO()
        rep.write_csv(buf)
        back = parse_report_csv(buf.getvalue())
        assert back.rows == rep.rows

    def test_orders_from_second_row(self):
        rep = RunReport()
        r0 = rep.append_level(40, 30, 8.0, 4.0, 0.0)
        r1 = rep.append_level(80, 60, 2.0, 1.0, 0.0)
        assert r0.ord_linf is None and r0.ord_l1 is None
        assert r1.ord_linf == pytest.approx(2.0)
        assert r1.ord_l1 == pytest.approx(2.0)

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            parse_report_csv("bogus\n1,2,3")


class TestRunConvergence:
    def test_monotone_smoke_single_level(self):
        rep = run_convergence(CliConfig(test_id="5", scheme="monotone",
                                        refinements=1))
        assert len(rep.rows) == 1
        row = rep.rows[0]
        assert row.nx == 40 and row.nt == 30
        assert np.isfinite(row.err_linf) and row.err_linf > 0
        assert row.ord_linf is None

    def test_detection_case_rejected(self):
        with pytest.raises(ValueError):
            run_convergence(CliConfig(test_id="2", scheme="monotone"))

    def test_refinement_doubles_grid(self):
        rep = run_convergence(CliConfig(test_id="5", scheme="monotone",
                                        refinements=2))
        assert (rep.rows[1].nx, rep.rows[1].nt) == (80, 60)

    def test_determinism_bit_identical_tables(self, tmp_path):
        cfg = dict(test_id="5", scheme="af-hc", refinements=2)
        a = run_convergence(CliConfig(**cfg, out_dir=str(tmp_path / "a")))
        b = run_convergence(CliConfig(**cfg, out_dir=str(tmp_path / "b")))
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.nx, ra.nt, ra.err_linf, ra.ord_linf,
                    ra.err_l1, ra.ord_l1) == (rb.nx, rb.nt, rb.err_linf,
                                              rb.ord_linf, rb.err_l1, rb.ord_l1)
        # csv outputs identical except the wall-clock column
        def strip_cpu(path):
            lines = (path / "table.csv").read_text().splitlines()
            return [",".join(ln.split(",")[:-1]) for ln in lines]
        assert strip_cpu(tmp_path / "a") == strip_cpu(tmp_path / "b")
        # every other artifact is bit-identical
        for name in ("field_final.csv", "omega.csv", "phi.csv", "epsilon.csv",
                     "meta"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes()), name

    def test_output_layout(self, tmp_path):
        out = tmp_path / "run"
        run_convergence(CliConfig(test_id="8", scheme="af-hc", refinements=1,
                                  out_dir=str(out)))
        for name in ("table.csv", "field_final.csv", "omega.csv", "phi.csv",
                     "epsilon.csv", "meta"):
            assert (out / name).exists(), name
        meta = (out / "meta").read_text()
        assert "scheme = 'af-hc'" in meta
        eps_lines = (out / "epsilon.csv").read_text().splitlines()
        assert eps_lines[0] == "step,t,epsilon_n,phi_zero_count"
        assert len(eps_lines) == 1 + 20  # one row per step

    def test_final_maps_use_solver_indicator(self, tmp_path, monkeypatch):
        # the omega/phi dump reuses the indicator config the solver ran with
        seen = {}
        evolve, smooth = harness.af_evolve, harness.smoothness_2d

        def spy_evolve(u0, config, *args):
            seen["solver"] = config.indicator
            return evolve(u0, config, *args)

        def spy_smooth(field, cfg):
            seen["maps"] = cfg
            return smooth(field, cfg)

        monkeypatch.setattr(harness, "af_evolve", spy_evolve)
        monkeypatch.setattr(harness, "smoothness_2d", spy_smooth)
        run_convergence(CliConfig(test_id="8", scheme="af-hc", refinements=1,
                                  indicator="partial", sigma=1.5, M=0.3,
                                  out_dir=str(tmp_path)))
        assert seen["maps"] == seen["solver"]

    def test_fixed_filter_default_scale(self):
        rep = run_convergence(CliConfig(test_id="5", scheme="f-hc-fixed",
                                        refinements=1))
        assert np.isfinite(rep.rows[0].err_linf)

    @pytest.mark.parametrize("scheme", ["af-lw", "af-lw2", "af-richtmyer",
                                        "lw", "rkc4"])
    def test_every_scheme_name_runs(self, scheme):
        rep = run_convergence(CliConfig(test_id="5", scheme=scheme,
                                        refinements=1))
        assert np.isfinite(rep.rows[0].err_linf)

    @pytest.mark.parametrize("indicator", ["partial", "split"])
    def test_indicator_variant_selection(self, indicator):
        rep = run_convergence(CliConfig(test_id="5", scheme="af-hc",
                                        refinements=1, indicator=indicator))
        assert np.isfinite(rep.rows[0].err_linf)

    def test_front_merging_case_runs(self):
        rep = run_convergence(CliConfig(test_id="7b", scheme="af-hc",
                                        refinements=1))
        assert np.isfinite(rep.rows[0].err_l1)
        assert rep.rows[0].nx == 30

    def test_reference_based_fallback_without_oracle(self):
        import dataclasses
        from hjaf.problems import make_test
        prob = dataclasses.replace(make_test("5"), exact=None)
        rep = run_convergence(CliConfig(test_id="5", scheme="monotone",
                                        refinements=3), problem=prob)
        assert rep.reference_based
        # the finest level is the reference, so it contributes no row
        assert len(rep.rows) == 2
        assert rep.rows[1].ord_linf is not None
        assert 0.5 <= rep.rows[1].ord_linf <= 1.5  # first-order scheme
        # each row carries its own level's measured evolve time
        assert all(row.cpu_seconds > 0 for row in rep.rows)


class TestRunIndicators:
    def test_1d_dump(self, tmp_path):
        out = tmp_path / "ind1"
        res = run_indicators(IndicatorRunConfig(test_id="1", dx=0.1,
                                                placement="node",
                                                variant="weno-z-new",
                                                out_dir=str(out)))
        lines = (out / "indicators.csv").read_text().splitlines()
        assert lines[0] == "x,omega,phi"
        assert len(lines) == 1 + res.field.grid.n

    def test_2d_dump(self, tmp_path):
        out = tmp_path / "ind2"
        res = run_indicators(IndicatorRunConfig(test_id="2", dx=0.2,
                                                placement="cell",
                                                variant="full",
                                                out_dir=str(out)))
        om = (out / "omega.csv").read_text().splitlines()
        assert om[0] == "x,y,omega"
        assert len(om) == 1 + res.omega.size
        ph = (out / "phi.csv").read_text().splitlines()
        assert ph[0] == "x,y,phi"
        assert [ln.split(",")[2] for ln in ph[1:]] == [str(p) for p in res.phi.ravel()]

    def test_damped_radial_origin_detected(self):
        res = run_indicators(IndicatorRunConfig(test_id="3", dx=0.05))
        f = res.field
        j0 = int(round((0 - f.grid.x0) / f.grid.dx))
        i0 = int(round((0 - f.grid.y0) / f.grid.dy))
        block = res.phi[i0 - 1:i0 + 2, j0 - 1:j0 + 2]
        assert (block == 0).any()
        # detection runs use periodic indexing even for non-periodic
        # functions: the gradient jump across the domain seam is flagged
        # (an accepted artifact of that convention)
        assert (res.phi[0, :] == 0).any()
        assert (res.phi[:, 0] == 0).any()

    def test_split_misses_ridge_origin(self):
        res_split = run_indicators(IndicatorRunConfig(test_id="4", dx=0.1,
                                                      variant="split"))
        f = res_split.field
        j0 = int(round((0 - f.grid.x0) / f.grid.dx))
        i0 = int(round((0 - f.grid.y0) / f.grid.dy))
        assert res_split.phi[i0, j0] == 1
        assert res_split.omega[i0, j0] == 0.5

    def test_evolution_id_rejected(self):
        with pytest.raises(ValueError):
            run_indicators(IndicatorRunConfig(test_id="5"))

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            run_indicators(IndicatorRunConfig(test_id="2", variant="raw"))


class TestCli:
    def test_solve_success(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = cli_main(["solve", "--test", "5", "--scheme", "monotone",
                         "--refinements", "1", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("N_x,N_t,err_Linf")
        assert (out / "table.csv").exists()

    def test_indicators_success(self, capsys):
        code = cli_main(["indicators", "--test", "4", "--dx", "0.2",
                         "--placement", "node", "--variant", "split"])
        assert code == 0
        assert "flagged=" in capsys.readouterr().out

    def test_invalid_safety_factor_fails_cleanly(self, capsys):
        code = cli_main(["solve", "--test", "5", "--scheme", "af-hc",
                         "--refinements", "1", "--K", "0.3"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["-1", "0", "nan"])
    def test_invalid_fixed_scale_fails_cleanly(self, eps, capsys):
        code = cli_main(["solve", "--test", "5", "--scheme", "f-hc-fixed",
                         "--epsilon-fixed", eps, "--refinements", "1"])
        assert code == 1
        assert "finite and positive" in capsys.readouterr().err

    def test_lambda_metadata(self):
        # the transport benchmark's nominal time-to-space ratio disagrees
        # with its reference grid/step pairing; the harness follows the table
        from hjaf.problems import make_test
        prob = make_test("5")
        assert prob.lambda_cfl == 0.2
        assert prob.effective_lambda(0) == pytest.approx(0.3)
