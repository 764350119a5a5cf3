import csv
import importlib.util
import io
import os
import re
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hjaf.cli as cli
import hjaf.filtering as filtering
import hjaf.harness as harness
from hjaf.cli import _build_parser as build_parser, main as cli_main
from hjaf.filtering import StepRecord, af_evolve
from hjaf.grids import BoundaryCondition, Grid2D, GridField
from hjaf.harness import (CliConfig, IndicatorRunConfig, run_convergence,
                          run_indicators, solver_config)
from hjaf.indicators1d import Indicator1DConfig, Variant1D, omega_field_1d
from hjaf.indicators2d import Formula2D, Indicator2DConfig, omega_field_2d
from hjaf.problems import INDICATOR_IDS, PLACEMENTS, make_test
from hjaf.reporting import (RunReport, error_norms, observed_order,
                            parse_report_csv, write_table)


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

    def test_write_table(self):
        buf = io.StringIO()
        write_table(buf, ("step", "t", "order", "count"),
                    [(1, 0.1, None, 3), (2, 1 / 3, float("inf"), 0)])
        assert buf.getvalue() == ("step,t,order,count\n"
                                  "1,0.10000000000000001,,3\n"
                                  "2,0.33333333333333331,inf,0\n")


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

    # one scheme per branch of af_evolve's step: an adaptive blend, a
    # high-order scheme alone, and af_step at a fixed scale (f-hc-fixed's,
    # and monotone's eps = 0)
    @pytest.mark.parametrize("scheme", ["af-rkc4", "rkc4", "f-hc-fixed",
                                        "monotone"])
    def test_epsilon_csv_reads_back_as_the_step_records(self, scheme,
                                                        tmp_path):
        cfg = CliConfig(test_id="8", scheme=scheme, refinements=1,
                        out_dir=str(tmp_path))
        run_convergence(cfg)
        prob = make_test("8")
        _, records = af_evolve(prob.initial_field(0),
                               solver_config(cfg, prob, 0), prob.T_final,
                               prob.n_steps(0))
        with open(tmp_path / "epsilon.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [StepRecord(step=int(r["step"]), t=float(r["t"]),
                           epsilon_n=float(r["epsilon_n"]),
                           phi_zero_count=int(r["phi_zero_count"]))
                for r in rows] == records
        assert len(records) == prob.n_steps(0)
        if scheme == "af-rkc4":     # the file holds more than zeros
            assert any(r.epsilon_n > 0 for r in records)
            assert any(r.phi_zero_count > 0 for r in records)

    def test_final_maps_use_solver_indicator(self, tmp_path, monkeypatch):
        # the omega/phi dump reuses the indicator config the solver ran
        # with, and reaches the indicator through filtering's name, as
        # every adaptive step does: one call per step, then the dump
        seen = {"maps": []}
        evolve, smooth = harness.af_evolve, filtering.smoothness_2d

        def spy_evolve(u0, config, T, n_steps):
            seen["solver"], seen["steps"] = config.indicator, n_steps
            return evolve(u0, config, T, n_steps)

        def spy_smooth(field, cfg, **kwargs):
            seen["maps"].append(cfg)
            return smooth(field, cfg, **kwargs)

        monkeypatch.setattr(harness, "af_evolve", spy_evolve)
        monkeypatch.setattr(filtering, "smoothness_2d", spy_smooth)
        run_convergence(CliConfig(test_id="8", scheme="af-hc", refinements=1,
                                  indicator="partial", sigma=1.5, M=0.3,
                                  out_dir=str(tmp_path)))
        assert len(seen["maps"]) == seen["steps"] + 1
        assert all(cfg == seen["solver"] for cfg in seen["maps"])

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

    def test_study_writes_one_row_per_level(self, tmp_path):
        out = tmp_path / "study"
        assert cli_main(["solve", "--test", "8", "--scheme", "monotone",
                         "--refinements", "3", "--out", str(out)]) == 0
        rows = parse_report_csv((out / "table.csv").read_text()).rows
        assert [(r.nx, r.nt) for r in rows] == [(20, 20), (40, 40), (80, 80)]
        assert all(r.cpu_seconds > 0 for r in rows)
        # the other files describe the finest level
        assert len((out / "field_final.csv").read_text().splitlines()) == 1 + 80 * 80
        assert len((out / "epsilon.csv").read_text().splitlines()) == 1 + 80
        keys = [ln.split(" = ")[0]
                for ln in (out / "meta").read_text().splitlines()]
        assert keys == [f.name for f in fields(CliConfig)
                        if f.name != "out_dir"] + ["problem"]


class TestRunIndicators:
    def test_1d_dump(self, tmp_path):
        out = tmp_path / "ind1"
        field, _ = run_indicators(IndicatorRunConfig(test_id="1", dx=0.1,
                                                     placement="node",
                                                     variant="weno-z-new",
                                                     out_dir=str(out)))
        lines = (out / "indicators.csv").read_text().splitlines()
        assert lines[0] == "x,omega,phi"
        assert len(lines) == 1 + field.grid.n

    def test_2d_dump(self, tmp_path):
        out = tmp_path / "ind2"
        _, sm = run_indicators(IndicatorRunConfig(test_id="2", dx=0.2,
                                                  placement="cell",
                                                  variant="full",
                                                  out_dir=str(out)))
        om = (out / "omega.csv").read_text().splitlines()
        assert om[0] == "x,y,omega"
        assert len(om) == 1 + sm.omega.size
        ph = (out / "phi.csv").read_text().splitlines()
        assert ph[0] == "x,y,phi"
        assert [ln.split(",")[2] for ln in ph[1:]] == [str(int(p)) for p in sm.phi.ravel()]

    def test_damped_radial_origin_detected(self):
        f, sm = run_indicators(IndicatorRunConfig(test_id="3", dx=0.05))
        j0 = int(round((0 - f.grid.x0) / f.grid.dx))
        i0 = int(round((0 - f.grid.y0) / f.grid.dy))
        block = sm.phi[i0 - 1:i0 + 2, j0 - 1:j0 + 2]
        assert (block == 0).any()
        # detection runs use periodic indexing even for non-periodic
        # functions: the gradient jump across the domain seam is flagged
        # (an accepted artifact of that convention)
        assert (sm.phi[0, :] == 0).any()
        assert (sm.phi[:, 0] == 0).any()

    def test_split_misses_ridge_origin(self):
        f, split = run_indicators(IndicatorRunConfig(test_id="4", dx=0.1,
                                                     variant="split"))
        j0 = int(round((0 - f.grid.x0) / f.grid.dx))
        i0 = int(round((0 - f.grid.y0) / f.grid.dy))
        assert split.phi[i0, j0] == 1
        assert split.omega[i0, j0] == 0.5

    def test_evolution_id_rejected(self):
        with pytest.raises(ValueError):
            run_indicators(IndicatorRunConfig(test_id="5"))

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError):
            run_indicators(IndicatorRunConfig(test_id="2", variant="raw"))

    # every detection case, in each variant of its dimension, over every
    # sigma in (0, inf) and M in (0, 1/2), extremes and subnormals included
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(t, v.value) for t in INDICATOR_IDS
                            for v in (Variant1D if make_test(t).dims == 1
                                      else Formula2D)]),
           st.sampled_from(PLACEMENTS),
           st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    @example(("2", "full"), "node", 1e300, 0.2)
    @example(("1", "weno-z"), "cell", 5e-324, 0.49)
    def test_every_accepted_option_maps_or_is_refused(self, case, placement,
                                                      sigma, M):
        """The maps are finite, or the run is refused with a message that
        names the NaN weight or the sigma_h too small for two WENO terms
        to sum."""
        test_id, variant = case
        cfg = IndicatorRunConfig(test_id=test_id, placement=placement,
                                 variant=variant, M=M, sigma=sigma)
        try:
            with np.errstate(all="ignore"):
                _, sm = run_indicators(cfg)
        except ValueError as exc:
            assert re.match(r"NaN smoothness weight at node |sigma_h(_x)? = "
                            r"\S+ is too small", str(exc)), exc
            return
        assert np.all(np.isfinite(sm.omega))
        assert np.array_equal(sm.phi, sm.omega >= M)


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

    @pytest.mark.parametrize("argv", [
        ["solve", "--test", "5", "--refinements", "1", "--sigma", "inf"],
        ["solve", "--test", "5", "--refinements", "1", "--K", "inf"],
        ["indicators", "--test", "2", "--sigma", "inf"],
    ], ids=["solve-sigma", "solve-K", "indicators-sigma"])
    def test_infinite_sigma_or_K_fails_cleanly(self, argv, capsys):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err

    # sigma_h**2 over- or underflows, and a weight is 0/0: each was a
    # silent run, every NaN node untrusted (the first as the monotone
    # scheme); one run per path that thresholds a weight
    @pytest.mark.parametrize("argv, where", [
        (["solve", "--test", "8", "--scheme", "af-rkc4", "--sigma", "1e300"],
         r"step 1 \(t = .*\(i, j\) = \(0, 0\), \(x, y\) = \(0, 0\), "
         r"with sigma_h = 1e\+298"),
        (["solve", "--test", "7b", "--scheme", "af-rkc4", "--sigma", "1e-160"],
         r"step 1 \(t = .*with sigma_h = 4e-162"),
        (["indicators", "--test", "2", "--sigma", "1e300"],
         r"\(x, y\) = \(-2, -2\), with sigma_h = 2.5e\+297"),
        (["indicators", "--test", "2", "--sigma", "1e300", "--M", "0.49"],
         r"with sigma_h = 2.5e\+297"),
        (["indicators", "--test", "2", "--sigma", "1e300", "--variant",
          "split"], r"with sigma_h_x = 2.5e\+297, sigma_h_y = 2.5e\+297"),
        (["indicators", "--test", "1", "--sigma", "1e300"],
         r"node j = 0, x = -1.5, with sigma_h = 2.5e\+297"),
    ], ids=["solve-8-overflow", "solve-7b-underflow", "indicators-2d",
            "indicators-2d-M-near-half", "indicators-split",
            "indicators-1d"])
    def test_nan_weight_is_refused(self, argv, where, capsys):
        if argv[0] == "solve":
            argv = argv + ["--refinements", "1"]
        with np.errstate(all="ignore"):
            assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert re.match(r"error: (step \d+ .*: )?NaN smoothness weight at "
                        r"node ", err), err
        assert re.search(where, err), err

    # sigma_h so small that two finite WENO terms 1 / sigma_h**2 overflow
    # their sum: the weight of a node whose betas vanish read 0, not 1/2,
    # and the run went on silently (5304 of 6400 nodes of test 2 flagged)
    @pytest.mark.parametrize("argv, used", [
        (["indicators", "--test", "2", "--sigma", "3.2e-152"],
         "sigma_h = 8e-155"),
        (["indicators", "--test", "2", "--sigma", "3.2e-152", "--M", "0.49"],
         "sigma_h = 8e-155"),
        (["indicators", "--test", "2", "--sigma", "3.2e-152", "--variant",
          "split"], "sigma_h_x = 8e-155"),
        (["indicators", "--test", "1", "--sigma", "4e-152"],
         "sigma_h = 1e-154"),
        (["solve", "--test", "8", "--scheme", "af-rkc4", "--sigma", "1e-153",
          "--refinements", "1"], r"step 1 \(t = .*\): sigma_h = 1e-155"),
    ], ids=["indicators-2d", "indicators-2d-M-near-half",
            "indicators-split", "indicators-1d", "solve-8"])
    def test_tiny_sigma_h_is_refused(self, argv, used, capsys):
        with np.errstate(all="ignore"):
            assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert re.match(rf"error: {used} is too small: the sum of two WENO "
                        r"terms .* overflows", err), err

    # the kernels whose weight is checked run without numpy's overflow
    # and 0/0 warnings: a refused sigma prints its error line alone
    @pytest.mark.parametrize("argv", [
        ["solve", "--test", "8", "--scheme", "af-rkc4", "--refinements", "1",
         "--sigma", "1e300"],
        ["indicators", "--test", "2", "--sigma", "1e300"],
        ["indicators", "--test", "2", "--sigma", "3.2e-152"],
    ], ids=["solve-overflow", "indicators-overflow", "indicators-tiny"])
    def test_refused_sigma_prints_one_line(self, argv):
        src = str(Path(harness.__file__).resolve().parents[1])
        env = os.environ | {"PYTHONPATH": src}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run([sys.executable, "-m", "hjaf.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 1
        assert done.stderr.startswith("error: "), done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr

    def test_refused_final_maps_leave_no_file(self, tmp_path, capsys):
        # a non-adaptive scheme meets the NaN weight only in the final
        # maps, which are built before any file of the study is opened
        out = tmp_path / "out"
        assert cli_main(["solve", "--test", "8", "--scheme", "monotone",
                         "--refinements", "1", "--sigma", "1e300",
                         "--out", str(out)]) == 1
        assert "NaN smoothness weight" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("eps", ["-1", "0", "nan"])
    def test_invalid_fixed_scale_fails_cleanly(self, eps, capsys):
        code = cli_main(["solve", "--test", "5", "--scheme", "f-hc-fixed",
                         "--epsilon-fixed", eps, "--refinements", "1"])
        assert code == 1
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", [
        "af-hc", "hc", "monotone", "af-rkc4", "af-lw2"])
    def test_fixed_scale_refused_off_f_hc_fixed(self, scheme, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["solve", "--test", "8", "--scheme", scheme,
                         "--epsilon-fixed", "0.1", "--refinements", "1",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "epsilon_fixed" in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", [
        "af-hc", "hc", "lw", "af-lw", "rkc4", "af-rkc4", "monotone",
        "f-hc-fixed"])
    def test_lw2_corrected_refused_off_lw2_and_richtmyer(self, scheme,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        code = cli_main(["solve", "--test", "8", "--scheme", scheme,
                         "--lw2-corrected", "--refinements", "1",
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lw2_corrected" in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme, K", [
        ("rkc4", "5"), ("monotone", "2"), ("f-hc-fixed", "3")])
    def test_K_refused_off_the_adaptive_schemes(self, scheme, K, tmp_path,
                                                capsys):
        # only epsilon_n reads K, and only the af- schemes call it
        out = tmp_path / "out"
        code = cli_main(["solve", "--test", "8", "--scheme", scheme,
                         "--K", K, "--refinements", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "safety factor K" in err
        assert scheme in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["lw2", "richtmyer", "af-lw2",
                                        "af-richtmyer"])
    def test_lw2_corrected_accepted_where_it_acts(self, scheme):
        cfg = CliConfig(test_id="8", scheme=scheme, lw2_corrected=True)
        assert cfg.lw2_corrected

    @pytest.mark.parametrize("dx", ["0", "nan", "inf", "-0.1"])
    def test_invalid_dx_fails_cleanly(self, dx, capsys):
        code = cli_main(["indicators", "--test", "2", "--dx", dx])
        assert code == 1
        assert "error: dx must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("argv", [
        ["solve", "--test", "8", "--scheme", "af-rkc4", "--refinements", "3"],
        ["indicators", "--test", "2"]], ids=["solve", "indicators"])
    def test_unusable_out_fails_before_the_study(self, argv, below, tmp_path,
                                                 monkeypatch, capsys):
        # it used to evolve every level, then die with a traceback
        blocker = tmp_path / "F"
        blocker.write_text("")

        def evolve(*args, **kwargs):
            raise AssertionError("the study ran")
        monkeypatch.setattr(harness, "af_evolve", evolve)
        out = blocker / "sub" if below else blocker
        assert cli_main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv, run, config", [
        (["solve", "--test", "5", "--refinements", "1"], run_convergence,
         lambda out: CliConfig(test_id="5", refinements=1, out_dir=out)),
        (["indicators", "--test", "2"], run_indicators,
         lambda out: IndicatorRunConfig(test_id="2", out_dir=out)),
    ], ids=["solve", "indicators"])
    def test_options_left_out_take_the_config_defaults(
            self, argv, run, config, tmp_path, capsys):
        # meta echoes every config field, so a default the command line
        # keeps of its own shows up as a differing line
        assert cli_main(argv + ["--out", str(tmp_path / "cli")]) == 0
        run(config(str(tmp_path / "lib")))
        assert ((tmp_path / "cli" / "meta").read_text()
                == (tmp_path / "lib" / "meta").read_text())

    @pytest.mark.parametrize("test_id, variant, sigma",
                             [("1", "mapped-g", 1.0), ("2", "full", 2.0)])
    def test_indicators_meta_names_the_indicator_used(self, test_id, variant,
                                                      sigma, tmp_path):
        # the config echo keeps variant and sigma at None; the lines after
        # it say what the maps were made with
        out = tmp_path / "cli"
        assert cli_main(["indicators", "--test", test_id, "--out", str(out)]) == 0
        lines = (out / "meta").read_text().splitlines()
        assert [ln.split(" = ")[0] for ln in lines[:-2]] == [
            f.name for f in fields(IndicatorRunConfig) if f.name != "out_dir"]
        assert "variant = None" in lines and "sigma = None" in lines
        assert lines[-2:] == [f"resolved_variant = {variant!r}",
                              f"resolved_sigma = {sigma!r}"]

    @pytest.mark.parametrize("argv", [["solve", "--test", "5"],
                                      ["indicators", "--test", "2"]],
                             ids=["solve", "indicators"])
    def test_parser_sets_only_the_options_given(self, argv):
        args = vars(build_parser().parse_args(argv))
        assert args == {"command": argv[0], "test_id": argv[2]}


class TestAllocator:
    """The program tunes glibc's allocator as the benchmark does; a caller
    of ``main([...])`` keeps its own."""

    def test_values_are_the_benchmarks(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "env.py"
        spec = importlib.util.spec_from_file_location("bench_env", path)
        env = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(env)
        assert {f"MALLOC_{name}_": str(value)
                for name, (_, value) in cli.MALLOPT.items()} == env.MALLOC_VARS

    def test_only_the_program_tunes(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_tune_allocator", lambda: calls.append(1))
        argv = ["indicators", "--test", "2", "--dx", "0"]    # exits 1 early
        assert cli.main(argv) == 1
        assert calls == []
        monkeypatch.setattr(sys, "argv", ["hjaf", *argv])
        assert cli.main() == 1
        assert calls == [1]

    @staticmethod
    def _libc(monkeypatch, name, cdll):
        monkeypatch.setattr(cli.platform, "libc_ver", lambda: (name, "2.35"))
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)

    def test_glibc_gets_the_three_parameters(self, monkeypatch):
        calls = []
        mallopt = lambda *args: calls.append(args) or 1
        self._libc(monkeypatch, "glibc",
                   lambda path: types.SimpleNamespace(mallopt=mallopt))
        cli._tune_allocator()
        # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_TOP_PAD of glibc's malloc.h
        assert sorted(calls) == [(-3, 32 << 20), (-2, 64 << 20), (-1, 1 << 30)]

    def test_no_op_off_glibc(self, monkeypatch):
        def cdll(path):
            raise AssertionError("the C library was opened off glibc")
        self._libc(monkeypatch, "musl", cdll)
        cli._tune_allocator()

    def test_failed_call_is_ignored(self, monkeypatch):
        def cdll(path):
            raise OSError("no C library")
        self._libc(monkeypatch, "glibc", cdll)
        cli._tune_allocator()


def test_cli_defaults_are_the_library_defaults():
    # a study's solver config, and a detection run's maps, with no option
    # set are the library's own defaults
    prob = make_test("8")
    assert (harness.solver_config(CliConfig(test_id="8"), prob, 0)
            == filtering.SolverConfig(hamiltonian=prob.hamiltonian))
    for test_id, omega in (
            ("1", lambda f: omega_field_1d(f, Indicator1DConfig())),
            ("2", lambda f: omega_field_2d(f, Indicator2DConfig()))):
        field, sm = run_indicators(IndicatorRunConfig(test_id=test_id))
        assert np.array_equal(sm.omega, omega(field))


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"```python\n(.*?)```", readme.read_text(), re.S)
    exec(compile(block.group(1), str(readme), "exec"), {})
