"""The benchmark's tracer (``perfbench/tracer.py``) swaps solver module
names for timing wrappers.  A refactor that renames one of them, or stops
reaching it through the module global, should fail here rather than in a
traced benchmark run."""
import sys
from pathlib import Path

import pytest

import hjaf.filtering as filtering
import hjaf.grids as grids
import hjaf.harness as harness
import hjaf.indicators2d as indicators2d
import hjaf.monotone as monotone
from hjaf.harness import CliConfig, run_convergence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Spans a one-level af-hc study with an output directory opens.  The
# tracer also wraps GridField.shifted, which no solver path calls.
REACHED = {"filtering.evolve", "reporting.norms", "harness.write",
           "indicators2d.smoothness", "indicators2d.beta", "indicators2d.phi",
           "filtering.epsilon", "filtering.select", "monotone.step",
           "monotone.hamiltonian", "highorder.step"}

OWNERS = (filtering, harness, indicators2d, monotone, grids.GridField)


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer
    yield tracer
    sys.modules.pop("tracer", None)


def test_traced_names_are_reached_and_restored(tracer_module, tmp_path):
    before = [dict(vars(owner)) for owner in OWNERS]
    tr = tracer_module.Tracer()
    with tracer_module.installed(tr):
        wrapped = {name for owner, names in zip(OWNERS, before)
                   for name, value in vars(owner).items()
                   if names.get(name) is not value}
        tr.active = True
        run_convergence(CliConfig(test_id="8", scheme="af-hc", refinements=1,
                                  out_dir=str(tmp_path)))
        tr.active = False
    assert {"quadrant_beta_fields", "phi_2d", "smoothness_2d", "epsilon_n",
            "af_step", "high_order_step", "shifted"} <= wrapped
    assert set(tr.names) - {tracer_module.PROBE} == REACHED
    after = [dict(vars(owner)) for owner in OWNERS]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[name] is value for name, value in old.items())
