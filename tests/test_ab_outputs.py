"""``tools/ab_outputs.py`` on this tree: its quick set run against a copy
of the tree finds every file identical; against a copy with one ulp
planted in a kernel constant it exits 1 and names the files that moved,
unless globs declare them.  Also the declarations themselves: glob
matching, stale globs, ``Outputs-moved:`` trailers, and the CI step that
runs the gate."""
import importlib.util
import math
import shutil
import subprocess
from pathlib import Path

import yaml

from hjaf.filtering import SCHEME_NAMES
from hjaf.problems import PROBLEM_IDS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ab_outputs", ROOT / "tools" / "ab_outputs.py")
ab_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_outputs)

# fourth_order_slopes' weight 8 of u[-1] and u[+1], one ulp higher: only
# the rkc4 runs read it
KERNEL = "src/hjaf/highorder.py"
CONSTANT = "eight = at.of(np.multiply(8.0, at.flat))"
ULP_ABOVE_8 = "8.000000000000002"
PLANTED = CONSTANT.replace("8.0", ULP_ABOVE_8)


def copy_tree(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_quick_set_on_a_copy_is_identical(tmp_path, capsys):
    copy = copy_tree(tmp_path / "copy")
    assert ab_outputs.main([str(ROOT), str(copy), "--set", "quick"]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    runs, files, identical, differ = (int(field.split("=")[1])
                                      for field in summary.split())
    assert runs == len(ab_outputs.QUICK)
    assert files == identical > 6 * runs and differ == 0


def test_one_ulp_is_reported(tmp_path, capsys):
    planted = copy_tree(tmp_path / "planted")
    source = (planted / KERNEL).read_text()
    assert source.count(CONSTANT) == 1
    assert float(ULP_ABOVE_8) == math.nextafter(8.0, 9.0)
    (planted / KERNEL).write_text(source.replace(CONSTANT, PLANTED))
    assert ab_outputs.main([str(ROOT), str(planted), "--set", "quick"]) == 1
    out = capsys.readouterr().out
    moved = {line.split()[1] for line in out.splitlines()
             if line.startswith("DIFF ")}
    rkc4 = {ab_outputs.run_id(argv) for argv in ab_outputs.QUICK
            if "af-rkc4" in argv}
    assert rkc4 and {m.split("/")[0] for m in moved} == rkc4
    for rid in rkc4:
        assert f"{rid}/out/field_final.csv" in moved
    # declared, the same moves pass, each printed as ALLOWED
    globs = [f"{rid}/*" for rid in sorted(rkc4)]
    argv = [str(ROOT), str(planted), "--set", "quick"]
    assert ab_outputs.main(argv + [a for g in globs for a in ("--allow", g)]) == 0
    out = capsys.readouterr().out
    assert not any(line.startswith(("DIFF ", "STALE ")) for line in out.splitlines())
    assert {line.split()[1] for line in out.splitlines()
            if line.startswith("ALLOWED ")} == moved
    # one glob fewer leaves the other run's moves undeclared
    assert len(globs) == 2
    assert ab_outputs.main(argv + ["--allow", globs[0]]) == 1
    capsys.readouterr()


DIFFERING = ["solve_test_8_scheme_af-rkc4_refinements_1/out/epsilon.csv",
             "solve_test_5_scheme_af-rkc4_refinements_1/out/epsilon.csv",
             "solve_test_5_scheme_af-rkc4_refinements_1/stdout"]


def test_globs_declare_differences_and_go_stale():
    # fnmatch over run_id/file: * also crosses the /
    assert ab_outputs.declared(DIFFERING, ["*/out/epsilon.csv"]) == (
        [DIFFERING[2]], [])
    assert ab_outputs.declared(DIFFERING, ["*/out/epsilon.csv", "*5*/stdout"]
                               ) == ([], [])
    # a glob that matches no difference is stale, even when all are declared
    assert ab_outputs.declared(DIFFERING, ["*", "*/out/table.csv"]) == (
        [], ["*/out/table.csv"])
    assert ab_outputs.declared([], ["*/out/epsilon.csv"]) == (
        [], ["*/out/epsilon.csv"])
    # matching is case-sensitive on every platform
    assert ab_outputs.declared(DIFFERING[:1], ["*/OUT/epsilon.csv"]) == (
        DIFFERING[:1], ["*/OUT/epsilon.csv"])


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         "-c", "commit.gpgsign=false", *args], check=True, capture_output=True, text=True).stdout


def test_trailers_of_a_range_are_globs(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "-q")
    git(repo, "commit", "-q", "--allow-empty", "-m", "base")
    base = git(repo, "rev-parse", "HEAD").strip()
    # a trailer counts only in the last paragraph; the key is
    # case-insensitive; other trailers are not globs
    git(repo, "commit", "-q", "--allow-empty", "-m",
        "Move eps\n\nNot a trailer. Outputs-moved: */x\n\n"
        "Outputs-moved: */out/epsilon.csv\noutputs-moved: */stdout\n"
        "Reviewed-by: t")
    git(repo, "commit", "-q", "--allow-empty", "-m", "No trailer\n\nBody.")
    git(repo, "commit", "-q", "--allow-empty", "-m",
        "Move table\n\nOutputs-moved: 8-regular*/out/table.csv")
    assert sorted(ab_outputs.moved_globs(f"{base}..HEAD", repo)) == [
        "*/out/epsilon.csv", "*/stdout", "8-regular*/out/table.csv"]
    assert ab_outputs.moved_globs("HEAD~1..HEAD", repo) == [
        "8-regular*/out/table.csv"]
    assert ab_outputs.moved_globs("HEAD~2..HEAD~1", repo) == []


def test_ci_runs_the_gate_on_the_trailers():
    workflow = yaml.safe_load((ROOT / ".github" / "workflows"
                               / "tier1.yml").read_text())
    steps = workflow["jobs"]["tests"]["steps"]
    checkout = next(s for s in steps if s.get("uses", "").startswith(
        "actions/checkout"))
    assert checkout["with"]["fetch-depth"] == 0
    gate = [s for s in steps if "tools/ab_outputs.py" in s.get("run", "")]
    assert len(gate) == 1
    run = gate[0]["run"]
    assert '"$BASE" . --set full' in run and '--allow-moved "$BASE..HEAD"' in run
    assert "pull_request.base.sha" in gate[0]["env"]["BASE"]
    assert "github.event.before" in gate[0]["env"]["BASE"]


def test_full_set_names_every_problem_and_scheme():
    # both lists are kept by hand; every registry value runs end to end
    solved = {argv[argv.index("--test") + 1]
              for argv in ab_outputs.FULL if argv[0] == "solve"}
    assert solved == set(PROBLEM_IDS)
    assert set(ab_outputs.SCHEMES) == set(SCHEME_NAMES)
