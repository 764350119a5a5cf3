"""``tools/ab_outputs.py`` on this tree: its quick set run against a copy
of the tree finds every file identical; against a copy with one ulp
planted in a kernel constant it exits 1 and names the files that moved."""
import importlib.util
import math
import shutil
from pathlib import Path

from hjaf.filtering import SCHEME_NAMES
from hjaf.problems import PROBLEM_IDS

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "ab_outputs", ROOT / "tools" / "ab_outputs.py")
ab_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_outputs)

# fourth_order_slopes' weight 8 of u[-1], one ulp higher: only the rkc4
# runs read it
KERNEL = "src/hjaf/highorder.py"
CONSTANT = "d = np.multiply(8.0, at(-dj, -di))"
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


def test_full_set_names_every_problem_and_scheme():
    # both lists are kept by hand; every registry value runs end to end
    solved = {argv[argv.index("--test") + 1]
              for argv in ab_outputs.FULL if argv[0] == "solve"}
    assert solved == set(PROBLEM_IDS)
    assert set(ab_outputs.SCHEMES) == set(SCHEME_NAMES)
