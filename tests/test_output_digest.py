"""The output-digest tool gives one manifest per run set, call after call.

``tools/output_digest.py`` prints the sha256 of every output file of a fixed
run set; a change that keeps every output byte compares its manifest with
its parent's. The tool is loaded from its file.
"""

import copy
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_of_one_short_config_is_the_same_twice(tmp_path):
    tool = _tool()
    cfg = copy.deepcopy(tool.CIRCLE)
    cfg["duration_s"] = 2.0
    cfg["variant"] = {"frame": "ECEF", "error_def": "LeftEst"}
    runs = [("run", cfg, None), ("mc", cfg, 2)]
    first = tool.digest(runs, tmp_path / "a")
    second = tool.digest(runs, tmp_path / "b")
    assert first == second
    assert sorted(first["run"]) == [
        "covariance.csv", "filtered.csv", "gnss.csv", "imu.csv", "metrics.json",
        "smoothed.csv", "truth.csv",
    ]
    assert len(first["mc"]) == 1 + 2 * 7


def test_run_set_covers_every_variant_and_mode_and_workload():
    tool = _tool()
    names = [name for name, _, _ in tool.run_set()]
    assert len(names) == len(set(names))
    # 3 workloads x 3 seeds, and 2 taus x 26 (variant, mode) pairs x (run, mc)
    assert len(names) == 9 + 2 * 26 * 2
