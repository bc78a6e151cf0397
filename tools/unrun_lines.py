"""List the library lines that a sweep of valid CLI calls never runs.

A line-trace guard for code paths that only the tests take. It runs a fixed
set of valid ``liese-nav`` calls in one process under the standard
library's ``trace`` module and prints every executable line of
``src/liese_nav`` that none of them ran, except ``raise`` statements,
``except`` bodies (which hold the import fallbacks) and the lines of
functions that only tracing or a test would call. From the root of a
checkout:

    PYTHONPATH=src python3 tools/unrun_lines.py

Line tracing slows the calls many times over, so this runs outside the
test suite. The calls, 49 of them (about 3 s on a 2-vCPU machine):

- ``run`` of every ``supported_variants()`` entry in ``se23`` and of every
  LeftEst one in ``invariant`` on a circle, with a 0.05 rad yaw error,
  every other one with ``tau_a_s: null``, and every third one with
  ``--monte-carlo 2``;
- ``run`` in ``se23`` on the figure-eight, straight and stationary kinds;
- ``simulate`` of each trajectory kind and one ``compare``.

The last line printed is the count of unrun lines out of the executable
ones.
"""

import ast
import copy
import importlib
import tempfile
import trace
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "liese_nav"

CIRCLE = {
    "trajectory": {
        "kind": "circle",
        "origin_lat_rad": 0.7,
        "origin_lon_rad": -1.2,
        "origin_h_m": 300.0,
        "speed_m_s": 15.0,
        "radius_m": 250.0,
        "heading0_rad": 0.4,
    },
    "duration_s": 3.0,
    "imu_dt_s": 0.05,
    "gnss": {"period_s": 1.0, "sigma_pos_m": 1.5, "lever_arm_b_m": [0.4, -0.2, 1.1]},
    "noise": {
        "sigma_g_rad_s_sqrt_hz": 1e-4,
        "sigma_a_m_s2_sqrt_hz": 1e-3,
        "sigma_bg_rad_s_sqrt_s": 1e-7,
        "sigma_ba_m_s2_sqrt_s": 1e-6,
        "tau_g_s": 400.0,
        "tau_a_s": 900.0,
    },
    "initial": {
        "attitude_sigma_rad": 1e-3,
        "velocity_sigma_m_s": 0.1,
        "position_sigma_m": 1.0,
        "bias_g_sigma_rad_s": 5e-4,
        "bias_a_sigma_m_s2": 5e-3,
        "yaw_error_rad": 0.05,
    },
    "variant": {"frame": "NED", "error_def": "LeftEst"},
    "mode": "se23",
    "seed": 3,
}

KINDS = {
    "circle": {},
    "figure_eight": {"amplitude_m": 300.0, "period_s": 60.0},
    "straight": {},
    "stationary": {"speed_m_s": 0.0},
}


def _config(tmp, name, kind="circle", tau_a=900.0):
    cfg = copy.deepcopy(CIRCLE)
    cfg["trajectory"].update(kind=kind, **KINDS[kind])
    cfg["noise"]["tau_a_s"] = tau_a
    path = Path(tmp) / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def calls(tmp):
    """The argument lists of the sweep, in order."""
    from liese_nav.errormodels import supported_variants

    out = []
    runs = [(v, "se23") for v in supported_variants()]
    runs += [(v, "invariant") for v in supported_variants() if v.invariant_update]
    for k, (variant, mode) in enumerate(runs):
        cfg = _config(tmp, f"run{k}", tau_a=None if k % 2 else 900.0)
        args = ["run", "--config", cfg, "--variant", variant.name, "--mode", mode]
        args += ["--out", f"{tmp}/run{k}"]
        if k % 3 == 0:
            args += ["--monte-carlo", "2"]
        out.append(args)
    for kind in KINDS:
        cfg = _config(tmp, kind, kind=kind)
        if kind != "circle":
            out.append(["run", "--config", cfg, "--out", f"{tmp}/{kind}"])
        out.append(["simulate", "--config", cfg, "--out", f"{tmp}/sim_{kind}"])
    out.append(["compare", f"{tmp}/run1", f"{tmp}/run1"])
    return out


def _excluded(tree):
    """Lines of raise statements, of except clauses and their bodies, of the
    ``if __name__ == "__main__":`` block, and of functions that no run
    reaches by design (``TruthGenerator.state_ecef``, which only the
    benchmark's tracer counts)."""
    lines = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Raise, ast.ExceptHandler))
            or (isinstance(node, ast.FunctionDef) and node.name == "state_ecef")
            or (isinstance(node, ast.If) and "__main__" in ast.unparse(node.test))
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _executable(path):
    """The line numbers of a module that hold code, from its code objects."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def main():
    tracer = trace.Trace(count=1, trace=0)
    # imported under the trace, so that the modules' top levels count
    cli = tracer.runfunc(importlib.import_module, "liese_nav.cli")
    with tempfile.TemporaryDirectory() as tmp:
        for args in tracer.runfunc(calls, tmp):
            try:
                tracer.runfunc(cli.main.main, args=args, standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    raise RuntimeError(f"{args} exited {exc.code}") from exc
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = _executable(path) - _excluded(ast.parse(source))
        missing = sorted(lines - ran.get(path.resolve(), set()))
        total += len(lines)
        unrun += len(missing)
        text = source.splitlines()
        for line in missing:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    print(f"{unrun} of {total} executable lines unrun")


if __name__ == "__main__":
    main()
