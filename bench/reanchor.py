"""Time the ROADMAP direction-3 baseline commands with the benchmark's clock.

    python3 bench/reanchor.py > bench/reanchor.json

Each command runs REPEAT times in-process through ``graphlhv.cli.main`` with
stdout captured, timed by ``time.perf_counter``, as the benchmark times its
tasks. ``import graphlhv`` is timed in fresh processes, as the benchmark's
set-up probes do. The quoted figures are the ones the ROADMAP gives for them.
``median_s`` is the plain clock; ``scaled_median_s`` divides each run by the
calibration loop run just before it, as the benchmark's metrics do.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

import run as R

COMMANDS = {
    "reproduce fig1": (["reproduce", "fig1"], 0.35),
    "reproduce fig2": (["reproduce", "fig2"], 0.34),
    "verify-sub --graph grid:4x4 all-Y": (
        ["verify-sub", "--graph", "grid:4x4", "--measurement", "Y" * 16], 5.1),
    "chain verify --n 7": (["chain", "verify", "--n", "7"], 7.7),
    "nogo ring --f 25": (["nogo", "ring", "--f", "25"], 0.65),
}
IMPORT_QUOTED_S = 0.2
REPEAT = 3


def main() -> int:
    try:
        graphlhv = R.import_graphlhv()
    except R.Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    results = {}
    for name, (cmd, quoted) in COMMANDS.items():
        runs, ratios, size, code = [], [], 0, None
        for _ in range(REPEAT):
            out = io.StringIO()
            calibration = R.calibration_s()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = graphlhv.cli.main(cmd)
            runs.append(time.perf_counter() - t0)
            ratios.append(runs[-1] / calibration)
            size = len(out.getvalue().encode())
        results[name] = {"quoted_s": quoted, "median_s": statistics.median(runs),
                         "scaled_median_s": R.CALIBRATION_REF_S * statistics.median(ratios),
                         "runs_s": runs, "exit": code, "stdout_bytes": size}
    runs, ratios = [], []
    for _ in range(REPEAT):
        calibration = R.calibration_s()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import graphlhv"], cwd=R.ROOT / "src", check=True)
        runs.append(time.perf_counter() - t0)
        ratios.append(runs[-1] / calibration)
    results["import graphlhv (fresh process)"] = {
        "quoted_s": IMPORT_QUOTED_S, "median_s": statistics.median(runs),
        "scaled_median_s": R.CALIBRATION_REF_S * statistics.median(ratios), "runs_s": runs}
    print(json.dumps({"environment": R.environment(graphlhv),
                      "clock": "time.perf_counter; CLI commands in-process via "
                               "graphlhv.cli.main with stdout captured",
                      "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
