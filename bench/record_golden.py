"""Record golden answer digests from the current tree into bench/golden.json.

    python3 bench/record_golden.py

Runs one pass of every workload for seeds 0..SEEDS-1. The benchmark maps any
``--seed`` onto that range, so every answer it checks has a recorded digest.
Every task must pass its independent checks and the state-vector cross-check,
and a task that recurs across seeds (the seed-independent ones) must give the
same answer each time.
Only record from a commit whose answers are trusted: the benchmark compares
every later commit against these digests.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as R
import tasks as T

SEEDS = 32


def main() -> int:
    try:
        graphlhv = R.import_graphlhv()
    except R.Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    answers: dict[str, str] = {}
    for workload in T.WORKLOADS:
        for seed in range(SEEDS):
            workdir = R.OUT / f"golden-{workload}-s{seed}"
            try:
                tasks, graph_args = R.setup(workload, seed, workdir)
                runner = R.Runner(graphlhv, tasks, graph_args, answers, require_golden=False)
                result = runner.run_pass()
                failures = {**result["failures"], **runner.crosscheck(seed)}
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failures:
                for i, problems in sorted(failures.items()):
                    print(f"{workload} seed {seed} task {i} {tasks[i].argv}: {problems}",
                          file=sys.stderr)
                return 1
            answers.update(result["digests"])
        print(f"{workload}: {SEEDS} seeds recorded", file=sys.stderr)
    env = R.environment(graphlhv)
    golden = {
        "recorded_from": {"commit": env["commit"], "src_sha256": env["src_sha256"]},
        "seeds": SEEDS,
        "answers": dict(sorted(answers.items())),
    }
    R.GOLDEN.write_text(json.dumps(golden, indent=0) + "\n")
    print(f"{len(answers)} answers written to {R.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
