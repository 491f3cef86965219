"""Benchmark for graphlhv: one closed-loop client driving the real entry points.

    python3 bench/run.py --workload subsweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread: each task (a ``graphlhv.cli.main(argv)`` call with
stdout captured, or ``statevector_verdict``) starts when the previous one has
finished and its answer has been checked. The workload's fixed task list (a
pass) is repeated until ``--seconds`` are used up. Each task's time is the
median over the passes of its time divided by the mean of calibration loops
run just before and just after it, in seconds at the reference machine speed
(see ``calibration_s``); ``wall_s`` sums them over the list, answer checks
included. ``--trace 1`` makes a separate run: some untraced passes, then
passes with span wrappers installed, and reports the per-layer metrics.

The inputs are generated from ``--seed`` modulo the number of seeds that
golden.json holds answers for, so every answer is compared with a recorded
one; a task without a recorded answer fails.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a report
with every metric by name and unit, the tail percentile, the failures and the
run environment. The exit code is 0 whenever that line is printed, and 2 when
the run is refused (graphlhv not importable from this tree's src/, or
GRAPHLHV_WORKERS set).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tasks as T
import tracer as TR

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 10  # spread evenly over the run
TAIL_BEYOND = 10  # tasks that must lie beyond the reported tail percentile
CALIBRATION_REF_S = 0.002  # calibration_s() at full speed on the reference machine
CROSSCHECK_PER_TASK = 2


class Refusal(Exception):
    """The benchmark must not run in this environment."""


def import_graphlhv():
    """Import graphlhv from this tree's src/ and refuse any other copy."""
    if "GRAPHLHV_WORKERS" in os.environ:
        raise Refusal("GRAPHLHV_WORKERS is set; the benchmark measures the single-process path")
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import graphlhv
        import graphlhv.cli
    except ImportError as exc:
        raise Refusal(f"cannot import graphlhv from {src}: {exc}") from exc
    where = Path(graphlhv.__file__).resolve()
    if src not in where.parents:
        raise Refusal(f"graphlhv was imported from {where}, not from {src}")
    return graphlhv


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(graphlhv) -> dict:
    import numpy

    src = ROOT / "src"
    tree = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        tree.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": tree.hexdigest()[:16],
        "graphlhv": str(Path(graphlhv.__file__).resolve().relative_to(ROOT)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup(workload: str, seed: int, workdir: Path) -> tuple[list[T.Task], list[str | None]]:
    """Generate the task list and write its graph files; returns the --graph values."""
    tasks = T.GENERATORS[workload](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    graph_args: list[str | None] = []
    for task in tasks:
        if task.inst is None:
            graph_args.append(None)
        elif task.inst.spec is not None:
            graph_args.append(task.inst.spec)
        else:
            path = workdir / f"{task.key}.json"
            path.write_text(task.inst.to_json())
            graph_args.append(str(path))
    return tasks, graph_args


def load_golden() -> tuple[int, dict[str, str]]:
    """The number of seeds golden.json was recorded for, and its answer digests."""
    golden = json.loads(GOLDEN.read_text())
    return golden["seeds"], golden["answers"]


class Runner:
    """Runs tasks through graphlhv's entry points and checks every answer."""

    def __init__(self, graphlhv, tasks: list[T.Task], graph_args: list[str | None],
                 golden: dict[str, str], require_golden: bool = True) -> None:
        self.g = graphlhv
        self.tasks = tasks
        self.graph_args = graph_args
        self.golden = golden
        self.require_golden = require_golden  # False only while golden answers are recorded
        self.tracer: TR.Tracer | None = None
        # Per sweep task, the subsets its report lists and their oracle signs:
        # the mismatches of verify-sub, every certain subset of site-invariance.
        self.listed: dict[int, dict[tuple[int, ...], int]] = {}

    def call(self, i: int):
        """Run task i; returns (latency, exit code, stdout, statevector verdict, error)."""
        task = self.tasks[i]
        argv = [self.graph_args[i] if a == T.GRAPH else a for a in task.argv]
        out, err = io.StringIO(), io.StringIO()
        code = sv = error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.g.cli.main(argv)
                if task.statevector:
                    graph = self.g.graphs.Graph(task.inst.n, task.inst.edges)
                    sv = self.g.oracle.statevector_verdict(
                        graph, self.g.pauli.Measurement(task.letters)).to_json_dict()
        except Exception:
            error = traceback.format_exc(limit=-3)
        return time.perf_counter() - t0, code, out.getvalue(), sv, error

    def judge(self, i: int, code, stdout: str, sv, error) -> tuple[str | None, list[str]]:
        """The answer digest and the problems with task i's outcome."""
        if error is not None:
            return None, [f"traceback: {error.strip().splitlines()[-1]}"]
        try:
            payload = json.loads(stdout)
            answer, problems = T.check(self.tasks[i], code, payload, sv)
            result = payload["result"]
            if self.tasks[i].argv[0] == "verify-sub":
                self.listed[i] = {tuple(m["sites"]): m["oracle"]["value"]
                                  for m in result["mismatches"]}
            elif self.tasks[i].argv[:2] == ("nogo", "site-invariance"):
                self.listed[i] = {tuple(c["sites"]): c["sign"]
                                  for c in result["certain_submeasurements"]}
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return None, [f"unreadable report (exit {code}): {exc!r}"]
        found = T.digest(answer)
        expected = self.golden.get(self.tasks[i].key)
        if expected is None:
            if self.require_golden:
                problems.append("no golden answer recorded for this task")
        elif expected != found:
            problems.append(f"answer digest {found} != golden {expected}")
        return found, problems

    def run_pass(self) -> dict:
        """One pass over the task list; the wall time includes every check."""
        latencies, totals, calibrations, failures, digests = [], [], [], {}, {}
        t0 = time.perf_counter()
        for i in range(len(self.tasks)):
            if self.tracer is not None:
                self.tracer.task = i
            calibrations.append(calibration_s())
            start = time.perf_counter()
            latency, code, stdout, sv, error = self.call(i)
            if self.tracer is not None:
                self.tracer.add("cli.stdout_bytes", len(stdout.encode()))
            found, problems = self.judge(i, code, stdout, sv, error)
            totals.append(time.perf_counter() - start)
            latencies.append(latency)
            digests[self.tasks[i].key] = found
            if problems:
                failures[i] = problems
        calibrations.append(calibration_s())  # brackets the last task
        return {"wall": time.perf_counter() - t0, "latencies": latencies, "totals": totals,
                "calibrations": calibrations, "failures": failures, "digests": digests}

    def crosscheck(self, seed: int) -> dict[int, list[str]]:
        """Outside the timed region: for each sweep task, a seeded sample of certain
        subsets, and of the subsets its report lists, against the state-vector oracle.

        A certain subset is a verify-sub mismatch exactly when the protocol's
        product disagrees with the state vector's sign, and the report must list
        it then, with that sign. Site-invariance lists every certain subset.
        """
        import random

        rng = random.Random(f"crosscheck:{seed}")
        failures: dict[int, list[str]] = {}
        g = self.g
        for i, listed in sorted(self.listed.items()):
            task = self.tasks[i]
            if task.inst.n > 14:
                continue
            graph = g.graphs.Graph(task.inst.n, task.inst.edges)
            measurement = g.pauli.Measurement(task.letters)
            cols = task.inst.columns(task.letters)
            sites = list(cols)
            basis = T.kernel_basis(list(cols.values()))
            picks = []
            for _ in range(CROSSCHECK_PER_TASK if basis else 0):
                combo = 0
                for b in basis:
                    if rng.random() < 0.5:
                        combo ^= b
                picks.append(tuple(sites[k] for k in range(len(sites)) if (combo >> k) & 1))
            picks += rng.sample(sorted(listed), min(CROSSCHECK_PER_TASK, len(listed)))
            for subset in picks:
                keep = set(subset)
                word = g.pauli.Measurement("".join(ch if j in keep else "I"
                                                   for j, ch in enumerate(task.letters, start=1)))
                truth = g.oracle.statevector_verdict(graph, word)
                if not truth.is_deterministic:
                    failures.setdefault(i, []).append(f"subset {list(subset)} is not certain")
                    continue
                if task.argv[0] == "verify-sub":
                    lhv = g.lhv.product_report(graph, measurement, subset).verdict
                    expected = truth.value if lhv != truth else None
                else:
                    expected = truth.value
                if listed.get(subset) != expected:
                    failures.setdefault(i, []).append(
                        f"subset {list(subset)}: report lists {listed.get(subset)}, "
                        f"state vector and protocol give {expected}")
        return failures


def run_passes(runner: Runner, seconds: float, before_pass=None) -> list[dict]:
    """Repeat the pass while the next one is predicted to end within ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if before_pass is not None:
            before_pass()
        passes.append(runner.run_pass())
        walls = [p["wall"] for p in passes]
        if time.perf_counter() - t0 + statistics.median(walls) > seconds:
            return passes


def per_task(passes: list[dict], field: str, scaled: bool) -> list[float]:
    """Per task, the median over the passes of its time, scaled or not.

    A scaled time is the task's time divided by the mean of the calibrations
    run just before and just after it, times CALIBRATION_REF_S: seconds at
    the reference speed.
    """
    out = []
    for i in range(len(passes[0][field])):
        if scaled:
            out.append(CALIBRATION_REF_S * statistics.median(
                2 * p[field][i] / (p["calibrations"][i] + p["calibrations"][i + 1])
                for p in passes))
        else:
            out.append(statistics.median(p[field][i] for p in passes))
    return out


def scaled_pass_s(p: dict) -> float:
    """A pass's wall time without its calibration loops, scaled to the reference speed."""
    return (p["wall"] - sum(p["calibrations"])) * CALIBRATION_REF_S / statistics.median(
        p["calibrations"])


def tail_rank(tasks: int) -> float:
    """Highest quantile with at least TAIL_BEYOND of the tasks beyond it."""
    return max(tasks - TAIL_BEYOND, 1) / tasks


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def calibration_s() -> float:
    """Time of a fixed pure-Python loop that touches no graphlhv code.

    The machine's speed drifts by up to 1.5x, at times 3.5x, in phases of
    seconds to minutes (shared cores), and a phase slows this loop and the
    workload alike. Dividing a time by the calibrations taken around it
    cancels most of the phase.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        k = i & 1023
        table[k] = table.get(k, 0) + (i ^ (i >> 3))
        acc += len(str(k))
    return time.perf_counter() - t0


def setup_time(workload: str, seed: int) -> float:
    """Start-to-ready time of a fresh process that imports graphlhv and builds the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def trace_metrics(summaries: list[dict], counters: dict[str, int],
                  overhead: float) -> dict[str, tuple[float, str]]:
    first = summaries[0]
    metrics: dict[str, tuple[float, str]] = {}
    for span in TR.SPANS:
        row = first.get(span, {"calls": 0, "errors": 0})
        metrics[f"{span}.calls"] = (row["calls"], "count")
        metrics[f"{span}.self_s"] = (
            statistics.median(s[span]["self_s"] if span in s else 0.0 for s in summaries), "s")
        metrics[f"{span}.errors"] = (row["errors"], "count")
    c = counters.get
    checked, det = c("nogo.subsets_checked", 0), c("nogo.deterministic_subsets", 0)
    classified = metrics["oracle.classify.calls"][0]
    for name, unit in (("nogo.subsets_checked", "count"), ("nogo.deterministic_subsets", "count"),
                       ("chain.measurements_checked", "count"),
                       ("chain.deterministic_subs_checked", "count"),
                       ("graphs.automorphisms.perms", "count"), ("nogo.gf2.equations", "count"),
                       ("nogo.gf2.variables", "count"), ("lhv.product_report.samples", "count"),
                       ("cli.stdout_bytes", "B")):
        metrics[name] = (c(name, 0), unit)
    metrics["nogo.certain_ratio"] = (det / checked if checked else 0.0, "ratio")
    metrics["oracle.classify.deterministic_frac"] = (
        c("oracle.classify.deterministic", 0) / classified if classified else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def traced_run(runner: Runner, workload: str, seed: int, seconds: float,
               report: dict) -> tuple[list[dict], dict[str, tuple[float, str]]]:
    """Untraced passes for a third of the time, then traced passes: per-layer metrics."""
    untraced = run_passes(runner, seconds / 3)
    runner.tracer = tracer = TR.Tracer()
    patches, missing = TR.install(tracer)
    summaries, traced = [], []
    t0 = time.perf_counter()
    try:
        while not traced or (time.perf_counter() - t0 + statistics.median(
                p["wall"] for p in traced) <= seconds * 2 / 3):
            tracer.clear()
            traced.append(runner.run_pass())
            summaries.append(tracer.summary())
            if len(traced) == 1:
                counters = dict(tracer.counters)
                spans = tracer.snapshot()
    finally:
        TR.uninstall(patches)
        runner.tracer = None
    OUT.mkdir(exist_ok=True)
    report["spans_file"] = str((OUT / f"trace-{workload}-s{seed}.npz").relative_to(ROOT))
    TR.write_spans(spans, str(ROOT / report["spans_file"]))
    overhead = (statistics.median(map(scaled_pass_s, traced))
                / statistics.median(map(scaled_pass_s, untraced)) - 1)
    for summary, p in zip(summaries, traced):
        scale = CALIBRATION_REF_S / statistics.median(p["calibrations"])
        for row in summary.values():
            row["self_s"] *= scale
    metrics = trace_metrics(summaries, counters, overhead)
    report["untraced_passes"], report["traced_passes"] = len(untraced), len(traced)
    report["layers_not_found"] = missing
    if workload == "subsweep":
        report["observed_classify_calls_per_subset"] = (
            metrics["oracle.classify.calls"][0] / counters["nogo.subsets_checked"])
    return untraced + traced, metrics


def timed_run(runner: Runner, workload: str, seed: int, seconds: float,
              report: dict) -> tuple[list[dict], dict[str, tuple[float, str]]]:
    """Passes with set-up probes spread over the run: end-to-end metrics."""
    setups: list[tuple[float, float]] = []  # (probe, calibration) pairs
    t0 = time.perf_counter()

    def between_passes() -> None:
        while (len(setups) < SETUP_PROBES
               and time.perf_counter() - t0 >= len(setups) * seconds / SETUP_PROBES):
            before = calibration_s()
            probe = setup_time(workload, seed)
            setups.append((probe, (before + calibration_s()) / 2))

    passes = run_passes(runner, seconds, between_passes)
    latency = per_task(passes, "latencies", scaled=True)
    q = tail_rank(len(runner.tasks))
    metrics = {
        "setup_s": (CALIBRATION_REF_S * statistics.median(p / c for p, c in setups), "s"),
        "wall_s": (sum(per_task(passes, "totals", scaled=True)), "s"),
        "task_p50_s": (statistics.median(latency), "s"),
        "task_tail_s": (quantile(latency, q), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = per_task(passes, "latencies", scaled=False)
    report["passes"] = len(passes)
    report["unscaled_s"] = {
        "setup_s": statistics.median(p for p, _ in setups),
        "wall_s": sum(per_task(passes, "totals", scaled=False)),
        "task_p50_s": statistics.median(unscaled),
        "task_tail_s": quantile(unscaled, q),
    }
    report["pass_walls_s"] = [p["wall"] for p in passes]
    report["calibration_s"] = statistics.median(c for p in passes for c in p["calibrations"])
    report["task_tail"] = f"p{100 * q:.1f} of {len(runner.tasks)} tasks"
    shares: dict[str, float] = {}
    for task, t in zip(runner.tasks, latency):
        shares[task.cls] = shares.get(task.cls, 0.0) + t
    report["class_time_share"] = {k: v / sum(latency) for k, v in sorted(shares.items())}
    return passes, metrics


def run_workload(graphlhv, workload: str, seed: int, seconds: float, trace: bool) -> int:
    seeds, golden = load_golden()
    inputs = seed % seeds  # the inputs of a seed with recorded answers
    workdir = OUT / f"{workload}-s{inputs}-p{os.getpid()}"
    try:
        tasks, graph_args = setup(workload, inputs, workdir)
        runner = Runner(graphlhv, tasks, graph_args, golden)
        report: dict = {"workload": workload, "seed": seed, "input_seed": inputs,
                        "seconds": seconds, "trace": int(trace), "tasks_per_pass": len(tasks),
                        "environment": environment(graphlhv)}
        run = traced_run if trace else timed_run
        passes, metrics = run(runner, workload, inputs, seconds, report)
        attempted = sum(len(p["latencies"]) for p in passes)
        failures: dict[int, list[str]] = {}
        for p in passes:
            for i, problems in p["failures"].items():
                failures.setdefault(i, problems)
        extra = runner.crosscheck(inputs)
        for i, problems in extra.items():
            failures.setdefault(i, []).extend(problems)
        failed = min(attempted, sum(len(p["failures"]) for p in passes) + len(extra))
        report["failed_frac"] = failed / attempted
        report["failures"] = {f"{i}:{' '.join(tasks[i].argv)}": v[:3]
                              for i, v in sorted(failures.items())[:10]}
        report["metrics"] = {k: f"{v} {u}" for k, (v, u) in metrics.items()}
        print(json.dumps(report, indent=1))
        print(json.dumps({
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=T.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        graphlhv = import_graphlhv()
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workdir = OUT / f"probe-p{os.getpid()}"
        try:
            seeds, _ = load_golden()
            setup(args.workload, args.seed % seeds, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload != "all":
        return run_workload(graphlhv, args.workload, args.seed, args.seconds, bool(args.trace))
    results = {}
    for workload in T.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
