"""Self-tests of the benchmark: tracer accounting, answer checks, seed-invariant
work and the run guards.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as R
import tasks as T
import tracer as TR

graphlhv = R.import_graphlhv()
CONTRACT = json.loads((R.ROOT / "BENCHMARK.json").read_text())


def test_self_times_and_counts_are_exact_on_a_synthetic_tree():
    now = [0]
    tr = TR.Tracer(clock=lambda: float(now[0]))

    def tick(k):
        now[0] += k

    leaf = tr.wrap("leaf", lambda: tick(3))

    def mid_body():
        tick(1)
        leaf()
        leaf()
        tick(2)

    mid = tr.wrap("mid", mid_body)

    def root_body():
        tick(5)
        mid()
        tick(7)
        leaf()

    root = tr.wrap("root", root_body)

    def boom():
        tick(4)
        raise ValueError("boom")

    failing = tr.wrap("failing", boom)
    root()
    root()
    with pytest.raises(ValueError):
        failing()
    assert tr.summary() == {
        "leaf": {"calls": 6, "total_s": 18.0, "self_s": 18.0, "errors": 0},
        "mid": {"calls": 2, "total_s": 18.0, "self_s": 6.0, "errors": 0},
        "root": {"calls": 2, "total_s": 48.0, "self_s": 24.0, "errors": 0},
        "failing": {"calls": 1, "total_s": 4.0, "self_s": 4.0, "errors": 1},
    }
    assert list(tr.parent) == [-1, 0, 1, 1, 0, -1, 5, 6, 6, 5, -1]


def test_wrappers_reach_every_lookup_site_and_come_off_again():
    original = graphlhv.oracle.classify
    tr = TR.Tracer()
    patches, missing = TR.install(tr)
    try:
        assert missing == []
        wrapped = graphlhv.oracle.classify
        assert wrapped is not original
        assert graphlhv.nogo.classify is wrapped
        assert graphlhv.chain_protocol.classify is wrapped
        assert graphlhv.classify is wrapped
        graph, m = graphlhv.grid(2, 3), graphlhv.Measurement("YYYYYY")
        report = graphlhv.nogo.verify_all_submeasurements(graph, m)
    finally:
        TR.uninstall(patches)
    summary = tr.summary()
    assert summary["oracle.classify"]["calls"] == report.subsets_checked == 64
    assert summary["pauli.restricted_to"]["calls"] == 64
    assert summary["lhv.product_report"]["calls"] == 64
    assert tr.counters["nogo.subsets_checked"] == 64
    assert graphlhv.nogo.classify is original
    assert graphlhv.Measurement.restricted_to.__name__ == "restricted_to"
    assert not hasattr(graphlhv.Measurement.restricted_to, "__wrapped__")


def test_generated_work_is_the_same_for_every_seed():
    for workload, generate in T.GENERATORS.items():
        lists = [generate(seed) for seed in (0, 1, 2)]
        shapes = [
            (len(ts), sum(t.subsets for t in ts), sum(t.measurements for t in ts),
             sorted((t.cls, t.argv[0], t.inst.n if t.inst else 0) for t in ts))
            for ts in lists
        ]
        assert shapes[0] == shapes[1] == shapes[2], workload
        assert {t.key for t in lists[0]} != {t.key for t in lists[1]}, workload
    assert sum(t.subsets for t in T.subsweep(7)) == sum(t.subsets for t in T.subsweep(0))


def test_sampled_work_counts_the_measurements_chain_verify_draws():
    import numpy

    for n, seed in ((8, 3), (10, 12345)):
        rng = numpy.random.default_rng(seed)
        drawn = [graphlhv.Measurement("".join("IXYZ"[k] for k in rng.integers(0, 4, size=n)))
                 for _ in range(40)]
        assert T.sampled_work(n, 40, seed) == sum(2 ** len(m.support()) for m in drawn)


def _run_once(workload: str, seed: int, capsys) -> tuple[dict, dict]:
    """The result line and the report of one short run."""
    assert R.run_workload(graphlhv, workload, seed, seconds=0.1, trace=False) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))


def test_a_clean_run_reports_every_end_to_end_metric(capsys):
    result, _ = _run_once("certify", 0, capsys)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_any_seed_is_checked_against_recorded_answers(capsys):
    seeds, _ = R.load_golden()
    result, report = _run_once("certify", seeds + 3, capsys)
    assert report["input_seed"] == 3
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("damage", ["corrupt", "drop"])
def test_a_corrupted_or_missing_golden_value_makes_the_run_fail(damage, tmp_path, monkeypatch,
                                                                capsys):
    golden = json.loads(R.GOLDEN.read_text())
    key = T.certify(0)[0].key
    assert key in golden["answers"]
    if damage == "corrupt":
        golden["answers"][key] = "0" * 16
    else:
        del golden["answers"][key]
    damaged = tmp_path / "golden.json"
    damaged.write_text(json.dumps(golden))
    monkeypatch.setattr(R, "GOLDEN", damaged)
    result, _ = _run_once("certify", 0, capsys)
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_the_crosscheck_catches_an_unlisted_mismatch_and_a_wrong_sign(monkeypatch):
    inst = T.grid(2, 3)
    runner = R.Runner(graphlhv, [T._sweep("sparse", inst, "Y" * 6)], [inst.spec], {},
                      require_golden=False)
    assert runner.run_pass()["failures"] == {}
    listed = dict(runner.listed[0])
    assert listed and runner.crosscheck(0) == {}
    monkeypatch.setattr(R, "CROSSCHECK_PER_TASK", 16)
    runner.listed[0] = {}
    assert "state vector and protocol give -1" in " ".join(runner.crosscheck(0)[0])
    runner.listed[0] = {sites: -sign for sites, sign in listed.items()}
    assert runner.crosscheck(0)[0]


def test_tracebacks_and_bad_exit_codes_count_as_failures_without_crashing(monkeypatch, tmp_path):
    ts = [t for t in T.certify(0) if t.argv[0] == "oracle"][:2]
    tasks, graph_args = R.setup("certify", 0, tmp_path)
    idx = [i for i, t in enumerate(tasks) if t.key in {x.key for x in ts}]
    runner = R.Runner(graphlhv, [tasks[i] for i in idx], [graph_args[i] for i in idx],
                      R.load_golden()[1])
    assert runner.run_pass()["failures"] == {}

    def broken(args):
        raise RuntimeError("injected")

    monkeypatch.setattr(graphlhv.cli, "_cmd_oracle", broken)
    failures = runner.run_pass()["failures"]
    assert sorted(failures) == [0, 1]
    assert "traceback" in failures[0][0]
    monkeypatch.undo()
    runner.graph_args = ["no-such-family:3"] * 2
    failures = runner.run_pass()["failures"]
    assert sorted(failures) == [0, 1]
    assert "exit 2" in failures[0][0]


def _bench_cmd(root) -> list[str]:
    return [sys.executable, str(root / "bench" / "run.py"), "--workload", "chain",
            "--seed", "1", "--seconds", "1", "--trace", "0"]


def test_refuses_to_run_with_the_worker_pool_variable_set():
    env = dict(os.environ, GRAPHLHV_WORKERS="1")
    proc = subprocess.run(_bench_cmd(R.ROOT), cwd=R.ROOT, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "GRAPHLHV_WORKERS" in proc.stderr


def test_refuses_to_run_without_the_measured_tree(tmp_path):
    shutil.copy(R.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(R.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(_bench_cmd(tmp_path), cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_contract_names_match_what_the_traced_run_reports():
    summaries = [{span: {"calls": 1, "self_s": 0.5, "errors": 0} for span in TR.SPANS}]
    metrics = R.trace_metrics(summaries, {}, 0.1)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
