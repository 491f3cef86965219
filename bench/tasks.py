"""Seeded task lists for the benchmark workloads, and the checks on their answers.

A task is one CLI command (plus, for ``oracle`` tasks, one library call to
``statevector_verdict``). The generators keep the task count and the amount of
work fixed for every seed: the seed only changes measurement letters, graph
edges (random graphs and relabellings) and sample seeds.

Every answer goes through two checks:

* independent checks computed here without graphlhv, e.g. the number of
  certain subsets of a sweep is 2^(|support| - rank) of a GF(2) map, and every
  reported mismatch must lie in that map's kernel;
* a golden digest of the answer recorded from the seed commit (golden.json),
  for every task whose exact content was recorded.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("subsweep", "chain", "certify")


# ---------------------------------------------------------------------------
# Graph instances, built here so the checks do not rely on graphlhv
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A graph on nodes 1..n; ``spec`` names a graphlhv family, else it goes to a JSON file."""

    n: int
    edges: tuple[tuple[int, int], ...]
    spec: str | None = None

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

    def neighbor_masks(self) -> list[int]:
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        return masks

    def columns(self, letters: str) -> dict[int, int]:
        """Per measured site j, the GF(2) column whose XOR over a subset S is zero
        exactly when the word restricted to S is a signed stabilizer element
        (and, equally, when the protocol's output product over S is constant)."""
        masks = self.neighbor_masks()
        cols = {}
        for j, ch in enumerate(letters, start=1):
            if ch == "I":
                continue
            col = masks[j] if ch in "XY" else 0
            if ch in "YZ":
                col ^= 1 << (j - 1)
            cols[j] = col
        return cols

    def stabilizer_word(self, sites: set[int]) -> str:
        """Letters of the product of the generators at the given sites."""
        masks = self.neighbor_masks()
        z = 0
        for j in sites:
            z ^= masks[j]
        return "".join("IXZY"[(j in sites) + 2 * ((z >> (j - 1)) & 1)]
                       for j in range(1, self.n + 1))


def ring(n: int) -> Instance:
    return Instance(n, tuple(sorted([(j, j + 1) for j in range(1, n)] + [(1, n)])), f"ring:{n}")


def star(n: int) -> Instance:
    return Instance(n, tuple((1, j) for j in range(2, n + 1)), f"star:{n}")


def grid(rows: int, cols: int) -> Instance:
    edges = []
    for r in range(rows):
        for c in range(1, cols + 1):
            node = r * cols + c
            if c < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return Instance(rows * cols, tuple(sorted(edges)), f"grid:{rows}x{cols}")


def complete_bipartite(a: int, b: int) -> Instance:
    edges = tuple((u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1))
    return Instance(a + b, edges, f"complete-bipartite:{a}x{b}")


def random_graph(rng: random.Random, n: int, m: int) -> Instance:
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Instance(n, tuple(sorted(rng.sample(pairs, m))))


def relabel(rng: random.Random, inst: Instance, letters: str) -> tuple[Instance, str]:
    """The same graph and measurement under a random node numbering, as a JSON instance."""
    image = rng.sample(range(1, inst.n + 1), inst.n)
    edges = tuple(sorted(tuple(sorted((image[u - 1], image[v - 1]))) for u, v in inst.edges))
    moved = ["I"] * inst.n
    for j, ch in enumerate(letters, start=1):
        moved[image[j - 1] - 1] = ch
    return Instance(inst.n, edges), "".join(moved)


def random_letters(rng: random.Random, n: int, alphabet: str = "XYZ") -> str:
    return "".join(rng.choice(alphabet) for _ in range(n))


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------

GRAPH = "@graph"  # argv placeholder for the instance's --graph value


@dataclass(frozen=True)
class Task:
    cls: str                   # task class: time shares are reported per class
    argv: tuple[str, ...]
    inst: Instance | None = None
    letters: str | None = None
    statevector: bool = False  # also ask statevector_verdict (oracle tasks)
    subsets: int = 0           # 2^|support| for a sweep
    measurements: int = 0      # global measurements a chain run checks
    key: str = field(init=False)

    def __post_init__(self) -> None:
        graph = None
        if self.inst is not None:
            graph = self.inst.spec or [self.inst.n, [list(e) for e in self.inst.edges]]
        blob = json.dumps({"argv": self.argv, "graph": graph, "sv": self.statevector})
        object.__setattr__(self, "key", hashlib.sha256(blob.encode()).hexdigest()[:16])


def _sweep(cls: str, inst: Instance, letters: str) -> Task:
    support = sum(ch != "I" for ch in letters)
    return Task(cls, ("verify-sub", "--graph", GRAPH, "--measurement", letters),
                inst, letters, subsets=1 << support)


def subsweep(seed: int) -> list[Task]:
    """verify-sub on sparse (random XYZ letters, all-Y grids) and dense
    (all-X stars and complete-bipartite graphs) instances."""
    rng = random.Random(f"subsweep:{seed}")
    tasks = []
    for n, count in ((8, 8), (10, 4), (12, 1)):
        for _ in range(count):
            tasks.append(_sweep("sparse", ring(n), random_letters(rng, n)))
    for n, m, count in ((8, 12, 4), (9, 13, 4), (11, 16, 1)):
        for _ in range(count):
            tasks.append(_sweep("sparse", random_graph(rng, n, m), random_letters(rng, n)))
    for rows, cols in ((3, 3), (2, 5)):
        tasks.append(_sweep("sparse", *relabel(rng, grid(rows, cols), "Y" * rows * cols)))
    for inst, count in ((star(8), 8), (star(10), 2), (star(11), 2),
                        (complete_bipartite(3, 5), 8), (complete_bipartite(5, 5), 1),
                        (complete_bipartite(4, 7), 1)):
        for _ in range(count):
            tasks.append(_sweep("dense", *relabel(rng, inst, "X" * inst.n)))
    return tasks


def sampled_work(n: int, sample: int, seed: int) -> int:
    """Σ2^|support| over the measurements ``chain verify --n n --sample sample
    --seed seed`` checks. It draws each measurement's letters as
    ``default_rng(seed).integers(0, 4, size=n)``; one draw of shape
    (sample, n) gives the same letters."""
    import numpy

    letters = numpy.random.default_rng(seed).integers(0, 4, size=(sample, n))
    return int((1 << (letters != 0).sum(axis=1)).sum())


def chain(seed: int) -> list[Task]:
    """chain verify: exhaustive at n = 3..5 and seeded samples at n = 8..10, both readings.

    A sampled run's time follows the Σ2^|support| of its draws (correlation
    0.95 or more), which varies by about 15% from one sample seed to another.
    So only sample seeds whose sum lies within 2% of its mean are used.
    """
    rng = random.Random(f"chain:{seed}")
    tasks = []
    for n in (3, 4, 5):
        for reading in ((), ("--broadcast-y",)):
            tasks.append(Task("exhaustive", ("chain", "verify", "--n", str(n)) + reading,
                              measurements=4 ** n))
    for n in (8, 9, 10):
        mean = 40 * 1.75 ** n  # each letter is I with probability 1/4
        for reading in ((), ("--broadcast-y",)):
            for _ in range(10):
                sample_seed = rng.randrange(2 ** 31)
                while abs(sampled_work(n, 40, sample_seed) - mean) > 0.02 * mean:
                    sample_seed = rng.randrange(2 ** 31)
                argv = ("chain", "verify", "--n", str(n), "--sample", "40",
                        "--seed", str(sample_seed)) + reading
                tasks.append(Task("sampled", argv, measurements=40))
    return tasks


def certify(seed: int) -> list[Task]:
    """Ring and site-invariance certificates, the canned figures, oracle versus
    state vector, and sampled protocol runs."""
    rng = random.Random(f"certify:{seed}")
    tasks = [Task("ring", ("nogo", "ring", "--f", str(f))) for f in (1, 3, 5, 7, 9, 13, 17, 25)]
    for inst, letter, expect, count in (
        (star(9), "X", "consistent", 1), (star(8), "X", "consistent", 3),
        (grid(2, 3), "Y", "inconsistent", 2), (grid(3, 4), "Y", "consistent", 1),
        (grid(2, 6), "Y", "consistent", 1), (ring(12), "Y", "consistent", 1),
        (ring(10), "X", "consistent", 1), (complete_bipartite(4, 4), "X", "consistent", 1),
        (complete_bipartite(3, 5), "X", "consistent", 1),
    ):
        # The family's own labelling: the automorphism search's cost depends on
        # the labelling (up to 1.4x on star:9), and work must not vary with the seed.
        letters = letter * inst.n
        tasks += [Task("site", ("nogo", "site-invariance", "--graph", GRAPH, "--measurement",
                                letters, "--expect", expect), inst, letters)] * count
    tasks += [Task("figure", ("reproduce", fig)) for fig in ("fig1", "fig2")]
    for n in (10, 11, 12, 13, 14):
        for inst in (ring(n), random_graph(rng, n, 3 * n // 2)):
            if inst.spec is None:
                letters = random_letters(rng, n, "IXYZ")
            else:
                letters = inst.stabilizer_word({j for j in range(1, n + 1) if rng.random() < 0.5})
            tasks.append(Task("oracle", ("oracle", "--graph", GRAPH, "--measurement", letters),
                              inst, letters, statevector=True))
    for k in range(16):  # enough that the median task is an lhv run
        inst = ring(24)
        if k % 2:
            letters = random_letters(rng, 24)
        else:
            letters = inst.stabilizer_word({j for j in range(1, 25) if rng.random() < 0.5})
        tasks.append(Task("lhv", ("lhv", "run", "--graph", GRAPH, "--measurement", letters,
                                  "--samples", "512", "--seed", str(rng.randrange(2 ** 31))),
                          inst, letters))
    return tasks


GENERATORS = {"subsweep": subsweep, "chain": chain, "certify": certify}


# ---------------------------------------------------------------------------
# Answers and independent checks
# ---------------------------------------------------------------------------

def kernel_basis(cols: list[int]) -> list[int]:
    """Basis of {S : XOR of cols[i] over i in S is 0}, as bitmasks over column indices."""
    pivots: dict[int, tuple[int, int]] = {}
    basis = []
    for i, vec in enumerate(cols):
        combo = 1 << i
        while vec:
            top = vec.bit_length() - 1
            if top not in pivots:
                pivots[top] = (vec, combo)
                break
            pvec, pcombo = pivots[top]
            vec ^= pvec
            combo ^= pcombo
        else:
            basis.append(combo)
    return basis


def xor_over(cols: dict[int, int], sites) -> int:
    acc = 0
    for j in sites:
        acc ^= cols[j]
    return acc


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


def check(task: Task, code: int, payload: dict, sv: dict | None) -> tuple[object, list[str]]:
    """The task's answer (what golden.json digests) and the problems found in it."""
    problems = []
    result = payload["result"]
    cmd = task.argv[0]
    if code != 0:
        problems.append(f"exit code {code}")
    if cmd == "verify-sub":
        cols = task.inst.columns(task.letters)
        rank = len(cols) - len(kernel_basis(list(cols.values())))
        if result["subsets_checked"] != task.subsets:
            problems.append(f"subsets_checked {result['subsets_checked']} != {task.subsets}")
        if result["deterministic_subsets"] != 2 ** (len(cols) - rank):
            problems.append(f"deterministic_subsets {result['deterministic_subsets']} "
                            f"!= {2 ** (len(cols) - rank)}")
        for mm in result["mismatches"]:
            o, p = mm["oracle"], mm["lhv"]
            if (not set(mm["sites"]) <= cols.keys() or xor_over(cols, mm["sites"])
                    or o["kind"] != "deterministic" or p["kind"] != "deterministic"
                    or o["value"] == p["value"]):
                problems.append(f"mismatch at {mm['sites']} is not a sign disagreement "
                                "on a certain subset")
        answer = {k: result[k] for k in ("subsets_checked", "deterministic_subsets")}
        answer["mismatches"] = [[m["sites"], m["oracle"]["value"], m["lhv"]["value"]]
                                for m in result["mismatches"]]
    elif cmd == "chain":
        if result["measurements_checked"] != task.measurements:
            problems.append(f"measurements_checked {result['measurements_checked']} "
                            f"!= {task.measurements}")
        if result["violations"] or result["overlap_violations"] or payload["ok"] is not True:
            problems.append("chain protocol violations reported")
        answer = {k: result[k] for k in ("measurements_checked", "deterministic_subs_checked",
                                         "overlap_pairs_checked")}
        answer["violations"] = len(result["violations"])
        answer["overlap_violations"] = len(result["overlap_violations"])
    elif cmd == "nogo" and task.argv[1] == "ring":
        if result["consistent"] is not False or not result["certificate"]:
            problems.append("no inconsistency certificate within the distance bound")
        answer = {k: result[k] for k in ("n", "d", "bound", "consistent", "certificate",
                                         "equations")}
    elif cmd == "nogo":
        cols = task.inst.columns(task.letters)
        if sorted(j for orb in result["orbits"] for j in orb) != list(range(1, task.inst.n + 1)):
            problems.append("orbits do not partition the nodes")
        certain = [tuple(sub["sites"]) for sub in result["certain_submeasurements"]]
        kernel = 2 ** len(kernel_basis(list(cols.values())))
        if len(set(certain)) != len(certain) or len(certain) != kernel:
            problems.append(f"{len(certain)} certain submeasurements listed, {kernel} exist")
        for sites in certain:
            if not set(sites) <= cols.keys() or xor_over(cols, sites):
                problems.append(f"certain submeasurement {list(sites)} is not certain")
        answer = {k: result[k] for k in ("orbits", "certain_submeasurements", "consistent",
                                         "certificate")}
    elif cmd == "reproduce":
        if payload["ok"] is not True:
            problems.append("reproduce reports ok != true")
        keys = (("consistent", "certificate", "equations", "constraints")
                if task.argv[1] == "fig1" else
                ("mismatches", "highlight", "orbits", "site_invariance_consistent",
                 "constraints"))
        answer = {k: result[k] for k in keys}
    elif cmd == "oracle":
        cols = task.inst.columns(task.letters)
        certain = xor_over(cols, cols) == 0
        if result != sv:
            problems.append(f"oracle {result} disagrees with the state vector {sv}")
        if (result["kind"] == "deterministic") != certain:
            problems.append(f"oracle kind {result['kind']} but certain={certain}")
        answer = result
    elif cmd == "lhv":
        cols = task.inst.columns(task.letters)
        certain = xor_over(cols, cols) == 0
        plus, minus = result["counts"]
        samples = int(task.argv[task.argv.index("--samples") + 1])
        if plus + minus != samples:
            problems.append(f"counts {result['counts']} do not add up to {samples}")
        if (result["verdict"]["kind"] == "deterministic") != certain or (certain and plus and minus):
            problems.append(f"sampled verdict {result['verdict']} but certain={certain}")
        answer = {k: result[k] for k in ("verdict", "counts", "flipped")}
    else:
        raise ValueError(f"no check for command {task.argv}")
    return answer, problems
