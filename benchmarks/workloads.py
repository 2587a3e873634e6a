"""Seeded task lists for the four benchmark workloads.

Standard library only: the launcher, the worker and the test all rebuild
the same task list from (workload, seed), and the program under test only
ever sees the graph files written here and the argv built here.

Sizes are fixed per workload and only the graphs, node sets and gains are
drawn from the seed, so that the amount of work in one pass barely depends
on the seed.

Each task list has a few cheap tasks, a middle group of equal-cost tasks
that holds the median, and a top group of equal-cost tasks that holds the
tail percentile (run.py's task_p50_s and task_tail_s), sometimes with one
dearer task above it so that the tail falls mid-group. A statistic that
falls on a single task, or between two tasks of different cost, flips with
host noise. The members of a group are spread over the pass, so that a
burst of noise hits at most one of them. See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

GAINS = (0.5, 1.0, 2.0)
# Multiples of the degree-gap threshold k-bar used as the sweep grid: the
# first two gains have a pure saddle (early exit of find_nash), the last
# two do not (full O(N^2) scan).
SWEEP_MULTIPLES = (0.5, 0.8, 1.25, 2.0)


@dataclass
class Task:
    """One `resgame` invocation: argv without --graph/--out, plus its inputs."""

    id: str
    command: str
    graph: dict
    args: list[str]
    out_suffix: str = ".json"
    meta: dict = field(default_factory=dict)

    def argv(self, graph_path: Path, out_path: Path) -> list[str]:
        return [self.command, "--graph", str(graph_path), *self.args, "--out", str(out_path)]

    def record(self) -> dict:
        """The task's inputs as written into the benchmark report."""
        return {
            "id": self.id,
            "command": self.command,
            "n": self.graph["n"],
            "edges": len(self.graph["edges"]),
            **self.meta,
        }


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def random_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree on 0..n-1 plus `extra` distinct random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {_edge(order[k], order[rng.randrange(k)]) for k in range(1, n)}
    target = min(n - 1 + extra, n * (n - 1) // 2)
    while len(edges) < target:
        edges.add(_edge(*rng.sample(range(n), 2)))
    return sorted(edges)


def path_graph(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def degrees(n: int, edges) -> list[int]:
    d = [0] * n
    for i, j in edges:
        d[i] += 1
        d[j] += 1
    return d


def _subset_rank(n: int, subset) -> int:
    """Lexicographic rank of a sorted subset among all subsets of its size."""
    f = len(subset)
    rank, prev = 0, -1
    for pos, v in enumerate(subset):
        for u in range(prev + 1, v):
            rank += math.comb(n - 1 - u, f - pos - 1)
        prev = v
    return rank


def hub_graph(rng: random.Random, n: int, hubs: int, row_fraction: float):
    """Random graph whose `hubs` top-degree nodes lead every other node by >= 2.

    The strict gap makes the degree threshold k-bar positive, so a law-1
    sweep has gains with and without a saddle. Nodes are relabelled so
    that the hub set, which is the saddle's defender row, has a rank close
    to `row_fraction` of all C(n, hubs) rows. Returns (edges, k-bar).
    """
    base = n - hubs
    edges = random_graph(rng, base, base // 4)
    top = max(degrees(base, edges)) + hubs + 2  # a base node gains <= hubs edges
    for k in range(hubs):
        hub = base + k
        edges += [_edge(hub, base + j) for j in range(k)]
        wanted = top + (hubs - 1 - k) - k  # distinct hub degrees, all above `top` - 1
        edges += [(v, hub) for v in rng.sample(range(base), wanted)]
    size = math.comb(n, hubs)
    # smallest lowest-hub label whose row reaches the requested fraction
    first = next(
        a for a in range(n - hubs + 1)
        if _subset_rank(n, range(a, a + hubs)) >= row_fraction * size or a == n - hubs
    )
    others = [v for v in range(n) if v not in range(first, first + hubs)]
    rng.shuffle(others)
    hub_labels = list(range(first, first + hubs))
    rng.shuffle(hub_labels)
    label = others[:base] + hub_labels
    edges = sorted(_edge(label[i], label[j]) for i, j in edges)
    d = sorted(degrees(n, edges), reverse=True)
    kbar = (d[hubs - 1] - d[hubs]) / (d[hubs] + 1.0)
    return edges, kbar


def _graph(n: int, edges) -> dict:
    return {"n": n, "edges": [list(e) for e in edges]}


def _gain_arg(g: float) -> str:
    return repr(float(g))


def _solve_law2(rng: random.Random) -> list[Task]:
    # median: seven f=1 n=100 tasks between five cheaper and six dearer
    # ones; tail: four f=2 n=45 tasks, with one f=2 n=50 task above them so
    # that the tail falls mid-group. An f=1 n=200 task would cost about as
    # much as the f=2 n=45 ones, more or less depending on the host's
    # state, and so would split the tail group.
    plan = [(1, 100), (2, 45), (1, 50), (1, 100), (1, 55), (2, 45), (1, 100), (1, 150),
            (1, 100), (1, 60), (2, 45), (1, 100), (2, 50), (1, 65), (1, 100), (2, 45),
            (1, 100), (1, 75)]
    tasks = []
    for k, (f, n) in enumerate(plan):
        gain = rng.choice(GAINS)
        tasks.append(Task(
            id=f"solve-{k:02d}-f{f}-n{n}",
            command="solve",
            graph=_graph(n, random_graph(rng, n, n // 2)),
            args=["--law", "2", "--gain", _gain_arg(gain), "--f", str(f)],
            meta={"law": 2, "f": f, "N": math.comb(n, f), "gains": [gain], "format": "json"},
        ))
    return tasks


def _sweep_law1(rng: random.Random) -> list[Task]:
    # (f, n, where the saddle's row sits as a fraction of the C(n, f) rows);
    # fixed fractions keep the early-exit work equal from seed to seed.
    # median: six f=2 n=30 tasks; tail: four f=2 n=40 tasks, with one
    # n=45 task above them so that the tail falls mid-group
    mid, top = (2, 30, 0.5), (2, 40, 0.5)
    plan = [mid, top, (1, 200, 0.25), mid, top, (2, 20, 0.25), mid, (2, 45, 0.5),
            top, (1, 200, 0.75), mid, top, (2, 20, 0.75), mid, mid]
    tasks = []
    for k, (f, n, q) in enumerate(plan):
        edges, kbar = hub_graph(rng, n, f, q)
        gains = [kbar * m for m in SWEEP_MULTIPLES]
        tasks.append(Task(
            id=f"sweep-{k:02d}-f{f}-n{n}-q{q}",
            command="sweep",
            graph=_graph(n, edges),
            args=["--law", "1", "--f", str(f), "--gains", ",".join(_gain_arg(g) for g in gains)],
            meta={"law": 1, "f": f, "N": math.comb(n, f), "gains": gains, "format": "json",
                  "kbar": kbar, "saddle_row_fraction": q},
        ))
    return tasks


def _h2_task(rng, tid, n, edges, law, attack, defense, gain=None) -> Task:
    gain = rng.choice(GAINS) if gain is None else gain
    args = ["--law", str(law), "--gain", _gain_arg(gain), "--attack", ",".join(map(str, attack))]
    if defense:
        args += ["--defense", ",".join(map(str, defense))]
    return Task(
        id=tid,
        command="h2",
        graph=_graph(n, edges),
        args=args + ["--oracle"],
        meta={"law": law, "f": len(attack), "gains": [gain], "format": "json",
              "defense": list(defense), "attack": list(attack)},
    )


def _node_sets(rng, n, budget, defended):
    """Random attack set and, if defended, an independent defense set, both of size `budget`."""
    attack = sorted(rng.sample(range(n), budget))
    return attack, sorted(rng.sample(range(n), budget)) if defended else []


def _h2_oracle(rng: random.Random) -> list[Task]:
    # The oracle's step count grows as the drift matrix's slowest decay rate
    # shrinks, so the graphs keep a pass's work steady from seed to seed:
    # law-1 random graphs carry n extra edges (their slowest rate is then
    # the damping's 1/2), and the law-2 tasks, which hold the tail, run at
    # gain 1 on a path grounded at its middle node: four on a 6-path, and
    # one dearer 8-path task above them so that the tail falls mid-group.
    law1 = []
    for defended in (False, True):
        tag = "def" if defended else "undef"
        for n in (6, 8, 10, 12, 14, 16, 18, 20):
            sets = _node_sets(rng, n, rng.choice((1, 2)), defended)
            law1.append(_h2_task(rng, f"h2-law1-{tag}-rand-n{n}", n,
                                 random_graph(rng, n, n), 1, *sets))
    for n, defended in ((6, False), (7, True), (8, False), (10, True)):
        tag = "def" if defended else "undef"
        law1.append(_h2_task(rng, f"h2-law1-{tag}-path-n{n}", n, path_graph(n), 1,
                             *_node_sets(rng, n, 1, defended)))
    rng.shuffle(law1)
    tasks = []
    for k in range(4):
        tasks += law1[5 * k:5 * k + 5]
        attack = [rng.choice([v for v in range(6) if v != 3])]
        tasks.append(_h2_task(rng, f"h2-law2-path-n6-{k}", 6, path_graph(6), 2, attack, [3], 1.0))
        if k == 1:
            attack = [rng.choice([v for v in range(8) if v != 4])]
            tasks.append(_h2_task(rng, "h2-law2-path-n8", 8, path_graph(8), 2, attack, [4], 1.0))
    return tasks


def _export_matrix(rng: random.Random) -> list[Task]:
    # (n, law, format); one n=16 graph is exported for both laws in both
    # formats. median: five law-1 JSON exports at n=20; tail: four law-2
    # JSON exports at n=26, with one at n=30 above them
    mid, top = (20, 1, "json"), (26, 2, "json")
    plan = [mid, top, (16, 1, "csv"), mid, top, (16, 1, "json"), mid, (30, 2, "json"),
            top, (16, 2, "csv"), mid, top, (16, 2, "json"), mid]
    small = _graph(16, random_graph(rng, 16, 8))
    small_gain = rng.choice(GAINS)
    tasks = []
    for k, (n, law, fmt) in enumerate(plan):
        graph, gain = (small, small_gain) if n == 16 else (_graph(n, random_graph(rng, n, n // 2)), rng.choice(GAINS))
        tasks.append(Task(
            id=f"matrix-{k:02d}-n{n}-law{law}-{fmt}",
            command="matrix",
            graph=graph,
            args=["--law", str(law), "--gain", _gain_arg(gain), "--f", "2", "--format", fmt],
            out_suffix="." + fmt,
            meta={"law": law, "f": 2, "N": math.comb(n, 2), "gains": [gain], "format": fmt},
        ))
    return tasks


BUILDERS = {
    "solve-law2": _solve_law2,
    "sweep-law1": _sweep_law1,
    "h2-oracle": _h2_oracle,
    "export-matrix": _export_matrix,
}
WORKLOADS = tuple(BUILDERS)


def tasks(workload: str, seed: int) -> list[Task]:
    """The workload's task list; the same (workload, seed) gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def write_inputs(task_list: list[Task], directory: Path) -> list[Path]:
    """Write one graph file per task; returns the paths in task order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for task in task_list:
        path = directory / f"{task.id}.json"
        path.write_text(json.dumps(task.graph) + "\n")
        paths.append(path)
    return paths
