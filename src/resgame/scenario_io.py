"""File formats: graphs, scenario configs, reports, matrices, sweeps.

Graphs load from edge-list text ("i j [w]" lines, '#' comments) or JSON
({"n": int, "edges": [[i, j], [i, j, w], ...]}); both round-trip through
the matching writers. JSON is the canonical report format; CSV is used
for game matrices and gain sweeps. See docs/formats.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict
from pathlib import Path

from .dynamics import ControlLaw, Scenario
from .errors import ConfigError, GraphError
from .game import EquilibriumReport, SweepRow, GameMatrix
from .graphcore import Graph


def parse_graph_text(text: str) -> Graph:
    """Edge-list parser; node count is one plus the largest index seen."""
    edges = []
    max_node = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'i j [w]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphError(f"line {lineno}: could not parse {raw!r}")
        edges.append((i, j, w))
        max_node = max(max_node, i, j)
    if not edges:
        raise GraphError("edge list is empty")
    return Graph(max_node + 1, tuple(edges))


def parse_graph_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    edges = []
    for e in obj["edges"]:
        if len(e) == 2:
            edges.append((int(e[0]), int(e[1]), 1.0))
        elif len(e) == 3:
            edges.append((int(e[0]), int(e[1]), float(e[2])))
        else:
            raise GraphError(f"bad edge entry {e!r}")
    return Graph(int(obj["n"]), tuple(edges))


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        return parse_graph_json(obj)
    return parse_graph_text(text)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def write_graph(g: Graph, path: str | Path, fmt: str = "json") -> None:
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(graph_to_json(g)) + "\n")
    elif fmt == "text":
        lines = [f"{i} {j} {w!r}" for i, j, w in g.edges]
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ConfigError(f"unknown graph format {fmt!r}")


def scenario_from_dict(obj: dict, base_dir: str | Path = ".") -> Scenario:
    """Build a scenario from config JSON; 'graph' may be a path or inline object."""
    missing = [k for k in ("graph", "law", "gain", "attack") if k not in obj]
    if missing:
        raise ConfigError(f"scenario config missing keys: {missing}")
    graph_src = obj["graph"]
    if isinstance(graph_src, str):
        graph = load_graph(Path(base_dir) / graph_src)
    else:
        graph = parse_graph_json(graph_src)
    return Scenario(
        graph=graph,
        law=ControlLaw.from_int(int(obj["law"])),
        gain=float(obj["gain"]),
        defense_set=tuple(int(i) for i in obj.get("defense", [])),
        attack_set=tuple(int(i) for i in obj["attack"]),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(obj, base_dir=path.parent)


def report_to_dict(report: EquilibriumReport) -> dict:
    d = asdict(report)
    d["defender_set"] = list(report.defender_set)
    d["attacker_set"] = list(report.attacker_set)
    return d


def report_from_dict(obj: dict) -> EquilibriumReport:
    return EquilibriumReport(
        kind=obj["kind"],
        defender_set=tuple(obj["defender_set"]),
        attacker_set=tuple(obj["attacker_set"]),
        value=obj["value"],
        theorem=obj.get("theorem"),
        witness=obj.get("witness"),
        threshold=obj.get("threshold"),
        gain_above_threshold=obj.get("gain_above_threshold"),
    )


def write_json_report(obj: dict, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}")


def read_json_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def _decode_subset(sub) -> str:
    return "+".join(str(i) for i in sub)


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kappa", "defender", "attacker", "value", "kind"])
        for row in rows:
            writer.writerow(
                [
                    repr(row.kappa),
                    _decode_subset(row.defender_set),
                    _decode_subset(row.attacker_set),
                    repr(row.value),
                    row.kind,
                ]
            )


def read_sweep_csv(path: str | Path) -> list[SweepRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                SweepRow(
                    kappa=float(rec["kappa"]),
                    kind=rec["kind"],
                    defender_set=tuple(int(i) for i in rec["defender"].split("+")),
                    attacker_set=tuple(int(i) for i in rec["attacker"].split("+")),
                    value=float(rec["value"]),
                )
            )
    return rows


def write_matrix_csv(m: GameMatrix, path: str | Path) -> None:
    """Matrix CSV with subset ranks and decoded node lists as headers."""
    subsets = m.index.all_subsets()
    headers = [f"{r}:{_decode_subset(sub)}" for r, sub in enumerate(subsets)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["defender\\attacker"] + headers)
        for r, sub in enumerate(subsets):
            writer.writerow([headers[r]] + [repr(float(v)) for v in m.values[r]])
