"""File formats: graphs, scenario configs, reports, matrices, sweeps.

Graphs load from edge-list text ("i j [w]" lines, '#' comments) or JSON
({"n": int, "edges": [[i, j], [i, j, w], ...]}); both round-trip through
the matching writers. JSON is the canonical report format; CSV is used
for game matrices and gain sweeps. See docs/formats.md.

A report is a dict with str keys, rendered by `json_pieces`, whose
pieces join to the text of json.dumps(report, indent=2, sort_keys=True);
a payoff matrix goes in as its ndarray and is written one row at a time,
in JSON and in CSV.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import ControlLaw, Scenario
from .errors import ConfigError, GraphError
from .game import GameMatrix, SweepRow
from .graphcore import Graph, _edge_entry, integer


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


def _convert(convert, value, field: str, error: type[ValueError]):
    """convert(value), with a malformed value reported as `error` naming the field."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise error(f"bad value for {field}: {value!r}")


def _list(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return value


def _nodes(value) -> tuple[int, ...]:
    return tuple(map(integer, _list(value)))


def parse_graph_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    n = _convert(integer, obj["n"], "'n'", GraphError)
    entries = _convert(_list, obj["edges"], "'edges'", GraphError)
    edges = tuple(_convert(_edge_entry, e, "an 'edges' entry", GraphError) for e in entries)
    return Graph(n, edges)


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    text = _read_text(path)
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
        return parse_graph_json(obj)
    return parse_graph_text(text)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


def _read_text(path: Path) -> str:
    """The file's text; an OSError becomes a ConfigError naming the path."""
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")


@contextmanager
def _open_out(path: str | Path):
    """Text file opened for writing; an OSError becomes a ConfigError naming the path."""
    try:
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def write_graph(g: Graph, path: str | Path, fmt: str = "json") -> None:
    if fmt == "json":
        text = json.dumps(graph_to_json(g)) + "\n"
    elif fmt == "text":
        lines = [f"{i} {j} {w!r}" for i, j, w in g.edges]
        text = "\n".join(lines) + "\n"
    else:
        raise ConfigError(f"unknown graph format {fmt!r}")
    with _open_out(path) as fh:
        fh.write(text)


def scenario_from_dict(obj: dict, base_dir: str | Path = ".") -> Scenario:
    """Build a scenario from config JSON; 'graph' may be a path or inline object."""
    if not isinstance(obj, dict):
        raise ConfigError(f"scenario config must be a JSON object, got {obj!r}")
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
        law=ControlLaw.from_int(_convert(integer, obj["law"], "'law'", ConfigError)),
        gain=_convert(float, obj["gain"], "'gain'", ConfigError),
        defense_set=_convert(_nodes, obj.get("defense", []), "'defense'", ConfigError),
        attack_set=_convert(_nodes, obj["attack"], "'attack'", ConfigError),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(obj, base_dir=path.parent)


def _matrix_pieces(matrix: np.ndarray):
    """A 2-D float array's text as a report value, as json.dumps writes .tolist(), a row a piece."""
    head = "["
    for row in matrix:
        values = row.tolist()
        text = ",\n      ".join(map(float.__repr__, values))
        if "n" in text:  # only the reprs of nan and inf hold an "n"
            text = ",\n      ".join(map(json.dumps, values))
        yield head + ("\n    [\n      " + text + "\n    ]" if values else "\n    []")
        head = ","
    yield "[]" if head == "[" else "\n  ]"


def json_pieces(report: dict):
    """The text of json.dumps(report, indent=2, sort_keys=True), in pieces.

    A report is a dict with str keys. Each value is json.dumps's own text,
    indented two spaces, except a 2-D float ndarray, which is written as
    its .tolist() would be, one row per piece, so a report holding an
    N x N matrix needs O(N) memory beyond the array.
    """
    head = "{"
    for key in sorted(report):
        value = report[key]
        yield head + "\n  " + json.dumps(key) + ": "
        head = ","
        if isinstance(value, np.ndarray):
            yield from _matrix_pieces(value)
        else:  # exact: json escapes newlines in strings, so each raw one is layout
            yield json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")
    yield "{}" if head == "{" else "\n}"


def write_json_report(obj: dict, path: str | Path) -> None:
    """The report as json.dumps(obj, indent=2, sort_keys=True) plus a newline, streamed."""
    with _open_out(path) as fh:
        fh.writelines(json_pieces(obj))
        fh.write("\n")


def _decode_subset(sub) -> str:
    return "+".join(str(i) for i in sub)


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    with _open_out(path) as fh:
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


def write_matrix_csv(m: GameMatrix, path: str | Path) -> None:
    """Matrix CSV with subset ranks and decoded node lists as headers."""
    subsets = m.index.subsets.tolist()
    headers = [f"{r}:{_decode_subset(sub)}" for r, sub in enumerate(subsets)]
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["defender\\attacker"] + headers)
        for head, row in zip(headers, m.values):
            writer.writerow([head, *map(repr, row.tolist())])
