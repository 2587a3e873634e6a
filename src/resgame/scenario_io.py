"""File formats: graphs, scenario configs, reports, matrices, sweeps.

Graphs load from edge-list text ("i j [w]" lines, '#' comments) or JSON
({"n": int, "edges": [[i, j], [i, j, w], ...]}); both round-trip through
the matching writers. JSON is the canonical report format; CSV is used
for game matrices and gain sweeps. See docs/formats.md.

Reports are rendered by `json_pieces`, whose pieces join to the text of
json.dumps(obj, indent=2, sort_keys=True); a payoff matrix goes in as
its ndarray and is written one row at a time, in JSON and in CSV.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

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


def _edge(e) -> tuple[int, int, float]:
    """[i, j] (unit weight) or [i, j, w]."""
    if len(_list(e)) not in (2, 3):
        raise ValueError
    return int(e[0]), int(e[1]), float(e[2]) if len(e) == 3 else 1.0


def _nodes(value) -> tuple[int, ...]:
    return tuple(int(i) for i in _list(value))


def parse_graph_json(obj: dict) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise GraphError("graph JSON must be an object with 'n' and 'edges'")
    n = _convert(int, obj["n"], "'n'", GraphError)
    entries = _convert(_list, obj["edges"], "'edges'", GraphError)
    edges = tuple(_convert(_edge, e, "an 'edges' entry", GraphError) for e in entries)
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
        law=ControlLaw.from_int(_convert(int, obj["law"], "'law'", ConfigError)),
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


def report_to_dict(report: EquilibriumReport) -> dict:
    d = asdict(report)
    d["defender_set"] = list(report.defender_set)
    d["attacker_set"] = list(report.attacker_set)
    return d


def _dumps(obj, pad: str) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) placed at the indent of `pad`.

    Exact because json escapes newlines inside strings: every raw newline
    of its output is layout.
    """
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", pad)


def _holds_matrix(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return obj.ndim == 2
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(map(_holds_matrix, obj))


def _key(k) -> str:
    """A dict key as json writes it: str, or a scalar converted to its JSON text."""
    if not isinstance(k, (str, int, float, type(None))):
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
    return json.dumps(k if isinstance(k, str) else json.dumps(k))


def _matrix_row(row: np.ndarray, pad: str) -> str:
    """One matrix row as json writes row.tolist() at the indent of `pad`."""
    values = row.tolist()
    if not values:
        return "[]"
    inner = pad + "  "
    sep = "," + inner
    try:
        text = sep.join(map(float.__repr__, values))
    except TypeError:  # a value that is not a float
        text = "n"
    if "n" in text:  # only the reprs of nan and inf hold an "n"
        text = sep.join(_dumps(v, inner) for v in values)
    return "[" + inner + text + pad + "]"


def json_pieces(obj, pad: str = "\n"):
    """The text of json.dumps(obj, indent=2, sort_keys=True), in pieces.

    A 2-D ndarray is written as its .tolist() would be, one row per piece,
    so a report holding an N x N matrix needs O(N) memory beyond the array.
    Subtrees that hold no 2-D array are rendered by json.dumps whole.
    """
    if not _holds_matrix(obj):
        yield _dumps(obj, pad)
        return
    if isinstance(obj, dict):
        opener, closer = "{", "}"
        items = [(_key(k) + ": ", v) for k, v in sorted(obj.items())]
    else:
        opener, closer = "[", "]"
        items = [("", v) for v in obj]
    if not items:  # a 2-D array with no rows
        yield opener + closer
        return
    inner = pad + "  "
    yield opener
    for i, (head, value) in enumerate(items):
        yield ("," if i else "") + inner + head
        if isinstance(obj, np.ndarray):
            yield _matrix_row(value, inner)
        else:
            yield from json_pieces(value, inner)
    yield pad + closer


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
