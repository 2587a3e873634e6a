"""File formats: graphs, scenario configs, reports, matrices, sweeps.

Graphs load from edge-list text ("i j [w]" lines, '#' comments) or JSON
({"n": int, "edges": [[i, j], [i, j, w], ...]}), each file in one unbuffered
read; both round-trip through the matching writers. JSON is the canonical
report format; CSV, joined here as csv.writer would write it, is used for
game matrices and gain sweeps. See docs/formats.md.

A report is a dict with str keys, rendered as ASCII bytes whose pieces
join to the text of json.dumps(report, indent=2, sort_keys=True)
(`json_pieces` decodes them). The array of subsets goes in as its
ndarray, a payoff matrix as its row blocks from `GameMatrix.cell_blocks`,
and each is written a block of rows at a time, in JSON and in CSV. A
matrix whose first row repeats its values, as every law-1 payoff matrix
does, has each distinct value formatted once, up to _KERNEL_CELLS of
them; any other float matrix, and the rest of one with more, has its
entries written by the vectorised kernel of `shortest_repr` wherever
repr writes fixed notation.
"""

from __future__ import annotations

import itertools
import json
import locale
import math
import os
import stat
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .dynamics import Scenario
from .errors import ConfigError, GraphError
from .game import _KERNEL_CELLS, GameMatrix, SweepRow
from .graphcore import Graph, _edge_entry, integer, real
from .shortest_repr import _fixed_text, _in_fixed_range


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
    try:
        return Graph(n, entries)
    except GraphError:  # a malformed entry is reported first, as a field of the JSON
        for e in entries:
            _convert(_edge_entry, e, "an 'edges' entry", GraphError)
        raise


def _json(path: Path, text: str, error: type[Exception]):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")


def load_graph(path: str | Path) -> Graph:
    path = Path(path)
    text = _read_text(path)
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        return parse_graph_json(_json(path, text, GraphError))
    return parse_graph_text(text)


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[i, j, w] for i, j, w in g.edges]}


_BUFFER = 1 << 16  # bytes per buffered write of an output file


def _read_text(path: Path) -> str:
    """The file's text, as `Path.read_text` gives it; what read_text raises is a ConfigError naming the path.

    Its bytes are read by one unbuffered `readall`, with no text layer, and
    decoded in the locale's encoding with universal newlines: each \\r\\n
    and each lone \\r becomes \\n.
    """
    try:
        with open(path, "rb", buffering=0) as fh:
            text = fh.readall().decode(locale.getpreferredencoding(False))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _untruncated(path, flags: int) -> int:
    """open()'s opener for mode "wb" without O_TRUNC: ext4 starts writeback on closing a file cut to 0 bytes."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _open_out(path: str | Path):
    """Binary file opened for writing; an OSError becomes a ConfigError naming the path.

    Buffered, with no text layer: every writer writes bytes. An existing
    file is written in place and, if regular and longer than what was
    written, cut to the written length on the way out, also when the
    writer raises. A rewrite of the same length makes no `ftruncate`
    call: one to the file's own length still updates its times, a
    journaled inode change.
    """
    try:
        with open(path, "wb", buffering=_BUFFER, opener=_untruncated) as fh:
            try:
                yield fh
            finally:
                fh.flush()
                st, length = os.fstat(fh.fileno()), fh.tell()
                if stat.S_ISREG(st.st_mode) and st.st_size > length:
                    os.ftruncate(fh.fileno(), length)
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
        fh.write(text.encode())


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
        law=_convert(integer, obj["law"], "'law'", ConfigError),
        gain=_convert(real, obj["gain"], "'gain'", ConfigError),
        defense_set=_convert(_nodes, obj.get("defense", []), "'defense'", ConfigError),
        attack_set=_convert(_nodes, obj["attack"], "'attack'", ConfigError),
    )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return scenario_from_dict(_json(path, _read_text(path), ConfigError), base_dir=path.parent)


def _bits(array: np.ndarray) -> np.ndarray:
    """The array's bit patterns as unsigned integers of its own width: -0.0 and each nan apart."""
    return array.view(f"u{array.itemsize}")


def _repeats(matrix: np.ndarray) -> bool:
    """Whether the first row of a 2-D array holds at most half as many distinct values as entries."""
    return matrix.size > 0 and 2 * len(np.unique(_bits(matrix[0]))) <= matrix.shape[1]


def _row_blocks(matrix: np.ndarray):
    """A 2-D array as blocks of whole rows of about _KERNEL_CELLS cells (one row when a row is wider)."""
    step = max(1, _KERNEL_CELLS // max(1, matrix.shape[1]))
    return (matrix[lo : lo + step] for lo in range(0, len(matrix), step))


def _distinct_marked(blocks, sep: bytes, fmt):
    """`_marked` for row blocks whose values repeat: each distinct value is formatted once, when first seen.

    The distinct bit patterns seen so far are kept sorted with their texts,
    and each row's texts are taken from theirs by searchsorted. It holds
    at most _KERNEL_CELLS patterns: a block that would bring more ends this
    generator, whose return value is the blocks left, from that one on,
    for `_entry_marked`, as in a matrix without repeats. So this needs O(N)
    memory for N columns, in one pass. For matrices that pass `_repeats`.
    """
    blocks = iter(blocks)
    keys = np.empty(0, np.uint64)
    texts = np.empty(0, object)
    for block in blocks:
        bits = _bits(block)
        at = np.searchsorted(keys, bits)
        if not (len(keys) and (keys.take(at, mode="clip") == bits).all()):
            new = np.setdiff1d(bits, keys)
            if len(keys) + len(new) > _KERNEL_CELLS:
                return itertools.chain([block], blocks)
            fresh = [fmt(x).encode() for x in new.view(block.dtype).tolist()]
            where = np.searchsorted(keys, new)
            keys, texts = np.insert(keys, where, new), np.insert(texts, where, fresh)
            at = np.searchsorted(keys, bits)
        yield b"".join([b";" + sep.join(row) for row in texts[at].tolist()])
    return blocks


def _entry_marked(block: np.ndarray, sep: bytes, fmt) -> bytes:
    """`_marked` for one block of about _KERNEL_CELLS cells: by the kernel, or entry by entry.

    A block of a float16, float32 or float64 array whose entries repr
    writes in fixed notation goes through the kernel, as float64, which
    holds them exactly; other blocks, and integer arrays, are formatted
    entry by entry.
    """
    if block.dtype.char in "efd" and block.size and _in_fixed_range(block):
        return _fixed_text(np.ascontiguousarray(block, np.float64), sep).translate(None, b"\0")
    text_sep, entry = sep.decode(), int.__repr__ if block.dtype.kind in "iu" else float.__repr__
    texts = []
    for values in block.tolist():
        text = text_sep.join(map(entry, values))
        if "n" in text:  # only the reprs of nan and inf hold an "n"
            text = text_sep.join(map(fmt, values))
        texts.append(";" + text)
    return "".join(texts).encode("ascii")


def _marked(blocks, sep: bytes, fmt):
    """The text of a 2-D float or integer array given as row blocks, as ASCII bytes, a row block at a time.

    Each row is b";" then its entries joined by sep, each as fmt (repr or
    json.dumps) writes it from .tolist(): the one renderer of every
    matrix that `json_pieces`, `write_json_report` and `write_matrix_csv`
    write, whose callers turn the ';' row markers into their row breaks.
    """
    blocks = iter(blocks)
    first = next(blocks, None)
    if first is None:
        return
    blocks = itertools.chain([first], blocks)
    if _repeats(first):
        blocks = yield from _distinct_marked(blocks, sep, fmt)
    for block in blocks:
        yield _entry_marked(block, sep, fmt)


_ROW_SEP = b",\n      "
_ROW_BREAK = b"\n    ],\n    [\n      "  # in a JSON report matrix: close a row, open the next


def _matrix_bytes(blocks):
    """A nonempty 2-D array given as row blocks, in pieces, as json.dumps writes its .tolist() in a report.

    One bytes.replace per piece turns its ';' row markers into row breaks;
    the first piece drops its first break's closing of a previous row.
    """
    pieces = _marked(blocks, _ROW_SEP, json.dumps)
    yield b"[" + next(pieces).replace(b";", _ROW_BREAK)[len(b"\n    ],") :]
    for text in pieces:
        yield text.replace(b";", _ROW_BREAK)
    yield b"\n    ]\n  ]"


_escape = json.encoder.encode_basestring_ascii  # json's own string encoder, in C


def _json_text(value, pad: str = "") -> str:
    """json.dumps(value, indent=2, sort_keys=True), each line after the first indented by `pad`.

    Leaves (str, int, finite float, bool, None) are tested in json's order
    and written by json's own functions; lists, tuples and str-keyed dicts
    are laid out here. Anything else (nan, inf, other keys, a value json
    cannot encode) goes to json.dumps, which writes it or raises; its text
    is indented by one replace, exact since json escapes newlines in strings.
    """
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_escape(key) + ": " + _json_text(value[key], inner) for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _report_bytes(report: dict):
    """json.dumps(report, indent=2, sort_keys=True) as ASCII bytes, in pieces; see `json_pieces`."""
    if not any(isinstance(value, (np.ndarray, Iterator)) for value in report.values()):
        yield _json_text(report).encode()
        return
    head = b"{"
    for key in sorted(report):
        value = report[key]
        yield head + b"\n  " + _escape(key).encode() + b": "
        head = b","
        if isinstance(value, np.ndarray) and value.size:
            yield from _matrix_bytes(_row_blocks(value))
        elif isinstance(value, Iterator):
            yield from _matrix_bytes(value)
        else:
            plain = value.tolist() if isinstance(value, np.ndarray) else value  # an empty array
            yield _json_text(plain, "  ").encode()
    yield b"\n}"


def json_pieces(report: dict):
    """The text of json.dumps(report, indent=2, sort_keys=True), in pieces.

    A report is a dict with str keys. Each value is json.dumps's own text,
    indented two spaces, except a 2-D float or integer ndarray, which is
    written as its .tolist() would be, whole rows per piece, and an
    iterator of such an array's row blocks (`GameMatrix.cell_blocks`),
    written as the array they make up. So a report holding an N x N
    matrix needs O(N) memory beyond the array, or one block of it when
    it comes as blocks. A report with no matrix is that text as one
    piece. The pieces are those `write_json_report` writes, decoded.
    """
    for piece in _report_bytes(report):
        yield piece.decode("ascii")


def write_json_report(obj: dict, path: str | Path) -> None:
    """The report as json.dumps(obj, indent=2, sort_keys=True) plus a newline, streamed as bytes."""
    with _open_out(path) as fh:
        fh.writelines(_report_bytes(obj))
        fh.write(b"\n")


def _decode_subset(sub) -> str:
    return "+".join(str(i) for i in sub)


def write_sweep_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Sweep CSV, one row per gain, as csv.writer writes it: no field holds a character it would quote."""
    lines = ["kappa,defender,attacker,value,kind\r\n"]
    for row in rows:
        defender, attacker = _decode_subset(row.defender_set), _decode_subset(row.attacker_set)
        lines.append(f"{row.kappa!r},{defender},{attacker},{row.value!r},{row.kind}\r\n")
    with _open_out(path) as fh:
        fh.write("".join(lines).encode())


def write_matrix_csv(m: GameMatrix, path: str | Path) -> None:
    """Matrix CSV with subset ranks and decoded node lists as headers, streamed as bytes."""
    blocks = m.cell_blocks()  # W before the file opens: a failed computation leaves no file
    heads = [f"{r}:{_decode_subset(sub)}" for r, sub in enumerate(m.index.subsets.tolist())]
    with _open_out(path) as fh:
        # a float's repr and a header hold nothing csv.writer would quote
        fh.write(",".join(["defender\\attacker", *heads]).encode() + b"\r\n")
        heads = (head.encode() + b"," for head in heads)
        for text in _marked(blocks, b",", repr):
            fh.write(b"".join(head + row + b"\r\n" for row, head in zip(text.split(b";")[1:], heads)))
