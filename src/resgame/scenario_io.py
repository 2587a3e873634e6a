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
does, has each distinct value formatted once; any other float matrix has
its entries written by a vectorised shortest-repr kernel wherever repr
writes fixed notation.
"""

from __future__ import annotations

import functools
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
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(obj, base_dir=path.parent)


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
    and each row's texts are taken from theirs by searchsorted. So this
    needs O(N + k) memory for N columns and k distinct values, in one
    pass. For matrices that pass `_repeats`; others are faster formatted
    entry by entry.
    """
    keys = np.empty(0, np.uint64)
    texts = np.empty(0, object)
    for block in blocks:
        bits = _bits(block)
        at = np.searchsorted(keys, bits)
        if not (len(keys) and (keys.take(at, mode="clip") == bits).all()):
            new = np.setdiff1d(bits, keys)
            fresh = [fmt(x).encode() for x in new.view(block.dtype).tolist()]
            where = np.searchsorted(keys, new)
            keys, texts = np.insert(keys, where, new), np.insert(texts, where, fresh)
            at = np.searchsorted(keys, bits)
        yield b"".join([b";" + sep.join(row) for row in texts[at].tolist()])


_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)


@functools.cache
def _repr_tables():
    """The shortest-repr kernel's lookup tables, built on its first use.

    5^j for j = 0..20; the 4 ASCII digits of each q < 10^4, packed
    little-endian; the index of q's last nonzero digit (-99 for q = 0); and,
    for each of the 3 words of a 24-digit string, the masks that keep its
    digits lo..hi (entry 24 * lo + hi) and the words with a '.' at byte u.
    """
    pow5 = np.array([5**j for j in range(21)], dtype=_U)
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    last = np.where(digits.any(1), 3 - np.argmax(digits[:, ::-1] != 0, axis=1), -99).astype(np.int8)
    quads = (digits + ord("0")).astype(np.uint8).view("<u4")[:, 0].astype(_U)
    j = np.arange(24)
    keep = (j[:, None, None] <= j) & (j <= j[None, :, None])  # [lo, hi, j]: lo <= j <= hi
    masks = (255 * keep).astype(np.uint8).reshape(576, 3, 8).view("<u8")[..., 0].astype(_U)
    dots = (ord(".") * (j[:, None] == j)).astype(np.uint8).reshape(24, 3, 8).view("<u8")[..., 0].astype(_U)
    return pow5, quads, last, masks.T.copy(), dots.T.copy()


def _in_fixed_range(block: np.ndarray) -> bool:
    """Whether every entry is finite and 1e-4 <= |x| < 1e16: the floats repr writes in fixed notation."""
    magnitude = np.abs(block, dtype=np.float64)
    return bool(((magnitude >= 1e-4) & (magnitude < 1e16)).all())


def _product(a: np.ndarray, b: np.ndarray):
    """(low, high): the 64-bit limbs of a * b, for a < 2^56 and b < 2^47, from 32-bit halves."""
    a1, a0, b1, b0 = a >> _U(32), a & _LOW32, b >> _U(32), b & _LOW32
    low = a0 * b0
    mid = a0 * b1 + a1 * b0 + (low >> _U(32))
    return mid << _U(32) | low & _LOW32, a1 * b1 + (mid >> _U(32))


def _interval(bits: np.ndarray):
    """(lower, vb, upper, k) for floats x = +-c * 2^q with 1e-4 <= |x| < 1e16, from their bits.

    k = floor(log10(2^q)), or of 3/4 * 2^q at a power of two, where the
    gap below x is half the gap above. k lies in [-20, 0], so 10^-k is an
    integer, and x and the ends of its rounding interval, times 4 * 10^-k,
    are computed exactly, in two 64-bit limbs, and rounded to odd: vb, and
    lower and upper, moved in by one when c is odd, since x's neighbours
    then round to even and the interval is open.
    """
    c = bits & _U((1 << 52) - 1)
    closer = c == 0
    c |= _U(1 << 52)
    q = (bits >> _U(52) & _U(0x7FF)).view(np.int64) - 1075
    k = (q * 1262611 - closer * 524031) >> 22
    p = _repr_tables()[0].take(-k)
    shift = (k + 1 - q).view(_U)  # 4c * 2^q * 10^-k = (8c * 5^-k) >> shift, shift in [0, 47]
    back = _U(64) - shift
    lo, hi = _product(c << _U(3), p)

    def round_to_odd(lo, hi):
        return lo >> shift | hi << back | (lo << back != 0)

    odd = c & _U(1)
    step = p << _U(2)
    up = lo + step
    upper = round_to_odd(up, hi + (up < step)) - odd
    step -= (p << _U(1)) * closer
    lower = round_to_odd(lo - step, hi - (lo < step)) + odd
    return lower, round_to_odd(lo, hi), upper, k


def _shortest(bits: np.ndarray):
    """(d, k): the shortest decimal d * 10^k that reads back as each float64, as float.__repr__ picks it.

    Schubfach (Giulietti, "The Schubfach way to render doubles", 2020; cf.
    Adams, "Ryu", PLDI 2018), for the bits of floats with 1e-4 <= |x| < 1e16.
    Of the decimals in x's rounding interval, the one of length 10^(k+1),
    if there is one, is the shortest; otherwise the nearer of the two of
    length 10^k, ties to even. d < 10^17 and k lies in [-20, -1]: d * 10^0
    is written (10d) * 10^-1.
    """
    lower, vb, upper, k = _interval(bits)
    s = vb >> _U(2)
    u_in, w_in = lower <= s << _U(2), (s << _U(2)) + _U(4) <= upper
    half = (s << _U(2)) + _U(2)
    d = s + np.where(u_in != w_in, w_in, (vb > half) | (vb == half) & (s & _U(1) != 0))
    s //= _U(10)
    u_in, w_in = lower <= s * _U(40), s * _U(40) + _U(40) <= upper
    d = np.where(u_in != w_in, (s + w_in) * _U(10), d)
    top = k == 0
    return np.where(top, d * _U(10), d), k - top


def _digit_words(d: np.ndarray):
    """(words, end): d as 24 ASCII digits in 3 little-endian words, and the index of its last nonzero digit."""
    _, quads, last, _, _ = _repr_tables()
    q = []  # d's digits 20-23, 16-19, 12-15, 8-11 and 4-7, each read as a number below 10^4
    for _ in range(5):
        rest = d // _U(10_000)
        q.append((d - rest * _U(10_000)).view(np.int64))
        d = rest
    end = np.maximum.reduce([last.take(x) + np.int8(20 - 4 * i) for i, x in enumerate(q)])
    text = [quads.take(x) for x in q]
    return (quads[0] | text[4] << _U(32), text[3] | text[2] << _U(32), text[1] | text[0] << _U(32)), end


def _fixed_text(block: np.ndarray, sep: bytes) -> bytearray:
    """The text of a 2-D float64 array that passes `_in_fixed_range`, with NULs among its bytes.

    Each entry gets 32 bytes: its separator, or ';' before a row's first
    entry, then its sign and the 24 digits of d, those up to the units digit
    moved a byte down to make room for the '.'. Masks clear the digits
    before the first significant or the units one and after the last
    nonzero or the first fractional one, which leaves float.__repr__'s text.
    """
    _, _, _, masks, dots = _repr_tables()
    bits = block.view(_U).ravel()
    d, k = _shortest(bits)
    unit = 23 + k  # the index of d's units digit among its 24
    words, end = _digit_words(d)
    whole = np.minimum(8 - (d >= _U(10**16)), unit) * 24 + unit  # d has 16 or 17 digits
    fraction = (unit + 1) * 24 + np.maximum(end, unit + 1)
    integer = [w & m.take(whole) for w, m in zip(words, masks)]
    raw = bytearray(32 * len(bits))
    out = np.frombuffer(raw, "<u8").reshape(-1, 4)
    out[:, 0] = int.from_bytes(sep, "little")
    out[:: block.shape[1], 0] = ord(";")
    out[:, 1] = (words[0] & masks[0].take(fraction) | integer[0] >> _U(8) | integer[1] << _U(56)
                 | dots[0].take(unit) | (bits >> _U(63)) * _U(0x2D00))
    out[:, 2] = (words[1] & masks[1].take(fraction) | integer[1] >> _U(8) | integer[2] << _U(56)
                 | dots[1].take(unit))
    out[:, 3] = words[2] & masks[2].take(fraction) | integer[2] >> _U(8) | dots[2].take(unit)
    return raw


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
        yield from _distinct_marked(blocks, sep, fmt)
        return
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
