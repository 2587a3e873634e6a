import csv
import io
import json
import math
import os
import re
import stat
import tracemalloc
from dataclasses import asdict
from itertools import compress

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resgame import (
    ConfigError,
    ControlLaw,
    EquilibriumReport,
    Graph,
    GraphError,
    SweepRow,
    build_matrix,
    load_graph,
    load_scenario,
    sweep_gain,
)
from resgame import scenario_io
from resgame.graphcore import complete_graph, path_graph
from resgame.scenario_io import (
    _KERNEL_CELLS,
    _ROW_SEP,
    _entry_marked,
    _fixed_text,
    _in_fixed_range,
    _marked,
    _repeats,
    _row_blocks,
    graph_to_json,
    json_pieces,
    parse_graph_json,
    parse_graph_text,
    scenario_from_dict,
    write_graph,
    write_json_report,
    write_matrix_csv,
    write_sweep_csv,
)
from resgame.shortest_repr import _repr_tables

from conftest import random_connected_graph


class TestGraphParsing:
    def test_text_with_comments_and_weights(self):
        g = parse_graph_text("# a path\n0 1\n1 2 2.5  # heavier\n")
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.5))

    def test_text_reports_line_number(self):
        with pytest.raises(GraphError, match="line 2"):
            parse_graph_text("0 1\n0 1 2 3\n")
        with pytest.raises(GraphError, match="line 1"):
            parse_graph_text("zero one\n")

    def test_text_rejects_empty(self):
        with pytest.raises(GraphError, match="empty"):
            parse_graph_text("# only comments\n")

    def test_json_two_and_three_tuple_edges(self):
        g = parse_graph_json({"n": 3, "edges": [[0, 1], [1, 2, 0.5]]})
        assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))

    def test_json_rejects_missing_keys(self):
        with pytest.raises(GraphError, match="'n' and 'edges'"):
            parse_graph_json({"edges": []})

    @pytest.mark.parametrize(
        "obj, field",
        [({"n": 2, "edges": [1]}, "an 'edges' entry: 1"),
         ({"n": "two", "edges": [[0, 1]]}, "'n': 'two'"),
         ({"n": 2, "edges": [["a", 1]]}, "an 'edges' entry: ['a', 1]"),
         ({"n": 2, "edges": 5}, "'edges': 5"),
         ({"n": 2, "edges": [[0, 1, 1.0, 2]]}, "an 'edges' entry"),
         ({"n": 2, "edges": [[0, 1.9]]}, "an 'edges' entry: [0, 1.9]"),
         ({"n": 2.9, "edges": [[0, 1.9], [True, 0]]}, "'n': 2.9"),
         ({"n": True, "edges": [[0, 1]]}, "'n': True"),
         ({"n": 2.0, "edges": [[0, 1]]}, "'n': 2.0"),
         ({"n": 2, "edges": [[True, 0]]}, "an 'edges' entry: [True, 0]"),
         ({"n": 2, "edges": [{"i": 0, "j": 1}]}, "an 'edges' entry: {'i': 0, 'j': 1}"),
         ({"n": 2, "edges": [[0, 1, True]]}, "an 'edges' entry: [0, 1, True]"),
         ({"n": 2, "edges": [[0, 1, "2.5"]]}, "an 'edges' entry: [0, 1, '2.5']")],
        ids=["edge-not-a-list", "n-not-int", "edge-node-not-int", "edges-not-a-list",
             "edge-too-long", "edge-node-float", "n-float-and-edge-node-bool", "n-bool",
             "n-float-2", "edge-node-bool", "edge-object", "edge-weight-bool", "edge-weight-str"],
    )
    def test_json_malformed_value_names_field(self, obj, field):
        with pytest.raises(GraphError, match=re.escape(f"bad value for {field}")):
            parse_graph_json(obj)

    def test_json_graph_error_is_re_raised(self):
        # well-formed entries: the graph's own error is raised again as is
        with pytest.raises(GraphError, match="self-loop at node 0"):
            parse_graph_json({"n": 2, "edges": [[0, 0]]})

    def test_disconnected_input_is_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            parse_graph_text("0 1\n2 3\n")


class TestGraphRoundTrip:
    @pytest.mark.parametrize("fmt,suffix", [("json", ".json"), ("text", ".txt")])
    def test_round_trip(self, tmp_path, rng, fmt, suffix):
        g = random_connected_graph(rng, 7, weighted=True)
        path = tmp_path / f"g{suffix}"
        write_graph(g, path, fmt=fmt)
        assert load_graph(path) == g

    def test_load_json_by_content_sniff(self, tmp_path):
        path = tmp_path / "graph.dat"
        path.write_text(json.dumps(graph_to_json(path_graph(3))))
        assert load_graph(path) == path_graph(3)

    def test_unknown_format_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown graph format 'yaml'"):
            write_graph(path_graph(3), tmp_path / "g.yaml", fmt="yaml")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n  "edges": [[0, 1],]}')
        with pytest.raises(GraphError, match="line 2"):
            load_graph(path)


def _read_text_reference(path):
    """load_graph as it read a file with Path.read_text: the graph, or the exception's type and text."""
    try:
        text = path.read_text()
        if path.suffix == ".json" or text.lstrip().startswith("{"):
            try:
                obj = json.loads(text)
            except json.JSONDecodeError as exc:
                raise GraphError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
            return parse_graph_json(obj)
        return parse_graph_text(text)
    except GraphError as exc:
        return type(exc), str(exc)


def _loaded(path):
    try:
        return load_graph(path)
    except GraphError as exc:
        return type(exc), str(exc)


_LINES = {
    "text": ["# a weighted triangle", "0 1 2.5", "1 2", "", "0 2  # last"],
    "text-malformed": ["0 1", "1 2 3 4", "2 3"],
    "json": ["{", '  "n": 3,', '  "edges": [[0, 1, 2.5], [1, 2],', "  [0, 2]]", "}"],
    "json-malformed": ["{", '  "n": 3,', '  "edges": [[0, 1],', "  ]", "}"],
}
_TRIANGLE = Graph(3, ((0, 1, 2.5), (1, 2, 1.0), (0, 2, 1.0)))
_LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r", "cr-crlf": "\r\r\n"}


class TestGraphFileBytes:
    """load_graph reads bytes in one unbuffered read and decodes them as Path.read_text did."""

    @pytest.mark.parametrize("end", list(_LINE_ENDS))
    @pytest.mark.parametrize("kind", list(_LINES))
    @pytest.mark.parametrize("suffix", [".json", ".txt"])
    def test_line_ends_load_as_read_text_loads_them(self, tmp_path, kind, end, suffix):
        path = tmp_path / f"graph{suffix}"
        path.write_bytes(_LINE_ENDS[end].join(_LINES[kind]).encode() + _LINE_ENDS[end].encode())
        assert _loaded(path) == _read_text_reference(path)

    @pytest.mark.parametrize("end", ["crlf", "cr"])
    def test_crlf_and_cr_files_load_as_lf_files(self, tmp_path, end):
        for kind in _LINES:
            paths = {name: tmp_path / f"{name}.dat" for name in ("lf", end)}
            for name, path in paths.items():
                path.write_bytes(_LINE_ENDS[name].join(_LINES[kind]).encode())
            lf, other = (_loaded(path) for path in paths.values())
            if kind.endswith("malformed"):  # the same line named
                assert other == (GraphError, lf[1].replace(str(paths["lf"]), str(paths[end])))
                assert "line 2" in other[1] or "line 4" in other[1]
            else:
                assert other == lf == _TRIANGLE

    def test_file_longer_than_one_read(self, tmp_path):
        path = tmp_path / "long.txt"
        write_graph(path_graph(20_000), path, fmt="text")
        assert path.stat().st_size > 3 * scenario_io._BUFFER
        assert load_graph(path) == path_graph(20_000)

    @pytest.mark.parametrize("data", [b"0 1\n1 \xff2\n", b"\xef\xbb\xbf0 1\n", b'{"n": 2, "edges": [[0, 1, "\xe9"]]}'])
    def test_bytes_outside_the_locale_encoding_are_a_config_error_naming_the_path(self, tmp_path, data):
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        try:
            path.read_text()
        except UnicodeDecodeError as exc:
            with pytest.raises(ConfigError) as raised:
                load_graph(path)
            assert str(raised.value) == f"cannot read {path}: {exc}"
        else:  # the UTF-8 BOM decodes to U+FEFF, which parse_graph_text rejects
            assert _loaded(path) == _read_text_reference(path)

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_path_is_a_config_error_naming_it(self, tmp_path, target):
        path = tmp_path / "none.txt" if target == "missing" else tmp_path
        with pytest.raises(OSError) as exc:
            path.read_text()
        with pytest.raises(ConfigError) as raised:
            load_graph(path)
        assert str(raised.value) == f"cannot read {path}: {exc.value}"
        assert str(path) in str(exc.value)


class TestScenarioConfig:
    def test_inline_graph(self):
        s = scenario_from_dict(
            {
                "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                "law": 2,
                "gain": 1.5,
                "defense": [1],
                "attack": [0, 2],
            }
        )
        assert s.law is ControlLaw.REL_VELOCITY
        assert s.defense_set == (1,) and s.attack_set == (0, 2)

    def test_graph_path_relative_to_config(self, tmp_path):
        write_graph(path_graph(4), tmp_path / "g.json")
        cfg = tmp_path / "scenario.json"
        cfg.write_text(
            json.dumps({"graph": "g.json", "law": 1, "gain": 0.5, "attack": [2]})
        )
        s = load_scenario(cfg)
        assert s.graph == path_graph(4) and s.defense_set == ()

    @pytest.mark.parametrize(
        "key, value",
        [("law", "x"), ("gain", "abc"), ("gain", None), ("attack", 1), ("defense", ["a"]),
         ("law", 2.7), ("law", 2.0), ("law", True), ("attack", [1.9]), ("attack", [True]),
         ("defense", [0.5]), ("defense", ["1"]), ("gain", True), ("gain", "1e0")],
    )
    def test_malformed_value_names_field(self, key, value):
        obj = {"graph": {"n": 2, "edges": [[0, 1]]}, "law": 1, "gain": 1.0, "attack": [0]}
        with pytest.raises(ConfigError, match=re.escape(f"bad value for '{key}': {value!r}")):
            scenario_from_dict({**obj, key: value})

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="gain"):
            scenario_from_dict({"graph": {"n": 2, "edges": [[0, 1]]}, "law": 1, "attack": [0]})

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            scenario_from_dict(5)

    def test_invalid_json_file_reports_line(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text('{"law": 1,\n "gain": }')
        with pytest.raises(ConfigError, match="invalid JSON at line 2"):
            load_scenario(cfg)


class TestReports:
    def test_report_round_trip(self, tmp_path):
        rep = EquilibriumReport(
            kind="nash",
            defender_set=(1,),
            attacker_set=(1,),
            value=1.25,
            theorem="degree-gap-nash",
            threshold=0.5,
            gain_above_threshold=False,
        )
        path = tmp_path / "report.json"
        write_json_report(asdict(rep), path)
        obj = json.loads(path.read_text())
        obj["defender_set"] = tuple(obj["defender_set"])
        obj["attacker_set"] = tuple(obj["attacker_set"])
        assert EquilibriumReport(**obj) == rep

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = sweep_gain(path_graph(3), 1, ControlLaw.ABS_VELOCITY, [0.25, 0.75])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        with open(path, newline="") as fh:
            read = [
                SweepRow(
                    kappa=float(rec["kappa"]),
                    kind=rec["kind"],
                    defender_set=tuple(int(i) for i in rec["defender"].split("+")),
                    attacker_set=tuple(int(i) for i in rec["attacker"].split("+")),
                    value=float(rec["value"]),
                )
                for rec in csv.DictReader(fh)
            ]
        assert read == rows

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.lists(st.builds(
        SweepRow,
        kappa=st.floats(),
        kind=st.sampled_from(["nash", "stackelberg_defender_leader"]),
        defender_set=st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True).map(sorted).map(tuple),
        attacker_set=st.lists(st.integers(0, 999), min_size=1, max_size=4, unique=True).map(sorted).map(tuple),
        value=st.floats(),
    ), max_size=5))
    @example([SweepRow(1e-05, "nash", (0, 1), (0, 1), 1e16),
              SweepRow(5e-324, "stackelberg_defender_leader", (3,), (12, 40, 999), 0.5),
              SweepRow(1e16, "nash", (2,), (2,), 1.5e-310)])
    def test_sweep_csv_bytes_equal_csv_writer(self, tmp_path_factory, rows):
        # the rows are joined by hand: no repr of a float, node list or kind holds a character csv.writer quotes
        path = tmp_path_factory.getbasetemp() / "sweep.csv"  # rewritten by each example
        write_sweep_csv(rows, path)
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(["kappa", "defender", "attacker", "value", "kind"])
        for r in rows:
            writer.writerow([repr(r.kappa), "+".join(map(str, r.defender_set)),
                             "+".join(map(str, r.attacker_set)), repr(r.value), r.kind])
        assert path.read_bytes() == text.getvalue().encode()

    def test_matrix_csv_headers(self, tmp_path):
        m = build_matrix(path_graph(3), 0.5, 1, ControlLaw.ABS_VELOCITY)
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["defender\\attacker", "0:0"]
        assert len(lines) == 4
        # every cell is a plain float literal that round-trips bit-exactly
        cells = [line.split(",")[1:] for line in lines[1:]]
        assert [[float(c) for c in row] for row in cells] == m.values.tolist()

    @pytest.mark.parametrize("law, graph, repeats", [
        (1, "random", True), (2, "random", False), (2, "complete", True),
    ], ids=["law1-random", "law2-random", "law2-k6"])
    def test_matrix_csv_bytes_equal_csv_writer_of_reprs(self, tmp_path, rng, law, graph, repeats):
        g = random_connected_graph(rng, 9) if graph == "random" else complete_graph(6)
        m = build_matrix(g, 0.7, 2, law)
        # law-1 payoffs, and those of a symmetric graph, repeat: each distinct value is formatted once
        assert _repeats(m.values) is repeats
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            heads = [f"{r}:{i}+{j}" for r, (i, j) in enumerate(m.index.subsets.tolist())]
            writer.writerow(["defender\\attacker"] + heads)
            for head, row in zip(heads, m.values.tolist()):
                writer.writerow([head] + [repr(x) for x in row])
        assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_write_report_bad_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            write_json_report({}, tmp_path / "nope" / "deep" / "report.json")


# every writer of an --out file, each writing a few KB
WRITERS = {
    "json": lambda path: write_json_report(
        {"law": 2, "values": build_matrix(path_graph(6), 0.5, 2, ControlLaw.REL_VELOCITY).values}, path),
    "matrix-csv": lambda path: write_matrix_csv(
        build_matrix(path_graph(6), 0.5, 2, ControlLaw.REL_VELOCITY), path),
    "sweep-csv": lambda path: write_sweep_csv(
        sweep_gain(path_graph(5), 1, ControlLaw.ABS_VELOCITY, [0.25, 0.5, 0.75, 1.0]), path),
    "graph": lambda path: write_graph(path_graph(40), path, fmt="text"),
}


class TestOutputFiles:
    """An existing file is rewritten in place and cut to the new length; only regular files are cut."""

    @pytest.mark.parametrize("writer", WRITERS)
    def test_overwrite_keeps_the_inode_and_leaves_no_old_tail(self, tmp_path, writer):
        fresh = tmp_path / "fresh"
        WRITERS[writer](fresh)
        expected = fresh.read_bytes()
        path = tmp_path / "old"
        path.write_bytes(b"\xfeold bytes\n" * (len(expected) // 4))
        path.chmod(0o640)
        os.link(path, tmp_path / "link")
        before = path.stat()
        assert before.st_size > len(expected)
        WRITERS[writer](path)
        after = path.stat()
        assert path.read_bytes() == expected
        assert (tmp_path / "link").read_bytes() == expected
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640

    def test_files_are_opened_binary_and_buffered(self, tmp_path):
        with scenario_io._open_out(tmp_path / "out") as fh:
            assert isinstance(fh, io.BufferedWriter) and fh.mode == "wb"
            with pytest.raises(TypeError):
                fh.write("text")  # no text layer
            fh.write(b"bytes")
        assert (tmp_path / "out").read_bytes() == b"bytes"

    def test_text_writers_write_what_a_text_file_held(self, tmp_path, rng):
        rows = sweep_gain(path_graph(5), 2, ControlLaw.ABS_VELOCITY, [0.25, 1.0, 3.0])
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        with open(tmp_path / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kappa", "defender", "attacker", "value", "kind"])
            for r in rows:
                writer.writerow([repr(r.kappa), "+".join(map(str, r.defender_set)),
                                 "+".join(map(str, r.attacker_set)), repr(r.value), r.kind])
        assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        g = random_connected_graph(rng, 7, weighted=True)
        write_graph(g, tmp_path / "g.json")
        assert (tmp_path / "g.json").read_text() == json.dumps(graph_to_json(g)) + "\n"
        write_graph(g, tmp_path / "g.txt", fmt="text")
        assert (tmp_path / "g.txt").read_text() == "".join(f"{i} {j} {w!r}\n" for i, j, w in g.edges)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_cuts_only_a_file_longer_than_the_new_bytes(self, tmp_path, monkeypatch, writer):
        # a cut to the file's own length still updates its times, a journaled
        # inode change: a rewrite of the same bytes makes no ftruncate call
        cuts = []
        real_ftruncate = os.ftruncate

        def spy(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        path = tmp_path / "out"
        WRITERS[writer](path)
        expected = path.read_bytes()
        monkeypatch.setattr(os, "ftruncate", spy)
        WRITERS[writer](path)
        assert cuts == [] and path.read_bytes() == expected
        path.write_bytes(expected[: len(expected) // 2])
        WRITERS[writer](path)
        assert cuts == [] and path.read_bytes() == expected
        path.write_bytes(expected + b"old tail")
        WRITERS[writer](path)
        assert cuts == [len(expected)] and path.read_bytes() == expected
        WRITERS[writer](os.devnull)
        assert cuts == [len(expected)]

    @pytest.mark.parametrize("writer", ["json", "matrix-csv", "sweep-csv"])
    def test_devnull_is_written_and_not_cut(self, writer):
        WRITERS[writer](os.devnull)  # ftruncate would fail on a character device

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_failing_report_leaves_exactly_its_written_pieces(self, tmp_path, monkeypatch, k):
        # 5 KB pieces: from k = 2 on, part of the prefix reached the file before the failure
        pieces = [bytes([ord("a") + i]) * 5000 for i in range(k)]

        def failing(report):
            yield from pieces
            raise RuntimeError("failed after the pieces")

        monkeypatch.setattr(scenario_io, "_report_bytes", failing)
        path = tmp_path / "report.json"
        path.write_bytes(b"old " * 10_000)
        with pytest.raises(RuntimeError, match="failed after the pieces"):
            write_json_report({}, path)
        assert path.read_bytes() == b"".join(pieces)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_open_never_truncates(self, tmp_path, monkeypatch, writer):
        # the gain's one timing-free check: a file cut to 0 bytes at open makes ext4 flush it at close
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        path = tmp_path / "out"
        path.write_bytes(b"old")
        monkeypatch.setattr(os, "open", spy)
        WRITERS[writer](path)
        monkeypatch.undo()
        assert flags and all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


_FLOATS = st.floats() | st.floats(allow_subnormal=True, max_value=1e-308, min_value=-1e-308)
_SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4)


def _pooled(dtype: np.dtype):
    """Arrays of `dtype` over a few values, so that rows repeat and each distinct value is formatted once."""
    pool = [-0.0, 0.0, np.nan, np.inf, -np.inf, np.finfo(dtype).smallest_subnormal, 0.1]
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
                      elements=st.sampled_from([dtype.type(x) for x in pool]))


def _kernel_blocks(seed: int, dtype: type, shape: tuple[int, int], specials: list[tuple[int, str]]):
    """Random values that repr writes in fixed notation, some replaced by values it does not."""
    rng = np.random.default_rng(seed)
    matrix = (10.0 ** rng.uniform(-4, 16, shape) * rng.choice([-1.0, 1.0], shape)).astype(dtype)
    for position, name in specials:
        value = np.finfo(dtype).smallest_subnormal if name == "subnormal" else float(name)
        matrix.flat[position % matrix.size] = value
    return matrix


# matrices over more than one kernel block: several rows a block, or one row
# wider than a block; some blocks hold entries routed entry by entry
_BLOCKS = st.builds(
    _kernel_blocks,
    st.integers(0, 2**32 - 1),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([(9, 600), (3, 1500), (2, _KERNEL_CELLS + 1), (_KERNEL_CELLS + 3, 1)]),
    st.lists(st.tuples(st.integers(0, 2**32), st.sampled_from(
        ["nan", "inf", "-inf", "-0.0", "subnormal", "1e-5", "1e16"])), max_size=3),
)
_MATRICES = (
    hnp.arrays(dtype=hnp.floating_dtypes(sizes=(16, 32, 64)), shape=_SHAPES)
    | st.sampled_from([np.dtype(np.float32), np.dtype(np.float64)]).flatmap(_pooled)
    | _BLOCKS
    | hnp.arrays(dtype=hnp.integer_dtypes() | hnp.unsigned_integer_dtypes(), shape=_SHAPES)
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64) | st.text(),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=8,
)
# a report: str keys; each value plain JSON data or a 2-D float or integer array
_REPORTS = st.dictionaries(st.text(), _JSON | _MATRICES, max_size=5)
# the leaves `_json_text` writes itself, and those it leaves to json.dumps: nan and +-inf
_LEAVES = (
    st.text()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.sampled_from([True, False, 1, 0, None, 2**63, -(2**63) - 1, 2**64])
    | st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, math.nan, math.inf, -math.inf])
    | _FLOATS.map(np.float64)
)
# reports with no array: nested dicts with str keys, lists and tuples
_PLAIN_REPORTS = st.dictionaries(st.text(), st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=12,
), max_size=5)


class TestJsonRenderer:
    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(_REPORTS)
    @example({"values": np.array([[np.nan, 1.0], [np.inf, -np.inf]]), "f": 2})
    @example({"values": np.array([[-0.0, 5e-324], [1e-310, 0.1]])})
    @example({"empty": np.zeros((0, 3)), "rows": np.zeros((2, 0)), "list": [], "dict": {}})
    @example({"a\n\"b\" \u00e9\u2603": [1, 2.5, True, None, "\u00e9\u2603", np.float64(0.1)]})
    @example({})
    def test_matches_json_dumps(self, report):
        plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
        expected = json.dumps(plain, indent=2, sort_keys=True)
        assert "".join(json_pieces(report)) == expected

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(_PLAIN_REPORTS)
    @example({"s": ["", "a\n\"b\"\\\t\x00\x1f\x7f", "\u00e9\u2603\U0001f600\ud800"],
              "big": (2**63, -(2**64), 10**40), "flags": [True, False, 1, 0, 1.0, 0.0, None],
              "floats": [-0.0, 5e-324, 0.1, 1e16, 1e-5, math.nan, math.inf, -math.inf, np.float64(2.5)],
              "nested": {"z": {"y": [(), [], {}], "": ((1,),)}, "\u00e9": {"a": [None]}}})
    def test_array_free_report_matches_json_dumps(self, report):
        assert "".join(json_pieces(report)) == json.dumps(report, indent=2, sort_keys=True)

    def test_plain_values_are_rendered_without_json_dumps(self, monkeypatch):
        calls = []
        dumps = json.dumps
        monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: calls.append(args) or dumps(*args, **kwargs))
        plain = {"kind": "nash", "value": 0.1, "set": (0, 2), "big": 2**70, "ok": True, "x": None,
                 "nested": {"b": [], "a": [{"c": -0.0}]}}
        fallback = {"keys": {1: "a", 2: "b"}, "nan": math.nan, "inf": [math.inf]}
        assert "".join(json_pieces(plain)) == dumps(plain, indent=2, sort_keys=True)
        assert calls == []
        assert "".join(json_pieces({**plain, **fallback})) == dumps({**plain, **fallback}, indent=2, sort_keys=True)
        assert calls == [(math.inf,), ({1: "a", 2: "b"},), (math.nan,)]  # in key order

    @pytest.mark.parametrize("value", [{1: "a", 10: [2.5, {"b": None}], -3: {}}, {"a": {2: {3: (4,)}}},
                                       [{True: 1}], {"a": {0.5: 1, 2.5: 2}}])
    def test_dicts_with_other_keys_fall_back_to_json_dumps(self, value):
        for report in ({"v": value}, {"v": value, "m": np.eye(2)}):
            plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
            assert "".join(json_pieces(report)) == json.dumps(plain, indent=2, sort_keys=True)

    @pytest.mark.parametrize("report", [{"v": np.int64(3)}, {"v": [1, {"w": np.int64(3)}]},
                                        {"v": {1: "a", "b": 2}}, {"v": {"a": object()}},
                                        {"v": [np.int64(3)], "m": np.eye(2)}])
    def test_values_json_cannot_encode_raise_as_json_dumps(self, report):
        plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
        with pytest.raises(TypeError) as expected:
            json.dumps(plain, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as raised:
            "".join(json_pieces(report))
        assert str(raised.value) == str(expected.value)

    def test_matrix_report_with_nested_values(self):
        report = {"values": np.arange(6.0).reshape(2, 3), "subsets": [[0, 1], (2, 3)],
                  "meta": {"law": 2, "gains": (0.5, math.inf), "deep": [{"k": {1: [True]}}, "\u00e9\n"]},
                  "empty": np.zeros((0, 2)), "none": None}
        plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in report.items()}
        assert "".join(json_pieces(report)) == json.dumps(plain, indent=2, sort_keys=True)

    def test_array_free_report_is_one_piece(self):
        report = {"kind": "nash", "value": 0.1, "defender_set": [0, 2], "nested": {"b": [], "a": None}}
        assert list(json_pieces(report)) == [json.dumps(report, indent=2, sort_keys=True)]

    def test_matrix_report_streams_rows(self, tmp_path):
        values = np.random.default_rng(0).random((600, 600))
        report = {"law": 1, "gain": 0.5, "f": 1, "subsets": [[i] for i in range(600)],
                  "values": values}
        path = tmp_path / "matrix.json"
        tracemalloc.start()
        try:
            write_json_report(report, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the 2.9 MB array: one row's floats and text, not the 7 MB report
        assert peak < 1_000_000
        assert json.loads(path.read_text())["values"] == values.tolist()

    def test_law1_matrix_report_formats_distinct_values_once(self, rng):
        # n = 64, f = 2: N = 2,016 subsets, 32 MB of values holding a few dozen distinct floats
        m = build_matrix(random_connected_graph(rng, 64), 0.7, 2, ControlLaw.ABS_VELOCITY)
        report = {"law": 1, "gain": 0.7, "f": 2, "subsets": m.index.subsets, "values": m.values}
        assert _repeats(m.values)
        tracemalloc.start()
        try:
            size = sum(map(len, json_pieces(report)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the array: one block of indices and texts and one row's text, not the ~100 MB report
        assert peak < 1_000_000
        assert size > 2016**2 * len(",\n      ")

    def test_law2_matrix_report_streams_kernel_blocks(self, rng):
        # n = 64, f = 2: N = 2,016 subsets, 32 MB of values, all distinct and written by the kernel
        m = build_matrix(random_connected_graph(rng, 64), 0.7, 2, ControlLaw.REL_VELOCITY)
        report = {"law": 2, "gain": 0.7, "f": 2, "subsets": m.index.subsets, "values": m.values}
        assert not _repeats(m.values) and _in_fixed_range(m.values)
        _repr_tables()  # built once per process, not part of an export's working set
        tracemalloc.start()
        try:
            size = sum(map(len, json_pieces(report)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the array: one block's arrays and text and one row's text, not the ~100 MB report
        assert peak < 1_000_000
        assert size > 2016**2 * len(",\n      ")

    def test_law2_matrix_with_a_repeating_first_row_bounds_its_table(self):
        # law 2, f = 2 on node 0 with 20 leaves and a 20-node path from it: row 0 repeats the
        # leaves' cells, but 57,308 of the 672,400 cells are distinct, more than the table holds
        edges = [(0, i, 1.0) for i in range(1, 22)] + [(i, i + 1, 1.0) for i in range(21, 40)]
        m = build_matrix(Graph(41, edges), 0.7, 2, ControlLaw.REL_VELOCITY)
        report = {"law": 2, "gain": 0.7, "f": 2, "subsets": m.index.subsets, "values": m.values}
        assert _repeats(m.values) and _in_fixed_range(m.values)
        _repr_tables()
        tracemalloc.start()
        try:
            size = sum(map(len, json_pieces(report)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the array: the table of at most _KERNEL_CELLS texts and one block's text
        assert peak < 1_000_000
        assert size > 820**2 * len(",\n      ")
        marked = b"".join(_marked(_row_blocks(m.values), _ROW_SEP, json.dumps))
        assert marked == b"".join(_entry_marked(block, _ROW_SEP, json.dumps) for block in _row_blocks(m.values))


def _corpus() -> np.ndarray:
    """Float64 values for the shortest-repr kernel, both signs: random bit patterns and Schubfach's edge cases."""
    rng = np.random.default_rng(20)
    low, high = np.array([1e-4, 1e16]).view(np.uint64)
    patterns = np.concatenate([
        rng.integers(0, np.float64(np.inf).view(np.uint64), 250_000, dtype=np.uint64),  # every finite value
        rng.integers(low, high, 750_000, dtype=np.uint64),  # those repr writes in fixed notation
    ])
    powers = np.ldexp(1.0, np.arange(-14, 55))  # the interval is asymmetric below a power of two
    tens = np.array([float(f"1e{k}") for k in range(-5, 18)])
    edges = np.concatenate([powers, tens])
    special = np.concatenate([
        edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf),
        (2**53 + np.arange(-3000, 3000)).astype(np.float64),
        2.0**49 + np.arange(1, 6000, 2) * 0.25,  # halfway between two shortest decimals: ties to even
        [0.1, 100.0, 123456.5, 1e15, 2.5, 0.25, 1024.0, 120.0, 5e-4, 9999999999999998.0],
    ])
    values = np.concatenate([patterns.view(np.float64), special])
    return values * rng.choice([-1.0, 1.0], values.size)


def test_kernel_equals_repr_and_json_dumps_on_corpus():
    values = _corpus()
    plain = values.tolist()
    dumped = json.dumps(plain)[1:-1].split(", ")  # json.dumps's text of each entry
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    texts = _fixed_text(values[fixed].reshape(-1, 1), b",").translate(None, b"\0").decode("ascii").split(";")[1:]
    assert texts == [float.__repr__(x) for x in compress(plain, fixed)]
    assert texts == list(compress(dumped, fixed))
    # every value through the matrix renderer, 100 a row: kernel blocks and blocks written entry by entry
    matrix = values[: values.size // 100 * 100].reshape(-1, 100)
    blocks = (matrix[lo : lo + _KERNEL_CELLS // 100] for lo in range(0, len(matrix), _KERNEL_CELLS // 100))
    rows = b"".join(_marked(blocks, _ROW_SEP, json.dumps)).decode("ascii").split(";")[1:]
    sep = _ROW_SEP.decode()
    assert rows == [sep.join(dumped[i : i + 100]) for i in range(0, 100 * len(matrix), 100)]
