import csv
import json
import re
import tracemalloc
from dataclasses import asdict

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resgame import (
    ConfigError,
    ControlLaw,
    EquilibriumReport,
    GraphError,
    SweepRow,
    build_matrix,
    load_graph,
    load_scenario,
    sweep_gain,
)
from resgame.graphcore import path_graph
from resgame.scenario_io import (
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
         ({"n": 2, "edges": [{"i": 0, "j": 1}]}, "an 'edges' entry: {'i': 0, 'j': 1}")],
        ids=["edge-not-a-list", "n-not-int", "edge-node-not-int", "edges-not-a-list",
             "edge-too-long", "edge-node-float", "n-float-and-edge-node-bool", "n-bool",
             "n-float-2", "edge-node-bool", "edge-object"],
    )
    def test_json_malformed_value_names_field(self, obj, field):
        with pytest.raises(GraphError, match=re.escape(f"bad value for {field}")):
            parse_graph_json(obj)

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

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3,\n  "edges": [[0, 1],]}')
        with pytest.raises(GraphError, match="line 2"):
            load_graph(path)


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
         ("defense", [0.5]), ("defense", ["1"])],
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

    def test_write_report_bad_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            write_json_report({}, tmp_path / "nope" / "deep" / "report.json")


_FLOATS = st.floats() | st.floats(allow_subnormal=True, max_value=1e-308, min_value=-1e-308)
_MATRICES = hnp.arrays(
    dtype=hnp.floating_dtypes(sizes=(32, 64)),
    shape=hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _FLOATS.map(np.float64) | st.text(),
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=8,
)
# a report: str keys; each value plain JSON data or a 2-D float array
_REPORTS = st.dictionaries(st.text(), _JSON | _MATRICES, max_size=5)


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
