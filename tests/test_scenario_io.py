import json

import pytest

from resgame import (
    ConfigError,
    ControlLaw,
    EquilibriumReport,
    GraphError,
    build_matrix,
    graph_to_json,
    load_graph,
    load_scenario,
    parse_graph_json,
    parse_graph_text,
    path_graph,
    read_json_report,
    read_sweep_csv,
    report_from_dict,
    report_to_dict,
    scenario_from_dict,
    sweep_gain,
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

    def test_missing_keys_listed(self):
        with pytest.raises(ConfigError, match="gain"):
            scenario_from_dict({"graph": {"n": 2, "edges": [[0, 1]]}, "law": 1, "attack": [0]})


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
        write_json_report(report_to_dict(rep), path)
        assert report_from_dict(read_json_report(path)) == rep

    def test_sweep_csv_round_trip(self, tmp_path):
        rows = sweep_gain(path_graph(3), 1, ControlLaw.ABS_VELOCITY, [0.25, 0.75])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows

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
