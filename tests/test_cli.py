import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resgame
from resgame import game
from resgame.cli import build_parser, main

from test_golden import CASES, GOLDEN, GRAPHS

SRC = str(Path(resgame.__file__).resolve().parents[1])


@pytest.fixture
def p3(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("0 1\n1 2\n")
    return str(path)


@pytest.fixture
def clique_plus_path(tmp_path):
    k = 5
    lines = [f"{i} {j}" for i in range(k) for j in range(i + 1, k)]
    lines += [f"{k - 1 + t} {k + t}" for t in range(6)]
    path = tmp_path / "cpp.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCentrality:
    def test_p3(self, capsys, p3):
        code, rep = run_json(capsys, ["centrality", "--graph", p3])
        assert code == 0
        assert rep["center"] == [1]
        assert rep["effective_center"] == [1]
        assert rep["delta1"] == 2.0

    def test_clique_plus_path_centers_disagree(self, capsys, clique_plus_path):
        code, rep = run_json(capsys, ["centrality", "--graph", clique_plus_path])
        assert code == 0
        assert set(rep["max_degree_nodes"]) <= set(range(5))
        assert all(v >= 5 for v in rep["effective_center"])

    def test_star_center_is_hub(self, capsys, tmp_path):
        path = tmp_path / "star.txt"
        path.write_text("0 1\n0 2\n0 3\n0 4\n")
        code, rep = run_json(capsys, ["centrality", "--graph", str(path)])
        assert code == 0
        assert rep["center"] == [0] and rep["max_degree_nodes"] == [0]

    def test_missing_file_is_validation_error(self, capsys, tmp_path):
        assert main(["centrality", "--graph", str(tmp_path / "none.txt")]) == 1


class TestH2:
    def test_law1_defended_value(self, capsys, p3):
        code, rep = run_json(
            capsys,
            ["h2", "--graph", p3, "--law", "1", "--gain", "1",
             "--defense", "1", "--attack", "1"],
        )
        assert code == 0
        # exact H2 of the middle node of P3 defended and attacked at gain 1
        assert rep["h2_squared"] == pytest.approx(85 / 88, abs=1e-12)
        assert set(rep) == {"law", "gain", "defense", "attack", "h2_squared",
                            "per_node", "constant"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("gain, code", [("1e8", 0), ("1e12", 2), ("1e16", 2), ("1e300", 2)])
    def test_law1_large_gain_exits_2_when_inaccurate(self, capsys, p3, gain, code):
        # the deflated Lyapunov solve loses the value as the gain grows: at
        # 1e12 it is off by 2e-5, at 1e300 it comes out negative
        argv = ["h2", "--graph", p3, "--law", "1", "--gain", gain,
                "--defense", "0", "--attack", "0"]
        assert main(argv) == code
        out, err = capsys.readouterr()
        if code:
            assert not out and "Lyapunov solve is inaccurate" in err
        else:
            assert json.loads(out)["h2_squared"] == pytest.approx(0.5, abs=1e-8)

    def test_law2_defended_value_with_oracle(self, capsys, p3):
        code, rep = run_json(
            capsys,
            ["h2", "--graph", p3, "--law", "2", "--gain", "1",
             "--defense", "1", "--attack", "1", "--oracle"],
        )
        assert code == 0
        assert rep["h2_squared"] == pytest.approx(1.0, abs=1e-12)
        assert rep["oracle_relative_error"] < 1e-6
        diag = rep["oracle_diagnostics"]
        assert set(diag) == {"decay_rate", "horizon", "steps", "tail_fraction"}
        # the default grid: 20 slowest time constants, dt <= 0.005, even steps
        assert diag["horizon"] == pytest.approx(20.0 / diag["decay_rate"], rel=1e-15)
        grid = max(2000, math.ceil(diag["horizon"] / 0.005))
        assert diag["steps"] == grid + grid % 2
        assert 0 < diag["tail_fraction"] < 1e-8

    def test_config_file(self, capsys, tmp_path, p3):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"graph": p3, "law": 2, "gain": 1.0,
                                   "defense": [1], "attack": [1]}))
        code, rep = run_json(capsys, ["h2", "--config", str(cfg)])
        assert code == 0
        assert rep["h2_squared"] == pytest.approx(1.0, abs=1e-12)

    def test_unequal_budgets_flags_match_config(self, capsys, tmp_path):
        # the README example: one defended node, two attacked nodes
        graph = tmp_path / "g.txt"
        graph.write_text("0 1\n1 2\n2 3\n")
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"graph": "g.txt", "law": 2, "gain": 1,
                                   "defense": [1], "attack": [0, 2]}))
        code, by_flags = run_json(
            capsys,
            ["h2", "--graph", str(graph), "--law", "2", "--gain", "1",
             "--defense", "1", "--attack", "0,2", "--oracle"],
        )
        assert code == 0
        code, by_config = run_json(capsys, ["h2", "--config", str(cfg), "--oracle"])
        assert code == 0
        assert by_flags == by_config

    @pytest.mark.parametrize(
        "field, value", [("law", "x"), ("gain", "abc"), ("attack", 1),
                         ("law", 2.7), ("attack", [1.9]), ("defense", [0.5])]
    )
    def test_malformed_config_is_validation_error(self, capsys, tmp_path, p3, field, value):
        cfg = tmp_path / "scenario.json"
        scenario = {"graph": p3, "law": 2, "gain": 1.0, "defense": [1], "attack": [1]}
        cfg.write_text(json.dumps({**scenario, field: value}))
        assert main(["h2", "--config", str(cfg)]) == 1
        assert f"bad value for '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [(["--law", "1"], "--law"), (["--defense", "0"], "--defense"),
         (["--law", "1", "--gain", "5", "--attack", "2", "--graph", "p3.txt"],
          "--graph, --law, --gain, --attack")],
        ids=["law", "defense", "four"],
    )
    def test_config_excludes_scenario_flags(self, capsys, tmp_path, p3, flags, named):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({"graph": p3, "law": 2, "gain": 1.0, "defense": [1], "attack": [1]}))
        assert main(["h2", "--config", str(cfg), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: h2 --config excludes the scenario flags; remove {named}\n"

    def test_missing_flags_is_validation_error(self, p3):
        assert main(["h2", "--graph", p3, "--law", "1"]) == 1

    def test_bad_node_is_validation_error(self, p3):
        assert main(["h2", "--graph", p3, "--law", "1", "--gain", "1",
                     "--attack", "9"]) == 1


@pytest.mark.parametrize(
    "graph, field",
    [({"n": 2, "edges": [[0, 1.9]]}, "an 'edges' entry: [0, 1.9]"),
     ({"n": 2.9, "edges": [[0, 1.9], [True, 0]]}, "'n': 2.9"),
     ({"n": True, "edges": [[0, 1]]}, "'n': True")],
    ids=["edge-node-float", "n-float-and-edge-node-bool", "n-bool"],
)
@pytest.mark.parametrize("command", ["centrality", "solve"])
def test_non_integer_graph_is_validation_error(capsys, tmp_path, graph, field, command):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    flags = ["--law", "1", "--gain", "1", "--f", "1"] if command == "solve" else []
    assert main([command, "--graph", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad value for {field}\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["centrality", "--effective"],
        ["centrality", "--seed", "1"],
        ["centrality", "--format", "csv"],
        ["h2", "--seed", "1"],
        ["h2", "--format", "csv"],
        ["solve", "--law", "1", "--gain", "1", "--f", "1", "--seed", "1"],
        ["solve", "--law", "1", "--gain", "1", "--f", "1", "--format", "csv"],
    ],
)
def test_flags_that_did_nothing_are_rejected(p3, extra):
    with pytest.raises(SystemExit) as exc:
        main([extra[0], "--graph", p3] + extra[1:])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [[], ["h2", "--law", "3"], ["solve", "--law", "1"], ["nosuchcommand"]],
    ids=["no-command", "bad-choice", "missing-required", "unknown-command"],
)
def test_usage_errors_exit_as_validation_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def _run_captured(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out.encode(), captured.err.encode()


def test_reused_parser_matches_fresh_parsers(capsys, clique_plus_path):
    # main reuses one cached parser; successive calls must behave like calls
    # that each build a fresh one
    calls = [
        ["solve", "--law", "2", "--gain", "1", "--f", "2", "--graph", clique_plus_path],
        ["solve", "--law", "3", "--gain", "1", "--f", "2", "--graph", clique_plus_path],
        ["sweep", "--law", "1", "--f", "1", "--gains", "0.2,2", "--graph", clique_plus_path],
    ]
    build_parser.cache_clear()
    reused = [_run_captured(capsys, argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run_captured(capsys, argv))
    assert [code for code, _, _ in reused] == [0, 1, 0]
    assert reused == fresh
    assert reused[1][2].startswith(b"usage: resgame solve")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["h2", "--help"])
    assert exc.value.code == 0
    assert "--oracle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [["matrix", "--law", "1", "--gain", "0.5", "--f", "1", "--format", "csv"],
     ["matrix", "--law", "1", "--gain", "0.5", "--f", "1"],
     ["sweep", "--law", "1", "--f", "1", "--gains", "0.5", "--format", "csv"],
     ["verify", "--trials", "1", "--nmax", "4"]],
    ids=["matrix-csv", "matrix-json", "sweep-csv", "verify"],
)
def test_unwritable_out_is_validation_error(capsys, tmp_path, p3, argv):
    graph = [] if argv[0] == "verify" else ["--graph", p3]
    assert main(argv + graph + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}")


@pytest.mark.parametrize("argv", [["centrality", "--graph"], ["h2", "--config"]],
                         ids=["graph", "config"])
@pytest.mark.parametrize("missing", [False, True], ids=["directory", "missing"])
def test_unreadable_input_is_validation_error(capsys, tmp_path, argv, missing):
    # a directory, not a chmod-000 file, because root can read the latter
    path = tmp_path / "none.json" if missing else tmp_path
    assert main(argv + [str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}")


def test_huge_node_index_is_rejected_quickly(tmp_path):
    # one edge naming node 3,000,000: too few edges to connect the graph, so
    # it is rejected before anything per node is built or listed
    path = tmp_path / "huge.txt"
    path.write_text("0 1\n1 3000000\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "resgame.cli", "centrality", "--graph", str(path)],
        env=env, capture_output=True, check=False, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr == b"error: graph is disconnected: 2 edges cannot connect 3000001 nodes\n"


# Runs the jobs {name: argv} with `resgame.cli.main`, then one law-2 solve,
# and prints the exit codes and whether SciPy was loaded before and after it.
_SCIPY_CHILD = """
import json, sys
from resgame.cli import main

def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code

codes = {name: run(argv) for name, argv in json.loads(sys.argv[1]).items()}
before = "scipy" in sys.modules
law2 = run(json.loads(sys.argv[2]))
print(json.dumps([codes, before, law2, "scipy" in sys.modules]))
"""


def test_law1_and_centrality_never_load_scipy(tmp_path):
    # SciPy is imported only where it is called: law-1 games, centralities
    # and argument errors run on NumPy alone, a law-2 game loads it
    kite = str(GOLDEN / "kite.txt")
    cases = ["centrality.json", "solve-law1-f1.json", "sweep-law1-f1.json", "sweep-law1-f1.csv",
             "matrix-law1-f1.json", "matrix-law1-f1.csv"]
    jobs = {name: [*CASES[name], "--graph", kite, "--out", str(tmp_path / name)] for name in cases}
    jobs["usage-error"] = ["solve", "--law", "3", "--gain", "1", "--f", "1", "--graph", kite]
    jobs["read-error"] = ["centrality", "--graph", str(tmp_path / "missing.txt")]
    law2 = [*CASES["solve-law2-f1.json"], "--graph", kite, "--out", str(tmp_path / "law2.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD, json.dumps(jobs), json.dumps(law2)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    codes, before, law2_code, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes == {**{name: 0 for name in cases}, "usage-error": 1, "read-error": 1}
    assert not before
    assert law2_code == 0 and after


def test_malformed_enum_cap_is_validation_error(capsys, monkeypatch, p3):
    monkeypatch.setenv("RESGAME_ENUM_CAP", "abc")
    assert main(["solve", "--graph", p3, "--law", "1", "--gain", "1", "--f", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: RESGAME_ENUM_CAP") and "'abc'" in err


@pytest.mark.parametrize("command", [["matrix", "--gain", "1"], ["sweep", "--gains", "1"]],
                         ids=["matrix", "sweep"])
def test_csv_without_out_fails_before_computing(capsys, monkeypatch, p3, command):
    monkeypatch.setenv("RESGAME_ENUM_CAP", "1")  # any enumeration would exit 2
    argv = command + ["--graph", p3, "--law", "1", "--f", "1", "--format", "csv"]
    assert main(argv) == 1
    assert "--format csv requires --out" in capsys.readouterr().err


class TestMatrixAndSolve:
    def test_matrix_json(self, capsys, p3):
        code, rep = run_json(
            capsys, ["matrix", "--graph", p3, "--law", "1", "--gain", "0.5", "--f", "1"]
        )
        assert code == 0
        assert rep["values"][0][0] == pytest.approx(1.0 / 1.5, abs=1e-12)
        assert rep["subsets"] == [[0], [1], [2]]

    def test_matrix_csv(self, tmp_path, p3):
        out = tmp_path / "m.csv"
        assert main(["matrix", "--graph", p3, "--law", "1", "--gain", "0.5",
                     "--f", "1", "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0].startswith("defender\\attacker")

    def test_enumeration_cap_is_computation_error(self, tmp_path, monkeypatch):
        lines = [f"{i} {i + 1}" for i in range(19)]
        path = tmp_path / "p20.txt"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("RESGAME_ENUM_CAP", "10")
        assert main(["matrix", "--graph", str(path), "--law", "1",
                     "--gain", "1", "--f", "3"]) == 2

    def test_solve_nash_region(self, capsys, p3):
        code, rep = run_json(
            capsys, ["solve", "--graph", p3, "--law", "1", "--gain", "0.4", "--f", "1"]
        )
        assert code == 0
        assert rep["kind"] == "nash"
        assert rep["defender_set"] == [1]
        assert rep["value"] == pytest.approx(3.0 / 2.8, abs=1e-12)
        assert rep["prediction_match"] is True

    def test_solve_stackelberg_region(self, capsys, p3):
        code, rep = run_json(
            capsys, ["solve", "--graph", p3, "--law", "1", "--gain", "1", "--f", "1"]
        )
        assert code == 0
        assert rep["kind"] == "stackelberg_defender_leader"
        assert rep["defender_set"] == [1]
        assert rep["value"] == pytest.approx(1.0, abs=1e-12)

    def test_law2_solve_factors_each_defender_row_once(self, capsys, monkeypatch,
                                                       clique_plus_path):
        # the solver and the resistance-minimax prediction share one game, and
        # factor only the rows the low-rank table cannot settle
        calls = []
        factor = game.grounded_inverse_diag
        monkeypatch.setattr(game, "grounded_inverse_diag",
                            lambda gs: calls.append(gs.defense_set) or factor(gs))
        code, rep = run_json(capsys, ["solve", "--graph", clique_plus_path, "--law", "2",
                                      "--gain", "1", "--f", "2"])
        assert code == 0
        assert rep["prediction"]["theorem"] == "resistance-minimax"
        assert rep["prediction_match"] is True
        assert len(calls) == len(set(calls)) < math.comb(11, 2)


class TestSweep:
    def test_json_rows(self, capsys, p3):
        code, rep = run_json(
            capsys,
            ["sweep", "--graph", p3, "--law", "1", "--f", "1",
             "--gains", "0.25,0.75"],
        )
        assert code == 0
        kinds = [r["kind"] for r in rep["rows"]]
        assert kinds == ["nash", "stackelberg_defender_leader"]

    def test_csv_output(self, tmp_path, p3):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--graph", p3, "--law", "2", "--f", "1",
                     "--gains", "0.5,1.0", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,defender,attacker,value,kind"
        assert len(lines) == 3

    def test_bad_gain_is_validation_error(self, p3):
        assert main(["sweep", "--graph", p3, "--law", "1", "--f", "1",
                     "--gains", "0.5,-1"]) == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--law", "1", "--f", "1", "--gain={}"],
     ["matrix", "--law", "1", "--f", "1", "--gain={}"],
     ["h2", "--law", "1", "--defense", "0", "--attack", "0", "--gain={}"],
     ["sweep", "--law", "1", "--f", "1", "--gains=1,{}"]],
    ids=["solve", "matrix", "h2", "sweep"],
)
def test_non_finite_gain_is_validation_error(capsys, tmp_path, p3, argv, value):
    out = tmp_path / "out.json"
    argv = argv[:-1] + [argv[-1].format(value), "--graph", p3, "--out", str(out)]
    assert main(argv) == 1
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command",
    [["centrality"], ["solve", "--law", "2", "--gain", "1", "--f", "1"]],
    ids=["centrality", "solve"],
)
def test_non_finite_weight_is_validation_error(capsys, tmp_path, command, value):
    graph = tmp_path / "g.txt"
    graph.write_text(f"0 1 {value}\n1 2\n")
    assert main(command + ["--graph", str(graph)]) == 1
    assert f"non-finite weight {float(value)}" in capsys.readouterr().err


# one report per command; each must write the same bytes to stdout as to --out
SAME_BYTES = {
    "centrality": ["centrality"],
    "h2": ["h2", "--law", "2", "--gain", "1", "--defense", "1", "--attack", "0,2", "--oracle"],
    "matrix": ["matrix", "--law", "2", "--gain", "0.5", "--f", "2"],
    "solve": ["solve", "--law", "2", "--gain", "0.5", "--f", "2"],
    "sweep": ["sweep", "--law", "1", "--f", "1", "--gains", "0.25,0.5,1"],
}


@pytest.mark.parametrize("command", SAME_BYTES)
def test_stdout_matches_out_file(capsys, tmp_path, clique_plus_path, command):
    argv = SAME_BYTES[command] + ["--graph", clique_plus_path]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("case", ["matrix-law1-f1.json", "matrix-law2-f2.json"])
@pytest.mark.parametrize("graph", GRAPHS)
def test_matrix_stdout_matches_golden(capsys, graph, case):
    assert main([*CASES[case], "--graph", str(GOLDEN / graph)]) == 0
    golden = GOLDEN / f"{Path(graph).stem}-{case}"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


class TestVerify:
    ARGS = ["verify", "--trials", "4", "--nmax", "6", "--seed", "3"]

    def test_default_ensemble_passes(self, capsys):
        code, rep = run_json(capsys, self.ARGS)
        assert code == 0
        assert rep["ok"] is True
        assert all(v == "pass" for v in rep["suites"].values())

    def test_injected_fault_fails_named_invariant(self, capsys):
        code, rep = run_json(capsys, self.ARGS + ["--inject-fault", "laplacian-sign"])
        assert code == 3
        assert rep["ok"] is False
        assert "invariant" in rep["suites"]["laplacian-structure"]

    @pytest.mark.parametrize("fault", [[], ["--inject-fault", "laplacian-sign"]])
    def test_output_is_identical_across_hash_seeds(self, fault):
        # the injected fault puts the drawn graph's spectrum into the report
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "resgame.cli", *self.ARGS, *fault],
                env=env, capture_output=True, check=False,
            )
            assert proc.returncode == (3 if fault else 0), proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags",
        [["--nmax", "2"], ["--nmax", "0"], ["--seed", "-1"], ["--trials", "0"], ["--trials", "-1"]],
        ids=["nmax-2", "nmax-0", "seed-negative", "trials-0", "trials-negative"],
    )
    def test_bad_sizes_are_validation_errors(self, capsys, flags):
        assert main(["verify", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verify ") and "Traceback" not in captured.err

    def test_smallest_nmax_passes(self, capsys):
        code, rep = run_json(capsys, ["verify", "--trials", "2", "--nmax", "3"])
        assert code == 0 and rep["ok"] is True

    def test_seeded_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
