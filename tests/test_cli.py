import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resgame
from resgame.cli import main

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
        "field, value", [("law", "x"), ("gain", "abc"), ("attack", 1)]
    )
    def test_malformed_config_is_validation_error(self, capsys, tmp_path, p3, field, value):
        cfg = tmp_path / "scenario.json"
        scenario = {"graph": p3, "law": 2, "gain": 1.0, "defense": [1], "attack": [1]}
        cfg.write_text(json.dumps({**scenario, field: value}))
        assert main(["h2", "--config", str(cfg)]) == 1
        assert f"bad value for '{field}'" in capsys.readouterr().err

    def test_missing_flags_is_validation_error(self, p3):
        assert main(["h2", "--graph", p3, "--law", "1"]) == 1

    def test_bad_node_is_validation_error(self, p3):
        assert main(["h2", "--graph", p3, "--law", "1", "--gain", "1",
                     "--attack", "9"]) == 1


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

    def test_seeded_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.ARGS + ["--out", str(a)]) == 0
        assert main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
