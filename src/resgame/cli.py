"""Command-line front end: centrality reports, H2 values, game solving,
gain sweeps, and the seeded verification suites.

Exit codes: 0 success, 1 validation error (bad graph/config/flags),
2 computation error (enumeration cap, non-convergence), 3 verification
suite failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict

import numpy as np

from . import game, scenario_io
from .dynamics import ControlLaw, Scenario, h2_closed_form, h2_energy_oracle
from .errors import ConfigError, ConvergenceError, EnumerationLimitError, GraphError
from .graphcore import center, degree_profile, eccentricities
from .resistance import effective_center, effective_eccentricities
from .verify import run_suites


def _parse_nodes(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated node indices, got {text!r}")


def _parse_gains(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated gains, got {text!r}")


def _emit_json(obj: dict, out: str | None) -> None:
    """The report as JSON to `out`, or else to stdout; the same bytes either way."""
    if out:
        scenario_io.write_json_report(obj, out)
    else:
        sys.stdout.writelines(scenario_io.json_pieces(obj))
        sys.stdout.write("\n")


def _add_common(parser: argparse.ArgumentParser, graph_required=True, csv=False) -> None:
    parser.add_argument("--graph", required=graph_required, help="edge-list or JSON graph file")
    parser.add_argument("--out", default=None, help="write the report here instead of stdout")
    if csv:
        parser.add_argument("--format", dest="fmt", default="json", choices=["json", "csv"])


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, the validation-error code.

    argparse exits 2, which this CLI reserves for computation errors.
    Subparsers are created with the parser's own class, so they inherit this.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
        prog="resgame",
        description="Attacker-defender resilience games on networked dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="degrees, center, and effective center")
    _add_common(p)

    p = sub.add_parser("h2", help="squared H2 norm of one attacked scenario")
    _add_common(p, graph_required=False)
    p.add_argument("--config", default=None, help="scenario JSON file (alternative to flags)")
    p.add_argument("--law", type=int, default=None, choices=[1, 2])
    p.add_argument("--gain", type=float, default=None)
    p.add_argument("--defense", default=None, help="comma-separated defended nodes")
    p.add_argument("--attack", default=None, help="comma-separated attacked nodes")
    p.add_argument("--oracle", action="store_true", help="cross-check against the energy-integration oracle")

    p = sub.add_parser("matrix", help="full payoff matrix over f-subsets")
    _add_common(p, csv=True)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gain", type=float, required=True)
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("solve", help="pure NE if present, else defender-led Stackelberg")
    _add_common(p)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gain", type=float, required=True)
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("sweep", help="solve the game on a grid of gains")
    _add_common(p, csv=True)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gains", required=True, help="comma-separated gain grid")
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=15)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--out", default=None)
    # negative-control hook for tests: corrupt one computation on purpose
    p.add_argument("--inject-fault", default=None, choices=["laplacian-sign"], help=argparse.SUPPRESS)

    return parser


def cmd_centrality(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    prof = degree_profile(graph)
    report = {
        "n": graph.n,
        "degrees": prof.degrees.tolist(),
        "delta1": prof.delta1,
        "delta2": prof.delta2,
        "max_degree_nodes": list(prof.argmax_nodes),
        "eccentricities": eccentricities(graph).tolist(),
        "center": list(center(graph)),
        "effective_eccentricities": effective_eccentricities(graph).tolist(),
        "effective_center": list(effective_center(graph)),
    }
    _emit_json(report, args.out)
    return 0


def _scenario_from_args(args) -> Scenario:
    flags = {f"--{name}": getattr(args, name) for name in ("graph", "law", "gain", "defense", "attack")}
    if args.config:
        given = [name for name, val in flags.items() if val is not None]
        if given:
            raise ConfigError(f"h2 --config excludes the scenario flags; remove {', '.join(given)}")
        return scenario_io.load_scenario(args.config)
    missing = [name for name, val in flags.items() if val is None and name != "--defense"]
    if missing:
        raise ConfigError(f"h2 needs either --config or all of: {', '.join(missing)}")
    return Scenario(
        graph=scenario_io.load_graph(args.graph),
        law=ControlLaw.from_int(args.law),
        gain=args.gain,
        defense_set=_parse_nodes(args.defense),
        attack_set=_parse_nodes(args.attack),
    )


def cmd_h2(args) -> int:
    scenario = _scenario_from_args(args)
    closed = h2_closed_form(scenario)
    report = {
        "law": scenario.law.value,
        "gain": scenario.gain,
        "defense": list(scenario.defense_set),
        "attack": list(scenario.attack_set),
        "h2_squared": closed.value_sq,
        "per_node": {str(k): v for k, v in closed.per_node.items()},
        "constant": closed.constant,
    }
    if args.oracle:
        oracle = h2_energy_oracle(scenario)
        report["oracle_h2_squared"] = oracle.value_sq
        report["oracle_relative_error"] = abs(oracle.value_sq - closed.value_sq) / closed.value_sq
        report["oracle_diagnostics"] = oracle.diagnostics
    _emit_json(report, args.out)
    return 0


def cmd_matrix(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    m = game.build_matrix(graph, args.gain, args.f, ControlLaw.from_int(args.law))
    if args.fmt == "csv":
        scenario_io.write_matrix_csv(m, args.out)
        return 0
    report = {
        "law": args.law,
        "gain": args.gain,
        "f": args.f,
        "subsets": m.index.subsets.tolist(),
        "values": m.values,
    }
    _emit_json(report, args.out)
    return 0


def cmd_solve(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    m = game.build_matrix(graph, args.gain, args.f, ControlLaw.from_int(args.law))
    solved = game.solve(m)
    predicted = game.predict_equilibrium(m)
    report = asdict(solved)
    report["prediction"] = asdict(predicted)
    report["prediction_match"] = (
        predicted.kind != "none"
        and predicted.value is not None
        and abs(predicted.value - solved.value) <= 1e-9
    )
    _emit_json(report, args.out)
    return 0


def cmd_sweep(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    gains = _parse_gains(args.gains)
    rows = game.sweep_gain(graph, args.f, ControlLaw.from_int(args.law), gains)
    if args.fmt == "csv":
        scenario_io.write_sweep_csv(rows, args.out)
        return 0
    report = {
        "law": args.law,
        "f": args.f,
        "rows": [
            {
                "kappa": r.kappa,
                "kind": r.kind,
                "defender": list(r.defender_set),
                "attacker": list(r.attacker_set),
                "value": r.value,
            }
            for r in rows
        ],
    }
    _emit_json(report, args.out)
    return 0


def cmd_verify(args) -> int:
    results = run_suites(
        seed=args.seed,
        trials=args.trials,
        nmax=args.nmax,
        fault=args.inject_fault,
    )
    ok = all(v == "pass" for v in results.values())
    report = {
        "seed": args.seed,
        "trials": args.trials,
        "nmax": args.nmax,
        "suites": results,
        "ok": ok,
    }
    _emit_json(report, args.out)
    return 0 if ok else 3


_COMMANDS = {
    "centrality": cmd_centrality,
    "h2": cmd_h2,
    "matrix": cmd_matrix,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked before any work, so a usage error never waits on a computation
        if getattr(args, "fmt", None) == "csv" and not args.out:
            raise ConfigError(f"{args.command} --format csv requires --out PATH")
        return _COMMANDS[args.command](args)
    except (GraphError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationLimitError, ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
