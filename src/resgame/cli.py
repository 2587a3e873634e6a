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
from .dynamics import Scenario, h2_closed_form, h2_energy_oracle
from .errors import ConfigError, ConvergenceError, EnumerationLimitError, GraphError
from .graphcore import degree_profile, eccentricities, near_minima
from .resistance import effective_eccentricities


def _parse_list(text: str, convert, what: str) -> list:
    try:
        return [convert(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated {what}, got {text!r}")


def _parse_nodes(text: str | None) -> tuple[int, ...]:
    return tuple(_parse_list(text, int, "node indices")) if text else ()


def _parse_gains(text: str) -> list[float]:
    return _parse_list(text, float, "gains")


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
    Subparsers are created with the parser's own class, so they inherit
    this. `build_parser` sets the top parser's `commands`: each command's
    subparser, by name, whose `run` default is the command's `cmd_` function.
    """

    commands: dict[str, argparse.ArgumentParser]

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
    parser.commands = sub.choices

    p = sub.add_parser("centrality", help="degrees, center, and effective center")
    p.set_defaults(run=cmd_centrality)
    _add_common(p)

    p = sub.add_parser("h2", help="squared H2 norm of one attacked scenario")
    p.set_defaults(run=cmd_h2)
    _add_common(p, graph_required=False)
    p.add_argument("--config", default=None, help="scenario JSON file (alternative to flags)")
    p.add_argument("--law", type=int, default=None, choices=[1, 2])
    p.add_argument("--gain", type=float, default=None)
    p.add_argument("--defense", default=None, help="comma-separated defended nodes")
    p.add_argument("--attack", default=None, help="comma-separated attacked nodes")
    p.add_argument("--oracle", action="store_true", help="cross-check against the energy-integration oracle")

    p = sub.add_parser("matrix", help="full payoff matrix over f-subsets")
    p.set_defaults(run=cmd_matrix)
    _add_common(p, csv=True)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gain", type=float, required=True)
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("solve", help="pure NE if present, else defender-led Stackelberg")
    p.set_defaults(run=cmd_solve)
    _add_common(p)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gain", type=float, required=True)
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("sweep", help="solve the game on a grid of gains")
    p.set_defaults(run=cmd_sweep)
    _add_common(p, csv=True)
    p.add_argument("--law", type=int, required=True, choices=[1, 2])
    p.add_argument("--gains", required=True, help="comma-separated gain grid")
    p.add_argument("--f", type=int, required=True)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.set_defaults(run=cmd_verify)
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
    ecc, eff = eccentricities(graph), effective_eccentricities(graph)
    report = {
        "n": graph.n,
        "degrees": prof.degrees.tolist(),
        "delta1": prof.delta1,
        "delta2": prof.delta2,
        "max_degree_nodes": list(prof.argmax_nodes),
        "eccentricities": ecc.tolist(),
        "center": list(near_minima(ecc)),
        "effective_eccentricities": eff.tolist(),
        "effective_center": list(near_minima(eff)),
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
        law=args.law,
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
    m = game.build_matrix(graph, args.gain, args.f, args.law)
    if args.fmt == "csv":
        scenario_io.write_matrix_csv(m, args.out)
        return 0
    report = {
        "law": args.law,
        "gain": args.gain,
        "f": args.f,
        "subsets": m.index.subsets,
        "values": m.cell_blocks(),  # W before any output: a failed computation writes nothing
    }
    _emit_json(report, args.out)
    return 0


def cmd_solve(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    m = game.build_matrix(graph, args.gain, args.f, args.law)
    solved = game.solve(m)
    predicted = game.predict_equilibrium(m)
    report = asdict(solved)
    report["prediction"] = asdict(predicted)
    # relative: law-2 values grow like 1/(2 gain); both laws' values are positive
    report["prediction_match"] = abs(predicted.value - solved.value) <= 1e-9 * abs(solved.value)
    _emit_json(report, args.out)
    return 0


def cmd_sweep(args) -> int:
    graph = scenario_io.load_graph(args.graph)
    gains = _parse_gains(args.gains)
    rows = game.sweep_gain(graph, args.f, args.law, gains)
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
    from .verify import run_suites  # only this command compiles and runs the suites

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


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), with a command's words handed straight to its subparser.

    The top parser hands every word after the command to the subparser
    unread, so for an argv that starts with a command this skips only its
    own scan of them. Words the subparser leaves over are reported by the
    top parser, with parse_args's message. Any other argv (-h, none, an
    unknown command) goes through parse_args itself.
    """
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    """Run one command; the exit code: 0, or 1, 2 or 3 (see the module docstring).

    argv defaults to sys.argv[1:]. It is parsed as build_parser().parse_args
    parses it, usage errors included (`_parse`).
    """
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        # checked before any work, so a usage error never waits on a computation
        if getattr(args, "fmt", None) == "csv" and not args.out:
            raise ConfigError(f"{args.command} --format csv requires --out PATH")
        return args.run(args)
    except (GraphError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (EnumerationLimitError, ConvergenceError, np.linalg.LinAlgError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
