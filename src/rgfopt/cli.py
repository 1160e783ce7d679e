"""Command-line entry point: single runs, canned experiments, spectral
reports, and diagnostics.

Exit codes: 0 success, 2 argument/config parse failure, 3 config
validation failure, 4 runtime failure.  stderr carries JSON lines only:
one object per warning raised during the command, then, on failure, a
single error object.  The environment variable RGF_SEED supplies a default
seed when --seed is omitted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from .algorithm import GRAPH_KINDS, ConfigError, RunConfig, SimulationError, csv_text, make_graph, run
from .analysis import DELTA_GRID, spectral_report
from .experiments import _write_json, experiment_diagnostics, experiment_fig2_3, experiment_fig4
from .graph import GraphError, equal_neighbor_weights
from .oracle import OracleError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4


class _ParseError(Exception):
    """RGF_SEED, the config file or the delta grid cannot be parsed."""


# Failure -> (error kind, exit code); the first match wins.  Any other
# exception propagates, so a bug still shows its traceback.
_FAILURES = (
    (_ParseError, "config", EXIT_PARSE),
    ((ConfigError, GraphError), "validation", EXIT_VALIDATION),
    ((SimulationError, OracleError, OSError, MemoryError), "runtime", EXIT_RUNTIME),
)


def _default_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("RGF_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise _ParseError(f"RGF_SEED must be an integer, got {env!r}") from None


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rgfopt",
                                     description="gradient-free distributed online optimization simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="path to a JSON run configuration")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config field after parsing (repeatable)")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(handler=_cmd_run)

    experiment_args = argparse.ArgumentParser(add_help=False)
    experiment_args.add_argument("--seed", type=int, default=None, help="master seed")
    experiment_args.add_argument("--out", default=None, help="output directory")
    experiment_args.add_argument("--horizon", type=int, default=5000)
    experiment_args.add_argument("--samples", type=int, default=None,
                                 help="Monte Carlo draws used by diagnostics (default 100000)")

    p_exp = sub.add_parser("experiment", parents=[experiment_args], help="run a canned experiment")
    p_exp.add_argument("name", choices=["fig2_3", "fig4", "diagnostics"])
    p_exp.set_defaults(handler=_cmd_experiment)

    p_diag = sub.add_parser("diagnose", parents=[experiment_args],
                            help="alias for `experiment diagnostics`")
    p_diag.set_defaults(handler=_cmd_experiment, name="diagnostics")

    p_spec = sub.add_parser("spectral", help="emit the spectral convergence report")
    p_spec.add_argument("--graph", choices=list(GRAPH_KINDS), default="cycle")
    p_spec.add_argument("--n", type=int, default=10)
    p_spec.add_argument("--graph-seed", type=int, default=7)
    p_spec.add_argument("--delta-grid", default=",".join(map(str, DELTA_GRID)),
                        help="comma-separated gain values")
    p_spec.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_spec.set_defaults(handler=_cmd_spectral)
    return parser


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    try:
        data = json.loads(config_path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _ParseError(f"cannot read config {config_path}: {exc}") from None
    if not isinstance(data, dict) or not data.keys() <= RunConfig.__dataclass_fields__.keys():
        RunConfig.from_dict(data)  # a non-object or an unknown key fails before the overrides
    for item in args.set:
        key, value = _parse_override(item)
        data[key] = value
    if args.seed is not None or "master_seed" not in data:
        data["master_seed"] = _default_seed(args.seed)
    config = RunConfig.from_dict(data)

    trace = run(config)
    out = Path(args.out) if args.out else Path("out") / "run"
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectories.csv").write_text(trace.to_csv_text())
    meta = trace.metadata()
    meta["effective_config"] = config.to_dict()
    _write_json(out / "run_meta.json", meta)
    print(f"run complete: T={trace.horizon}, N={trace.n_agents}, outputs in {out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.samples is not None and args.name != "diagnostics":
        raise _ParseError(f"--samples applies to diagnostics only, not {args.name}")
    seed = _default_seed(args.seed)
    if args.name == "fig2_3":
        result = experiment_fig2_3(seed=seed, horizon=args.horizon, out_dir=args.out)
    elif args.name == "fig4":
        result = experiment_fig4(seed=seed, horizon=args.horizon, out_dir=args.out)
    else:
        samples = {} if args.samples is None else {"n_samples": args.samples}
        result = experiment_diagnostics(seed=seed, horizon=args.horizon, out_dir=args.out,
                                        **samples)
    print(f"experiment {args.name} complete: outputs in {result.out_dir}")
    return EXIT_OK


def _cmd_spectral(args) -> int:
    try:
        grid = [float(tok) for tok in args.delta_grid.split(",") if tok.strip()]
        if not grid:
            raise ValueError("empty delta grid")
    except ValueError as exc:
        raise _ParseError(f"bad delta grid {args.delta_grid!r}: {exc}") from None
    wp = equal_neighbor_weights(make_graph(args.graph, args.n, args.graph_seed,
                                           RunConfig.extra_edge_prob))
    rows = [[r.delta, r.delta_hat_value,
             *("" if v is None else v for v in (r.lambda_fit, r.c_fit, r.r_squared)),
             int(r.geometric), r.error or ""]
            for r in spectral_report(wp, grid)]
    header = ["delta", "delta_hat", "lambda_fit", "c_fit", "r_squared", "geometric", "error"]
    text = csv_text(header, list(zip(*rows)))  # mixed ""/float columns of Python values
    if args.out:
        Path(args.out).write_text(text)
        print(f"spectral report written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage; normalize the code
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    # Warnings that pass the caller's filters become JSON lines too, ahead
    # of any error line.
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.handler(args)
        except Exception as exc:
            failure = exc
        finally:
            for w in caught:
                sys.stderr.write(json.dumps({"warning": w.category.__name__,
                                             "message": str(w.message)}) + "\n")
    for types, kind, code in _FAILURES:
        if isinstance(failure, types):
            sys.stderr.write(json.dumps({"error": kind, "message": str(failure)}) + "\n")
            return code
    raise failure


if __name__ == "__main__":
    sys.exit(main())
