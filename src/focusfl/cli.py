"""Command-line front end: run experiments, reproduce canned comparisons, report.

Exit codes: 0 on success, 2 for configuration problems (bad config file,
bad arguments, refusing to overwrite), 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union, get_args, get_origin, get_type_hints

from . import harness
from .data import NoiseSpec
from .errors import ConfigurationError, FocusFlError
from .harness import ExperimentConfig, RunResult

ENV_SEED = "FOCUS_SEED"
LONG_CSV_NAME = "report_long.csv"

_SCENARIOS = ("usc-noisy", "usc-normal", "multi-tier")


# --- config file parsing ----------------------------------------------------

def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_flip_map(raw: str) -> Dict[int, int]:
    mapping: Dict[int, int] = {}
    for pair in raw.split(","):
        src, sep, dst = pair.partition(":")
        if not sep:
            raise ValueError(f"expected 'src:dst' pairs, got {pair!r}")
        mapping[int(src.strip())] = int(dst.strip())
    return mapping


def _parser_for(tp) -> Callable[[str], object]:
    """Value parser for a config value of type ``tp``.

    An empty value means ``None`` for an Optional type and ``()`` for a
    tuple type; tuple items are comma-separated.
    """
    args = get_args(tp)
    if get_origin(tp) is Union and type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        parse = _parser_for(inner)
        return lambda raw: parse(raw) if raw else None
    if get_origin(tp) is Union:  # batch_size: an integer or "full"
        return lambda raw: raw if raw == "full" else int(raw)
    if get_origin(tp) is tuple:
        return lambda raw: tuple(args[0](cell.strip()) for cell in raw.split(",")) if raw else ()
    if tp is bool:
        return _parse_bool
    return tp


# The noise_* keys together build one NoiseSpec; every other key is an
# ExperimentConfig field, parsed according to its declared type.
_NOISE_PARSERS = {
    "noise_kind": str,
    "noise_fraction": float,
    "noise_clients": _parser_for(Tuple[int, ...]),
    "noise_seed": int,
    "noise_flip_map": _parse_flip_map,
}

_FIELD_TYPES = get_type_hints(ExperimentConfig)
_CONFIG_PARSERS = {
    **{f.name: _parser_for(_FIELD_TYPES[f.name]) for f in fields(ExperimentConfig) if f.name != "noise"},
    **_NOISE_PARSERS,
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a flat ``key = value`` document into an ExperimentConfig.

    Blank lines and ``#`` comments are ignored.  Unknown keys, duplicate
    keys, and unparsable values are rejected with the offending line number.
    """
    values: Dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw_value = line.partition("=")
        if not sep:
            raise ConfigurationError(f"{source}:{lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigurationError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](raw_value)
        except ValueError as exc:
            raise ConfigurationError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc

    noise_values = {key: values.pop(key) for key in _NOISE_PARSERS if key in values}
    kwargs = dict(values)
    if noise_values:
        for required in ("noise_kind", "noise_fraction", "noise_clients"):
            if required not in noise_values:
                raise ConfigurationError(f"{source}: noise settings require {required!r}")
        try:
            spec = NoiseSpec(
                kind=noise_values["noise_kind"],
                fraction=noise_values["noise_fraction"],
                target_clients=noise_values["noise_clients"],
                seed=noise_values.get("noise_seed", 0),
                flip_map=noise_values.get("noise_flip_map"),
            )
        except FocusFlError as exc:
            raise ConfigurationError(f"{source}: bad noise settings: {exc}") from exc
        kwargs["noise"] = (spec,)
    try:
        return ExperimentConfig(**kwargs)
    except FocusFlError as exc:
        raise ConfigurationError(f"{source}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _apply_env_seed(cfg: ExperimentConfig) -> ExperimentConfig:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return cfg
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{ENV_SEED} must be an integer, got {raw!r}") from exc
    return replace(cfg, master_seed=seed)


# --- canned scenarios --------------------------------------------------------

def _scenario_runs(name: str) -> List[Tuple[str, ExperimentConfig]]:
    """Configs for one canned comparison, labeled for printing."""
    if name in ("usc-noisy", "usc-normal"):
        noise: Tuple[NoiseSpec, ...] = ()
        if name == "usc-noisy":
            noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=99),)
        base = ExperimentConfig(noise=noise)
        return [("focus", base), ("fedavg", replace(base, aggregator="fedavg"))]
    if name == "multi-tier":
        cfg = ExperimentConfig(
            samples_per_class=200,
            num_clients=3,
            test_fraction=0.125,
            benchmark_fraction=1.0 / 7.0,
            noise=(NoiseSpec(kind="randomize", fraction=0.5, target_clients=(2,), seed=99),),
        )
        return [("focus", cfg)]
    raise ConfigurationError(f"unknown scenario {name!r}; choose from {_SCENARIOS}")


# --- output helpers ----------------------------------------------------------

def _run_dir_for(cfg: ExperimentConfig, out: str) -> Path:
    return Path(out) / harness.config_hash(cfg)


def _refuse_existing(run_dir: Path, force: bool) -> None:
    if (run_dir / "result.json").exists() and not force:
        raise ConfigurationError(
            f"{run_dir} already contains a completed run; pass --force to overwrite"
        )


def _print_run_summary(label: str, result: RunResult, run_dir: Path) -> None:
    print(
        f"{label}: {len(result.metrics)} rounds, final accuracy {result.final_accuracy:.4f}, "
        f"final fl_loss {result.final_fl_loss:.6f} -> {run_dir}"
    )
    if result.final_weights is not None:
        weights = " ".join(f"{w:.4f}" for w in result.final_weights)
        print(f"{label}: final client weights [{weights}]")


# --- subcommands -------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_env_seed(load_config(args.config))
    run_dir = _run_dir_for(cfg, args.out)
    _refuse_existing(run_dir, args.force)
    result = harness.run(cfg)
    harness.write_run_result(result, run_dir)
    _print_run_summary(cfg.aggregator, result, run_dir)
    return 0


def cmd_repro(args: argparse.Namespace) -> int:
    runs = [(label, _apply_env_seed(cfg)) for label, cfg in _scenario_runs(args.scenario)]
    run_dirs = [_run_dir_for(cfg, args.out) for _, cfg in runs]
    for run_dir in run_dirs:  # before running anything, so a refusal leaves no half scenario
        _refuse_existing(run_dir, args.force)
    if len(runs) == 2:
        report = harness.compare(runs[0][1], runs[1][1])
        results = [report.result_a, report.result_b]
    else:
        results = [harness.run(runs[0][1])]
    print(f"scenario {args.scenario} (master_seed {results[0].config.master_seed})")
    for (label, _), result, run_dir in zip(runs, results, run_dirs):
        harness.write_run_result(result, run_dir)
        _print_run_summary(label, result, run_dir)
    if len(runs) == 2:
        print(f"final accuracy delta ({runs[0][0]} - {runs[1][0]}): {report.final_accuracy_delta:+.4f}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / "result.json").exists():
        raise ConfigurationError(f"no result.json found in {run_dir}")
    metrics_path = run_dir / "metrics.csv"
    if not metrics_path.exists():
        raise ConfigurationError(f"no metrics.csv found in {run_dir}")
    metrics = harness.load_metrics_csv(metrics_path)

    weights_by_round: Dict[int, Dict[int, float]] = {}
    clients: List[int] = []
    cred_path = run_dir / "credibility.csv"
    if cred_path.exists():
        for row in harness.load_credibility_csv(cred_path):
            weights_by_round.setdefault(row[0], {})[row[1]] = row[6]
            if row[1] not in clients:
                clients.append(row[1])
        clients.sort()

    header = f"{'round':>5}  {'accuracy':>10}  {'fl_loss':>12}"
    for k in clients:
        header += f"  {f'w_client{k}':>10}"
    print(header)
    long_rows: List[str] = ["series,round,value"]
    for rnd, acc, loss in metrics:
        line = f"{rnd:>5}  {acc:>10.6f}  {loss:>12.6f}"
        for k in clients:
            w = weights_by_round.get(rnd, {}).get(k)
            line += f"  {w:>10.6f}" if w is not None else f"  {'-':>10}"
        print(line)
        long_rows.append(f"accuracy,{rnd},{repr(float(acc))}")
        long_rows.append(f"fl_loss,{rnd},{repr(float(loss))}")
    for k in clients:
        for rnd, _, _ in metrics:
            w = weights_by_round.get(rnd, {}).get(k)
            if w is not None:
                long_rows.append(f"weight_client_{k},{rnd},{repr(float(w))}")
    long_path = run_dir / LONG_CSV_NAME
    long_path.write_text("\n".join(long_rows) + "\n", encoding="utf-8")
    print(f"wrote {long_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focusfl",
        description="Simulate credibility-weighted federated learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True, help="flat key=value config file")
    p_run.add_argument("--out", required=True, help="output root; the run lands in <out>/<config-hash>/")
    p_run.add_argument("--force", action="store_true", help="overwrite an existing completed run")
    p_run.set_defaults(func=cmd_run)

    p_repro = sub.add_parser("repro", help="rerun a canned comparison scenario")
    p_repro.add_argument("scenario", choices=_SCENARIOS)
    p_repro.add_argument("--out", required=True)
    p_repro.add_argument("--force", action="store_true")
    p_repro.set_defaults(func=cmd_repro)

    p_report = sub.add_parser("report", help="print tables for a finished run")
    p_report.add_argument("run_dir", help="directory written by 'run' or 'repro'")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FocusFlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
