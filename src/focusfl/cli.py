"""Command-line front end: run experiments, reproduce canned comparisons, report.

Exit codes: 0 on success, 2 for configuration problems (bad config file,
bad arguments, refusing to overwrite), 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union, get_type_hints

from . import harness
from .data import NoiseSpec, write_csv
from .errors import ConfigurationError, FocusFlError
from .harness import ExperimentConfig

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


def _parse_items(kind, empty=()):
    """Parser for comma-separated ``kind`` items; an empty text gives ``empty``."""
    return lambda raw: tuple(kind(cell.strip()) for cell in raw.split(",")) if raw else empty


def _parse_flip_map(raw: str) -> Optional[Dict[int, int]]:
    if not raw:
        return None
    mapping: Dict[int, int] = {}
    for pair in raw.split(","):
        src, sep, dst = pair.partition(":")
        if not sep:
            raise ValueError(f"expected 'src:dst' pairs, got {pair!r}")
        key = int(src.strip())
        if key in mapping:
            raise ValueError(f"source class {key} is mapped twice")
        mapping[key] = int(dst.strip())
    return mapping


# How config text reads a value of each field type, raising ValueError; an
# empty text is None for an Optional type.  Noise is read from several keys
# at once (below), so its tuple type has no entry.
_PARSE = {
    int: int,
    Union[int, str]: lambda raw: raw if raw == "full" else int(raw),
    float: float,
    bool: _parse_bool,
    str: str,
    Optional[str]: lambda raw: raw or None,
    Tuple[int, ...]: _parse_items(int),
    Optional[Tuple[float, ...]]: _parse_items(float, None),
    Optional[Mapping[int, int]]: _parse_flip_map,
}

# The noise_* keys together build one NoiseSpec: ``noise_<field>`` for each
# of its fields, with ``noise_clients`` for ``target_clients``.  Every other
# key is an ExperimentConfig field.  Each is parsed by the rule for its type.
_NOISE_TYPES = get_type_hints(NoiseSpec)
_NOISE_KEYS = {f: "noise_clients" if f == "target_clients" else f"noise_{f}" for f in _NOISE_TYPES}

_CONFIG_PARSERS = {
    **{name: _PARSE[tp] for name, tp in harness._FIELD_TYPES.items() if name != "noise"},
    **{key: _PARSE[_NOISE_TYPES[f]] for f, key in _NOISE_KEYS.items()},
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

    noise_values = {f: values.pop(key) for f, key in _NOISE_KEYS.items() if key in values}
    kwargs = dict(values)
    if noise_values:
        for f in fields(NoiseSpec):
            if f.default is MISSING and f.name not in noise_values:
                raise ConfigurationError(f"{source}: noise settings require {_NOISE_KEYS[f.name]!r}")
        try:
            spec = NoiseSpec(**noise_values)
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

def _scenario_runs(name: str) -> List[ExperimentConfig]:
    """Configs for one canned comparison."""
    if name in ("usc-noisy", "usc-normal"):
        noise: Tuple[NoiseSpec, ...] = ()
        if name == "usc-noisy":
            noise = (NoiseSpec(kind="randomize", fraction=1.0, target_clients=(0,), seed=99),)
        base = ExperimentConfig(noise=noise)
        return [base, replace(base, aggregator="fedavg")]
    if name == "multi-tier":
        cfg = ExperimentConfig(
            samples_per_class=200,
            num_clients=3,
            test_fraction=0.125,
            benchmark_fraction=1.0 / 7.0,
            noise=(NoiseSpec(kind="randomize", fraction=0.5, target_clients=(2,), seed=99),),
        )
        return [cfg]
    raise ConfigurationError(f"unknown scenario {name!r}; choose from {_SCENARIOS}")


# --- runs on disk ------------------------------------------------------------

def _run_to_disk(cfgs: List[ExperimentConfig], args: argparse.Namespace, heading: Optional[str] = None) -> int:
    """Run ``cfgs`` into ``<out>/<config hash>/`` and print each result, labeled by its aggregator."""
    run_dirs = [Path(args.out) / harness.config_hash(cfg) for cfg in cfgs]
    for run_dir in run_dirs:  # before running anything, so a refusal leaves no half scenario
        if (run_dir / "result.json").exists() and not args.force:
            raise ConfigurationError(f"{run_dir} already contains a completed run; pass --force to overwrite")
    results = harness.run_many(cfgs)
    if heading is not None:
        print(heading)
    for result, run_dir in zip(results, run_dirs):
        harness.write_run_result(result, run_dir)
        label = result.config.aggregator
        print(
            f"{label}: {len(result.metrics)} rounds, final accuracy {result.final_accuracy:.4f}, "
            f"final fl_loss {result.final_fl_loss:.6f} -> {run_dir}"
        )
        weights = " ".join(f"{w:.4f}" for w in result.final_weights)
        print(f"{label}: final client weights [{weights}]")
    if len(results) == 2:
        delta = results[0].final_accuracy - results[1].final_accuracy
        print(f"final accuracy delta ({cfgs[0].aggregator} - {cfgs[1].aggregator}): {delta:+.4f}")
    return 0


# --- subcommands -------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    return _run_to_disk([_apply_env_seed(load_config(args.config))], args)


def cmd_repro(args: argparse.Namespace) -> int:
    cfgs = [_apply_env_seed(cfg) for cfg in _scenario_runs(args.scenario)]
    return _run_to_disk(cfgs, args, heading=f"scenario {args.scenario} (master_seed {cfgs[0].master_seed})")


def cmd_report(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    for name in ("result.json", "metrics.csv"):
        if not (run_dir / name).exists():
            raise ConfigurationError(f"no {name} found in {run_dir}")
    metrics = harness.load_metrics_csv(run_dir / "metrics.csv")
    cred_path = run_dir / "credibility.csv"
    rows = harness.load_credibility_csv(cred_path) if cred_path.exists() else []
    weights = {(row[0], row[1]): row[6] for row in rows}  # (round, client) -> w
    clients = sorted({k for _, k in weights})

    print(f"{'round':>5}  {'accuracy':>10}  {'fl_loss':>12}" + "".join(f"  {f'w_client{k}':>10}" for k in clients))
    long_rows: List[Tuple[str, int, float]] = []
    for rnd, acc, loss in metrics:
        cells = (f"{weights[rnd, k]:>10.6f}" if (rnd, k) in weights else f"{'-':>10}" for k in clients)
        print(f"{rnd:>5}  {acc:>10.6f}  {loss:>12.6f}" + "".join(f"  {cell}" for cell in cells))
        long_rows += [("accuracy", rnd, acc), ("fl_loss", rnd, loss)]
    for k in clients:
        long_rows += [(f"weight_client_{k}", rnd, weights[rnd, k]) for rnd, _, _ in metrics if (rnd, k) in weights]
    long_path = run_dir / LONG_CSV_NAME
    write_csv(long_path, "series,round,value", long_rows)
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
