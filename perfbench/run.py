"""focusfl benchmark: closed-loop experiment streams, end to end and per layer.

    python3 perfbench/run.py --workload paper-sweep --seed 0 --seconds 30 --trace 0

Runs experiments of one workload back to back in this process for
``--seconds`` seconds (and always at least the workload's core
experiments).  An experiment builds its scenario, runs every round, writes
the artifacts with ``harness.write_run_result`` and reads them back through
``focusfl report``; the benchmark then checks the artifacts against the
in-memory results.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` runs every experiment once untraced and once
traced and reports the per-layer metrics.  The last line of standard output
is one JSON object; the lines before it restate every figure with its unit.
A full report, and with ``--trace 1`` the spans, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import checks
from tracing import ROOT_SPAN, Tracer
from workloads import ROOT, WORKLOADS, Workload, experiment_seed, focusfl

import focusfl.cli  # the package's __init__ does not import the CLI

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9


@dataclass
class Pass:
    """One execution of one experiment."""

    index: int
    traced: bool
    warmup: bool
    seconds: float
    cpu_seconds: float = 0.0
    ok: bool = False
    rounds: int = 0
    accuracy: float = float("nan")
    noisy_share: float = float("nan")
    counts: Dict[str, int] = field(default_factory=dict)


def run_experiment(cfgs, run_dir: Path, tracer: Optional[Tracer]):
    """The timed part of one experiment; returns the RunResults."""
    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    with span(ROOT_SPAN):
        if len(cfgs) == 2:
            report = focusfl.harness.compare(*cfgs)
            results = (report.result_a, report.result_b)
        else:
            results = (focusfl.harness.run(cfgs[0]),)
        for result in results:
            out = run_dir / result.config.aggregator
            with span("harness.write_run_result"):
                focusfl.harness.write_run_result(result, out)
            with span("cli.report"), contextlib.redirect_stdout(io.StringIO()):
                code = focusfl.cli.main(["report", str(out)])
            if code != 0:
                raise checks.OutputMismatch(f"focusfl report exited with code {code}")
    return results


def one_pass(workload, workload_seed, index, traced, warmup, work: Path, tracer, digests) -> Pass:
    run_dir = work / f"{index}-{'traced' if traced else 'plain'}"
    record = Pass(index, traced, warmup, 0.0)
    # The configs are the experiment's inputs: built before timing and tracing.
    cfgs = workload.configs(experiment_seed(workload_seed, index))
    if traced:
        tracer.experiment = index
        tracer.install()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        try:
            results = run_experiment(cfgs, run_dir, tracer if traced else None)
        finally:
            record.seconds = time.perf_counter() - start
            record.cpu_seconds = time.process_time() - cpu_start
            if traced:
                tracer.uninstall()
        run_digests = []
        for result in results:
            out = run_dir / result.config.aggregator
            checks.check_run(result, out)
            run_digests.append(checks.run_digest(out))
            record.counts["bytes"] = record.counts.get("bytes", 0) + checks.artifact_bytes(out)
        digest = hashlib.sha256("".join(run_digests).encode()).hexdigest()
        if digests.setdefault(index, digest) != digest:
            raise checks.OutputMismatch(f"a rerun of experiment {index} wrote different artifacts")
        messages = [m for r in results for m in r.messages]
        record.counts.update(
            messages=len(messages),
            params_sent=sum(m.param_count for m in messages),
            scalars_sent=sum(m.scalar_count for m in messages),
            steps=sum(r.config.local_steps for r in results for m in r.messages if m.direction == "down"),
        )
        record.rounds = sum(len(r.metrics) for r in results)
        record.accuracy = float(np.mean([r.final_accuracy for r in results]))
        record.noisy_share = float(sum(results[0].final_weights[k] for k in workload.noisy))
        if traced:
            record.counts.update(tracer.counts[index])
        record.ok = True
    except Exception:  # a failed experiment is counted, and the stream goes on
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return record


def measure(workload: Workload, workload_seed: int, seconds: float, trace: bool):
    """Run experiments back to back; returns the passes, the tracer and the digests."""
    tracer = Tracer() if trace else None
    digests: Dict[int, str] = {}
    passes: List[Pass] = []
    work = OUT / f"work-{workload.name}-{workload_seed}-{os.getpid()}"
    start = time.perf_counter()
    index = 0
    try:
        while index < workload.core or time.perf_counter() - start < seconds:
            # Experiment 0 runs once more first, untimed: it warms up lazy
            # imports and caches, and its artifacts must match the timed rerun.
            modes = ([False] if index == 0 else []) + [False] + ([True] if trace else [])
            for n, traced in enumerate(modes):
                warmup = index == 0 and n == 0
                passes.append(one_pass(workload, workload_seed, index, traced, warmup, work, tracer, digests))
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return passes, tracer, digests


def setup_seconds(workload: Workload, workload_seed: int) -> List[float]:
    """Set-up time of fresh processes, one sample per process."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(time.monotonic_ns()), workload.name, str(workload_seed)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(int(done.stdout.strip().splitlines()[-1]) / 1e9)
    return samples


def blas_threads() -> Optional[int]:
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment(workload_seed: int) -> Dict[str, object]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "workload_seed": workload_seed,
    }


def core_passes(workload: Workload, passes: List[Pass], traced: bool) -> List[Pass]:
    """The first successful pass of each core experiment, of one tracing mode."""
    first: Dict[int, Pass] = {}
    for p in passes:
        if p.ok and p.traced == traced and p.index < workload.core:
            first.setdefault(p.index, p)
    return [first[i] for i in sorted(first)]


def end_to_end(workload, passes, setup) -> Dict[str, float]:
    timed = [p for p in passes if not p.warmup]
    core = core_passes(workload, passes, traced=False)
    return {
        "setup_s": statistics.median(setup),
        "experiment_s": statistics.median(p.seconds for p in timed),
        "rounds_per_s": sum(p.rounds for p in timed) / sum(p.seconds for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_accuracy": statistics.mean(p.accuracy for p in core),
        "noisy_weight_share": statistics.mean(p.noisy_share for p in core),
    }


def per_layer(workload, passes, tracer: Tracer) -> Dict[str, float]:
    times = tracer.layer_times()
    traced = [p for p in passes if p.traced and p.ok]
    plain = {p.index: p.seconds for p in passes if not p.traced and not p.warmup and p.ok}
    core = core_passes(workload, passes, traced=True)
    rounds = sum(p.rounds for p in core)

    def med(name: str, key: str = "s") -> float:
        return statistics.median(times[p.index][name][key] for p in traced)

    def count(name: str) -> float:
        return statistics.mean(p.counts[name] for p in core)

    def per_round(name: str) -> float:
        return sum(p.counts[name] for p in core) / rounds

    update_s = [times[p.index]["learner.client_update"]["s"] for p in traced]
    steps = [p.counts["learner.steps"] for p in traced]
    flops = [p.counts["learner.flops"] for p in traced]
    covered = [1.0 - times[p.index][ROOT_SPAN]["self_s"] / times[p.index][ROOT_SPAN]["s"] for p in traced]
    round_ms = tracer.durations_ms("federation.round")
    return {
        "learner.client_update.self_s": med("learner.client_update", "self_s"),
        "learner.ms_per_step": statistics.median(1e3 * s / n for s, n in zip(update_s, steps)),
        "learner.steps": count("learner.steps"),
        "learner.flops": count("learner.flops"),
        "learner.gflops_per_s": statistics.median(f / s / 1e9 for f, s in zip(flops, update_s)),
        "learner.accuracy.s": med("learner.accuracy"),
        "federation.model_test.s": med("federation.model_test"),
        "federation.model_test.rows": count("federation.model_test.rows"),
        "federation.aggregate.s": med("federation.aggregate"),
        "federation.aggregate.params": count("federation.aggregate.params"),
        "federation.round.self_s": med("federation.round", "self_s"),
        "federation.round_ms_p50": float(np.percentile(round_ms, 50)),
        "federation.round_ms_p90": float(np.percentile(round_ms, 90)),
        "federation.messages": per_round("messages"),
        "federation.params_sent": per_round("params_sent"),
        "federation.scalars_sent": per_round("scalars_sent"),
        "harness.build_scenario.s": med("harness.build_scenario"),
        "harness.run.self_s": med("harness.run", "self_s"),
        "harness.fl_training_loss.s": med("harness.fl_training_loss"),
        "harness.fl_training_loss.fresh_ratio": count("harness.fl_training_loss.fresh")
        / count("harness.fl_training_loss.pairs"),
        "harness.write_run_result.s": med("harness.write_run_result"),
        "harness.write_run_result.bytes": count("bytes"),
        "data.synth_blobs.s": med("data.synth_blobs"),
        "data.partition.s": med("data.partition"),
        "data.inject_noise.s": med("data.inject_noise"),
        "cli.report.s": med("cli.report"),
        # Each traced pass follows the untraced pass of the same experiment,
        # so their ratio cancels most of the host's slow and fast stretches.
        "trace.overhead_share": statistics.median(p.seconds / plain[p.index] for p in traced if p.index in plain) - 1.0,
        "trace.coverage_share": statistics.median(covered),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed)

    setup: List[float] = []
    passes, tracer, digests = measure(workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(not p.ok for p in passes)
    if failed == len(passes):
        print(f"error: all {failed} experiments failed; see the tracebacks above", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(workload, passes, tracer)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
    else:
        setup = setup_seconds(workload, args.seed)
        values = end_to_end(workload, passes, setup)
    core = core_passes(workload, passes, traced=bool(args.trace))
    complete = len(core) == workload.core
    artifacts = hashlib.sha256("".join(digests[i] for i in range(workload.core)).encode()).hexdigest() if complete else "incomplete"
    counts = {key: [p.counts.get(key) for p in core] for key in sorted(core[0].counts)} if core else {}

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    plain = [p.seconds for p in passes if not p.warmup and not p.traced]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"experiments attempted {len(passes)} failed {failed} failed_share {failed / len(passes)!r} "
          f"(warm-up included); untimed warm-up 1, timed untraced {len(plain)}")
    print(f"experiment_s samples {len(plain)}: min {min(plain)!r} median {statistics.median(plain)!r} max {max(plain)!r}")
    for m in declared:
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print("exact counts per core experiment " + json.dumps(counts, sort_keys=True))
    print(f"artifacts_sha256 {workload.name} {artifacts}")
    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "environment": env, "attempted": len(passes), "failed": failed, "metrics": values,
              "exact_counts": counts, "artifacts_sha256": artifacts, "setup_samples_s": setup,
              "passes": [{"index": p.index, "traced": p.traced, "warmup": p.warmup, "seconds": p.seconds,
                          "cpu_seconds": p.cpu_seconds, "ok": p.ok} for p in passes]}
    (OUT / f"report-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0 and complete, "attempted": len(passes), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
