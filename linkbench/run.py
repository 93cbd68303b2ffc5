#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the emlink paper link.

    python3 linkbench/run.py --workload paper-modes --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  With --trace 0 the workload runs untraced and the last
line of standard output is a JSON object with the end-to-end metrics.  With
--trace 1 every workload is set up once and run in alternating traced and
untraced rounds, so each per-layer metric is measured on the workload it
belongs to (see README.md); `attempted` and `failed` count the named
workload's operations only.  The untraced run also times a fixed reference
computation between rounds (reference.py) and reports the mean operation time
in units of it, so that the shared host's speed drift cancels.  Each run also
writes a result file with the machine facts, every operation and reference
time and the reference fingerprint under .linkbench/results/ (or --results).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 1.0  # operation time between two reference samples
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> int:
    """Cap every BLAS pool at the usable core count; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def import_time(env: dict) -> float:
    """Wall time for a fresh interpreter to import the package and its CLI."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import emlink, emlink.cli"],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    return time.perf_counter() - start


def machine_facts(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": cores,
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_op(op, results: dict, span=contextlib.nullcontext()) -> float:
    """Run one operation inside `span`, then its check; returns the operation's wall time."""
    from oracles import CheckError

    start = time.perf_counter()
    try:
        with span:
            outcome = op.run()
    except Exception as exc:  # a crash of the program is a wrong output
        outcome = exc
    elapsed = time.perf_counter() - start
    results["attempted"] += 1
    try:
        if isinstance(outcome, Exception):
            raise CheckError(f"raised {type(outcome).__name__}: {outcome}")
        op.check(outcome)
    except CheckError as exc:
        if op.counted:
            results["errors"].append(str(exc))
        else:
            results["failed"] += 1
            results["faults"][op.label] = str(exc)
    return elapsed


def untraced_run(workload_cls, args, work: Path) -> dict:
    from reference import Reference
    from tracing import maxrss_mb
    from workloads import child_env

    env = child_env(ROOT)
    setups = []
    for _ in range(SETUP_REPEATS):
        imports = import_time(env)
        workload = workload_cls(args.seed, work, ROOT)
        start = time.perf_counter()
        workload.setup()
        setups.append(imports + time.perf_counter() - start)

    tally = new_tally()
    op_times = []
    with Reference() as reference:
        reference.run()
        since_reference = 0.0
        deadline = time.perf_counter() + args.seconds
        while True:
            for op in workload.round():
                elapsed = run_op(op, tally)
                since_reference += elapsed
                if op.counted:
                    op_times.append(elapsed)
            if since_reference >= REFERENCE_EVERY_S:
                reference.run()
                since_reference = 0.0
            if time.perf_counter() >= deadline:
                break
        reference.run()
    peak = maxrss_mb()
    op_mean = statistics.fmean(op_times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_time_ref": (op_mean / statistics.fmean(reference.times), "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    # The plain wall-clock figures are kept in the result file but not gated: see README.md.
    return {"tally": tally, "metrics": metrics, "ops_per_s": 1.0 / op_mean,
            "op_p50_s": statistics.median(op_times), "setup_times": setups, "op_times": op_times,
            "reference_times": reference.times, "reference": workload.reference}


# Per-layer metrics and the workload each is measured on.  A name ending in
# .self_s is the mean self time per operation of the span before the suffix,
# .calls its mean call count and .rss_mb the peak RSS at the end of that
# span; the others are counters, as means per operation.
LAYER_METRICS = [
    ("channel.kernel_matrix.self_s", "s", "paper-modes"),
    ("channel.exp_count", "count", "paper-modes"),
    ("channel.gemm_flop", "flop", "paper-modes"),
    ("channel.factor_bytes", "B", "paper-modes"),
    ("channel.kernel_gflop_per_s", "GFLOP/s", "paper-modes"),
    ("channel.kernel_matrix.rss_mb", "MB", "paper-modes"),
    ("channel.propagate_current.self_s", "s", "field-eval"),
    ("channel.propagate_current.rss_mb", "MB", "field-eval"),
    ("geometry.n_directions", "count", "paper-modes"),
    ("geometry.n_surface_points", "count", "paper-modes"),
    ("geometry.cap_direction_grid.self_s", "s", "paper-modes"),
    ("geometry.tensor_grid.self_s", "s", "paper-modes"),
    ("modes.hermitian_eig.self_s", "s", "paper-modes"),
    ("modes.basis_eval.self_s", "s", "paper-modes"),
    ("modes.assemble_galerkin.self_s", "s", "paper-modes"),
    ("modes.gram_currents.self_s", "s", "paper-modes"),
    ("modes.gram_fields.self_s", "s", "paper-modes"),
    ("modes.mode_current_field.self_s", "s", "paper-modes"),
    ("modes.received_field.self_s", "s", "paper-modes"),
    ("modes.solve_modes.self_s", "s", "paper-modes"),
    ("modes.basis_size", "count", "paper-modes"),
    ("modes.clamped_count", "count", "paper-modes"),
    ("modes.save_mode_set.self_s", "s", "paper-modes"),
    ("cli.cmd_modes.self_s", "s", "paper-modes"),
    ("cli.bytes_written", "B", "paper-modes"),
    ("config.load_config.self_s", "s", "paper-modes"),
    ("modes.load_mode_set.self_s", "s", "paper-post"),
    ("capacity.capacity_vs_snr.self_s", "s", "paper-post"),
    ("capacity.spectrum_fit.self_s", "s", "paper-post"),
    ("capacity.waterfill.calls", "count", "paper-post"),
    ("cli.cmd_capacity.self_s", "s", "paper-post"),
    ("greens.expansion_error_sweep.self_s", "s", "paper-post"),
    ("greens.sgf_planewave.self_s", "s", "paper-post"),
    ("greens.sgf_planewave.calls", "count", "paper-post"),
    ("cli.cmd_sgf_error.self_s", "s", "paper-post"),
    ("cli.cmd_translator.self_s", "s", "paper-post"),
    ("greens.translator_table.self_s", "s", "paper-post"),
    ("specfun.legendre_sequence.self_s", "s", "paper-post"),
    ("specfun.spherical_hankel_paper.self_s", "s", "paper-post"),
    ("specfun.gauss_legendre_rule.self_s", "s", "paper-post"),
]


def layer_means(tracer, ops: list[str]) -> dict:
    """Every span and counter as a mean per traced operation, plus peak RSS per span."""
    selfs = tracer.self_times()
    rows = {}
    for op_id in ops:
        for span, value in selfs[op_id].items():
            rows[span + ".self_s"] = rows.get(span + ".self_s", 0.0) + value / len(ops)
        for key, value in tracer.counts[op_id].items():
            rows[key] = rows.get(key, 0.0) + value / len(ops)
    wanted = set(ops)
    for span, _start, _end, _parent, op_id, rss in tracer.spans:
        if op_id in wanted:
            rows[span + ".rss_mb"] = max(rows.get(span + ".rss_mb", 0.0), rss)
    seconds = rows.get("channel.kernel_matrix.self_s", 0.0)
    rows["channel.kernel_gflop_per_s"] = rows.get("channel.gemm_flop", 0.0) / seconds / 1e9 if seconds else 0.0
    return dict(sorted(rows.items()))


def traced_child(workload_cls, args, work: Path) -> dict:
    """One workload in this process: a warm-up round, then alternating traced
    and untraced rounds, so the tracing overhead is measured in the same run."""
    from tracing import Tracer

    workload = workload_cls(args.seed, work, ROOT)
    workload.setup()
    tracer = Tracer()
    tally = new_tally()
    times = {"traced": [], "untraced": []}
    traced_ops = []
    deadline = time.perf_counter() + args.seconds
    n_round = 0
    while True:
        traced = n_round % 2 == 1
        for i, op in enumerate(workload.round()):
            op_id = f"{n_round}:{i}"
            if traced:
                tracer.install()
                try:
                    elapsed = run_op(op, tally, tracer.operation("bench.operation", op_id))
                finally:
                    tracer.uninstall()
            else:
                elapsed = run_op(op, tally)
            if op.counted and n_round > 0:
                times["traced" if traced else "untraced"].append(elapsed)
                if traced:
                    traced_ops.append(op_id)
        n_round += 1
        if n_round >= 3 and time.perf_counter() >= deadline:
            break
    spans_path = args.results / f"{run_id(args)}-spans.json"
    spans_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}), encoding="utf-8")
    fingerprint = None
    if workload_cls.name == "paper-post":  # its set-up already solved the paper preset
        import oracles

        fingerprint = oracles.fingerprint(workload.reference())
    selfs = tracer.self_times()
    layer_sums = [sum(v for k, v in selfs[op].items() if not k.startswith("bench.")) for op in traced_ops]
    return {"tally": tally, "layers": layer_means(tracer, traced_ops), "op_times": times,
            "layer_sum_p50": statistics.median(layer_sums), "spans_file": spans_path.name,
            "fingerprint": fingerprint}


def traced_run(workload_cls, args, work: Path) -> dict:
    """Trace each workload in a process of its own and gather the per-layer metrics."""
    from workloads import WORKLOADS

    work.mkdir(parents=True, exist_ok=True)
    parts = {}
    for name in WORKLOADS:
        part = work / f"{name}.json"
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", repr(args.seconds / 2), "--trace", "1", "--results", str(args.results),
             "--child-output", str(part)],
            cwd=ROOT, check=True, timeout=170,
        )
        parts[name] = json.loads(part.read_text(encoding="utf-8"))

    metrics = {name: (parts[home]["layers"].get(name, 0.0), unit) for name, unit, home in LAYER_METRICS}
    own = parts[workload_cls.name]
    traced_p50 = statistics.median(own["op_times"]["traced"])
    untraced_p50 = statistics.median(own["op_times"]["untraced"])
    metrics["trace.op_p50_s"] = (traced_p50, "s")
    metrics["trace.untraced_op_p50_s"] = (untraced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    metrics["trace.layer_self_sum_s"] = (own["layer_sum_p50"], "s")

    tally = own["tally"]
    for name, part in parts.items():
        if name != workload_cls.name:
            tally["errors"] += [f"{name}: {e}" for e in part["tally"]["errors"]]
    return {"tally": tally, "metrics": metrics, "fingerprint": parts["paper-post"]["fingerprint"],
            "parts": {name: {k: v for k, v in part.items() if k != "tally"} for name, part in parts.items()}}


def new_tally() -> dict:
    return {"attempted": 0, "failed": 0, "errors": [], "faults": {}}


def run_id(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["paper-modes", "field-eval", "paper-post"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", type=Path, default=ROOT / ".linkbench" / "results",
                        help="directory for the result file (default .linkbench/results)")
    parser.add_argument("--child-output", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cores = limit_blas_threads()
    src = ROOT / "src"
    if not (src / "emlink" / "__init__.py").is_file():
        print(f"error: no emlink sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import oracles
    from workloads import WORKLOADS

    args.results.mkdir(parents=True, exist_ok=True)
    work = ROOT / ".linkbench" / "work" / run_id(args)
    workload_cls = WORKLOADS[args.workload]
    try:
        if args.child_output:
            args.child_output.write_text(json.dumps(traced_child(workload_cls, args, work)), encoding="utf-8")
            return 0
        if args.trace:
            outcome = traced_run(workload_cls, args, work)
        else:
            outcome = untraced_run(workload_cls, args, work)
            outcome["fingerprint"] = oracles.fingerprint(outcome.pop("reference")())
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tally = outcome.pop("tally")
    metrics = outcome.pop("metrics")
    summary = {
        "correct": not tally["errors"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(
        summary,
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        machine=machine_facts(cores), errors=tally["errors"], faults=tally["faults"], **outcome,
    )
    (args.results / f"{run_id(args)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    for error in tally["errors"]:
        print(f"CHECK FAILED: {error}")
    for fault, message in tally["faults"].items():
        print(f"failed operation {fault}: {message}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
