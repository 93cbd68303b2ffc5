#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 linkbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files that linkbench/run.py wrote (use its
--results option to keep the two sets apart).  Untraced runs only.  For every
workload and end-to-end metric it prints each side's median and quartiles and
a verdict:

  better       the change wins at least 9 of 10 pairs (ties count for
               neither) and the medians differ by more than the base's
               interquartile range;
  worse        the change's median is worse than the base's by more than the
               metric's bound, and either both spreads are within the bound
               or every change run is worse than every base run;
  within-bound the change's median is at most the bound worse, and both
               spreads are within the bound;
  unresolved   anything else: the spread is wider than the bound.

Runs are paired in seed order, so two sets run on the same seeds pair by
seed.  It also prints the plain wall-clock ops_per_s and op_p50_s, the failed
share per side, the machine facts and the largest difference between the
sides' reference fingerprints; these are reported and not judged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Plain wall-clock figures of every untraced result file, printed beside the
# judged metrics; the host's speed drift makes them too noisy to judge.
REPORTED = [("ops_per_s", "1/s"), ("op_p50_s", "s")]


def load(directory: Path) -> dict:
    """workload -> list of result records, ordered by seed."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better: str, bound: float, pairs) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - bm) > (b3 - b1):
        return "better"
    spread_ok = (b3 - b1) <= bound * abs(bm) and (c3 - c1) <= bound * abs(cm)
    loss = -sign * (cm - bm) / abs(bm)
    if loss > bound:
        all_worse = all(sign * (c - b) < 0 for c in change for b in base)
        return "worse" if spread_ok or all_worse else "unresolved"
    return "within-bound" if spread_ok else "unresolved"


def fingerprint_gap(a: dict | None, b: dict | None) -> str:
    if not a or not b:
        return "n/a"
    betas = max(abs(x - y) / abs(y) for x, y in zip(a["beta_norm_1_40"], b["beta_norm_1_40"]))
    return (f"beta1..40 rel {betas:.2e}, c {a['c']:.6g} vs {b['c']:.6g}, "
            f"R^2 {a['r_squared']:.6g} vs {b['r_squared']:.6g}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    for workload in sorted(set(base) | set(change)):
        a, b = base.get(workload, []), change.get(workload, [])
        print(f"\n== {workload}: {len(a)} base runs, {len(b)} change runs")
        if not a or not b:
            continue
        for side, records in (("base", a), ("change", b)):
            attempted = sum(r["attempted"] for r in records)
            failed = sum(r["failed"] for r in records)
            m = records[0]["machine"]
            print(f"   {side:6s} failed {failed}/{attempted}; {m['cores']} cores, {m['blas']}, "
                  f"threads {m['blas_threads']['OPENBLAS_NUM_THREADS']}, numpy {m['numpy']}, "
                  f"python {m['python']}; checks {'pass' if all(r['correct'] for r in records) else 'FAIL'}")
        print(f"   fingerprint: {fingerprint_gap(a[0].get('fingerprint'), b[0].get('fingerprint'))}")
        print(f"   {'metric':14s} {'unit':5s} {'base q1 / median / q3':>34s} {'change q1 / median / q3':>34s}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            text = verdict(va, vb, metric["better"], metric["bound"], list(zip(va, vb)))
            fa = " / ".join(f"{v:.4g}" for v in quartiles(va))
            fb = " / ".join(f"{v:.4g}" for v in quartiles(vb))
            print(f"   {name:14s} {metric['unit']:5s} {fa:>34s} {fb:>34s}  {text}")
        for name, unit in REPORTED:
            fa = " / ".join(f"{v:.4g}" for v in quartiles([r[name] for r in a]))
            fb = " / ".join(f"{v:.4g}" for v in quartiles([r[name] for r in b]))
            print(f"   {name:14s} {unit:5s} {fa:>34s} {fb:>34s}  (wall clock, not judged)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
