"""Summarise the records that perfbench/run.py leaves in perfbench/results/.

    python3 perfbench/report.py

For each workload it prints the median of every end-to-end metric over the
untraced records, the output digests seen per seed, the tracing overhead
(traced against untraced unit_cost on the same seeds), and the per-layer
self-time table of the traced records, summed by module, with the module
that takes the largest share.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def load() -> dict[tuple[str, int], dict[int, dict]]:
    records: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(RESULTS.glob("*.json")):
        record = json.loads(path.read_text())
        records[(record["workload"], record["environment"]["seed"])][record["trace"]] = record
    return records


def main() -> int:
    records = load()
    if not records:
        print(f"no records in {RESULTS}; run perfbench/run.py first", file=sys.stderr)
        return 1
    for workload in sorted({w for w, _ in records}):
        runs = {seed: by_trace for (w, seed), by_trace in records.items() if w == workload}
        plain = [r[0] for r in runs.values() if 0 in r]
        traced = [r[1] for r in runs.values() if 1 in r]
        print(f"== {workload}: {len(plain)} untraced, {len(traced)} traced records")
        if plain:
            env = plain[0]["environment"]
            print(f"   nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
                  f"{env['blas']} blas_threads={env['openblas_runtime_threads']} "
                  f"(OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']}) commit={env['git_commit']}")
            for name, (_, unit) in plain[0]["end_to_end"].items():
                values = [r["end_to_end"][name][0] for r in plain]
                print(f"   {name:18s} median {statistics.median(values):12.5g} {unit}"
                      f"  (min {min(values):.5g}, max {max(values):.5g})")
            unit_p50 = statistics.median(r["unit_ms_percentiles"]["50"] for r in plain)
            throughput = statistics.median(r["throughput_per_s"] for r in plain)
            print(f"   wall clock (not gated): unit_ms p50 median {unit_p50:.5g} ms, "
                  f"throughput median {throughput:.5g} units/s")
            print(f"   failed ops: {sum(r['failed'] for r in plain)} of {sum(r['attempted'] for r in plain)}")
            if plain[0]["valid_frac"] is not None:
                print(f"   valid_frac median {statistics.median(r['valid_frac'] for r in plain):.4f}")
            print("   digests: " + ", ".join(
                f"seed {seed}: {r[0]['digest'][:12]}" for seed, r in sorted(runs.items()) if 0 in r))
        pairs = [(r[0], r[1]) for r in runs.values() if 0 in r and 1 in r]
        if pairs:
            overhead = [t["end_to_end"]["unit_cost"][0] / p["end_to_end"]["unit_cost"][0] - 1
                        for p, t in pairs]
            print(f"   tracing overhead: {100 * statistics.median(overhead):+.1f}% unit_cost "
                  f"(median over {len(pairs)} seed pairs)")
        if traced:
            by_module: dict[str, list[float]] = defaultdict(list)
            for r in traced:
                sums: dict[str, float] = defaultdict(float)
                for name, (value, _) in r["per_layer"].items():
                    if name.endswith(".self_ms") and not name.startswith("setup."):
                        sums[name.split(".")[0]] += value
                for module, value in sums.items():
                    by_module[module].append(value)
            op_ms = statistics.median(r["op_ms_p50"] for r in traced)
            table = sorted(((statistics.median(v), m) for m, v in by_module.items()), reverse=True)
            total = sum(v for v, _ in table)
            print(f"   self time per operation by module (traced, total {total:.3f} ms):")
            for value, module in table:
                if value > 0:
                    print(f"     {module:10s} {value:10.3f} ms  {100 * value / total:5.1f}%")
            print(f"   traced op p50 {op_ms:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
