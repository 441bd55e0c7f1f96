"""Benchmark of pocketflow training and generation; see perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gen_toy --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A full
record (environment, output digest, tail percentile) is also written to
``perfbench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
FIRST_SETUP_PASSES = 3  # before the operations; a traced run reports their spans
LATER_SETUP_PASSES = 8  # spread over the timed window, so setup_s samples the same machine state


class NoResult(RuntimeError):
    """The run produced nothing to measure."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def openblas_threads() -> int | None:
    """OpenBLAS's own runtime thread count, read through ctypes where possible."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "openblas_runtime_threads": openblas_threads(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def make_calibration(reps: int = 150):
    """A fixed kernel that times the machine's current speed (about 3 ms).

    Small numpy calls from a Python loop, like the program's own inner loops.
    The 64x32 @ 32x64 product stays below OpenBLAS's threading threshold, so
    the kernel runs on one thread whatever the BLAS thread count.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 32)), rng.standard_normal((32, 64))

    def calibration_s() -> float:
        start = perf_counter()
        for _ in range(reps):
            float(np.tanh(a @ b).sum())
        return perf_counter() - start

    return calibration_s


def timed_setup(workload, inputs, seed: int, tracer, traced: bool) -> tuple[object, float]:
    tracer.enabled = traced
    start = perf_counter()
    state = workload.setup(inputs, seed)
    elapsed = perf_counter() - start
    tracer.enabled = False
    return state, elapsed


def run(workload, seed: int, seconds: float, tracer) -> dict:
    from workloads import GenState, digest, op_seed

    inputs = workload.make_inputs(seed)
    setup_times = []
    for _ in range(FIRST_SETUP_PASSES):
        state, elapsed = timed_setup(workload, inputs, seed, tracer, traced=True)
        setup_times.append(elapsed)
    setup_spans = {name: tracer.inclusive_s[name] / FIRST_SETUP_PASSES for name in tracer.calls}
    tracer.reset()

    attempted = failed = 0
    errors: list[str] = []

    def attempt(i: int, timed: bool):
        nonlocal attempted, failed
        attempted += 1
        tracer.enabled = timed
        start = perf_counter()
        try:
            output = workload.run_op(state, op_seed(seed, i))
        except Exception as exc:  # a failing operation is counted, not fatal
            tracer.enabled = False
            failed += 1
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None, perf_counter() - start
        elapsed = perf_counter() - start
        tracer.enabled = False
        verdict = workload.check(state, output)
        if verdict.errors:
            failed += 1
            errors.extend(f"op {i}: {e}" for e in verdict.errors)
        return verdict, elapsed

    calibration_s = make_calibration()
    for _ in range(5):
        calibration_s()
    warm = [attempt(i, timed=False)[0] for i in range(workload.warmup_ops)]
    outputs_digest = digest([v.payload for v in warm if v is not None])

    latencies_s: list[float] = []
    unit_ms: list[float] = []  # per operation: ms per trajectory step or per atom placed
    unit_cal: list[float] = []  # the same, in units of the calibration kernel's time
    series: list[tuple[float, float, int, float]] = []  # (end offset s, op s, work, calibration s)
    work = valid = 0
    stops = {"saturated": 0, "budget": 0, "exhausted": 0}
    start = perf_counter()
    deadline = start + seconds
    later_setups = [start + k * seconds / (LATER_SETUP_PASSES + 1)
                    for k in range(1, LATER_SETUP_PASSES + 1)]
    i = workload.warmup_ops
    cal_before = calibration_s()
    while perf_counter() < deadline:
        if later_setups and perf_counter() >= later_setups[0]:
            later_setups.pop(0)
            setup_times.append(timed_setup(workload, inputs, seed, tracer, traced=False)[1])
            cal_before = calibration_s()
            continue
        verdict, elapsed = attempt(i, timed=True)
        i += 1
        cal_after = calibration_s()
        cal, cal_before = 0.5 * (cal_before + cal_after), cal_after
        if verdict is None:
            continue
        latencies_s.append(elapsed)
        series.append((round(perf_counter() - start, 4), elapsed, verdict.work, cal))
        if verdict.work:
            unit_ms.append(1e3 * elapsed / verdict.work)
            unit_cal.append(elapsed / verdict.work / cal)
        work += verdict.work
        valid += verdict.valid
        if tracer.last_result.get("generator.generate_ligand") is not None:
            mol = tracer.last_result.pop("generator.generate_ligand")
            if len(mol) >= state.gen_cfg.max_atoms:
                stops["budget"] += 1
            elif tracer.last_result.get("generator.select_focal", 0) is None:
                stops["saturated"] += 1
            else:
                stops["exhausted"] += 1

    for _ in later_setups:  # due, but an operation overran the window
        setup_times.append(timed_setup(workload, inputs, seed, tracer, traced=False)[1])
    repeat, _ = attempt(0, timed=False)
    if repeat is None or warm[0] is None or repeat.payload != warm[0].payload:
        failed += 1
        errors.append("op 0 repeated with the same seed gave different output")

    n_ops = len(latencies_s)
    if not unit_ms:
        raise NoResult(f"no operation completed in {seconds} s: {errors[:3]}")
    latencies_ms = [1e3 * t for t in latencies_s]
    tail = percentile(unit_cal, workload.tail_percentile)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "digest": outputs_digest,
        "timed_ops": n_ops,
        "tail_percentile": workload.tail_percentile,
        "tail_ops_beyond": sum(1 for t in unit_cal if t > tail),
        "unit_ms_percentiles": {q: percentile(unit_ms, q) for q in (50, 75, 90, 95, 99)},
        "throughput_per_s": work / sum(latencies_s),
        "calibration_ms_p50": 1e3 * statistics.median(s[3] for s in series),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_tail": percentile(latencies_ms, workload.tail_percentile),
        "op_series": series,
        "end_to_end": {
            "unit_cost": (statistics.median(unit_cal), "cal"),
            "unit_cost_tail": (tail, "cal"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "valid_frac": valid / n_ops if isinstance(state, GenState) else None,
        "per_layer": per_layer(tracer, setup_spans, n_ops, work, valid, stops, state)
        if tracer.installed
        else None,
    }


def per_layer(tracer, setup_spans: dict, n_ops: int, work: int, valid: int, stops: dict, state) -> dict:
    from tracer import SETUP_SPANS, SPAN_NAMES
    from workloads import GenState

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tracer.calls[name] / n_ops, "count")
        out[f"{name}.ms"] = (1e3 * tracer.inclusive_s[name] / n_ops, "ms")
        out[f"{name}.self_ms"] = (1e3 * tracer.self_s(name) / n_ops, "ms")
    for name in SETUP_SPANS:
        out[f"setup.{name}.ms"] = (1e3 * setup_spans.get(name, 0.0), "ms")
    for name in ("encoder.graph_atoms", "encoder.graph_edges", "encoder.edges_processed"):
        out[name] = (tracer.counters[name] / n_ops, "count")
    is_train = not isinstance(state, GenState)
    out["trainer.steps"] = (work / n_ops if is_train else 0.0, "count")
    attempts = tracer.calls["generator.generate_type"]
    bonded = tracer.child_calls[("generator.step", "chem.infer_bonds")]
    placed = 0 if is_train else work
    out["generator.attempts"] = (attempts / n_ops, "count")
    out["generator.clash_rejects"] = ((attempts - bonded) / n_ops, "count")
    out["generator.valence_rejects"] = ((bonded - placed) / n_ops, "count")
    out["generator.accept_ratio"] = (placed / attempts if attempts else 0.0, "ratio")
    for reason, count in stops.items():
        out[f"generator.stop_{reason}"] = (count / n_ops, "count")
    out["evaluator.valid_frac"] = (0.0 if is_train else valid / n_ops, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pocketflow" / "__init__.py").is_file():
        print(f"error: no pocketflow sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pocketflow
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(pocketflow.__file__).resolve().parent != SRC / "pocketflow":
        print(f"error: imported pocketflow from {pocketflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        result = run(workload, args.seed, args.seconds, tracer)
    except NoResult as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tracer.uninstall()

    record = {"workload": workload.name, "why": workload.why, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed), **result}
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {result['timed_ops']} timed ops, "
          f"tail = p{result['tail_percentile']} ({result['tail_ops_beyond']} ops beyond), "
          f"digest {result['digest'][:16]}")
    print(f"# wall clock, not gated: {result['throughput_per_s']:.5g} units/s, "
          f"calibration kernel p50 {result['calibration_ms_p50']:.4g} ms")
    for err in result["errors"]:
        print(f"# FAILED {err}")
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value!r}\t{unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
