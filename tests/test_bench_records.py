"""The committed benchmark records (``BENCH_*.json`` at the repository root)
name what they claim in the terms of ``BENCHMARK.json`` and state the
machine they ran on: a speed figure is only comparable with its core count,
its numpy and BLAS builds and its BLAS thread count."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENVIRONMENT_KEYS = ("nproc", "numpy", "blas", "OPENBLAS_NUM_THREADS", "openblas_runtime_threads")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
class TestBenchRecord:
    def test_claim_names_a_declared_workload_and_metric(self, path):
        claim = json.loads(path.read_text())["claim"]
        assert claim["workload"] in {w["name"] for w in DECLARED["workloads"]}
        assert claim["metric"] in {m["name"] for m in DECLARED["end_to_end"]}

    def test_states_parent_and_method(self, path):
        record = json.loads(path.read_text())
        for key in ("parent_commit", "method"):
            assert isinstance(record.get(key), str) and record[key].strip(), key

    def test_environment_states_cores_builds_and_blas_threads(self, path):
        environment = json.loads(path.read_text())["environment"]
        missing = [key for key in ENVIRONMENT_KEYS if key not in environment]
        assert not missing, f"{path.name} environment lacks {missing}"
        assert isinstance(environment["nproc"], int) and environment["nproc"] >= 1
        assert environment["numpy"] and environment["blas"]
        # the variable may be unset (null); the runtime count is what ran
        assert environment["OPENBLAS_NUM_THREADS"] is None or str(
            environment["OPENBLAS_NUM_THREADS"]
        ).isdigit()
        assert environment["openblas_runtime_threads"] is None or (
            isinstance(environment["openblas_runtime_threads"], int)
            and environment["openblas_runtime_threads"] >= 1
        )
