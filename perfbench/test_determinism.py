"""Two traced runs with one seed must count the same work on every workload.

    python3 -m pytest perfbench/test_determinism.py

Each case runs two traced rounds of one workload in fresh processes, about
one to two minutes per workload.
"""

import json
import pathlib
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

# counters that must repeat exactly for one seed
DETERMINISTIC = ("driver.iterations", "backend.emit_bytes", "minismt.clauses",
                 "minismt.conflicts", "minismt.mbqi_rounds")


def traced_counts(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: result["metrics"][name]["value"] for name in DETERMINISTIC}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(workload):
    first = traced_counts(workload)
    assert first["driver.iterations"] > 0 and first["minismt.clauses"] > 0
    assert traced_counts(workload) == first
