"""The benchmark's tracing hooks still find every name they patch or read."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import pathlib, sys
import spans, workloads
spans.ClientTrace().install()
spans.install_minismt(spans.Tracer(), [])
root = pathlib.Path(sys.argv[1])
for name in ("datasets", "tiny-stream", "tall-templates"):
    workloads.fingerprint(workloads.build(name, 1, root))
"""


def test_perfbench_hooks_install_against_the_sources():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT)],
        capture_output=True,
        text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])},
    )
    assert proc.returncode == 0, proc.stderr
