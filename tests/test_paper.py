"""The advertised paper scale end to end: ``lrbev generate`` and ``lrbev run
--scale paper`` on seed 0 in child processes, checked for their exit code,
the bytes of what the run writes, the bytes of its float64 heatmap and the
run's peak memory.

The output digests differ from one OpenBLAS kernel to another, so they are
keyed by the name the library reports for the kernel it runs. A change that
alters the outputs on purpose records the new digests here and says so.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrbev
from test_blas_kernels import _corename

# sha256 of detections.jsonl and stats.json of paper seed 0, per kernel.
STATS = "59c8b55aee8f201f287f1cb1a41eb81976d465467a9ac8d2d68aa5c16d12812d"
DIGESTS = {
    "SkylakeX": "f9c08959907a9bf4d5025516f039ef6a096611140c0875856b2cf9918d349dff",
    "Haswell": "76e5f50582b4519587ccfc1b1f7884a22e56ae57aef64af67e0d1508546ae995",
    "Sandybridge": "bc0ce8b3a9b5d6f83562f4cb1386a70cd4ca26478be8e8a13755e546cc209653",
    "Katmai": "277666e735fc45bfe2f8297c7e39a8042d0f72b74035ddbdba1cea567140e213",
    "Nehalem": "bc0ce8b3a9b5d6f83562f4cb1386a70cd4ca26478be8e8a13755e546cc209653",
}
# sha256 of the bytes of the run's float64 heatmap, per kernel. A weight
# change too small to move a detection can move these.
HEATMAPS = {
    "SkylakeX": "eb5e2ceabf4b815cd174be7540bae82ab56c290e9ac27d4717e6444019b88156",
    "Haswell": "d683677eebb17cab80078bb83bd075a4e96d1b57afd7c12625d1f216bd984ab1",
    "Sandybridge": "c33d2d04f8f3765d6d867d06b4612d01d20e360cd0d6f664fbda3dba0bce12b8",
    "Katmai": "df414c1e68ce31cef16ec3c4bc3e25be996c9ca7f90b761736553c8744556b1a",
    "Nehalem": "c33d2d04f8f3765d6d867d06b4612d01d20e360cd0d6f664fbda3dba0bce12b8",
}
# Peak resident memory of the run child, in MiB. It read 659-677 MiB under
# the five kernels of tests/test_blas_kernels.py (2-CPU x86-64 host, numpy
# with its bundled OpenBLAS); the bound leaves a 4% margin over the highest
# reading. Keeping the 66 MB first trunk conv output alive through the rest
# of the head read 730-733 MiB.
MAX_RSS_MIB = 705


# Runs the lrbev CLI on argv. Each pipeline run prints ``heatmap`` and the
# sha256 of its heatmap's float64 bytes, hashed in place, and the process
# prints its peak resident memory (KiB on Linux) on its last line of output.
_CLI = """
import hashlib, resource, sys
import lrbev.cli
run_pipeline = lrbev.cli.run_pipeline

def run_and_digest(*args, **kwargs):
    result = run_pipeline(*args, **kwargs)
    print("heatmap", hashlib.sha256(result.maps["heatmap"].data).hexdigest())
    return result

lrbev.cli.run_pipeline = run_and_digest
code = lrbev.cli.main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def _child(argv: list, env: dict):
    """Exit code, peak resident memory (MiB) and heatmap digest (None
    without a pipeline run) of ``lrbev`` run with ``argv`` in a child
    process."""
    proc = subprocess.run([sys.executable, "-c", _CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    out = proc.stdout.split()
    heatmap = out[out.index("heatmap") + 1] if "heatmap" in out else None
    return proc.returncode, int(out[-1]) / 1024, heatmap


def test_paper_seed_0_bytes_and_memory(tmp_path):
    kernel = _corename()
    if kernel not in DIGESTS:
        pytest.skip(f"no paper digest recorded for the OpenBLAS kernel {kernel}")
    src = str(Path(lrbev.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code, _, _ = _child(["generate", "--scale", "paper", "--seed", "0",
                         "--out", str(tmp_path)], env)
    assert code == 0
    code, rss, heatmap = _child(["run", "--scale", "paper", "--seed", "0",
                                 "--in", str(tmp_path), "--out", str(tmp_path)], env)
    assert code == 0
    digest = lambda name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest("detections.jsonl") == DIGESTS[kernel]
    assert digest("stats.json") == STATS
    assert heatmap == HEATMAPS[kernel]
    assert rss <= MAX_RSS_MIB
