"""The order-, worker- and run-invariance checks under each OpenBLAS kernel.

An OpenBLAS built with ``DYNAMIC_ARCH`` picks its GEMM kernel for the CPU
when it loads, and ``OPENBLAS_CORETYPE`` forces another. Each kernel blocks
and orders its reductions its own way, so the bit-identity claims are
re-checked in one subprocess per kernel. The subprocess confirms its kernel
through the library's core-name call; a kernel that this build or CPU
cannot run reports another name and is skipped. Each reported name belongs
to one kernel, so no kernel is checked twice.

Run as a script, ``python tests/test_blas_kernels.py KERNEL`` checks the
kernel the library picked, after confirming that it is ``KERNEL``.
"""
from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lrbev
from lrbev import nn

KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Prescott", "Nehalem")
# Where the core-name call reports another name than the kernel's own.
_REPORTED = {"Prescott": "Katmai"}
_SKIP = 77          # exit status of a subprocess whose kernel did not take


def _corename() -> str | None:
    """The kernel name OpenBLAS reports, through the core-name call of the
    first mapped library that has one."""
    for path in nn._openblas_libs():
        lib = ctypes.CDLL(path)
        # Each build names its core-name call as it names its setter.
        for setter, _ in nn._OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, setter.replace("set_num_threads", "get_corename"), None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _shuffled_scenes() -> None:
    """Shuffles of 2 desk and 4 tiny scenes, none truncating a voxel or a
    pillar, leave the maps and the detections bit-identical."""
    from lrbev.config import desk_config, tiny_config
    from lrbev.pipeline import detections_to_jsonl, generate_clouds, run_pipeline

    rng = np.random.default_rng(5)
    for factory, scenes in ((desk_config, 2), (tiny_config, 4)):
        cfg = factory()
        cfg.max_points_per_voxel = 1_000_000
        for seed in range(scenes):
            _, lidar, radar = generate_clouds(cfg, seed)
            base = run_pipeline(cfg, lidar, radar)
            grid = base.stats["grid_encoding"]
            assert grid["truncated_lidar_points"] == grid["truncated_radar_points"] == 0
            for _ in range(3):
                got = run_pipeline(cfg, lidar[rng.permutation(len(lidar))],
                                   radar[rng.permutation(len(radar))])
                for name in ("m_l", "m_r", "enhanced"):
                    assert np.array_equal(got.maps[name].features,
                                          base.maps[name].features), (seed, name)
                assert (detections_to_jsonl(got.detections)
                        == detections_to_jsonl(base.detections)), seed


def _check(kernel: str) -> int:
    name = _corename()
    if name != _REPORTED.get(kernel, kernel):
        print(f"OpenBLAS reports kernel {name}")
        return _SKIP
    from lrbev.oracles import PROPERTIES, TILED_PROFILES
    from test_l2r import TestAggregateSegment
    from test_nn import TAP_SHAPES, test_tap_gemm_columns_keep_their_bits_in_any_block
    from test_tiles import WIDE_LIDAR, test_wide_lidar_first_block_equals_twin

    TestAggregateSegment().test_permutation_invariant()
    _shuffled_scenes()
    for shape in TAP_SHAPES:
        test_tap_gemm_columns_keep_their_bits_in_any_block(*shape)
    for instance in WIDE_LIDAR:
        for workers in (1, 2):
            test_wide_lidar_first_block_equals_twin(*instance, workers)
    for prop, seeds in (("heads.worker-oracle", len(TILED_PROFILES)),
                        ("heads.tiled-oracle", len(TILED_PROFILES)),
                        ("pipeline.determinism", 3)):
        result = PROPERTIES[prop](seeds)
        assert result.passed, result.line()
    print(f"{name}: all checks passed")
    return 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_bits_hold_under_kernel(kernel):
    src = str(Path(lrbev.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, __file__, kernel], env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode == _SKIP:
        pytest.skip(f"this build or CPU cannot run the {kernel} kernel: "
                    f"{proc.stdout.strip()}")
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    sys.exit(_check(sys.argv[1]))
