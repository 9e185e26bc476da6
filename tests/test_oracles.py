"""Property-suite registry: coverage, ordering, fault plumbing."""

import pytest

from lrbev.errors import ConfigError
from lrbev.oracles import PROPERTIES, oracle_suite

# every module's declared invariants must be represented
REQUIRED = [
    "eval.sanity",
    "grids.index-oracle", "grids.permutation", "grids.segment-oracle",
    "grids.sparsity",
    "heads.channel-contract", "heads.decode-roundtrip",
    "heads.focal-monotonicity", "heads.grad-loss", "heads.tiled-oracle",
    "heads.worker-oracle",
    "l2r.ball-query-oracle", "l2r.bev-query-oracle", "l2r.cell-features-oracle",
    "l2r.height-sensitivity",
    "l2r.non-overlap", "l2r.pseudo-count", "l2r.query-locality",
    "l2r.segment-heights",
    "nn.conv-identity", "nn.conv-oracle", "nn.grad-conv", "nn.grad-max",
    "nn.grad-mlp", "nn.max-permutation",
    "pipeline.determinism",
    "scene.accumulate", "scene.determinism", "scene.doppler",
]


def test_registry_covers_declared_invariants():
    for name in REQUIRED:
        assert name in PROPERTIES


def test_suite_passes_and_is_sorted():
    results = oracle_suite(seeds=3)
    names = [r.name for r in results]
    assert names == sorted(names)
    assert len(results) >= len(REQUIRED)
    for r in results:
        assert r.passed, r.line()
        assert r.checked > 0


def test_fault_hits_only_its_target():
    results = oracle_suite(seeds=2, fault="ball-radius-r")
    failing = {r.name for r in results if not r.passed}
    assert failing == {"l2r.non-overlap"}


def test_unknown_fault_rejected():
    with pytest.raises(ConfigError, match="fault"):
        oracle_suite(seeds=1, fault="gremlins")
