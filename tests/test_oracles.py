"""Property-suite registry: coverage, ordering, fault plumbing, and the
per-seed harness every property of the common shape runs through."""

import numpy as np
import pytest

from lrbev import oracles
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
    "pipeline.determinism", "pipeline.worker-oracle",
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


@pytest.fixture
def registry(monkeypatch):
    """A copy of the registry, so the properties a test defines stay out of
    the suite."""
    props = dict(PROPERTIES)
    monkeypatch.setattr(oracles, "PROPERTIES", props)
    return props


def test_every_check_in_the_module_is_registered():
    checks = {name: fn for name, fn in vars(oracles).items() if name.startswith("check_")}
    assert len(checks) == len(PROPERTIES)
    for name, fn in checks.items():
        assert fn in PROPERTIES.values(), name


def test_cap_limits_the_seeds_run_and_checked(registry):
    seen = []

    @oracles.per_seed("test.capped", cap=3)
    def check(s, rng, fault):
        seen.append(s)

    assert registry["test.capped"] is check
    result = check(10)
    assert (seen, result.checked, result.passed) == ([0, 1, 2], 3, True)
    seen.clear()
    assert (check(2).checked, seen) == (2, [0, 1])


def test_each_seed_draws_from_its_own_stream_generator(registry):
    draws = {}

    @oracles.per_seed("test.stream", stream=77)
    def check(s, rng, fault):
        draws[s] = rng.random(3)

    assert check(4).checked == 4
    for s in range(4):
        assert np.array_equal(draws[s], np.random.default_rng([77, s]).random(3))


def test_messages_collected_in_seed_order(registry):
    answers = [None, "one", ["two", "three"], [], "four"]
    faults = []

    @oracles.per_seed("test.messages")
    def check(s, rng, fault):
        assert rng is None
        faults.append(fault)
        return answers[s]

    result = check(5, fault="gremlins")
    assert result.failures == ["seed 1: one", "seed 2: two", "seed 2: three",
                               "seed 4: four"]
    assert (result.name, result.passed, result.checked) == ("test.messages", False, 5)
    assert faults == ["gremlins"] * 5


def test_exception_in_a_body_propagates(registry):
    @oracles.per_seed("test.raises")
    def check(s, rng, fault):
        raise ZeroDivisionError(s)

    with pytest.raises(ZeroDivisionError):
        check(1)


def test_duplicate_name_rejected(registry):
    with pytest.raises(ValueError, match="nn.grad-mlp"):
        oracles.per_seed("nn.grad-mlp")(lambda s, rng, fault: None)
    with pytest.raises(ValueError, match="l2r.non-overlap"):
        oracles.registered("l2r.non-overlap")(lambda seeds, fault=None: None)
    assert registry == PROPERTIES
