"""The shared worker threads: the ordered map, nested maps, failures, and
the stages of a frame on them."""

import threading
import time

import numpy as np
import pytest

from lrbev import cli, l2r, parallel, pipeline
from lrbev.config import tiny_config
from lrbev.pipeline import generate_clouds, run_pipeline


def _no_pool(*args, **kwargs):
    raise AssertionError("started a pool")


def _in_thread(fn, timeout=20.0):
    """``fn()`` on a daemon thread; fails instead of hanging the suite."""
    out = {}
    thread = threading.Thread(target=lambda: out.setdefault("value", fn()),
                              daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the map did not finish"
    return out["value"]


@pytest.mark.parametrize("workers", [1, 2, 3, 5])
def test_results_in_item_order(workers):
    rng = np.random.default_rng(workers)
    delays = rng.uniform(0.0, 0.01, size=12)

    def item(k):
        time.sleep(delays[k])
        return k * k

    assert parallel.each(item, range(12), workers) == [k * k for k in range(12)]
    # With ``add``, the calling thread takes each result in item order.
    caller, added = threading.get_ident(), []

    def add(k, result):
        assert threading.get_ident() == caller
        added.append((k, result))

    assert parallel.each(item, range(12), workers, add) == []
    assert added == [(k, k * k) for k in range(12)]


def test_one_item_or_one_worker_never_starts_the_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_POOLS", {})
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    assert parallel.each(lambda k: k + 1, [4], 8) == [5]
    assert parallel.each(lambda k: k + 1, range(5), 1) == [1, 2, 3, 4, 5]
    assert parallel._POOLS == {}


def test_first_failure_in_item_order_after_started_items_finish():
    """Item 0 fails late, item 1 at once: item 0's error is raised, once no
    item is running any more, and no item starts after the failure."""
    running, started, lock = set(), [], threading.Lock()

    def item(k):
        with lock:
            running.add(k)
            started.append(k)
        try:
            if k == 0:
                time.sleep(0.2)
                raise RuntimeError("item 0")
            if k == 1:
                raise RuntimeError("item 1")
            time.sleep(0.05)
            return k
        finally:
            with lock:
                running.discard(k)

    with pytest.raises(RuntimeError, match="item 0"):
        parallel.each(item, range(40), 3)
    assert not running
    assert len(started) < 40


def test_failing_add_leaves_the_helper_free():
    """An ``add`` raises, and its traceback, with the frames of the map, is
    kept alive: the map is closed all the same, so no helper stays parked
    on it, and a later 2-worker map still runs items on the pool's helper
    thread."""
    def add(k, result):
        if k == 1:
            raise RuntimeError("add")

    with pytest.raises(RuntimeError, match="add") as raised:
        parallel.each(lambda k: time.sleep(0.005), range(40), 2, add)

    def where(k):
        time.sleep(0.02)
        return threading.get_ident()

    threads = _in_thread(lambda: parallel.each(where, range(8), 2))
    assert len(set(threads)) == 2, raised


@pytest.mark.parametrize("outer, inner", [(2, 2), (3, 3), (4, 2)])
def test_nested_maps_finish_however_busy_the_pool(outer, inner):
    """Maps called from inside pool tasks, with every pool thread busy on an
    outer item, finish with the same results as inline maps."""
    def leaf(k):
        time.sleep(0.002)
        return k + 1

    def branch(k):
        return sum(parallel.each(leaf, range(k, k + 6), inner))

    def tree():
        return parallel.each(branch, range(2 * outer), outer)

    want = [sum(range(k + 1, k + 7)) for k in range(2 * outer)]
    for _ in range(3):
        assert _in_thread(tree) == want


def test_items_follow_the_callers_error_handling():
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        parallel.each(lambda x: np.exp(np.full(3, x)), [1.0, 2.0, 1000.0, 3.0], 2)
    with np.errstate(over="ignore"):
        out = parallel.each(lambda x: np.exp(np.full(3, x)), [1.0, 1000.0], 2)
    assert np.isinf(out[1]).all()


def test_tiny_frame_never_starts_the_pool(monkeypatch):
    """A tiny map is under two R2L items high: every stage runs inline,
    even where the pool has workers to spare."""
    monkeypatch.setattr(parallel, "WORKERS", 4)
    monkeypatch.setattr(parallel, "_POOLS", {})
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", _no_pool)
    cfg = tiny_config()
    _, lidar, radar = generate_clouds(cfg, 1)
    run_pipeline(cfg, lidar, radar)
    assert parallel._POOLS == {}


@pytest.fixture(scope="module")
def desk_scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk")
    assert cli.main(["generate", "--scale", "desk", "--seed", "2",
                     "--out", str(out)]) == 0
    return out


# Where failures are injected, in program order: phase A's LiDAR and radar
# streams, then phase B's, with the stage each one's error names.
_INJECTED = {"voxel_encode": (pipeline, "voxel_encode", "grid-encoding"),
             "height_fuse": (l2r, "height_fuse", "l2r-fusion"),
             "zstack": (pipeline, "zstack_collapse", "grid-encoding"),
             "bev_fuse": (l2r, "bev_fuse", "l2r-fusion")}


@pytest.mark.parametrize("failing", [
    ("voxel_encode",), ("height_fuse",), ("zstack",), ("bev_fuse",),
    ("voxel_encode", "height_fuse"), ("zstack", "bev_fuse"),
    ("voxel_encode", "zstack"), ("voxel_encode", "bev_fuse"),
    ("height_fuse", "zstack"), ("height_fuse", "bev_fuse"),
], ids="+".join)
def test_stream_failures_match_one_worker(monkeypatch, capsys, tmp_path,
                                          desk_scene, failing):
    """Failures injected into the streams of either phase, singly, in pairs
    within a phase and in pairs across the two: the pooled run prints the
    stage and exits with the code of a one-worker run, and leaves no stage
    running. The first failure in program order wins: phase A before phase
    B, the LiDAR stream before the radar stream. The failing calls sleep
    first, so the other stream is still busy when they fail."""
    running, lock = set(), threading.Lock()

    def injected(name, fn):
        def call(*args, **kwargs):
            with lock:
                running.add(name)
            try:
                time.sleep(0.05)
                if name in failing:
                    raise RuntimeError(f"{name} injected")
                return fn(*args, **kwargs)
            finally:
                with lock:
                    running.discard(name)
        return call

    for name, (module, attr, _) in _INJECTED.items():
        monkeypatch.setattr(module, attr, injected(name, getattr(module, attr)))
    argv = ["run", "--scale", "desk", "--in", str(desk_scene),
            "--out", str(tmp_path)]
    runs = []
    for workers in (2, 1):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        code = cli.main(argv)
        runs.append((code, capsys.readouterr().err))
        assert not running
    assert runs[0] == runs[1]
    code, err = runs[0]
    assert code == cli.EXIT_VALIDATION
    first = next(name for name in _INJECTED if name in failing)
    assert f"{_INJECTED[first][2]}: {first} injected" in err
