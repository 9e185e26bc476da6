"""Frame benchmark for lrbev.

One workload per process, one client in a closed loop: each frame starts
only after the previous one returned, as in ``lrbev run`` or a sequential
keyframe loop. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload desk --seed 0 --seconds 60 --trace 1
    python3 perfbench/run.py                 # every workload, one process each
    python3 perfbench/run.py --smoke         # one frame each, checks metric names
    python3 perfbench/run.py --write-reference

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
run untraced and half traced and reports the per-layer metrics plus the
tracing overhead. See README.md.
"""
import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PASSES = 3
TAIL_CAP = 0.9

END_TO_END = {"frame_ms_p50": "ms", "frame_ms_tail": "ms", "frames_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def import_program() -> None:
    """Import lrbev from this checkout's sources."""
    src = ROOT / "src"
    if not (src / "lrbev" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lrbev sources under {src}")
    sys.path.insert(0, str(src))
    import lrbev  # noqa: F401


def import_seconds() -> float:
    """Wall time of a fresh interpreter that imports lrbev from this
    checkout: process start plus import."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import lrbev"], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=path))
    return time.perf_counter() - t


def _openblas_threads():
    """Thread count in effect in the OpenBLAS library numpy loaded."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    try:
        import threadpoolctl  # noqa: F401
        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lrbev").glob("*.py")):
        sources.update(path.read_bytes())
    return {"git_revision": _git_revision(),
            "source_sha256": sources.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": _openblas_threads(),
            "threadpoolctl": has_threadpoolctl,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}


def tail(ms_sorted: list):
    """(value, percentile, frames beyond it): the highest percentile, up to
    the 90th, with at least ten frames beyond it; the slowest frame when
    there are fewer than 11. Above p90 the value tracks the host's stalls
    rather than the program (README.md)."""
    n = len(ms_sorted)
    if n <= 10:
        return ms_sorted[-1], 100.0, 0
    i = min(n - 11, math.ceil(TAIL_CAP * n) - 1)
    return ms_sorted[i], 100.0 * (i + 1) / n, n - 1 - i


def measure(wl, state, seconds, outputs, tracer=None, negative=False) -> list:
    """Closed loop over the scene set for ``seconds``, at least one frame.
    Returns (scene, seconds, output key or None, error or None) per frame.
    Outputs are collected after each frame's timer stops; ``outputs`` keeps
    one checkable value per distinct output key, so memory does not grow
    with the frame count."""
    records = []
    scenes = state["scenes"]
    start = time.perf_counter()
    handle = None
    while True:
        sid = scenes[len(records) % len(scenes)]
        if tracer is not None:
            tracer.set_frame(len(records))
            root = tracer.open("frame")
        t = time.perf_counter()
        try:
            handle = wl.frame(state, sid)
            error = None
        except Exception as e:  # a failed frame is counted, not fatal
            error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.close(root)
        key = None
        if error is None:
            try:
                out = wl.collect(state, handle)
                key = out.key
                outputs.setdefault(key, out.value)
            except Exception as e:
                error = f"collecting outputs: {type(e).__name__}: {e}"
        records.append((sid, dt, key, error))
        if time.perf_counter() - start >= seconds:
            break
    if negative and records[-1][3] is None:
        sid, dt, _, _ = records[-1]
        out = wl.collect(state, handle, perturb=True)
        outputs[out.key] = out.value
        records[-1] = (sid, dt, out.key, None)
    return records


def check(records, outputs: dict, reference: dict, output_matches) -> list:
    """One message per failed frame: it raised, its outputs differ from an
    earlier frame of the same scene, or they disagree with the reference."""
    first, verdict, problems = {}, {}, []
    for sid, _, key, error in records:
        if error is not None:
            problems.append(f"scene {sid}: {error}")
            continue
        if first.setdefault(sid, key) != key:
            problems.append(f"scene {sid}: output differs from an earlier frame")
            continue
        if (sid, key) not in verdict:
            ref = reference.get(str(sid))
            verdict[sid, key] = ref is not None and output_matches(outputs[key], ref)
        if not verdict[sid, key]:
            problems.append(f"scene {sid}: output disagrees with the reference")
    return problems


def frame_stats(records) -> dict:
    ms = sorted(1000.0 * dt for _, dt, _, _ in records)
    completed = sum(1 for r in records if r[3] is None)
    value, pct, beyond = tail(ms)
    return {"frames": len(ms), "p50": statistics.median(ms), "tail": value,
            "tail_pct": pct, "tail_beyond": beyond,
            "fps": completed / sum(dt for _, dt, _, _ in records)}


def run_workload(args) -> int:
    import_program()
    import tracing
    import workloads as W
    if args.workload not in W.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}, "
                 f"expected one of {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[args.workload]
    if wl.name == "paper-l2r":
        W.guard_memory()
    reference = json.loads((HERE / "reference.json").read_text())[wl.name]
    workdir = OUT / f"work-{wl.name}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    instr = tracing.Instrumentation(tracer) if tracer else None
    try:
        if instr:
            instr.install()
        setups = []
        for i in range(SETUP_PASSES):
            shutil.rmtree(workdir, ignore_errors=True)
            if tracer:
                tracer.set_frame(f"setup{i}")
                root = tracer.open("setup")
            t = time.perf_counter()
            state = wl.setup(workdir, args.seed)
            build = time.perf_counter() - t
            if tracer:
                tracer.close(root)
            setups.append(import_seconds() + build)
        setup_s = statistics.median(setups)
        outputs = {}
        if instr:
            instr.uninstall()
            untraced = measure(wl, state, args.seconds / 2, outputs)
            instr.install()
            traced = measure(wl, state, args.seconds / 2, outputs, tracer,
                             args.negative_control)
            instr.uninstall()
            records = untraced + traced
        else:
            records = measure(wl, state, args.seconds, outputs,
                              negative=args.negative_control)
        problems = check(records, outputs, reference, W.output_matches)
        spot = wl.spot_check(state, args.seed)
    finally:
        if instr:
            instr.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(environment(), sort_keys=True))
    for p in problems[:5] + spot:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted, failed = len(records), len(problems)
    if tracer:
        s_u, s_t = frame_stats(untraced), frame_stats(traced)
        values = tracing.layer_metrics(tracer, range(s_t["frames"]),
                                       [f"setup{i}" for i in range(SETUP_PASSES)],
                                       "frame")
        values["trace.frames_per_s.untraced"] = s_u["fps"]
        values["trace.frames_per_s.traced"] = s_t["fps"]
        values["trace.overhead"] = s_u["fps"] / s_t["fps"] - 1.0
        units = tracing.layer_metric_units(wl.layers)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        tracer.dump(trace_path)
        print(f"{wl.name} seed {args.seed}: {s_u['frames']} untraced and "
              f"{s_t['frames']} traced frames; spans in {trace_path.relative_to(ROOT)}")
    else:
        s = frame_stats(records)
        values = {"frame_ms_p50": s["p50"], "frame_ms_tail": s["tail"],
                  "frames_per_s": s["fps"], "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
        print(f"{wl.name} seed {args.seed}: scenes {state['scenes']}, "
              f"{s['frames']} frames; frame_ms_tail is p{s['tail_pct']:.1f} "
              f"({s['tail_beyond']} of {s['frames']} frames slower)")
    print(f"frames_failed_ratio {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} frames)")
    result = {"correct": failed == 0 and not spot, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


def spawn(workload: str, seed: int, seconds: float, trace: int,
          negative: bool = False):
    """Run one workload in a fresh process; (stdout lines, result or None)."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if negative:
        cmd.append("--negative-control")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        return lines, None
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    import_program()
    import workloads as W
    status = 0
    for name in W.WORKLOADS:
        lines, result = spawn(name, args.seed, args.seconds, args.trace,
                              args.negative_control)
        print("\n".join(f"  {line}" for line in lines if not line.startswith("env ")))
        if result is None:
            print(f"{name}: FAILED to run")
            status = 1
            continue
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} frames={result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {name:10s} {metric:34s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            print(f"  {name:10s} {'frames_failed_ratio':34s} {ratio:14.6g} ratio")
    return status


def smoke() -> int:
    """One frame per workload in both modes, plus the negative control."""
    import_program()
    import tracing
    import workloads as W
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)

    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == END_TO_END, "BENCHMARK.json end_to_end differs from run.py")
    expect(layer == tracing.layer_metric_units(),
           "BENCHMARK.json per_layer differs from tracing.py")
    expect({w["name"] for w in bench["workloads"]} <= set(W.WORKLOADS),
           "BENCHMARK.json names a workload workloads.py lacks")
    for name, wl in W.WORKLOADS.items():
        for trace, units in ((0, END_TO_END), (1, tracing.layer_metric_units(wl.layers))):
            _, result = spawn(name, 0, 0, trace)
            if result is None:
                problems.append(f"{name} trace {trace}: no result")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == units, f"{name} trace {trace}: metric names or units differ")
            expect(result["correct"] and result["failed"] == 0,
                   f"{name} trace {trace}: outputs failed the checks")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace and name == "desk":
                expect(m["trace.layer_share"] >= 0.95,
                       f"desk layer self times cover {m['trace.layer_share']:.3f} of a frame")
    _, neg = spawn("tiny", 0, 0, 0, negative=True)
    expect(neg is not None and neg["failed"] >= 1 and not neg["correct"],
           "negative control: a perturbed output was not counted as failed")
    for p in problems:
        print(f"smoke: {p}")
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def write_reference() -> int:
    """Digest every pool scene's outputs into reference.json."""
    import_program()
    import workloads as W
    doc = {}
    for name, wl in W.WORKLOADS.items():
        workdir = OUT / f"reference-{name}"
        try:
            ids = list(range(wl.pool))
            state = wl.setup(workdir, 0, ids)
            doc[name] = {str(sid): wl.collect(state, wl.frame(state, sid)).value
                         for sid in ids}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(ids)} scenes")
    (HERE / "reference.json").write_text(_reference_text(doc))
    return 0


def _reference_text(doc: dict) -> str:
    """JSON with one line per scene, so a changed scene shows as one line."""
    blocks = []
    for name, scenes in sorted(doc.items()):
        body = ",\n".join(f"  {json.dumps(sid)}: {json.dumps(v, sort_keys=True)}"
                          for sid, v in sorted(scenes.items(), key=lambda kv: int(kv[0])))
        blocks.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload in this process")
    p.add_argument("--seed", type=int, default=0, help="workload seed (>= 0)")
    p.add_argument("--seconds", type=float, default=60.0,
                   help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--negative-control", action="store_true",
                   help="perturb the last frame's outputs; it must count as failed")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.smoke:
        return smoke()
    if args.write_reference:
        return write_reference()
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
