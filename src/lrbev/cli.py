"""Command-line harness.

Subcommands: ``generate`` (scene -> cloud files), ``run`` (clouds ->
detections + stats), ``eval`` (detections + ground truth -> metrics JSON),
``check`` (property/oracle suite), ``dump-map`` (any intermediate feature
map -> .blrm).

Exit codes: 0 success, 1 validation error, 2 property failure,
3 I/O or format error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import cloudio
from .config import PipelineConfig, config_for_scale
from .errors import ConfigError, FormatError, LrbevError
from .evalmetrics import eval_detections
from .faults import FAULTS
from .pipeline import (detections_to_jsonl, generate_clouds,
                       read_detections_jsonl, run_pipeline)
from .synth import Scene

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PROPERTY = 2
EXIT_IO = 3

MAP_STAGES = ("m_l", "m_r", "enhanced", "fused", "encoded", "heatmap")


def _add_config_flags(sub):
    sub.add_argument("--config", type=Path, default=None,
                     help="pipeline config JSON (overrides --scale)")
    sub.add_argument("--scale", choices=("desk", "paper", "tiny"), default="desk",
                     help="built-in config scale (default: desk)")
    sub.add_argument("--seed", type=int, default=None, help="scene seed")
    sub.add_argument("--radar-variant", choices=("a", "b"), default=None,
                     help="radar record variant override")


def _resolve_config(args) -> PipelineConfig:
    if args.config is not None:
        cfg = PipelineConfig.from_json(args.config)
    else:
        cfg = config_for_scale(args.scale)
    if getattr(args, "radar_variant", None):
        cfg.radar_variant = args.radar_variant
    if getattr(args, "seed", None) is not None:
        cfg.seeds.scene = args.seed
    cfg.validate()
    return cfg


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scene, lidar, radar = generate_clouds(cfg, cfg.seeds.scene)
    cloudio.write_cloud(lidar, out / "lidar.blrf")
    cloudio.write_cloud(radar, out / "radar.blrf")
    (out / "scene.json").write_text(json.dumps(scene.to_dict(), indent=1,
                                               sort_keys=True))
    cfg.to_json(out / "config.json")
    print(f"wrote {len(lidar)} lidar points, {len(radar)} radar returns, "
          f"{len(scene.objects)} objects to {out}")
    return EXIT_OK


def _load_clouds(args):
    indir = Path(args.indir or ".")
    lidar = cloudio.read_cloud(args.lidar or indir / "lidar.blrf")
    radar = cloudio.read_cloud(args.radar or indir / "radar.blrf")
    return lidar, radar


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    lidar, radar = _load_clouds(args)
    result = run_pipeline(cfg, lidar, radar)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "detections.jsonl").write_text(detections_to_jsonl(result.detections))
    (out / "stats.json").write_text(json.dumps(result.stats, indent=1,
                                               sort_keys=True))
    print(f"{len(result.detections)} detections; stats in {out / 'stats.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    detections = read_detections_jsonl(args.detections)
    scene = Scene.from_dict(json.loads(Path(args.truth).read_text()))
    result = eval_detections(detections, scene.objects)
    doc = result.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(json.dumps(doc, indent=1, sort_keys=True))
    return EXIT_OK


def cmd_check(args) -> int:
    # Imported here: the suite pulls in every module's oracles, which
    # ``lrbev run`` has no use for.
    from .oracles import oracle_suite
    results = oracle_suite(seeds=args.seeds, fault=args.fault)
    failed = 0
    for r in results:
        print(r.line())
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} properties passed")
    return EXIT_PROPERTY if failed else EXIT_OK


def cmd_dump_map(args) -> int:
    cfg = _resolve_config(args)
    if args.lidar or args.indir is not None:
        lidar, radar = _load_clouds(args)
    else:
        _, lidar, radar = generate_clouds(cfg, cfg.seeds.scene)
    result = run_pipeline(cfg, lidar, radar)
    m = result.maps[args.stage]
    cloudio.write_feature_map(m, args.out)
    print(f"wrote {args.stage} map {m.channels}x{m.height}x{m.width} to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrbev",
        description="Deterministic LiDAR-radar BEV fusion pipeline harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("generate", help="synthesize a scene and write cloud files")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn="cmd_generate")

    p = subs.add_parser("run", help="run the pipeline on cloud files")
    _add_config_flags(p)
    p.add_argument("--in", dest="indir", default=".",
                   help="directory holding lidar.blrf / radar.blrf")
    p.add_argument("--lidar", default=None, help="explicit lidar cloud path")
    p.add_argument("--radar", default=None, help="explicit radar cloud path")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn="cmd_run")

    p = subs.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, help="detections.jsonl path")
    p.add_argument("--truth", required=True, help="scene.json path")
    p.add_argument("--out", default=None, help="optional eval.json path")
    p.set_defaults(fn="cmd_eval")

    p = subs.add_parser("check", help="run the oracle/property suite")
    p.add_argument("--seeds", type=int, default=25,
                   help="seeds per property (default 25)")
    p.add_argument("--fault", choices=FAULTS, default=None,
                   help="inject a deliberate defect (negative control)")
    p.set_defaults(fn="cmd_check")

    p = subs.add_parser("dump-map", help="dump an intermediate feature map")
    _add_config_flags(p)
    p.add_argument("--in", dest="indir", default=None,
                   help="directory holding lidar.blrf / radar.blrf (default: "
                        "generate the clouds from the config)")
    p.add_argument("--lidar", default=None)
    p.add_argument("--radar", default=None)
    p.add_argument("--stage", choices=MAP_STAGES, required=True)
    p.add_argument("--out", required=True, help="output .blrm path")
    p.set_defaults(fn="cmd_dump_map")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # Looked up by name on each call, so a wrapped or patched handler
        # takes effect even though the parser is built once.
        return globals()[args.fn](args)
    except ConfigError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO
    except LrbevError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
