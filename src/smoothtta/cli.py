"""Command-line interface.

Subcommands: fit-backbone, train-decoder, rollout, ablate, contaminate,
sparse-boundary, sparse-anchor, sweep, bench, dump-schedule. Exit codes:
0 success, 2 configuration error (also a setting whose arrays numpy cannot
allocate), 3 data error, 4 contract violation (leakage, frozen-parameter
breach, a decoder gradient check that fails, or decoder training whose loss
turns non-finite). The SMOOTHTTA_DATA environment variable supplies a
directory against which relative --data paths resolve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import backbones as bb
from . import decoder as dec
from .config import ABLATION_SWITCHES, ConfigError, RolloutConfig, apply_overrides, load_config_file
from .data import DataError, load_csv, split_dataset
from .fusion import FusionSchedule, schedule_table
from .protocols import (
    CONTAMINATION_RATIOS,
    bench_latency,
    run_ablation,
    run_contamination_grid,
    run_sparse_anchor,
    run_sparse_boundary,
    run_sweep,
)
from .rollout import (
    ContractViolation,
    rollout,
    train_decoder_for,
    write_manifest,
    write_metrics_csv,
    write_rows,
)

DATA_ENV = "SMOOTHTTA_DATA"


def _resolve_data(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_ENV)
    if root and not p.is_absolute():
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    raise DataError(f"dataset {path!r} not found (also tried ${DATA_ENV})")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="CSV path (see SMOOTHTTA_DATA)")
    parser.add_argument("--policy", default="drop-row", choices=["drop-row", "forward-fill"])
    parser.add_argument("--split", default="standard", help="preset name or a:b:c ratios")
    parser.add_argument("--lookback", type=int, default=96)
    parser.add_argument("--horizon", type=int, default=96)
    parser.add_argument("--stride", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prefix", default="fft", help="'fft' or a fixed length")
    parser.add_argument("--max-windows", type=int, default=None)
    parser.add_argument("--memory-schedule", default="safe", choices=["safe", "immediate"])
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    parser.add_argument("--no-standardize", action="store_true")
    parser.add_argument("--normalize-backbone", action="store_true",
                        help="per-window normalization wrapper around the backbone")
    parser.add_argument("--backbone", default=None, help="fitted backbone parameter file")
    parser.add_argument("--decoder", default=None, help="trained decoder parameter file")
    parser.add_argument("--ridge", type=float, default=1e-3, help="backbone ridge strength")
    for switch in ABLATION_SWITCHES:
        parser.add_argument("--" + switch.replace("_", "-"), action="store_true")
    parser.add_argument("--out-dir", default="runs")


def _build_config(args) -> RolloutConfig:
    cfg = RolloutConfig(
        lookback=args.lookback,
        horizon=args.horizon,
        stride=args.stride,
        seed=args.seed,
        standardize=not args.no_standardize,
        memory_schedule=args.memory_schedule,
        max_windows=args.max_windows,
    )
    cfg.set_prefix(args.prefix)
    overrides = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        k, v = item.split("=", 1)
        overrides[k.strip()] = v.strip()
    if overrides:
        apply_overrides(cfg, overrides)
    for switch in ABLATION_SWITCHES:
        setattr(cfg.solver, switch, getattr(args, switch) or getattr(cfg.solver, switch))
    cfg.validate()
    return cfg


def _parse_list(spec: str, convert, flag: str, sep: str = ",", count: int | None = None):
    """The `sep`-separated items of `spec` through `convert`; ConfigError naming `flag` if bad."""
    try:
        items = tuple(convert(x) for x in spec.split(sep))
    except ValueError as exc:
        raise ConfigError(f"--{flag} {spec!r}: {exc}") from None
    if count is not None and len(items) != count:
        raise ConfigError(f"--{flag} expects {count} {sep!r}-separated values, got {spec!r}")
    return items


def _load_dataset(args, cfg: RolloutConfig):
    ds = load_csv(_resolve_data(args.data), policy=args.policy)
    split = _parse_list(args.split, float, "split", ":", 3) if ":" in args.split else args.split
    split_dataset(ds, split, min_span=cfg.lookback + cfg.horizon)
    if cfg.standardize:
        ds = ds.standardized()
    return ds


def _load_artifact(loader, path, what: str):
    try:
        return loader(path)
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad {what} file {path!r}: {exc}") from exc


def _prepare(args, need_decoder: bool = True):
    """Dataset, frozen backbone, and (when needed and asked for) a trained decoder."""
    cfg = _build_config(args)
    ds = _load_dataset(args, cfg)
    if args.backbone:
        backbone = _load_artifact(bb.load_backbone, args.backbone, "backbone")
        fitted = (backbone.lookback, backbone.horizon, backbone.channels)
        if fitted != (cfg.lookback, cfg.horizon, ds.channels):
            raise ConfigError(
                f"backbone was fitted for (L, H, d) = {fitted}, run asks for "
                f"{(cfg.lookback, cfg.horizon, ds.channels)}"
            )
    else:
        backbone = bb.fit_linear_backbone(ds.part("train"), cfg.lookback, cfg.horizon, args.ridge)
    if args.normalize_backbone:
        backbone = bb.NormalizationWrapper(backbone)

    decoder_params = None
    if need_decoder and cfg.solver.schedule().global_mix > 0:
        if args.decoder:
            decoder_params = _load_artifact(dec.load_params, args.decoder, "decoder")
            trained = (decoder_params.horizon, decoder_params.context_size)
            if trained != (cfg.horizon, cfg.solver.context_size):
                raise ConfigError(
                    f"decoder was trained for (H, context_size) = {trained}, run asks for "
                    f"{(cfg.horizon, cfg.solver.context_size)}"
                )
        else:
            decoder_params, _ = train_decoder_for(backbone, ds, cfg)
    return cfg, ds, backbone, decoder_params


def _out_dir(args, name: str) -> Path:
    out = Path(args.out_dir) / name
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_fit_backbone(args) -> int:
    cfg = _build_config(args)
    ds = _load_dataset(args, cfg)
    backbone = bb.fit_linear_backbone(ds.part("train"), cfg.lookback, cfg.horizon, args.ridge)
    bb.save_backbone(backbone, args.out)
    print(f"fitted linear backbone (L={cfg.lookback}, H={cfg.horizon}, d={ds.channels}) -> {args.out}")
    return 0


def cmd_train_decoder(args) -> int:
    cfg, ds, backbone, _ = _prepare(args, need_decoder=False)
    params, trace = train_decoder_for(backbone, ds, cfg)
    dec.save_params(params, args.out, channels=ds.channels)
    print(f"trained decoder ({params.count()} parameters) -> {args.out}")
    print("loss trace: " + ", ".join(f"{x:.6f}" for x in trace))
    return 0


def cmd_rollout(args) -> int:
    cfg, ds, backbone, decoder_params = _prepare(args)
    report = rollout(backbone, ds, cfg, decoder_params)
    out = _out_dir(args, "rollout")
    write_metrics_csv(report, out / "metrics.csv")
    write_manifest(report, out / "manifest.json")
    agg = report.aggregate()
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    print(f"improvement over zero-shot: {agg.get('improvement', 0.0):+.2%}")
    return 0


def cmd_ablate(args) -> int:
    cfg, ds, backbone, decoder_params = _prepare(args)
    reports = run_ablation(backbone, ds, cfg, decoder_params)
    out = _out_dir(args, "ablate")
    summary = []
    for name, report in reports.items():
        write_metrics_csv(report, out / f"metrics_{name}.csv")
        summary.append(report.summary_row(variant=name))
    write_rows(summary, out / "summary.csv")
    print(json.dumps(summary, indent=2))
    return 0


def _parse_ratios(spec: str) -> tuple[float, ...]:
    """Distinct ratios in [0, 1] whose `metrics_ratio_{r:g}.csv` names differ too."""
    ratios = _parse_list(spec, float, "ratios")
    if any(not 0.0 <= r <= 1.0 for r in ratios):
        raise ConfigError(f"ratios must lie in [0, 1], got {spec!r}")
    names = [f"{r:g}" for r in ratios]
    if len(set(ratios)) < len(ratios) or len(set(names)) < len(names):
        raise ConfigError(f"--ratios {spec!r} repeats a ratio or a file name ({', '.join(names)})")
    return ratios


def cmd_contaminate(args) -> int:
    ratios = _parse_ratios(args.ratios) if args.ratios else CONTAMINATION_RATIOS
    if 0 not in ratios or not any(ratios):
        raise ConfigError(f"--ratios must hold 0 and a nonzero ratio, got {args.ratios!r}")
    cfg, ds, backbone, decoder_params = _prepare(args)
    summary = run_contamination_grid(backbone, ds, cfg, decoder_params, ratios)
    out = _out_dir(args, "contaminate")
    rows = summary.table()
    for row in rows:
        row["degradation"] = summary.degradation
    write_rows(rows, out / "contamination.csv")
    for r, rep in summary.reports.items():
        write_metrics_csv(rep, out / f"metrics_ratio_{r:g}.csv")
    print(json.dumps({"degradation": summary.degradation,
                      "zero_shot_identical": summary.zero_shot_identical,
                      "rows": rows}, indent=2))
    return 0


def _parse_steps(spec: str, horizon: int, what: str) -> tuple[int, int]:
    lo, hi = _parse_list(spec, int, what, ":", 2)
    if not 1 <= lo <= hi <= horizon:
        raise ConfigError(
            f"--{what} range {spec} does not fit inside the horizon {horizon}"
        )
    return lo, hi


def cmd_sparse_boundary(args) -> int:
    cfg, ds, backbone, decoder_params = _prepare(args)
    if not 0 <= args.k < cfg.horizon:
        raise ConfigError(f"--k {args.k} must lie in [0, horizon={cfg.horizon})")
    if cfg.prefix_mode == "fixed":
        raise ConfigError("--k fixes the prefix; drop --prefix N and prefix_mode=fixed")
    near = _parse_steps(args.near, cfg.horizon, "near")
    far = _parse_steps(args.far, cfg.horizon, "far")
    report = run_sparse_boundary(
        backbone, ds, cfg, decoder_params, k=args.k, near_steps=near, far_steps=far
    )
    out = _out_dir(args, "sparse-boundary")
    write_metrics_csv(report, out / "metrics.csv")
    write_manifest(report, out / "manifest.json")
    print(json.dumps(report.extra, indent=2, sort_keys=True))
    return 0


def cmd_sparse_anchor(args) -> int:
    ratios = _parse_ratios(args.ratios)
    cfg, ds, backbone, decoder_params = _prepare(args)
    if not 1 <= args.support < cfg.horizon:
        raise ConfigError(
            f"--support {args.support} must lie inside the horizon {cfg.horizon}"
        )
    eval_steps = _parse_steps(args.eval, cfg.horizon, "eval")
    out = _out_dir(args, "sparse-anchor")
    rows = []
    for r in ratios:
        report = run_sparse_anchor(
            backbone, ds, cfg, decoder_params,
            ratio=r, support=args.support, eval_steps=eval_steps,
        )
        write_metrics_csv(report, out / f"metrics_ratio_{r:g}.csv")
        rows.append(report.summary_row(ratio=r))
    write_rows(rows, out / "summary.csv")
    print(json.dumps(rows, indent=2))
    return 0


def _prefix_spec(spec: str) -> str:
    cfg = RolloutConfig()
    cfg.set_prefix(spec)  # raises ConfigError unless 'fft' or an integer
    cfg.validate()  # and unless the integer is >= 0
    return spec


def cmd_sweep(args) -> int:
    convert = _prefix_spec if args.parameter == "prefix" else float
    grid = _parse_list(args.grid, convert, "grid") if args.grid else None
    cfg, ds, backbone, decoder_params = _prepare(args)
    rows = run_sweep(backbone, ds, cfg, decoder_params, args.parameter, grid)
    out = _out_dir(args, "sweep")
    write_rows(rows, out / "sweep.csv")
    print(json.dumps(rows, indent=2, default=str))
    return 0


def cmd_bench(args) -> int:
    floors = {"channels": 1, "batch": 1, "reps": 1, "prefix_len": 1, "seed": 0}
    for flag, least in floors.items():
        value = getattr(args, flag)
        if value < least:
            raise ConfigError(f"--{flag.replace('_', '-')} must be >= {least}, got {value}")
    horizons = _parse_list(args.horizons, int, "horizons")
    if min(horizons) < 2:
        raise ConfigError(f"--horizons entries must be >= 2, got {args.horizons!r}")
    results = bench_latency(
        horizons=horizons,
        batch=args.batch,
        channels=args.channels,
        prefix=args.prefix_len,
        repetitions=args.reps,
        seed=args.seed,
    )
    rows = [
        {
            "horizon": r.horizon,
            "ms_per_batch": r.ms_per_batch,
            "ms_per_window": r.ms_per_window,
            "windows_per_second": r.windows_per_second,
            "variance": r.ms_per_batch_var,
            "decoder_parameters": r.decoder_parameters,
            "decoder_macs_per_window": r.decoder_macs_per_window,
        }
        for r in results
    ]
    write_rows(rows, _out_dir(args, "bench") / "bench.csv")
    print(json.dumps(rows, indent=2))
    return 0


def cmd_dump_schedule(args) -> int:
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    fields = {  # FusionSchedule field -> (flag, value)
        "global_mix": ("--global-mix", args.global_mix),
        "ramp_sharpness": ("--ramp-sharpness", args.ramp_sharpness),
        "ramp_midpoint": ("--ramp-midpoint", args.ramp_midpoint),
        "correction_clip": ("--clip", args.clip),
    }
    for name, (flag, value) in fields.items():
        try:
            FusionSchedule(**{name: value})  # checks this one value
        except ValueError as exc:
            raise ConfigError(f"{flag}: {exc}") from None
    schedule = FusionSchedule(**{name: value for name, (_, value) in fields.items()})
    rows = schedule_table(schedule, args.horizon)
    write_rows(rows, Path(args.out))
    print(
        f"wrote {len(rows)} steps (transition at step {schedule.transition_step(args.horizon)}) -> {args.out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothtta",
        description="Prefix-boundary test-time correction for frozen forecasters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-backbone", help="ridge-fit the frozen linear backbone")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_backbone)

    p = sub.add_parser("train-decoder", help="train the global decoder offline")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_decoder)

    p = sub.add_parser("rollout", help="delayed-revelation evaluation rollout")
    _add_common(p)
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("ablate", help="shared-checkpoint test-time ablations")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("contaminate", help="prefix-outlier robustness grid")
    _add_common(p)
    p.add_argument("--ratios", default=None, help="comma list, default 0,0.01,0.05,0.1,0.2")
    p.set_defaults(func=cmd_contaminate)

    p = sub.add_parser("sparse-boundary", help="k revealed points, near/far fields")
    _add_common(p)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--near", default="4:27", help="1-indexed inclusive near-field steps")
    p.add_argument("--far", default="73:96", help="1-indexed inclusive far-field steps")
    p.set_defaults(func=cmd_sparse_boundary)

    p = sub.add_parser("sparse-anchor", help="sparse anchors in a support window")
    _add_common(p)
    p.add_argument("--ratios", default="0.05,0.10,0.20")
    p.add_argument("--support", type=int, default=36, help="support window length")
    p.add_argument("--eval", default="37:60", help="1-indexed inclusive eval steps")
    p.set_defaults(func=cmd_sparse_anchor)

    p = sub.add_parser("sweep", help="sensitivity sweep over one parameter")
    _add_common(p)
    p.add_argument("--parameter", required=True,
                   choices=["memory_decay", "smoothness_alpha", "prefix"])
    p.add_argument("--grid", default=None, help="comma list overriding the default grid")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="correction-engine rollout latency on synthetic windows")
    p.add_argument("--horizons", default="96,192,336,720")
    p.add_argument("--batch", type=int, default=48)
    p.add_argument("--channels", type=int, default=7)
    p.add_argument("--prefix-len", type=int, default=4)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="runs")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dump-schedule", help="fusion ramp and share table as CSV")
    p.add_argument("--horizon", type=int, default=96)
    p.add_argument("--global-mix", type=float, default=0.7)
    p.add_argument("--ramp-sharpness", type=float, default=8.0)
    p.add_argument("--ramp-midpoint", type=float, default=0.25)
    p.add_argument("--clip", type=float, default=2.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dump_schedule)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the refused allocation
        print(f"configuration error: {exc or 'out of memory'}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ContractViolation, dec.GradientCheckError, dec.TrainingDivergedError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
