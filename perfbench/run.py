"""smoothtta benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload eval-h96 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 1

Run it from the repository root. It writes a seeded CSV stream for the
workload, sets the program up, drives it for ``--seconds`` and checks every
output. It prints a readable summary and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in its own process and also checks the
predictions that span workloads. Scratch files live in ``.perfbench_work``
and are removed; span dumps of traced runs go to ``.perfbench_out``.

End-to-end metrics (medians over the run; the summary states sample counts):

setup_s                median of SETUP_REPEATS fresh interpreters, each timed
                       from importing smoothtta through fit-backbone (online:
                       also train-decoder and loading the models)
train_s                wall time of train-decoder (online: in those set-ups)
rollout_windows_per_s  eval: n_windows from the manifest over the wall time of
                       one CLI rollout; online: windows over the summed step
                       latencies of one pass
grid_s                 wall time of the two-point contaminate grid (online: the
                       grid that serves as its offline reference)
window_ms_p50          latency of one per-window step: each pass's median over
                       its windows, averaged over the run's passes of the same
                       stream (online passes, or eval replay passes)
window_ms_p99          the same steps' p99 over windows, where each window's
                       latency is its median over the run's passes
peak_rss_mb            ru_maxrss of the workload process after set-up and its
                       first cycle (eval) or pass (online)
mse_corrected          mean corrected MSE over test windows
"""

import os

# BLAS threads are fixed before numpy loads: the same for every run, <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
sys.path[:0] = [str(REPO), str(SRC)]

from perfbench import checks  # noqa: E402
from perfbench.workloads import WORKLOADS, write_stream  # noqa: E402

SETUP_REPEATS = 3
WORK_ROOT = REPO / ".perfbench_work"
TRACE_OUT = REPO / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "rollout_windows_per_s": "1/s",
    "grid_s": "s",
    "window_ms_p50": "ms",
    "window_ms_p99": "ms",
    "peak_rss_mb": "MB",
    "mse_corrected": "1",
}

PER_LAYER = {
    "backbones.predict.calls": "count",
    "backbones.predict.self_s": "s",
    "backbones.fit.self_s": "s",
    "data.load_csv.calls": "count",
    "data.load_csv.self_s": "s",
    "paramio.io.self_s": "s",
    "boundary.period.calls": "count",
    "boundary.period.self_s": "s",
    "boundary.build.self_s": "s",
    "boundary.contaminate.calls": "count",
    "boundary.contaminate.self_s": "s",
    "chain.operator.calls": "count",
    "chain.operator.self_s": "s",
    "chain.operator.cache_hit_ratio": "1",
    "local.solve.calls": "count",
    "local.solve.self_s": "s",
    "decoder.decode.calls": "count",
    "decoder.decode.self_s": "s",
    "decoder.decode.macs": "MAC",
    "decoder.gradcheck.calls": "count",
    "decoder.gradcheck.self_s": "s",
    "decoder.gradcheck.train_share": "1",
    "decoder.train.self_s": "s",
    "memory.update.calls": "count",
    "memory.update.self_s": "s",
    "memory.context.self_s": "s",
    "fusion.fuse.self_s": "s",
    "fusion.apply.self_s": "s",
    "rollout.engine.self_s": "s",
    "rollout.correct_window.self_s": "s",
    "rollout.trainset.self_s": "s",
    "rollout.write.self_s": "s",
    "rollout.windows": "count",
    "protocols.grid.self_s": "s",
    "cli.main.self_s": "s",
    "phase.setup.unattributed_s": "s",
    "phase.cycle.unattributed_s": "s",
    "trace.overhead_frac": "1",
}


def git_commit() -> str:
    # The ceiling stops git from reporting an enclosing repository's commit.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(REPO.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def setup_in_child(wl, csv_path: Path, work: Path) -> dict:
    """One set-up in a fresh interpreter, so each sample includes the import."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), json.dumps(dataclasses.asdict(wl)),
         str(csv_path), str(work)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up of {wl.name} failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _median_or_zero(values) -> float:
    return checks.median(values) if values else 0.0


def timed_run(wl, seed: int, seconds: float, work: Path, csv_path: Path):
    """Untraced run: end-to-end metrics and the operation tally."""
    setups = [setup_in_child(wl, csv_path, work / f"setup{k}") for k in range(SETUP_REPEATS)]
    from perfbench import harness, online

    last = work / f"setup{SETUP_REPEATS - 1}"
    art = harness.Artifacts(backbone=last / "backbone.params")
    if wl.online:
        art.decoder = last / "decoder.params"
        art.session = online.open_session(wl, csv_path, art.backbone, art.decoder)

    tally, samples, passes = checks.Tally(), harness.Samples(), []
    deadline = time.perf_counter() + seconds
    peak_rss_mb = None
    while peak_rss_mb is None or time.perf_counter() < deadline:
        if wl.online:
            res = online.run_pass(art.session)
            samples.window_passes.append(res.latency_s)
            done = [x for x in res.latency_s if math.isfinite(x)]
            if done:
                samples.rollout_windows_per_s.append(len(done) / sum(done))
            passes.append(res)
        else:
            harness.eval_cycle(wl, csv_path, work, art, samples, tally)
        if peak_rss_mb is None:  # one cycle's peak, whatever the cycle count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if wl.online:
        samples.train_s = [s["train_s"] for s in setups]
        reference = harness.offline_reference(wl, csv_path, work, art, samples, tally)
        for res in passes:
            harness.check_pass(art.session, res, reference, tally, "online window")
        finite = [m for m in passes[0].mse_corrected if math.isfinite(m)]
        samples.mse_corrected = statistics.fmean(finite) if finite else None
    harness.check_canary(work / "canary", tally)

    window_ms = [1000.0 * s for s in checks.per_window_medians(samples.window_passes)]
    values = {
        "setup_s": checks.median([s["setup_s"] for s in setups]),
        "train_s": _median_or_zero(samples.train_s),
        "rollout_windows_per_s": _median_or_zero(samples.rollout_windows_per_s),
        "grid_s": _median_or_zero(samples.grid_s),
        "window_ms_p50": (1000.0 * checks.mean_of_pass_medians(samples.window_passes)
                          if window_ms else 0.0),
        "window_ms_p99": checks.percentile(window_ms, 99) if window_ms else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "mse_corrected": samples.mse_corrected if samples.mse_corrected is not None else 0.0,
    }
    counts = {
        "setup_s": len(setups),
        "train_s": len(samples.train_s),
        "rollout_windows_per_s": len(samples.rollout_windows_per_s),
        "grid_s": len(samples.grid_s),
        "window_ms_p50": f"{len(window_ms)} windows x {len(samples.window_passes)} passes",
        "window_ms_p99": f"{len(window_ms)} windows x {len(samples.window_passes)} passes",
    }
    return values, counts, tally


def _layer_values(tracer, tracing) -> dict:
    out = dict(tracer.counts)
    for name, t in tracing.layer_totals(tracer.spans).items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]
    own = tracing.self_times(tracer.spans)
    out["train.gradcheck_s"] = sum(
        s for rec, s in zip(tracer.spans, own) if rec[0] == "decoder.gradcheck" and rec[4] == "train"
    )
    out["train.wall_s"] = sum(
        rec[2] - rec[1] for rec in tracer.spans if rec[0] == "cli.main" and rec[4] == "train"
    )
    return out


def traced_run(wl, seed: int, seconds: float, work: Path, csv_path: Path):
    """Traced run: set-up once, then traced/untraced cycle pairs until time is up.

    Per-layer values are the set-up's plus the median over traced cycles, so
    counts repeat exactly. The overhead is the median traced cycle time over
    the median untraced one, minus one. Each pair starts with its traced
    cycle, so whatever the first cycle builds is seen being built.
    """
    from perfbench import harness, online, tracing

    seen: dict = {}
    setup_tracer = tracing.Tracer(seen)
    patch = tracing.install(setup_tracer)
    try:
        rec = setup_tracer.open("phase.setup")
        art = harness.setup(wl, csv_path, work / "setup", setup_tracer)
        setup_tracer.close(rec)
    finally:
        patch.restore()

    tally, samples, passes = checks.Tally(), harness.Samples(), []

    def cycle(tracer):
        if wl.online:
            passes.append(online.run_pass(art.session, tracer))
        else:
            harness.eval_cycle(wl, csv_path, work, art, samples, tally, tracer)

    untraced, traced, tracers = [], [], []
    deadline = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < deadline:
        tracer = tracing.Tracer(seen)
        patch = tracing.install(tracer)
        try:
            t0 = time.perf_counter()
            rec = tracer.open("phase.cycle")
            cycle(tracer)
            tracer.close(rec)
            traced.append(time.perf_counter() - t0)
        finally:
            patch.restore()
        tracers.append(tracer)
        t0 = time.perf_counter()
        cycle(None)
        untraced.append(time.perf_counter() - t0)

    if wl.online:
        reference = harness.offline_reference(wl, csv_path, work, art, samples, tally)
        for res in passes:
            harness.check_pass(art.session, res, reference, tally, "online window")
    harness.check_canary(work / "canary", tally)

    TRACE_OUT.mkdir(exist_ok=True)
    dump = TRACE_OUT / f"spans-{wl.name}-s{seed}.csv"
    dump.unlink(missing_ok=True)
    tracing.write_spans(dump, setup_tracer.spans, "setup")
    for k, tracer in enumerate(tracers):
        tracing.write_spans(dump, tracer.spans, f"cycle{k}")

    base = _layer_values(setup_tracer, tracing)
    per_cycle = [_layer_values(t, tracing) for t in tracers]
    keys = set(base).union(*per_cycle)
    v = {k: base.get(k, 0.0) + checks.median([c.get(k, 0.0) for c in per_cycle]) for k in keys}
    calls = v.get("chain.operator.calls", 0)
    v["chain.operator.cache_hit_ratio"] = v.get("chain.operator.hits", 0) / calls if calls else 0.0
    wall = v.get("train.wall_s", 0.0)
    v["decoder.gradcheck.train_share"] = v.get("train.gradcheck_s", 0.0) / wall if wall else 0.0
    v["phase.setup.unattributed_s"] = v.get("phase.setup.self_s", 0.0)
    v["phase.cycle.unattributed_s"] = v.get("phase.cycle.self_s", 0.0)
    v["trace.overhead_frac"] = checks.median(traced) / checks.median(untraced) - 1.0
    values = {name: float(v.get(name, 0.0)) for name in PER_LAYER}
    counts = {"cycles": len(tracers)}
    print(f"span dump: {dump}")
    return values, counts, tally


def _self(m, *names):
    return sum(m[f"{n}.self_s"] for n in names)


PREDICTIONS = (
    (
        "eval-h96: self time of boundary.*, local.solve, memory.*, fusion.* and "
        "rollout.engine exceeds decoder.decode",
        ("eval-h96",),
        lambda r: _self(r["eval-h96"], "boundary.period", "boundary.build", "boundary.contaminate",
                        "local.solve", "memory.update", "memory.context", "fusion.fuse",
                        "fusion.apply", "rollout.engine") > _self(r["eval-h96"], "decoder.decode"),
    ),
    (
        "eval-h720: decoder.decode plus backbones.predict exceeds local.solve plus memory.update",
        ("eval-h720",),
        lambda r: _self(r["eval-h720"], "decoder.decode", "backbones.predict")
        > _self(r["eval-h720"], "local.solve", "memory.update"),
    ),
    (
        "decoder.gradcheck takes a larger share of train-decoder on eval-h720 than on eval-h96",
        ("eval-h720", "eval-h96"),
        lambda r: r["eval-h720"]["decoder.gradcheck.train_share"]
        > r["eval-h96"]["decoder.gradcheck.train_share"],
    ),
)


def report_predictions(per_workload: dict) -> None:
    for text, needs, holds in PREDICTIONS:
        if all(n in per_workload for n in needs):
            print(f"prediction {'holds' if holds(per_workload) else 'FAILED'}: {text}")


def _metrics_json(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    print(f"workload {wl.name}: {wl.why}")
    print("environment " + json.dumps(env, sort_keys=True))
    work = WORK_ROOT / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    try:
        work.mkdir(parents=True)
        csv_path = work / "stream.csv"
        write_stream(csv_path, wl.length, args.seed)
        run = traced_run if args.trace else timed_run
        values, counts, tally = run(wl, args.seed, args.seconds, work, csv_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"  {name:34s} {values[name]:.6g} {unit}{n}")
    if args.trace:
        print(f"  traced cycles: {counts['cycles']}")
        report_predictions({wl.name: values})
    print(f"operations attempted {tally.attempted} failed {tally.failed}")
    for line in tally.report():
        print(f"  {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _metrics_json(values, units),
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then the cross-workload predictions."""
    results, metrics = {}, {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=REPO, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"[{name}] exited with code {proc.returncode} and no result")
            correct = False
            continue
        result = json.loads(lines[-1])
        results[name] = {k: m["value"] for k, m in result["metrics"].items()}
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    if args.trace:
        report_predictions(results)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smoothtta" / "__init__.py").is_file():
        print(f"error: no smoothtta package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
