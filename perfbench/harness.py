"""Workload operations: set-up, the offline eval cycle, the online pass, checks.

Offline operations drive ``smoothtta.cli.main`` in-process, exactly as a
shell user would with the same arguments; the online pass uses the public
per-window API (see ``online.py``). Every operation is counted in a
``checks.Tally``; an exception, a non-zero exit code or a failed check
counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

from . import checks, online
from .workloads import Workload, write_stream

cli = import_module("smoothtta.cli")

# Reduced eval geometry on a fixed seed, pinned to files captured with
# capture_golden.py; it runs in every workload after the timed phase.
CANARY = Workload(
    name="canary", why="fixed-seed golden capture",
    lookback=24, horizon=24, stride=1, length=800, split="0.5:0.25:0.25",
    online=False, rollout_repeats=1, replay_passes=0,
)
CANARY_SEED = 1729
GRID_RATIOS = "0,0.1"  # two-point contamination grid: ratio 0 and one nonzero ratio
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_FILES = {
    "canary_rollout_metrics.csv": ("rollout", "metrics.csv"),
    "canary_contamination.csv": ("contaminate", "contamination.csv"),
}


class SetupError(RuntimeError):
    """The program could not be set up; no operation can be measured."""


@dataclass
class CliResult:
    rc: int
    seconds: float
    stdout: str
    stderr: str

    def note(self) -> str:
        return f"rc {self.rc} {self.stderr.strip()[-300:]}"


def call_cli(argv: list[str]) -> CliResult:
    """Run ``smoothtta.cli.main(argv)`` in-process and time it."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught traceback is a failed operation, not a crash
        rc = 1
        err.write(traceback.format_exc())
    return CliResult(rc, time.perf_counter() - t0, out.getvalue(), err.getvalue())


def _op(tracer, name: str) -> None:
    if tracer is not None:
        tracer.op = name


@dataclass
class Artifacts:
    backbone: Path
    decoder: Path | None = None
    train_s: float | None = None
    session: online.Session | None = None


def setup(wl: Workload, csv_path: Path, work: Path, tracer=None) -> Artifacts:
    """fit-backbone; for the online workload also train-decoder and the load."""
    work.mkdir(parents=True, exist_ok=True)
    args = wl.cli_args(csv_path, work / "out")
    art = Artifacts(backbone=work / "backbone.params")
    _op(tracer, "setup:fit")
    res = call_cli(["fit-backbone", *args, "--out", str(art.backbone)])
    if res.rc != 0:
        raise SetupError("fit-backbone: " + res.note())
    if wl.online:
        art.decoder = work / "decoder.params"
        _op(tracer, "train")
        res = call_cli(["train-decoder", *args, "--backbone", str(art.backbone),
                        "--out", str(art.decoder)])
        if res.rc != 0:
            raise SetupError("train-decoder: " + res.note())
        art.train_s = res.seconds
        _op(tracer, "setup:load")
        art.session = online.open_session(wl, csv_path, art.backbone, art.decoder)
    return art


@dataclass
class Samples:
    train_s: list[float] = field(default_factory=list)
    rollout_windows_per_s: list[float] = field(default_factory=list)
    grid_s: list[float] = field(default_factory=list)
    window_passes: list[list[float]] = field(default_factory=list)  # step latencies per pass
    mse_corrected: float | None = None
    rollout_csv: bytes | None = None  # first rollout's metrics.csv, the run's reference


def check_pass(session: online.Session, res: online.PassResult, reference: str | None,
               tally: checks.Tally, what: str) -> None:
    """Count each window of a per-window pass, checked against an offline CSV.

    A window passes when its corrected MSE equals the offline rollout's,
    its |delta| stays within correction_clip, and both paths corrected it
    with the memory version a leakage-safe schedule allows: every earlier
    window whose horizon has elapsed, and none whose horizon has not.
    """
    starts = session.window_starts()
    expected = checks.elapsed_counts(starts, session.config.horizon)
    clip = session.config.solver.correction_clip
    if reference is None:
        for i in range(len(starts)):
            tally.record(False, what, "no offline reference to compare with")
        return
    ref_start = checks.column(reference, "start", int)
    ref_mse = checks.column(reference, "mse_corrected")
    ref_version = checks.column(reference, "memory_version", int)
    if ref_start != starts:
        for i in range(len(starts)):
            tally.record(False, what, "offline windows differ from the online ones")
        return
    for i in range(len(starts)):
        ok = (
            checks.close(res.mse_corrected[i], ref_mse[i])
            and res.max_abs_delta[i] <= clip
            and res.memory_versions[i] == expected[i] == ref_version[i]
        )
        tally.record(ok, what, f"w{i}: mse {res.mse_corrected[i]!r} vs offline {ref_mse[i]!r}, "
                               f"|delta| {res.max_abs_delta[i]!r}, memory version "
                               f"{res.memory_versions[i]}/{ref_version[i]}, allowed {expected[i]}")


def eval_cycle(wl: Workload, csv_path: Path, work: Path, art: Artifacts,
               samples: Samples, tally: checks.Tally, tracer=None) -> None:
    """train-decoder, repeated rollout, the contamination grid, then replay passes."""
    out = work / "out"
    args = wl.cli_args(csv_path, out)
    decoder_path = work / "decoder.params"
    models = ["--backbone", str(art.backbone), "--decoder", str(decoder_path)]

    _op(tracer, "train")
    res = call_cli(["train-decoder", *args, "--backbone", str(art.backbone),
                    "--out", str(decoder_path)])
    if tally.record(res.rc == 0, "train-decoder", res.note()):
        samples.train_s.append(res.seconds)

    for k in range(wl.rollout_repeats):
        _op(tracer, f"rollout{k}")
        res = call_cli(["rollout", *args, *models])
        ok = res.rc == 0
        if ok:
            try:
                text = (out / "rollout" / "metrics.csv").read_bytes()
                manifest = json.loads((out / "rollout" / "manifest.json").read_text())
                n_windows = manifest["n_windows"]
                mse = manifest["aggregates"]["mse_corrected"]
            except (OSError, ValueError, KeyError) as exc:
                ok, res.stderr = False, f"unreadable rollout output: {exc!r}"
        if ok:
            if samples.rollout_csv is None:
                samples.rollout_csv, samples.mse_corrected = text, mse
            ok = text == samples.rollout_csv
            samples.rollout_windows_per_s.append(n_windows / res.seconds)
        tally.record(ok, "rollout (rc 0, metrics.csv repeats byte for byte)", res.note())

    _op(tracer, "grid")
    run_grid(args, models, samples, tally)

    if wl.replay_passes:
        _op(tracer, "replay:load")
        session = online.open_session(wl, csv_path, art.backbone, decoder_path)
        reference = samples.rollout_csv.decode() if samples.rollout_csv else None
        for _ in range(wl.replay_passes):
            res = online.run_pass(session, tracer)
            samples.window_passes.append(res.latency_s)
            check_pass(session, res, reference, tally, "replay window")


def run_grid(args: list[str], models: list[str], samples: Samples,
             tally: checks.Tally) -> bool:
    """The contamination grid via the CLI; its ratio-0 entry must equal zero-shot base."""
    res = call_cli(["contaminate", *args, *models, "--ratios", GRID_RATIOS])
    try:
        ok = res.rc == 0 and json.loads(res.stdout)["zero_shot_identical"] is True
    except (ValueError, KeyError) as exc:
        ok, res.stderr = False, f"unreadable contaminate output: {exc!r}"
    if tally.record(ok, "contaminate (rc 0, zero_shot_identical)", res.note()):
        samples.grid_s.append(res.seconds)
    return ok


def offline_reference(wl: Workload, csv_path: Path, work: Path, art: Artifacts,
                      samples: Samples, tally: checks.Tally) -> str | None:
    """Online workload: the contamination grid of the same stream, via the CLI.

    Its ratio-0 entry is a plain offline rollout, the reference for the
    online passes.
    """
    out = work / "out"
    models = ["--backbone", str(art.backbone), "--decoder", str(art.decoder)]
    if not run_grid(wl.cli_args(csv_path, out), models, samples, tally):
        return None
    return (out / "contaminate" / "metrics_ratio_0.csv").read_text()


def canary_outputs(work: Path) -> tuple[dict[str, str], list[str]]:
    """Run the fixed-seed canary through the CLI; its output files and errors."""
    work.mkdir(parents=True, exist_ok=True)
    csv_path = work / "canary.csv"
    write_stream(csv_path, CANARY.length, CANARY_SEED)
    out = work / "out"
    args = CANARY.cli_args(csv_path, out)
    bb, dec = str(work / "backbone.params"), str(work / "decoder.params")
    errors = []
    for argv in (
        ["fit-backbone", *args, "--out", bb],
        ["train-decoder", *args, "--backbone", bb, "--out", dec],
        ["rollout", *args, "--backbone", bb, "--decoder", dec],
        ["contaminate", *args, "--backbone", bb, "--decoder", dec, "--ratios", GRID_RATIOS],
    ):
        res = call_cli(argv)
        if res.rc != 0:
            errors.append(f"canary {argv[0]}: " + res.note())
    files = {}
    for name, (sub, fname) in GOLDEN_FILES.items():
        path = out / sub / fname
        if path.exists():
            files[name] = path.read_text()
    return files, errors


def check_canary(work: Path, tally: checks.Tally) -> None:
    """One operation per golden file: the canary output must match it."""
    files, errors = canary_outputs(work)
    for name in GOLDEN_FILES:
        golden = (GOLDEN_DIR / name).read_text()
        problems = errors + (checks.compare_csv(files[name], golden) if name in files
                             else [f"{name} was not written"])
        tally.record(not problems, f"golden {name}", "; ".join(problems[:3]))
