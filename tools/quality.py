"""Quality ledger: correction quality over stream and decoder seeds, as a JSON block.

Runs the command-line program in-process on the benchmark's eval streams
(eval-h96 and eval-h720 from `perfbench.workloads`, stream seeds 901-903) with
decoder seeds 0 and 1, and records per run:

- `improvement_unrevealed` of `rollout`;
- the all-step `improvement` of every `ablate` variant;
- at contamination ratios 0.1, 0.3 and 0.5, the unrevealed `mse_corrected`
  and the `degradation` against the clean run, (mse_r - mse_0) / mse_0;
- the `sparse-anchor` improvement at ratios 0.05, 0.10 and 0.20 of its
  36-step support (2, 4 and 7 anchors).

Each number's mean, min and max over the six runs of a stream go to the
"quality" block of the output file; other blocks in it are kept. BLAS runs on
one thread, as in the benchmark. About a minute on 2 cores.

    python3 tools/quality.py --out BENCH_<n>.json
    python3 tools/quality.py --diff BENCH_<old>.json BENCH_<new>.json
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from smoothtta import cli  # noqa: E402

STREAMS = ("eval-h96", "eval-h720")
STREAM_SEEDS = (901, 902, 903)
CLI_SEEDS = (0, 1)
CONTAMINATION = (0.1, 0.3, 0.5)
ANCHOR_RATIOS = (0.05, 0.10, 0.20)


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}")


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _aggregates(path: Path) -> dict:
    return json.loads(path.read_text())["aggregates"]


def run_once(wl, csv_path: Path, backbone: Path, cli_seed: int, out: Path) -> dict:
    """The ledger's numbers for one stream and one decoder seed."""
    args = wl.cli_args(csv_path, out) + ["--seed", str(cli_seed), "--backbone", str(backbone)]
    out.mkdir(parents=True)
    decoder = out / "decoder.params"
    _run(["train-decoder", *args, "--out", str(decoder)])
    args += ["--decoder", str(decoder)]
    _run(["rollout", *args])
    record = {"improvement_unrevealed": _aggregates(out / "rollout" / "manifest.json")[
        "improvement_unrevealed"]}
    _run(["ablate", *args])
    for row in _rows(out / "ablate" / "summary.csv"):
        record[f"ablate.{row['variant']}.improvement"] = float(row["improvement"])
    _run(["contaminate", *args, "--ratios", ",".join(map(str, (0, *CONTAMINATION)))])
    mse = {float(row["ratio"]): float(row["mse_corrected"])
           for row in _rows(out / "contaminate" / "contamination.csv")}
    for r in CONTAMINATION:
        aggregates = _aggregates(out / "contaminate" / f"manifest_ratio_{r:g}.json")
        record[f"contaminate.{r:g}.mse_corrected_unrevealed"] = aggregates[
            "mse_corrected_unrevealed"]
        record[f"contaminate.{r:g}.degradation"] = (mse[r] - mse[0.0]) / mse[0.0]
    _run(["sparse-anchor", *args, "--ratios", ",".join(f"{r:.2f}" for r in ANCHOR_RATIOS)])
    for row in _rows(out / "sparse-anchor" / "summary.csv"):
        record[f"sparse_anchor.{float(row['ratio']):g}.improvement"] = float(row["improvement"])
    return record


def ledger(work: Path) -> dict:
    """The quality block: every run's numbers, and their mean and range per stream."""
    runs, summary = [], {}
    for name in STREAMS:
        wl = workloads.WORKLOADS[name]
        records = []
        for stream_seed in STREAM_SEEDS:
            csv_path = work / f"{name}-{stream_seed}.csv"
            workloads.write_stream(csv_path, wl.length, stream_seed)
            backbone = work / f"{name}-{stream_seed}.backbone"
            _run(["fit-backbone", *wl.cli_args(csv_path, work), "--out", str(backbone)])
            for cli_seed in CLI_SEEDS:
                started = time.perf_counter()
                out = work / f"{name}-{stream_seed}-{cli_seed}"
                record = run_once(wl, csv_path, backbone, cli_seed, out)
                records.append(record)
                runs.append({"workload": name, "stream_seed": stream_seed,
                             "cli_seed": cli_seed, **record})
                print(f"{name} stream {stream_seed} seed {cli_seed}: improvement_unrevealed "
                      f"{record['improvement_unrevealed']:+.4f} "
                      f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)
        summary[name] = {
            key: {"mean": statistics.fmean(r[key] for r in records),
                  "min": min(r[key] for r in records),
                  "max": max(r[key] for r in records)}
            for key in records[0]
        }
    return {"stream_seeds": list(STREAM_SEEDS), "cli_seeds": list(CLI_SEEDS),
            "summary": summary, "runs": runs}


def diff(old_path: Path, new_path: Path) -> None:
    """Print each summary mean of two ledgers, side by side with their difference."""
    old, new = (json.loads(Path(p).read_text())["quality"]["summary"] for p in (old_path, new_path))
    print(f"{'stream':<10} {'number':<48} {'old':>10} {'new':>10} {'change':>10}")
    for name in sorted(set(old) | set(new)):
        for key in sorted(set(old.get(name, {})) | set(new.get(name, {}))):
            a, b = (s.get(name, {}).get(key, {}).get("mean") for s in (old, new))
            change = f"{b - a:+10.4f}" if a is not None and b is not None else f"{'-':>10}"
            cells = (f"{x:10.4f}" if x is not None else f"{'-':>10}" for x in (a, b))
            print(f"{name:<10} {key:<48} {' '.join(cells)} {change}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", type=Path, help="JSON file whose 'quality' block is written")
    group.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                       help="compare the summary means of two ledgers")
    args = parser.parse_args(argv)
    if args.diff:
        diff(*args.diff)
        return 0
    with tempfile.TemporaryDirectory(prefix="smoothtta-quality-") as work:
        block = ledger(Path(work))
    document = json.loads(args.out.read_text()) if args.out.exists() else {}
    document["quality"] = block
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
