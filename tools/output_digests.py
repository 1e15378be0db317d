"""Output digests: one sha256 per output file and per stdout of eight CLI commands.

Runs fit-backbone, train-decoder, rollout, contaminate (ratios 0, 0.1, 0.5),
ablate, sparse-anchor, sparse-boundary and sweep (prefix 2 and fft) in-process
on a `perfbench.workloads` stream, or on the benchmark's canary geometry, and
prints one line per output file and per stdout:

    <sha256>  <command>/<file>

The commands run in a fresh temporary directory on relative paths, so no
output names that directory, and each manifest is hashed without its `timing`
block, which holds wall-clock seconds. Two listings taken at two commits show
whether a change kept every output byte. BLAS runs on one thread, as in the
benchmark. `--root` names the checkout whose `src` and `perfbench` are
imported, so one copy of this script can list an older commit. Nothing under
`perfbench/` is written.

    python3 tools/output_digests.py --workload eval-h96 --seed 901 > new.txt
    python3 tools/output_digests.py --root ../old --workload eval-h96 --seed 901 > old.txt
    python3 tools/output_digests.py --diff old.txt new.txt
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def commands(wl, csv_path: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(name, argv) of the eight commands, in order; later ones read the first two's files."""
    H = wl.horizon
    args = wl.cli_args(csv_path, out)
    backbone, decoder = out / "backbone.params", out / "decoder.params"
    trained = args + ["--backbone", str(backbone), "--decoder", str(decoder)]
    support = min(36, H // 2)
    return [
        ("fit-backbone", ["fit-backbone", *args, "--out", str(backbone)]),
        ("train-decoder", ["train-decoder", *args, "--backbone", str(backbone),
                           "--out", str(decoder)]),
        ("rollout", ["rollout", *trained]),
        ("contaminate", ["contaminate", *trained, "--ratios", "0,0.1,0.5"]),
        ("ablate", ["ablate", *trained]),
        ("sparse-anchor", ["sparse-anchor", *trained, "--support", str(support),
                           "--eval", f"{support + 1}:{min(H, support + 24)}"]),
        ("sparse-boundary", ["sparse-boundary", *trained, "--near", f"1:{H // 4}",
                             "--far", f"{H - H // 4 + 1}:{H}"]),
        ("sweep", ["sweep", *trained, "--parameter", "prefix", "--grid", "2,fft"]),
    ]


def _file_digest(path: Path) -> str:
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        if isinstance(payload, dict) and "timing" in payload:
            payload.pop("timing")
            return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def listing(cli, wl, seed: int, write_stream, work: Path) -> list[str]:
    """`<sha256>  <command>/<file>` lines for every output and stdout of the eight commands,
    run with `work` as the working directory."""
    os.chdir(work)
    csv_path, out = Path("stream.csv"), Path("out")
    write_stream(csv_path, wl.length, seed)
    out.mkdir()
    lines = []
    for name, argv in commands(wl, csv_path, out):
        before = {p for p in out.rglob("*") if p.is_file()}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"{name} exited {rc}")
        lines.append(f"{hashlib.sha256(stdout.getvalue().encode()).hexdigest()}  {name}/stdout")
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p not in before):
            lines.append(f"{_file_digest(path)}  {name}/{path.relative_to(out).as_posix()}")
    return lines


def diff(old_path: Path, new_path: Path) -> int:
    """Print every entry whose digest differs or that only one listing holds; 1 if any."""
    old, new = ({key: digest for digest, key in (line.split("  ", 1) for line in
                 Path(p).read_text().splitlines() if line)} for p in (old_path, new_path))
    changed = [k for k in old if k in new and old[k] != new[k]]
    for key in changed:
        print(f"differs: {key}")
    for key in sorted(set(old) ^ set(new)):
        print(f"only in {'old' if key in old else 'new'}: {key}")
    same = len(old.keys() & new.keys()) - len(changed)
    print(f"{same} of {len(old.keys() | new.keys())} entries identical")
    return int(same != len(old.keys() | new.keys()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", help="a perfbench workload name, or 'canary'")
    group.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                       help="compare two listings")
    parser.add_argument("--seed", type=int, default=901, help="stream seed")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src and perfbench are imported")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import harness, workloads
    from smoothtta import cli

    wl = harness.CANARY if args.workload == "canary" else workloads.WORKLOADS[args.workload]
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="smoothtta-digests-") as work:
        try:
            lines = listing(cli, wl, args.seed, workloads.write_stream, Path(work))
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
