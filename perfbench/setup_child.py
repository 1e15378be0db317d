"""Time one set-up in a fresh interpreter, from importing smoothtta onward.

    python3 perfbench/setup_child.py <workload as JSON> <csv> <work dir>

Runs the workload's set-up (see ``harness.setup``) and prints one JSON line
with ``setup_s`` and, for the online workload, ``train_s``. run.py starts
this several times per run and reports the median.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]


def main(argv: list[str]) -> int:
    from perfbench import harness  # imports smoothtta: inside the timed span
    from perfbench.workloads import Workload

    spec, csv_path, work = argv
    art = harness.setup(Workload(**json.loads(spec)), Path(csv_path), Path(work))
    print(json.dumps({"setup_s": time.perf_counter() - _T0, "train_s": art.train_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
