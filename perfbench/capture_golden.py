"""Re-capture the canary's golden files from the program as it is now.

    python3 perfbench/capture_golden.py

Run from the repository root, only when a change to the program's outputs
is intended; the benchmark then checks every later run against the new
capture.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO), str(REPO / "src")]

from perfbench import harness  # noqa: E402


def main() -> int:
    work = REPO / ".perfbench_work" / "capture"
    try:
        files, errors = harness.canary_outputs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if errors or len(files) != len(harness.GOLDEN_FILES):
        print("\n".join(errors) or "canary outputs missing", file=sys.stderr)
        return 1
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in files.items():
        (harness.GOLDEN_DIR / name).write_text(text)
        print(f"wrote {harness.GOLDEN_DIR.relative_to(REPO) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
