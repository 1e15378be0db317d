"""Output checks that need no import of the program.

Tolerances: per-window floats must agree within RTOL relative or ATOL
absolute. At one commit and one BLAS build the values agree exactly; the
slack only absorbs last-bit differences between BLAS kernels on other CPUs.
Integer columns (window, start, prefix length, memory version) must match
exactly.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import statistics

RTOL = 1e-9
ATOL = 1e-12


class Tally:
    """Operations attempted and failed; per kind of failure, a count and the first note."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, list] = {}

    def record(self, ok: bool, kind: str, note: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.setdefault(kind, [0, note])[0] += 1
        return ok

    def report(self) -> list[str]:
        return [f"{kind}: {n} failed, first: {note}" for kind, (n, note) in self.failures.items()]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


def read_csv_text(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def compare_csv(actual: str, golden: str) -> list[str]:
    """Differences between two metric CSVs: header, row count, then cells."""
    head_a, rows_a = read_csv_text(actual)
    head_g, rows_g = read_csv_text(golden)
    if head_a != head_g:
        return [f"header {head_a} != golden {head_g}"]
    if len(rows_a) != len(rows_g):
        return [f"{len(rows_a)} rows, golden has {len(rows_g)}"]
    problems = []
    for i, (ra, rg) in enumerate(zip(rows_a, rows_g)):
        for key, a, g in zip(head_g, ra, rg):
            if a == g:
                continue
            try:
                ok = any(c in g for c in ".eE") and close(float(a), float(g))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row {i} {key}: {a} != golden {g}")
    return problems


def column(text: str, key: str, cast=float) -> list:
    head, rows = read_csv_text(text)
    j = head.index(key)
    return [cast(r[j]) for r in rows]


def elapsed_counts(starts: list[int], horizon: int) -> list[int]:
    """For each window, how many earlier windows' horizons have fully elapsed.

    This is the memory version a leakage-safe schedule may have reached when
    the window is corrected: window j may enter the memory only once
    starts[j] + horizon <= starts[i].
    """
    return [bisect.bisect_right(starts, t - horizon) for t in starts]


def median(values) -> float:
    return float(statistics.median(values))


def per_window_medians(passes: list[list[float]]) -> list[float]:
    """Each window's median latency over repeated passes of the same stream.

    Every pass repeats the same work per window, so the median over passes
    is that step's latency without interference that hit only some passes.
    Failed steps (NaN) are left out.
    """
    out = []
    for samples in zip(*passes):
        finite = [x for x in samples if math.isfinite(x)]
        if finite:
            out.append(median(finite))
    return out


def mean_of_pass_medians(passes: list[list[float]]) -> float:
    """Mean over passes of each pass's median step latency.

    A pass's median is unmoved by spikes that hit a few steps. Averaging
    over passes, rather than taking a median, lets a run that spans the
    host's fast and slow phases land between them in proportion to the
    time spent in each, instead of snapping to whichever phase held most
    passes. Failed steps (NaN) are left out.
    """
    medians = []
    for samples in passes:
        finite = [x for x in samples if math.isfinite(x)]
        if finite:
            medians.append(median(finite))
    return statistics.fmean(medians)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of the samples, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
