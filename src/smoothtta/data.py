"""Dataset ingestion and chronological splitting.

CSV layout follows the usual long-horizon benchmark convention: an optional
leading timestamp column, then one numeric column per channel. Missing or
non-numeric cells are handled by an explicit policy (drop the row or carry
the previous value forward) so ingestion stays deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)


class DataError(RuntimeError):
    """Unreadable, malformed, or insufficient data (CLI exit code 3)."""


@dataclass
class Split:
    train_end: int
    val_end: int

    def ranges(self, total: int) -> dict[str, tuple[int, int]]:
        return {
            "train": (0, self.train_end),
            "val": (self.train_end, self.val_end),
            "test": (self.val_end, total),
        }


@dataclass
class Dataset:
    name: str
    values: np.ndarray                  # (T, d)
    channel_names: list[str]
    timestamps: list[str] | None = None
    split: Split | None = None

    def __post_init__(self):
        finite = np.isfinite(self.values)
        if not finite.all():
            row, channel = (int(i) for i in np.argwhere(~finite)[0])
            raise DataError(
                f"{self.name}: non-finite value {self.values[row, channel]} "
                f"at row {row}, channel {channel}"
            )

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]

    def part(self, which: str) -> np.ndarray:
        lo, hi = self.range_of(which)
        return self.values[lo:hi]

    def range_of(self, which: str) -> tuple[int, int]:
        if self.split is None:
            raise DataError("dataset has no split boundaries yet")
        return self.split.ranges(self.length)[which]

    def train_std(self) -> np.ndarray:
        """Per-channel standard deviation of the training split."""
        return self.part("train").std(axis=0)

    def standardized(self) -> "Dataset":
        """Z-score every channel by train-split statistics (floored std)."""
        train = self.part("train")
        mu = train.mean(axis=0)
        sd = np.maximum(train.std(axis=0), 1e-8)
        return Dataset(
            name=self.name,
            values=(self.values - mu) / sd,
            channel_names=self.channel_names,
            timestamps=self.timestamps,
            split=self.split,
        )


def _cell(text: str) -> float | None:
    """A cell's number (inf and nan included), NaN when empty, None when it is text."""
    try:
        return float(text)
    except ValueError:
        return None if text.strip() else math.nan


def load_csv(path, policy: str = "drop-row", name: str | None = None) -> Dataset:
    """Parse a channels-in-columns CSV with an optional timestamp column.

    A header row, and a leading timestamp column, are recognised by a cell
    that is text rather than a number or a missing value. Empty and
    non-finite (inf, nan) data cells are missing values, as are text cells.
    policy handles rows with missing values: "drop-row" removes them with a
    logged warning, "forward-fill" copies the previous row's value (leading
    gaps are dropped). Rows with the wrong field count are a hard parse
    error carrying the line number. A file whose data cells are all numbers
    is converted by one `np.loadtxt` pass; any other, cell by cell.
    """
    if policy not in ("drop-row", "forward-fill"):
        raise DataError(f"unknown missing-value policy {policy!r}")
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise DataError(f"{path}: empty file")

    first = rows[0].split(",")
    has_header = any(_cell(c) is None for c in first[1:]) or (
        len(first) == 1 and _cell(first[0]) is None
    )
    header = [c.strip() for c in first] if has_header else None
    body = rows[1:] if has_header else rows
    if not body:
        raise DataError(f"{path}: no data rows")

    probe = body[0].split(",")
    has_timestamp = _cell(probe[0]) is None
    n_fields = len(probe)
    n_channels = n_fields - (1 if has_timestamp else 0)
    if n_channels < 1:
        raise DataError(f"{path}: no numeric channels found")

    first_line = 2 if has_header else 1
    for row, line in enumerate(body):  # loadtxt's `usecols` would drop extra fields silently
        if line.count(",") != n_fields - 1:
            raise DataError(f"{path}:{row + first_line}: expected {n_fields} fields, "
                            f"found {line.count(',') + 1}")
    lead = n_fields - n_channels
    stamps = [line.split(",", 1)[0].strip() for line in body] if has_timestamp else []
    try:  # a clean file: every data cell a number, converted in one C pass
        values = np.loadtxt(body, delimiter=",", comments=None, usecols=range(lead, n_fields),
                            ndmin=2)
    except ValueError:  # an empty, text, quoted or otherwise unclean cell: cell by cell
        values = np.empty((len(body), n_channels))
        for row, line in enumerate(body):
            values[row] = [_cell(c) for c in line.split(",")[lead:]]  # None -> NaN
    gaps = ~np.isfinite(values)
    missing = gaps.any(axis=1)
    if missing.any():  # a clean file keeps every row as parsed
        if policy == "drop-row":
            keep, reason = ~missing, "dropping row with missing values"
        else:  # fill from the first complete row on
            keep = np.cumsum(~missing) > 0
            reason = "dropping leading row, nothing to fill from"
        for row in np.flatnonzero(~keep).tolist():
            logger.warning("%s:%d: %s", path, row + first_line, reason)
        if not keep.any():
            raise DataError(f"{path}: every row was dropped")
        values, gaps = values[keep], gaps[keep]
        source = np.where(gaps, 0, np.arange(len(values))[:, None])  # last row with a value
        values = values[np.maximum.accumulate(source, axis=0), np.arange(n_channels)]
        stamps = [t for t, k in zip(stamps, keep) if k]
    names = (
        header[1:] if (header and has_timestamp) else header
    ) or [f"ch{j}" for j in range(n_channels)]
    return Dataset(
        name=name or str(path),
        values=values,
        channel_names=list(names),
        timestamps=stamps if has_timestamp else None,
    )


SPLIT_PRESETS = {
    # 12/4/4-month style chronological proportions
    "ett": (0.6, 0.2, 0.2),
    "standard": (0.7, 0.1, 0.2),
}


def split_dataset(
    dataset: Dataset,
    ratios: tuple[float, float, float] | str = "standard",
    min_span: int = 0,
) -> Dataset:
    """Attach chronological train/val/test boundaries.

    min_span guards each split against being too short to hold a single
    lookback + horizon window.
    """
    if isinstance(ratios, str):
        try:
            ratios = SPLIT_PRESETS[ratios]
        except KeyError:
            raise DataError(f"unknown split preset {ratios!r}") from None
    if not all(0 < r < math.inf for r in ratios) or sum(ratios) > 1.0 + 1e-9:
        raise DataError(f"split ratios must be positive, finite and sum to <= 1, got {ratios}")
    T = dataset.length
    train_end = int(T * ratios[0])
    val_end = train_end + int(T * ratios[1])
    test_end = T
    spans = (train_end, val_end - train_end, test_end - val_end)
    if min_span and min(spans) < min_span:
        raise DataError(
            f"split spans {spans} too small for a window of {min_span} points"
        )
    dataset.split = Split(train_end=train_end, val_end=val_end)
    return dataset
