import logging
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.data import DataError, Dataset, load_csv, split_dataset


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_plain_numeric_csv(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    ds = load_csv(path)
    assert ds.values.shape == (3, 2)
    assert np.allclose(ds.values, [[1, 2], [3, 4], [5, 6]])
    assert ds.timestamps is None


def test_load_csv_with_header_and_timestamps(tmp_path):
    path = _write(
        tmp_path,
        "date,HUFL,OT\n2016-07-01 00:00,5.8,30.5\n2016-07-01 01:00,5.7,27.8\n",
    )
    ds = load_csv(path)
    assert ds.values.shape == (2, 2)
    assert ds.channel_names == ["HUFL", "OT"]
    assert ds.timestamps == ["2016-07-01 00:00", "2016-07-01 01:00"]


def test_drop_row_policy_removes_bad_row(tmp_path, caplog):
    path = _write(tmp_path, "1.0,2.0\nbad,4.0\n5.0,6.0\n")
    with caplog.at_level("WARNING"):
        ds = load_csv(path, policy="drop-row")
    assert ds.values.shape == (2, 2)
    assert any("dropping row" in r.message for r in caplog.records)


def test_forward_fill_policy_copies_previous(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n,4.0\n5.0,6.0\n")
    ds = load_csv(path, policy="forward-fill")
    assert ds.values.shape == (3, 2)
    assert np.allclose(ds.values[1], [1.0, 4.0])


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", " INF "])
def test_non_finite_cells_are_missing_values(tmp_path, token):
    path = _write(tmp_path, f"1.0,2.0\n{token},4.0\n5.0,6.0\n")
    assert load_csv(path, policy="drop-row").values.tolist() == [[1.0, 2.0], [5.0, 6.0]]
    filled = load_csv(path, policy="forward-fill").values.tolist()
    assert filled == [[1.0, 2.0], [1.0, 4.0], [5.0, 6.0]]


def test_non_finite_cells_do_not_make_a_header_or_a_timestamp(tmp_path):
    path = _write(tmp_path, "inf,2.0\n3.0,nan\n5.0,6.0\n")
    ds = load_csv(path, policy="drop-row")
    assert ds.values.tolist() == [[5.0, 6.0]]
    assert ds.channel_names == ["ch0", "ch1"]
    assert ds.timestamps is None


def test_empty_first_cell_is_a_missing_value_not_a_timestamp(tmp_path):
    path = _write(tmp_path, ",1.0\n2.0,3.0\n")
    ds = load_csv(path, policy="drop-row")
    assert ds.values.tolist() == [[2.0, 3.0]]
    assert ds.timestamps is None


def test_forward_fill_drops_leading_gap(tmp_path):
    path = _write(tmp_path, "2.0,\n3.0,4.0\n")
    ds = load_csv(path, policy="forward-fill")
    assert ds.values.shape == (1, 2)
    assert np.allclose(ds.values[0], [3.0, 4.0])


def test_malformed_row_reports_line_number(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match=":2"):
        load_csv(path)


def test_empty_file_rejected(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(DataError, match="empty"):
        load_csv(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_csv(tmp_path / "nope.csv")


def test_unknown_policy_rejected(tmp_path):
    path = _write(tmp_path, "1.0\n")
    with pytest.raises(DataError, match="policy"):
        load_csv(path, policy="interpolate")


def _dataset(T=1000, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(name="toy", values=rng.standard_normal((T, d)), channel_names=["a", "b"][:d])


def test_split_standard_ratios():
    ds = split_dataset(_dataset(1000), (0.7, 0.1, 0.2))
    assert ds.split.train_end == 700
    assert ds.split.val_end == 800
    assert ds.part("train").shape[0] == 700
    assert ds.part("val").shape[0] == 100
    assert ds.part("test").shape[0] == 200


def test_split_preset_window_hand_count():
    # ett preset on T=100 puts boundaries at 60 and 80; with L=10, H=5 and
    # stride 5 the test windows start at 90 and 95 -> exactly 2 windows
    ds = split_dataset(_dataset(100), "ett")
    assert ds.split.train_end == 60
    assert ds.split.val_end == 80
    lo, hi = ds.range_of("test")
    starts = list(range(lo + 10, hi - 5 + 1, 5))
    assert starts == [90, 95]


def test_split_refuses_spans_too_small_for_window():
    with pytest.raises(DataError, match="too small"):
        split_dataset(_dataset(100), (0.7, 0.1, 0.2), min_span=25)


def test_split_rejects_bad_ratios():
    with pytest.raises(DataError):
        split_dataset(_dataset(100), (0.9, 0.3, 0.2))
    with pytest.raises(DataError):
        split_dataset(_dataset(100), "nope")
    for bad in (math.nan, math.inf):
        with pytest.raises(DataError, match="finite"):
            split_dataset(_dataset(100), (bad, 0.1, 0.2))


def test_standardized_uses_train_statistics_only():
    ds = _dataset(1000, seed=3)
    ds.values[:, 0] += 5.0
    split_dataset(ds, "standard")
    std = ds.standardized()
    train = std.part("train")
    assert abs(train.mean(axis=0)).max() < 1e-12
    assert np.allclose(train.std(axis=0), 1.0, atol=1e-12)
    assert std.split is ds.split


def test_train_std_per_channel():
    ds = _dataset(500, seed=4)
    split_dataset(ds, "standard")
    manual = ds.values[:350].std(axis=0)
    assert np.allclose(ds.train_std(), manual)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dataset_rejects_a_non_finite_value(bad):
    values = np.zeros((5, 3))
    values[3, 1] = bad
    with pytest.raises(DataError, match="row 3, channel 1"):
        Dataset(name="toy", values=values, channel_names=["a", "b", "c"])


def _old_cell(text):
    try:
        return float(text)
    except ValueError:
        return None if text.strip() else math.nan


def _old_load_csv(path, policy="drop-row", name=None):
    """`load_csv` as it was before the one-pass conversion: every cell through `float`."""
    logger = logging.getLogger("smoothtta.data")
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
    has_header = any(_old_cell(c) is None for c in first[1:]) or (
        len(first) == 1 and _old_cell(first[0]) is None
    )
    header = [c.strip() for c in first] if has_header else None
    body = rows[1:] if has_header else rows
    if not body:
        raise DataError(f"{path}: no data rows")

    probe = body[0].split(",")
    has_timestamp = _old_cell(probe[0]) is None
    n_fields = len(probe)
    n_channels = n_fields - (1 if has_timestamp else 0)
    if n_channels < 1:
        raise DataError(f"{path}: no numeric channels found")

    first_line = 2 if has_header else 1
    values = np.empty((len(body), n_channels))
    stamps = []
    for row, line in enumerate(body):
        cells = line.split(",")
        if len(cells) != n_fields:
            raise DataError(
                f"{path}:{row + first_line}: expected {n_fields} fields, found {len(cells)}"
            )
        values[row] = [_old_cell(c) for c in cells[n_fields - n_channels :]]
        if has_timestamp:
            stamps.append(cells[0].strip())
    gaps = ~np.isfinite(values)
    missing = gaps.any(axis=1)
    if policy == "drop-row":
        keep, reason = ~missing, "dropping row with missing values"
    else:
        keep = np.cumsum(~missing) > 0
        reason = "dropping leading row, nothing to fill from"
    for row in np.flatnonzero(~keep).tolist():
        logger.warning("%s:%d: %s", path, row + first_line, reason)
    if not keep.any():
        raise DataError(f"{path}: every row was dropped")
    values, gaps = values[keep], gaps[keep]
    source = np.where(gaps, 0, np.arange(len(values))[:, None])
    values = values[np.maximum.accumulate(source, axis=0), np.arange(n_channels)]
    names = (
        header[1:] if (header and has_timestamp) else header
    ) or [f"ch{j}" for j in range(n_channels)]
    return Dataset(
        name=name or str(path),
        values=values,
        channel_names=list(names),
        timestamps=[t for t, k in zip(stamps, keep) if k] if has_timestamp else None,
    )


def _outcome(loader, path, policy):
    """What a loader makes of a file: the dataset's parts or the error, and its warnings."""
    warned = []
    handler = logging.Handler()
    handler.emit = lambda record: warned.append(record.getMessage())
    log = logging.getLogger("smoothtta.data")
    log.addHandler(handler)
    try:
        ds = loader(path, policy=policy)
        got = (ds.values.shape, ds.values.tobytes(), ds.channel_names, ds.timestamps, ds.name)
    except DataError as exc:
        got = ("DataError", str(exc))
    finally:
        log.removeHandler(handler)
    return got, warned


_UNCLEAN = ["", " ", "abc", "#", "#1", '"1"', "1_0", "nan", "NaN", "inf", "-Infinity",
            " 2.5 ", "1e400", "-0", "+3", ".5", "1 2", "0x10"]
_NUMBERS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _csv_texts(draw):
    channels = draw(st.integers(1, 4))
    stamp = draw(st.booleans())
    number = st.one_of(_NUMBERS.map(repr), _NUMBERS.map("{:.6f}".format),
                       st.integers(-999, 999).map(str))
    cell = number if draw(st.booleans()) else st.one_of(number, st.sampled_from(_UNCLEAN))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(["date"] * stamp + [f"c{j}" for j in range(channels)]))
    for i in range(draw(st.integers(0, 8))):
        cells = [f"t{i}"] * stamp + draw(st.lists(cell, min_size=channels, max_size=channels))
        fields = len(cells) + draw(st.sampled_from([0] * 12 + [-1, 1]))  # few: too few or many
        lines.append(",".join((cells + ["7"])[:fields]))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts(), policy=st.sampled_from(["drop-row", "forward-fill"]))
def test_load_csv_equals_the_cell_by_cell_loader(text, policy):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text)
        assert _outcome(load_csv, path, policy) == _outcome(_old_load_csv, path, policy)


def _traced_peak(loader, path):
    loader(path)  # warm: nothing first-call-only is counted
    tracemalloc.start()
    try:
        loader(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_csv_peaks_no_higher_than_the_cell_by_cell_loader(tmp_path):
    # a benchmark-sized stream: 10,000 timestamped rows of seven channels
    values = np.random.default_rng(0).standard_normal((10_000, 7)).cumsum(axis=0)
    lines = ["date," + ",".join(f"c{j}" for j in range(7))]
    lines += [f"t{i:06d}," + ",".join(f"{v:.6f}" for v in row) for i, row in enumerate(values)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    assert _traced_peak(load_csv, path) <= _traced_peak(_old_load_csv, path)


_GAPS = ["", " ", "nan", "inf", "-inf", "x"]


@st.composite
def _numeric_csv_texts(draw):
    """Small CSVs of numbers; with `gaps`, some cells are empty, non-finite or text."""
    channels = draw(st.integers(1, 4))
    stamp = draw(st.booleans())
    gaps = draw(st.booleans())
    number = st.one_of(_NUMBERS.map(repr), st.integers(-999, 999).map(str))
    cell = st.one_of(number, st.sampled_from(_GAPS)) if gaps else number
    lines = [",".join(["date"] * stamp + [f"c{j}" for j in range(channels)])]
    for i in range(draw(st.integers(1, 8))):
        lines.append(",".join([f"t{i}"] * stamp + draw(st.lists(cell, min_size=channels,
                                                                max_size=channels))))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_numeric_csv_texts(), policy=st.sampled_from(["drop-row", "forward-fill"]))
def test_a_clean_file_skips_the_gap_fill_with_the_same_outcome(text, policy):
    # the same values, names, timestamps, warnings and errors as the loader that fills
    # and gathers every file, whether or not a cell is missing
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_text(text)
        assert _outcome(load_csv, path, policy) == _outcome(_old_load_csv, path, policy)


def _read_lines(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line for line in lines if line.strip()]


def test_a_clean_file_peaks_at_its_lines_and_two_value_arrays(tmp_path):
    # the 10,000-row, 7-channel stream above: reading and splitting its lines peaks
    # at 2.19 MB. The gap fill built three (T, d) arrays beside the parsed values and
    # its kept-row copy, and peaked at 4.59 MB; a clean file now skips it (2.90 MB).
    values = np.random.default_rng(0).standard_normal((10_000, 7)).cumsum(axis=0)
    lines = ["date," + ",".join(f"c{j}" for j in range(7))]
    lines += [f"t{i:06d}," + ",".join(f"{v:.6f}" for v in row) for i, row in enumerate(values)]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    bound = _traced_peak(_read_lines, path) + 2 * values.nbytes
    assert _traced_peak(load_csv, path) <= bound
