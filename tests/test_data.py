import numpy as np
import pytest

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
