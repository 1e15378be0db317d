import copy
import dataclasses
import importlib
import json
import re
import sys
import threading
import time
import tracemalloc
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.backbones import BiasedOracleForecaster
from smoothtta.config import (_NULLABLE, ABLATION_SWITCHES, ConfigError, RolloutConfig,
                              SolverConfig, apply_overrides)
from smoothtta.data import Dataset, Split
import smoothtta.decoder as dec
from smoothtta.decoder import (FEATURE_LAYOUT, DecoderParams, build_features, decode_batch,
                               feature_blocks, feature_rows, init_params, input_width,
                               train_decoder)
from smoothtta.fusion import fuse
from smoothtta.local import solve_local
from smoothtta.rollout import (
    ContractViolation,
    build_decoder_training_set,
    decoder_shape,
    fit_decoder,
    rollout,
    train_decoder_for,
    write_manifest,
    write_metrics_csv,
)
from smoothtta.synth import biased_oracle_fixture, seasonal_stream

from engine_cases import NanAtStarts

# the package re-exports the function `rollout` under the submodule's name
rollout_module = importlib.import_module("smoothtta.rollout")


@pytest.fixture(scope="module")
def small_fixture():
    return biased_oracle_fixture(
        horizon=16, lookback=32, channels=2, n_test_windows=25, period=8, seed=11
    )


def test_identity_when_both_branches_disabled(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.solver.local_only = True
    cfg.solver.global_only = True
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    for row in report.rows:
        assert row["mse_corrected"] == row["mse_base"]
        assert row["mae_corrected"] == row["mae_base"]


def test_local_branch_improves_on_biased_oracle(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.solver.local_only = True
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    agg = report.aggregate()
    assert agg["mse_corrected"] < agg["mse_base"]


def test_memory_version_advances_safely(small_fixture):
    fx = small_fixture
    report = rollout(fx.backbone, fx.dataset, fx.config, None)
    # with non-overlapping windows every prior window is folded before the
    # next correction, so the snapshot version equals the window index
    for row in report.rows:
        assert row["memory_version"] == row["window"]


def test_leakage_guard_fires_on_misscheduled_update(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.stride = 4                      # overlapping windows
    cfg.memory_schedule = "immediate"   # fold each window before it has elapsed
    with pytest.raises(ContractViolation, match="leak"):
        rollout(fx.backbone, fx.dataset, cfg, None)


def test_overlapping_windows_are_safe_with_default_schedule(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.stride = 4
    cfg.max_windows = 30
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    assert report.n_windows == 30
    # with stride 4 and horizon 16, window j is fully revealed before window i
    # exactly when j <= i - 4, so the snapshot version is exactly max(0, i - 3)
    for row in report.rows:
        assert row["memory_version"] == max(0, row["window"] - 3)


def test_rollout_is_deterministic(small_fixture):
    fx = small_fixture
    one = rollout(fx.backbone, fx.dataset, fx.config, None)
    two = rollout(fx.backbone, fx.dataset, fx.config, None)
    assert one.rows == two.rows


def test_flagged_nan_window_is_excluded(small_fixture):
    fx = small_fixture

    class Flaky:
        kind = "flaky"
        lookback = fx.backbone.lookback
        horizon = fx.backbone.horizon
        channels = fx.backbone.channels

        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def predict(self, X, start=None):
            self.calls += 1
            out = self.inner.predict(X, start=start)
            if self.calls == 3:
                out = out.copy()
                out[0, 0] = np.nan
            return out

        def param_digest(self):
            return self.inner.param_digest()

    flaky = Flaky(fx.backbone)
    report = rollout(flaky, fx.dataset, fx.config, None)
    assert report.n_flagged == 1
    assert report.n_windows == 25 - 1


def test_frozen_backbone_contract(small_fixture):
    fx = small_fixture

    class Drifting:
        kind = "drifting"
        lookback = fx.backbone.lookback
        horizon = fx.backbone.horizon
        channels = fx.backbone.channels

        def __init__(self):
            self.w = 0.0

        def predict(self, X, start=None):
            self.w += 1.0  # illegal online update
            return np.zeros((self.horizon, self.channels))

        def param_digest(self):
            return str(self.w)

    with pytest.raises(ContractViolation, match="backbone"):
        rollout(Drifting(), fx.dataset, fx.config, None)


def _untrained_decoder(fx):
    s = fx.config.solver
    return init_params(fx.config.horizon, s.context_size, s.hidden_dim, s.global_scale)


def _tamper(params):
    params.W1.flags.writeable = True
    params.W1[0, 0] += 1.0


def test_frozen_decoder_contract_mid_rollout(small_fixture, monkeypatch):
    fx = small_fixture
    params = _untrained_decoder(fx)
    rollout(fx.backbone, fx.dataset, fx.config, params)  # untouched: passes

    def tampering_fuse(*args, **kwargs):
        _tamper(params)
        return fuse(*args, **kwargs)

    monkeypatch.setattr(rollout_module, "fuse", tampering_fuse)
    with pytest.raises(ContractViolation, match="decoder"):
        rollout(fx.backbone, fx.dataset, fx.config, params)


def test_frozen_decoder_contract_covers_mutation_before_the_call(small_fixture):
    fx = small_fixture
    params = _untrained_decoder(fx)
    _tamper(params)
    with pytest.raises(ContractViolation, match="decoder"):
        rollout(fx.backbone, fx.dataset, fx.config, params)


def test_rollout_hashes_the_decoder_once(small_fixture, monkeypatch):
    fx = small_fixture
    params = _untrained_decoder(fx)
    calls = []
    digest = DecoderParams.digest
    monkeypatch.setattr(DecoderParams, "digest", lambda self: calls.append(self) or digest(self))
    rollout(fx.backbone, fx.dataset, fx.config, params)
    assert len(calls) == 1 and calls[0] is params


@pytest.mark.parametrize("case", ["reads", "no_memory_columns", "local_only", "no_decoder"])
def test_rollout_folds_the_memory_only_for_a_decoder_that_reads_it(small_fixture, monkeypatch,
                                                                   case):
    fx = small_fixture
    params = _untrained_decoder(fx)
    reading = rollout(fx.backbone, fx.dataset, fx.config, params)
    cfg = copy.deepcopy(fx.config)
    if case == "no_memory_columns":
        W1 = np.array(params.W1)
        W1[:, feature_blocks(params.horizon, params.context_size)["memory"].start :] = 0.0
        params = dataclasses.replace(params, W1=W1)
    elif case == "local_only":
        cfg.solver.local_only = True
    elif case == "no_decoder":
        params = None
    calls = []
    for name in ("fold_templates", "context_rows"):
        spied = getattr(rollout_module, name)
        monkeypatch.setattr(rollout_module, name,
                            lambda *a, spied=spied, name=name: calls.append(name) or spied(*a))
    report = rollout(fx.backbone, fx.dataset, cfg, params)
    folds = case == "reads"
    assert bool(calls) == folds and report.manifest["memory_folded"] == folds
    if folds:
        assert {"fold_templates", "context_rows"} == set(calls)
    # every window still reads the memory version the folding rollout gives it
    versions = [r["memory_version"] for r in report.rows]
    assert versions == [r["memory_version"] for r in reading.rows] and max(versions) > 0


def test_zero_prefix_override_reduces_to_zero_shot(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.prefix = 0
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    for row in report.rows:
        assert row["prefix_length"] == 0
        assert row["mse_corrected"] == row["mse_base"]


def test_contamination_and_anchors_cannot_be_combined(small_fixture):
    fx = small_fixture
    with pytest.raises(ValueError, match="contamination_ratio.*anchors"):
        rollout(fx.backbone, fx.dataset, fx.config, None, anchors=(12, 3),
                contamination_ratio=0.5)
    clean = rollout(fx.backbone, fx.dataset, fx.config, None, anchors=(12, 3),
                    contamination_ratio=0.0)
    assert clean.rows == rollout(fx.backbone, fx.dataset, fx.config, None, anchors=(12, 3)).rows


def test_contamination_of_zero_shot_windows_draws_nothing(small_fixture):
    cfg = copy.deepcopy(small_fixture.config)
    cfg.prefix = 0
    fx = small_fixture
    clean = rollout(fx.backbone, fx.dataset, cfg, None)
    assert rollout(fx.backbone, fx.dataset, cfg, None, contamination_ratio=0.5).rows == clean.rows


def test_fixed_prefix_mode(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.prefix = 5
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    assert all(row["prefix_length"] == 5 for row in report.rows)


def test_fixed_prefix_accepts_zero_and_rejects_none_or_negative():
    RolloutConfig(prefix=0).validate()
    for prefix in (None, -1, "-1", "x", "FFT", 2.0, True):
        with pytest.raises(ConfigError, match="prefix must be 'fft' or an integer >= 0"):
            RolloutConfig(prefix=prefix).validate()
    cfg = RolloutConfig(prefix=" 5 ")
    cfg.validate()
    assert cfg.prefix == 5  # validate stores the parsed setting


@pytest.mark.parametrize("cap", [0, -1])
def test_window_cap_below_one_is_rejected(cap):
    with pytest.raises(ConfigError, match="max_windows"):
        RolloutConfig(max_windows=cap).validate()


def test_a_negative_seed_is_rejected():
    RolloutConfig(seed=0).validate()
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        RolloutConfig(seed=-1).validate()


@pytest.mark.parametrize("pair", ["lookback=none", "horizon=", "ramp_midpoint=", "seed=none"])
def test_none_is_no_value_for_a_key_that_is_never_none(pair):
    key, raw = pair.split("=")
    with pytest.raises(ConfigError, match="cannot parse"):
        apply_overrides(RolloutConfig(), {key: raw})


def test_none_resets_a_nullable_key():
    cfg = RolloutConfig(stride=4, max_windows=3)
    apply_overrides(cfg, {"stride": "none", "max_windows": ""})
    assert cfg.stride is None and cfg.max_windows is None
    assert apply_overrides(RolloutConfig(), {"prefix": "5"}).prefix == 5
    assert apply_overrides(RolloutConfig(prefix=5), {"prefix": "fft"}).prefix == "fft"
    with pytest.raises(ConfigError, match="prefix must be"):
        apply_overrides(RolloutConfig(), {"prefix": "none"})


def test_training_set_shapes(small_fixture):
    fx = small_fixture
    feats, targets, locals_, gate = build_decoder_training_set(
        fx.backbone, fx.dataset, fx.config
    )
    H = fx.config.horizon
    K = fx.config.solver.context_size
    assert feats.shape[1] == 5 * H + 2 * K
    assert targets.shape == (feats.shape[0], H)
    assert locals_.shape == targets.shape
    assert gate.shape == (H,)
    assert feats.shape[0] % fx.dataset.channels == 0


def test_trained_decoder_improves_over_local_only(small_fixture):
    fx = small_fixture
    params, trace = train_decoder_for(fx.backbone, fx.dataset, fx.config)
    assert trace[-1] <= trace[0]
    full = rollout(fx.backbone, fx.dataset, fx.config, params).aggregate()
    cfg_local = copy.deepcopy(fx.config)
    cfg_local.solver.local_only = True
    local = rollout(fx.backbone, fx.dataset, cfg_local, params).aggregate()
    assert full["mse_corrected"] < local["mse_corrected"]
    assert full["improvement"] > local["improvement"]


def test_metrics_csv_and_manifest_round(small_fixture, tmp_path):
    fx = small_fixture
    report = rollout(fx.backbone, fx.dataset, fx.config, None)
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv(report, csv_path)
    first = csv_path.read_bytes()
    write_metrics_csv(rollout(fx.backbone, fx.dataset, fx.config, None), csv_path)
    assert csv_path.read_bytes() == first  # byte-identical given the same seed

    manifest_path = tmp_path / "manifest.json"
    write_manifest(report, manifest_path)
    import json

    payload = json.loads(manifest_path.read_text())
    assert payload["config"]["solver"]["correction_clip"] == 2.5
    assert payload["config"]["correction_units"] == "raw"
    assert "timing" in payload
    timing = payload["timing"]
    assert timing["worker_busy_seconds"] >= 0 and timing["caller_wait_seconds"] >= 0



def test_manifest_times_the_callers_correction_pass(small_fixture, tmp_path):
    fx = small_fixture
    report = rollout(fx.backbone, fx.dataset, fx.config, _untrained_decoder(fx))
    timing = report.timing
    assert 0 < timing["caller_busy_seconds"] <= timing["rollout_seconds"]
    write_manifest(report, tmp_path / "manifest.json")
    write_metrics_csv(report, tmp_path / "metrics.csv")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["timing"]["caller_busy_seconds"] == timing["caller_busy_seconds"]
    assert "busy" not in (tmp_path / "metrics.csv").read_text()

def test_manifest_records_ablation_clip():
    cfg = RolloutConfig(solver=SolverConfig(no_bound=True))
    assert cfg.manifest()["solver"]["effective_clip"] == "inf"


def test_schedule_applies_the_ablation_switches_unless_told_not_to():
    s = SolverConfig(global_mix=0.4, correction_clip=1.5, ramp_midpoint=0.3)
    plain = s.schedule()
    assert (plain.global_mix, plain.correction_clip, plain.ramp_midpoint) == (0.4, 1.5, 0.3)
    s.local_only = s.no_bound = True
    ablated = s.schedule()
    assert ablated.global_mix == 0.0
    assert ablated.correction_clip == np.inf
    raw = s.schedule(ablate=False)
    assert (raw.global_mix, raw.correction_clip) == (0.4, 1.5)


def test_correction_gain_persists_under_both_normalization_modes():
    # a regime shift after the training split leaves the frozen linear
    # backbone with systematic error; per-window normalization absorbs part
    # of it, and the correction must still improve the remainder in both modes
    from smoothtta.backbones import NormalizationWrapper, fit_linear_backbone
    from smoothtta.data import Dataset, split_dataset

    rng = np.random.default_rng(21)
    T, d, period = 3000, 2, 24
    t = np.arange(T)[:, None]
    drift = np.clip((t - 0.6 * T) / (0.4 * T), 0, None)
    values = (
        np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi, d) + 2.0 * drift)
        + 0.8 * drift
        + 0.1 * rng.standard_normal((T, d))
    )
    ds = Dataset("shifted", values, [f"c{i}" for i in range(d)])
    split_dataset(ds, "ett", min_span=96)
    ds = ds.standardized()
    config = RolloutConfig(lookback=48, horizon=48, seed=1)
    inner = fit_linear_backbone(ds.part("train"), 48, 48, 1e-3)

    improvements = {}
    for enabled in (False, True):
        backbone = NormalizationWrapper(inner) if enabled else inner
        params, _ = train_decoder_for(backbone, ds, config)
        improvements[enabled] = rollout(backbone, ds, config, params).aggregate()[
            "improvement"
        ]
    assert improvements[False] > 0
    assert improvements[True] > 0


def test_oracle_residual_matches_construction(small_fixture):
    # the fixture's own contract: residual = noise - bias, so zero-shot MSE
    # must sit near bias^2 + noise_floor
    fx = small_fixture
    report = rollout(fx.backbone, fx.dataset, fx.config, None)
    agg = report.aggregate()
    bias = 0.3
    assert agg["mse_base"] == pytest.approx(bias**2, rel=0.6)


def test_train_decoder_for_logs_each_part(small_fixture, caplog):
    fx = small_fixture
    with caplog.at_level("INFO", logger="smoothtta.decoder"):
        train_decoder_for(fx.backbone, fx.dataset, fx.config)
    messages = [r.getMessage() for r in caplog.records if r.name == "smoothtta.decoder"]
    assert len(messages) == 2
    assert messages[0].startswith("decoder training set:")
    assert "gradient gate" in messages[1] and "over 20 samples" in messages[1]
    assert "optimizer" in messages[1]


def test_training_set_event_counts_zero_columns_by_block(small_fixture, caplog):
    fx = small_fixture
    with caplog.at_level("INFO", logger="smoothtta.decoder"):
        train_decoder_for(fx.backbone, fx.dataset, fx.config)
    message = next(r.getMessage() for r in caplog.records if r.name == "smoothtta.decoder")
    counts = [item.split() for item in message.split("by block: ")[1].split(", ")]
    assert [name for name, _ in counts] == FEATURE_LAYOUT.split(":")[0].split("|")
    feats, _, _, _ = build_decoder_training_set(fx.backbone, fx.dataset, fx.config, "val")
    zero = ~feats.any(axis=0)
    lo = 0
    for _, count in counts:
        dead, width = (int(x) for x in count.split("/"))
        assert dead == int(zero[lo : lo + width].sum())
        lo += width
    assert lo == feats.shape[1]


def test_training_set_event_reports_the_store_next_to_the_dense_rows(caplog):
    # the dead-column shape of the memory tests below, 80 windows
    L, H, d, stride, windows = 24, 360, 2, 4, 80
    val = L + H + (windows - 1) * stride
    clean, noisy = seasonal_stream(val + 200, d, period=12, seed=0)
    ds = Dataset("peak", noisy, ["a", "b"], split=Split(100, 100 + val))
    config = RolloutConfig(lookback=L, horizon=H, stride=stride, prefix=8, standardize=False,
                           solver=SolverConfig(context_size=4))
    with caplog.at_level("INFO", logger="smoothtta.decoder"):
        store, targets, _, _ = build_decoder_training_set(
            BiasedOracleForecaster(clean, L, H, 0.3), ds, config)
    message = next(r.getMessage() for r in caplog.records if r.name == "smoothtta.decoder")
    n, width = store.shape
    stored = (store.nbytes - targets.nbytes) / 2**20
    assert f"stored by field in {stored:.1f} MiB besides the targets " in message
    assert f"(dense rows: {n * width * 8 / 2**20:.1f} MiB)" in message
    assert "in 1.1 MiB besides the targets (dense rows: 2.2 MiB)" in message


class _Boom(RuntimeError):
    pass


class _CallerStop(Exception):
    pass


def _produce(items, raise_at, pause, started):
    for k, item in enumerate(items):
        started.append(k)
        if k == raise_at:
            raise _Boom(f"no item {k}")
        time.sleep(pause)
        yield item


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 6),
    raise_at=st.one_of(st.none(), st.integers(0, 6)),
    stop_at=st.one_of(st.none(), st.integers(0, 6)),
    stop_by_raising=st.booleans(),
    slow_side=st.sampled_from(["none", "producer", "consumer"]),
)
def test_one_ahead_delivers_in_order_forwards_the_error_and_joins(
    n, raise_at, stop_at, stop_by_raising, slow_side
):
    items = [object() for _ in range(n)]
    produce_pause = 1e-3 if slow_side == "producer" else 0.0
    consume_pause = 1e-3 if slow_side == "consumer" else 0.0
    threads = threading.active_count()
    received, caught, started, lead = [], None, [], 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with rollout_module._OneAhead(_produce(items, raise_at, produce_pause, started)) as ahead:
            for item in ahead:
                if len(received) == stop_at:
                    if stop_by_raising:
                        raise _CallerStop
                    break
                time.sleep(consume_pause)
                lead = max(lead, started[-1] - len(received))  # producer item vs held item
                received.append(item)
    except (_Boom, _CallerStop) as exc:
        caught = exc
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert lead <= 1  # two live items: the one held and the one in production

    available = n if raise_at is None else min(n, raise_at)
    if stop_at is not None and stop_at < available:  # the caller stops first
        assert received == items[:stop_at] and all(a is b for a, b in zip(received, items))
        assert isinstance(caught, _CallerStop) if stop_by_raising else caught is None
    elif raise_at is not None and raise_at < n:  # the worker's error reaches the caller
        assert all(a is b for a, b in zip(received, items[:raise_at]))
        assert len(received) == raise_at
        assert type(caught) is _Boom and str(caught) == f"no item {raise_at}"
    else:
        assert len(received) == n and all(a is b for a, b in zip(received, items))
        assert caught is None


def test_a_failing_decoder_pass_stops_the_worker(small_fixture, monkeypatch):
    fx = small_fixture
    params = _untrained_decoder(fx)
    calls = []

    def fails_on_the_second_chunk(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise _Boom("decoder pass failed")
        return decode_batch(*args, **kwargs)

    monkeypatch.setattr(rollout_module, "decode_batch", fails_on_the_second_chunk)
    monkeypatch.setattr(rollout_module, "CHUNK_BYTES", 1)  # one window per chunk
    threads = threading.active_count()
    with pytest.raises(_Boom, match="decoder pass failed"):
        rollout(fx.backbone, fx.dataset, fx.config, params)
    assert len(calls) == 2
    assert threading.active_count() == threads


def test_fit_decoder_frees_the_initial_weights_before_training():
    # eval-h720's dead columns, as in test_decoder's peak-memory test. Above
    # the training set, fit_decoder may hold what train_decoder holds while it
    # trains; an initial DecoderParams kept until it returns is about 1.2 W1 more.
    horizon, context, prefix = 360, 4, 8
    config = RolloutConfig(horizon=horizon, solver=SolverConfig(context_size=context))
    shape = decoder_shape(config)
    p = init_params(**shape)
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((48, p.input_width))
    blocks = feature_blocks(horizon, context)
    feats[:, blocks["memory"].start :] = 0.0
    for name in ("padded_error", "mask"):
        feats[:, blocks[name].start + prefix : blocks[name].stop] = 0.0
    local = 0.1 * rng.standard_normal((48, horizon))
    trainset = (feats, local + 0.3, local, rng.uniform(0.0, 1.0, horizon))
    used = feats.any(axis=0).mean()
    w1, others = p.W1.nbytes, p.b1.nbytes + p.W2.nbytes + p.b2.nbytes
    bound = (2 + 4 * used + 0.5) * w1 + 5 * others
    del p

    tracemalloc.start()
    try:
        params, _ = fit_decoder(trainset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {k: getattr(params, k) for k in shape} == shape
    assert peak <= bound, f"peak {peak / w1:.2f} W1, bound {bound / w1:.2f} W1"


def test_training_set_build_holds_only_its_outputs_and_one_chunk():
    # eval-h720's dead columns at H=360, as in test_decoder's peak-memory test:
    # no horizon elapses inside the validation split, so the memory and
    # context columns are zero, and the fixed 8-step prefix zeroes the padded
    # error and mask past step 8. 24 windows of 2 channels fit one execute
    # chunk. Above the store it returns (its fields, the targets included),
    # the build may hold one chunk: six (n, H, d) fields (forecasts, targets,
    # residuals, padded errors, local fields, templates), half a field of
    # masks, and up to five fields of the local solve's propagated, combined
    # and scratch fields. Dense 5H + 2K feature rows (about 2.5 fields more
    # than the store) or a second copy of a stored field break the bound.
    L, H, d, stride, windows = 24, 360, 2, 4, 24
    val = L + H + (windows - 1) * stride
    clean, noisy = seasonal_stream(val + 200, d, period=12, seed=0)
    ds = Dataset("peak", noisy, ["a", "b"], split=Split(100, 100 + val))
    backbone = BiasedOracleForecaster(clean, L, H, 0.3)
    config = RolloutConfig(lookback=L, horizon=H, stride=stride, prefix=8, standardize=False,
                           solver=SolverConfig(context_size=4))
    build_decoder_training_set(backbone, ds, config)  # the cached operators, outside the trace

    tracemalloc.start()
    try:
        store, targets, locals_, _ = build_decoder_training_set(backbone, ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = windows * H * d * 8
    bound = store.nbytes + (6 + 0.5 + 5) * field
    assert peak <= bound, f"peak {peak / field:.2f} fields, bound {bound / field:.2f} fields"
    blocks = feature_blocks(H, 4)
    assert store.shape == (windows * d, 5 * H + 8)
    assert store.templates is None and not store.any(axis=0)[blocks["memory"].start :].any()
    assert not store.masks[:, 8:].any()
    # the local field and the targets are stored once, not copied
    assert locals_ is store.local_fields and targets is store.targets


def test_training_set_build_releases_each_chunk_before_preparing_the_next(monkeypatch):
    # The shape above in six 4-window chunks. Above its store the build may
    # hold the chunk it prepares: six fields, half a field of masks, up to five
    # fields of the local solve's scratch, and half a field of small per-chunk
    # arrays. A previous chunk still bound, by the engine's names or by the
    # build's loop variable, while the next is prepared adds about six fields.
    L, H, d, stride, windows = 24, 360, 2, 4, 24
    val = L + H + (windows - 1) * stride
    clean, noisy = seasonal_stream(val + 200, d, period=12, seed=0)
    ds = Dataset("peak", noisy, ["a", "b"], split=Split(100, 100 + val))
    backbone = BiasedOracleForecaster(clean, L, H, 0.3)
    config = RolloutConfig(lookback=L, horizon=H, stride=stride, prefix=8, standardize=False,
                           solver=SolverConfig(context_size=4))
    monkeypatch.setattr(rollout_module, "CHUNK_BYTES", 4 * 8 * d * input_width(H, 4))
    build_decoder_training_set(backbone, ds, config)  # the cached operators, outside the trace

    tracemalloc.start()
    try:
        store, _, _, _ = build_decoder_training_set(backbone, ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field = 4 * H * d * 8
    bound = store.nbytes + (6 + 0.5 + 5 + 0.5) * field
    assert peak <= bound, f"peak {peak / field:.2f} fields, bound {bound / field:.2f} fields"


def test_training_set_and_decoder_fit_hold_the_store_one_chunk_and_the_optimizer_state(
    monkeypatch,
):
    # The shape above with 80 windows, in ten 8-window chunks (no horizon
    # elapses inside the split yet, so no template is stored), and a hidden
    # width of 8, so that the training set dominates. The gate's probe budget
    # and AdamW's block are cut to 64 KiB and 1024 entries, two fixed costs of
    # any training set. Above the stream and the backbone, the build and
    # fit_decoder together may hold the store, one chunk of the build (as
    # above) and the optimizer state: what train_decoder holds while it trains
    # (as in test_fit_decoder_frees_the_initial_weights_before_training), its
    # two AdamW scratch blocks and two probe chunks of the gate. Dense 5H + 2K
    # feature rows, about 25 fields more than the store, break the bound.
    L, H, d, stride, windows, per_chunk = 24, 360, 2, 4, 80, 8
    val = L + H + (windows - 1) * stride
    clean, noisy = seasonal_stream(val + 200, d, period=12, seed=0)
    ds = Dataset("peak", noisy, ["a", "b"], split=Split(100, 100 + val))
    backbone = BiasedOracleForecaster(clean, L, H, 0.3)
    config = RolloutConfig(lookback=L, horizon=H, stride=stride, prefix=8, standardize=False,
                           solver=SolverConfig(context_size=4, hidden_dim=8))
    monkeypatch.setattr(rollout_module, "CHUNK_BYTES", per_chunk * 8 * d * input_width(H, 4))
    monkeypatch.setattr(dec, "_PROBE_CHUNK_BYTES", 1 << 16)
    monkeypatch.setattr(dec, "_ADAM_BLOCK", 1 << 10)
    build_decoder_training_set(backbone, ds, config)  # the cached operators, outside the trace
    p = init_params(**decoder_shape(config))
    w1, others = p.W1.nbytes, p.b1.nbytes + p.W2.nbytes + p.b2.nbytes
    del p

    tracemalloc.start()
    try:
        trainset = build_decoder_training_set(backbone, ds, config)
        params, _ = fit_decoder(trainset, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    store = trainset[0]
    used = store.any(axis=0).mean()
    field = per_chunk * H * d * 8
    chunk = (6 + 0.5 + 5 + 0.5) * field
    optimizer = ((2 + 4 * used + 0.5) * w1 + 5 * others + 2 * 8 * dec._ADAM_BLOCK
                 + 2 * dec._PROBE_CHUNK_BYTES)
    bound = store.nbytes + chunk + optimizer
    assert store.templates is None and params.hidden == 8
    assert peak <= bound, f"peak {peak / field:.2f} fields, bound {bound / field:.2f} fields"


@pytest.mark.parametrize("protocol", [{}, {"anchors": (8, 3)}])
def test_one_prefix_length_for_the_whole_chunk_keeps_the_solves_own_field(
    small_fixture, monkeypatch, protocol
):
    # a fixed prefix or anchors give every window one length: the chunk's local
    # field is the solve's row-major output, not a copy into a zero-filled field
    fx = small_fixture
    config = dataclasses.replace(fx.config, prefix=5)
    solved = []

    def recorded(*args, **kwargs):
        out = solve_local(*args, **kwargs)
        solved.append(out.combined)
        return out

    monkeypatch.setattr(rollout_module, "solve_local", recorded)
    width = input_width(16, config.solver.context_size)
    monkeypatch.setattr(rollout_module, "CHUNK_BYTES", 8 * 8 * fx.dataset.channels * width)
    plan = rollout_module._Plan(rollout_module._window_starts(fx.dataset, config), 16, "safe")
    chunks = list(rollout_module._execute(plan, fx.backbone, fx.dataset, config, **protocol))
    assert len(chunks) == len(solved) > 1
    for c, combined in zip(chunks, solved):
        assert c.local is combined and c.local.flags.c_contiguous


def _dense_training_rows(backbone, dataset, config):
    """The training set's `build_features` rows, chunk by chunk through the engine."""
    H = config.horizon
    plan = rollout_module._Plan(rollout_module._window_starts(dataset, config, "val"), H, "safe")
    width = input_width(H, config.solver.context_size)
    return np.concatenate([
        build_features(c.forecasts, c.local, c.padded, c.masks, c.templates, c.contexts)
        .reshape(-1, width) for c in rollout_module._execute(plan, backbone, dataset, config)
    ])


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([1, 2, 7]),
    prefix=st.sampled_from([0, 3, "fft"]),
    flag_every=st.sampled_from([None, 3, 5]),
    folds=st.booleans(),
    seed=st.integers(0, 1000),
    data=st.data(),
)
def test_the_store_assembles_the_dense_training_rows_byte_for_byte(
    d, prefix, flag_every, folds, seed, data
):
    # the memory folds once a window's horizon elapses inside the split
    L, H, stride = 24, 12, 2
    windows = 12 if folds else 6
    val = L + H + (windows - 1) * stride
    clean, noisy = seasonal_stream(val + 100, d, period=6, seed=seed)
    ds = Dataset("store", noisy, [f"c{j}" for j in range(d)], split=Split(50, 50 + val))
    backbone = BiasedOracleForecaster(clean, L, H, 0.3)
    if flag_every is not None:
        backbone = NanAtStarts(backbone, flag_every)
    config = RolloutConfig(lookback=L, horizon=H, stride=stride, prefix=prefix,
                           standardize=False, solver=SolverConfig(hidden_dim=8))
    store, targets, locals_, gate = build_decoder_training_set(backbone, ds, config)
    dense = _dense_training_rows(backbone, ds, config)
    n, width = dense.shape
    assert store.shape == (n, width) and len(targets) == len(locals_) == n

    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    cols = data.draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=width,
                                                   max_size=width).map(np.array)))
    got = feature_rows(store, rows, cols)
    want = dense[rows][:, slice(None) if cols is None else cols]
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(store.any(axis=0), dense.any(axis=0))  # `used`, and the zero counts
    memory = feature_blocks(H, config.solver.context_size)["memory"]
    assert (store.templates is None) == (not dense[:, memory].any())

    def digest(features):
        params = init_params(**decoder_shape(config), seed=seed)
        return train_decoder(params, features, targets, locals_, gate, seed=seed)[0].digest()

    assert digest(store) == digest(dense)


def test_rollout_holds_two_chunks_and_one_block_of_decoder_activations():
    # eval-h96's shape: L = H = 96, stride 1, seven channels, FFT prefixes and
    # a hidden width of 256; 320 windows make two 151-window chunks and a
    # short one. Above its inputs, rollout may hold the chunk it corrects and
    # the one the worker prepares (a chunk: six fields and a seventh of masks;
    # the worker's also up to five fields of the local solve's scratch), plus
    # the activations of one block of BLOCK_ROWS decoder rows: input rows at
    # most 4H wide, pre-activation and tanh of the hidden width. A decoder
    # pass over a whole chunk (1057 rows) holds about eight more fields.
    L, H, d, windows, hidden = 96, 96, 7, 320, 256
    test = L + H + windows - 1
    clean, noisy = seasonal_stream(200 + test, d, period=24, seed=0)
    ds = Dataset("h96", noisy, [f"c{j}" for j in range(d)], split=Split(100, 200))
    backbone = BiasedOracleForecaster(clean, L, H, 0.3)
    config = RolloutConfig(lookback=L, horizon=H, stride=1, standardize=False)
    s = config.solver
    assert s.hidden_dim == hidden
    params = init_params(horizon=H, context_size=s.context_size, hidden=hidden,
                         output_scale=s.global_scale, seed=0)
    rollout(backbone, ds, config, params)  # the cached operators, outside the trace

    tracemalloc.start()
    try:
        report = rollout(backbone, ds, config, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = rollout_module.CHUNK_BYTES // (8 * d * input_width(H, s.context_size))
    field = n * H * d * 8
    activations = rollout_module.BLOCK_ROWS * (4 * H + 2 * hidden) * 8
    bound = 2 * (6 + 1 / d) * field + 5 * field + activations
    assert report.n_windows == windows and n >= 150
    assert peak <= bound, f"peak {peak / field:.2f} fields, bound {bound / field:.2f} fields"


def test_readme_solver_table_lists_every_solver_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Solver hyperparameters", 1)[1].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+?) \|", table, flags=re.M)
    fields = [f for f in dataclasses.fields(SolverConfig) if f.name not in ABLATION_SWITCHES]
    assert [key for key, _ in rows] == [f.name for f in fields]
    for (key, default), f in zip(rows, fields):
        assert type(f.default)(default) == f.default, key


def test_readme_none_sentence_names_every_nullable_key():
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sentence = readme.split("`none` (or an empty value) resets only", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", sentence) == list(_NULLABLE)


@settings(max_examples=25, deadline=None)
@given(
    horizon=st.integers(2, 24),
    channels=st.integers(1, 3),
    revealed=st.integers(0, 30),
    windows=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
def test_a_correction_zero_off_the_mask_keeps_the_unrevealed_error(
    horizon, channels, revealed, windows, seed
):
    fx = biased_oracle_fixture(horizon=horizon, lookback=16, channels=channels,
                               n_test_windows=windows, period=4, seed=seed)
    cfg = copy.deepcopy(fx.config)
    cfg.prefix = revealed % horizon  # a fixed prefix of 0..H-1 steps
    real_fuse = rollout_module.fuse

    def fuse_on_the_mask_only(local, global_field, schedule):
        delta = np.array(real_fuse(local, global_field, schedule))
        delta[:, cfg.prefix :] = 0.0
        return delta

    with mock.patch.object(rollout_module, "fuse", fuse_on_the_mask_only):
        report = rollout(fx.backbone, fx.dataset, cfg, None)
    agg = report.aggregate()
    assert agg["mse_corrected_unrevealed"] == agg["mse_base_unrevealed"]
    assert agg["improvement_unrevealed"] == 0.0
    # pooled over every window's steps past its prefix, not averaged per window
    errors = np.stack([fx.dataset.values[t : t + horizon] - fx.backbone.predict(None, start=t)
                       for t in (row["start"] for row in report.rows)])
    lengths = np.array([row["prefix_length"] for row in report.rows])
    hidden = np.arange(horizon) >= lengths[:, None]
    assert agg["mse_base_unrevealed"] == pytest.approx(np.mean(errors[hidden] ** 2), rel=1e-12)


def test_unrevealed_figures_reach_the_manifest_but_no_metrics_column(small_fixture, tmp_path):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.prefix = 5
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    write_manifest(report, tmp_path / "manifest.json")
    write_metrics_csv(report, tmp_path / "metrics.csv")
    aggregates = json.loads((tmp_path / "manifest.json").read_text())["aggregates"]
    for key in ("mse_base_unrevealed", "mse_corrected_unrevealed", "improvement_unrevealed"):
        assert np.isfinite(aggregates[key])
        assert key not in (tmp_path / "metrics.csv").read_text()
    assert report.unrevealed.shape == (report.n_windows, 3)
    assert (report.unrevealed[:, 2] == (fx.config.horizon - 5) * fx.dataset.channels).all()


def test_unrevealed_figures_are_nan_when_every_step_is_revealed(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.prefix = cfg.horizon
    agg = rollout(fx.backbone, fx.dataset, cfg, None).aggregate()
    assert agg["mse_base"] > 0
    assert all(np.isnan(agg[key]) for key in
               ("mse_base_unrevealed", "mse_corrected_unrevealed", "improvement_unrevealed"))
