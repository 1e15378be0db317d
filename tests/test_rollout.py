import copy
import importlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothtta.backbones import BiasedOracleForecaster
from smoothtta.config import ConfigError, RolloutConfig, SolverConfig, apply_overrides
from smoothtta.decoder import FEATURE_LAYOUT, DecoderParams, decode_batch, init_params
from smoothtta.fusion import fuse
from smoothtta.rollout import (
    ContractViolation,
    build_decoder_training_set,
    rollout,
    train_decoder_for,
    write_manifest,
    write_metrics_csv,
)
from smoothtta.synth import biased_oracle_fixture

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


def test_zero_prefix_override_reduces_to_zero_shot(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.set_prefix(0)
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    for row in report.rows:
        assert row["prefix_length"] == 0
        assert row["mse_corrected"] == row["mse_base"]


def test_fixed_prefix_mode(small_fixture):
    fx = small_fixture
    cfg = copy.deepcopy(fx.config)
    cfg.prefix_mode = "fixed"
    cfg.prefix_length = 5
    report = rollout(fx.backbone, fx.dataset, cfg, None)
    assert all(row["prefix_length"] == 5 for row in report.rows)


def test_fixed_prefix_accepts_zero_and_rejects_none_or_negative():
    RolloutConfig(prefix_mode="fixed", prefix_length=0).validate()
    for length in (None, -1):
        with pytest.raises(ConfigError, match="prefix_length >= 0"):
            RolloutConfig(prefix_mode="fixed", prefix_length=length).validate()
    with pytest.raises(ConfigError, match="prefix_length >= 0"):
        RolloutConfig(prefix_length=-1).validate()  # in fft mode too


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
    assert apply_overrides(RolloutConfig(), {"prefix_length": "5"}).prefix_length == 5


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
