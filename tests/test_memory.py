import logging

import numpy as np
import pytest

from smoothtta.memory import (
    MemoryState,
    cold_start,
    context_vector,
    update_memory,
)


def test_cold_start_is_zero():
    state = cold_start(6, 2)
    assert np.allclose(state.template, 0.0)
    assert state.updates == 0
    assert state.context_ring == ()


def test_zero_decay_reproduces_batch_mean():
    state = cold_start(4, 1, decay=0.0)
    state = update_memory(state, [np.full((4, 1), 0.9)])
    assert np.allclose(state.template, 0.9)
    batch = [np.full((4, 1), 0.2), np.full((4, 1), 0.6)]
    state = update_memory(state, batch)
    assert np.allclose(state.template, 0.4)


def test_full_decay_freezes_template():
    state = cold_start(4, 1, decay=1.0)
    state = update_memory(state, [np.full((4, 1), 5.0)])
    assert np.allclose(state.template, 0.0)


def test_ema_arithmetic_example():
    state = MemoryState(
        template=np.array([[0.2]]), context_ring=(), updates=0, decay=0.5, context_size=8
    )
    state = update_memory(state, [np.array([[0.6]])])
    assert np.allclose(state.template, 0.4)


def test_update_counter_and_ring_order():
    state = cold_start(2, 1, context_size=3)
    for v in (1.0, 2.0, 3.0, 4.0):
        state = update_memory(state, [np.full((2, 1), v)])
    assert state.updates == 4
    assert len(state.context_ring) == 3
    means = [entry[0] for entry in state.context_ring]
    assert means == [2.0, 3.0, 4.0]  # oldest evicted first


def test_empty_batch_is_warned_noop():
    state = cold_start(3, 1)
    out = update_memory(state, [])
    assert out.updates == 0
    assert out.empty_batch_warnings == 1
    assert np.array_equal(out.template, state.template)


def test_empty_batch_logs_one_warning(caplog):
    state = update_memory(cold_start(3, 1), [np.ones((3, 1))])
    with caplog.at_level(logging.WARNING, logger="smoothtta.memory"):
        out = update_memory(state, [])
    records = [r for r in caplog.records if r.name == "smoothtta.memory"]
    assert [r.levelno for r in records] == [logging.WARNING]
    assert "empty memory batch" in records[0].getMessage()
    assert "version stays 1" in records[0].getMessage()
    assert out.empty_batch_warnings == 1
    caplog.clear()
    update_memory(state, [np.ones((3, 1))])  # a non-empty batch logs nothing
    assert not [r for r in caplog.records if r.name == "smoothtta.memory"]


def test_shape_mismatch_rejected():
    state = cold_start(3, 2)
    with pytest.raises(ValueError):
        update_memory(state, [np.zeros((4, 2))])


def test_states_are_immutable_snapshots():
    state = cold_start(3, 1)
    new = update_memory(state, [np.ones((3, 1))])
    assert np.allclose(state.template, 0.0)  # old snapshot untouched
    with pytest.raises(ValueError):
        new.template[0, 0] = 7.0


def test_ema_max_norm_contraction():
    rng = np.random.default_rng(0)
    bound = 2.0
    for _ in range(200):
        decay = float(rng.uniform(0, 1))
        state = cold_start(5, 2, decay=decay)
        for _ in range(rng.integers(1, 30)):
            batch = [
                rng.uniform(-bound, bound, size=(5, 2))
                for _ in range(rng.integers(1, 4))
            ]
            state = update_memory(state, batch)
            assert np.abs(state.template).max() <= bound + 1e-12
        assert np.all(np.isfinite(state.template))


def test_context_vector_cold_start_is_zero():
    z = context_vector(cold_start(4, 1, context_size=8))
    assert z.shape == (16,)
    assert np.allclose(z, 0.0)


def test_context_vector_single_window_summary():
    state = cold_start(4, 2, context_size=8)
    state = update_memory(state, [np.full((4, 2), 0.3)])
    z = context_vector(state)
    # newest entry sits at the end; earlier slots stay zero-padded
    assert z[-2] == pytest.approx(0.3)
    assert z[-1] == pytest.approx(0.3)
    assert np.allclose(z[:-2], 0.0)


def test_context_vector_mean_and_mean_abs():
    state = cold_start(2, 1, context_size=2)
    state = update_memory(state, [np.array([[-0.4], [0.4]])])
    z = context_vector(state)
    assert z[-2] == pytest.approx(0.0)
    assert z[-1] == pytest.approx(0.4)
