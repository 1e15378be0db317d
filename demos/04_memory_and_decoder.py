"""Cross-window error memory and the trained global decoder.

Completed windows (whose whole target horizon has been revealed) feed an
exponentially weighted error template plus a small ring of summary
statistics. A one-hidden-layer decoder, trained offline and frozen online,
turns that memory into a long-range correction conditioned on the current
window.
"""

import numpy as np

from smoothtta import biased_oracle_fixture, cold_start, context_vector, update_memory
from smoothtta.decoder import feature_rows, gradient_check, init_params
from smoothtta.rollout import build_decoder_training_set, train_decoder_for

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(2)

# --- memory dynamics ------------------------------------------------------
H, d = 8, 2
state = cold_start(H, d, decay=0.5, context_size=4)
true_template = np.tile([[-0.3, 0.2]], (H, 1))
print("EMA convergence toward a persistent residual template (rho=0.5):")
for step in range(1, 9):
    residual = true_template + 0.05 * rng.standard_normal((H, d))
    state = update_memory(state, [residual])
    gap = np.abs(state.template - true_template).max()
    print(f"  update {step}: max gap to template {gap:.3f}")

z = context_vector(state)
print("context vector (mean, mean_abs per recent window):")
print(z.reshape(-1, 2))

# --- decoder training on a controlled fixture -----------------------------
fx = biased_oracle_fixture(horizon=32, lookback=32, channels=2,
                           n_test_windows=30, period=8, seed=5)
feats, targets, locals_, gate = build_decoder_training_set(fx.backbone, fx.dataset, fx.config)
print(f"\ntraining samples: {feats.shape[0]} rows of width {feats.shape[1]}, "
      f"stored by field in {feats.nbytes} bytes")

# Backprop is hand-written; a finite-difference probe keeps it honest.
probe = init_params(horizon=32, context_size=8, hidden=64, seed=0)
err = gradient_check(probe, feature_rows(feats, [0]), targets[0], locals_[0], gate)
print(f"gradient check, max relative error: {err:.2e}")

params, trace = train_decoder_for(fx.backbone, fx.dataset, fx.config)
print("per-epoch training loss:", [round(x, 4) for x in trace])
print(f"decoder parameters: {params.count()} (frozen after training)")
