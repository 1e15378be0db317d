"""Anatomy of the closed-form local correction.

The local branch decomposes the prefix error into a slow drift (discarded),
a fast component (propagated smoothly), and a mean offset (repeated as a bias
field), then fits how much of each field to apply with a tiny clipped ridge.
"""

import numpy as np

from smoothtta import build_transfer_operator, solve_local
from smoothtta.local import extract_fast_error
from smoothtta.reference import bias_field, propagate_fast_error

np.set_printoptions(precision=3, suppress=True)
rng = np.random.default_rng(11)

H, a = 24, 8
op = build_transfer_operator(H, alpha=0.15)

# Prefix error = level offset + linear drift + a fast wiggle + noise
h = np.arange(1, a + 1)[:, None]
level = 0.4
drift = 0.05 * h
wiggle = 0.3 * np.sin(2 * np.pi * h.ravel() / 4)[:, None]
prefix_error = level + drift + wiggle + 0.02 * rng.standard_normal((a, 1))
print("prefix error:", prefix_error.ravel())

# Step 1: drift removal keeps only what the smoothness prior should carry.
fast = extract_fast_error(prefix_error)
print("\nfast error after removing constant+linear drift:")
print(fast.ravel())

# Step 2: the transfer operator extends the fast error over all 24 steps;
# the response decays away from the boundary instead of extrapolating.
harm = propagate_fast_error(op, fast)
print("\npropagated field (first 12 steps):")
print(harm[:12].ravel())

# Step 3: the bias field repeats the prefix mean everywhere.
bias = bias_field(prefix_error, H)
print("\nbias field value (constant):", bias[0, 0])

# Step 4: the bounded ridge fit. Coefficients are clipped so a short or
# weird prefix can never buy a huge correction.
result = solve_local(prefix_error, op)
print("\nfitted coefficients [propagated, bias]:", result.coefficients.ravel())
print("combined local correction (first 12 steps):")
print(result.combined[:12].ravel())

# The clip in action: a prefix that "wants" coefficient 1.0 gets 0.5.
strong = np.full((a, 1), 1.0)
capped = solve_local(strong, op)
print("\npure-bias prefix of 1.0 -> bias coefficient", capped.coefficients[1, 0])
print("correction level:", capped.combined[0, 0], "(= local_mix * clip * 1.0)")
