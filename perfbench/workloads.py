"""Workload definitions and the seeded synthetic stream generator.

Every workload feeds the program one 7-channel seasonal CSV written from the
workload seed; the program never sees the seed itself. All workloads use the
FFT-selected prefix, the leakage-safe memory schedule and the linear
backbone, and every loop is closed: one caller, one request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHANNELS = 7
DAY, WEEK = 24, 168
NOISE_BLOCK = 240


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lookback: int
    horizon: int
    stride: int
    length: int             # rows of the generated CSV
    split: str              # --split argument of the CLI
    online: bool            # per-window caller instead of the offline CLI cycle
    rollout_repeats: int    # CLI rollout calls per eval cycle
    replay_passes: int      # per-window passes over the test split per cycle

    def cli_args(self, csv_path, out_dir) -> list[str]:
        return [
            "--data", str(csv_path),
            "--lookback", str(self.lookback),
            "--horizon", str(self.horizon),
            "--stride", str(self.stride),
            "--split", self.split,
            "--prefix", "fft",
            "--memory-schedule", "safe",
            "--out-dir", str(out_dir),
        ]


EVAL_H96 = Workload(
    name="eval-h96",
    why=(
        "L=H=96, stride 1, 8000 rows: ~1400 small test windows, so per-window "
        "Python work in boundary, local, memory, fusion and the rollout loop dominates"
    ),
    lookback=96, horizon=96, stride=1, length=8000, split="standard",
    online=False, rollout_repeats=3, replay_passes=3,
)

EVAL_H720 = Workload(
    name="eval-h720",
    why=(
        "L=336, H=720, stride 4, 10000 rows: ~1100 wide windows, so the decoder "
        "(input width 3616) and backbone predict dominate, and the gradient gate dominates training"
    ),
    lookback=336, horizon=720, stride=4, length=10000, split="0.3:0.15:0.55",
    online=False, rollout_repeats=2, replay_passes=3,
)

ONLINE_H96 = Workload(
    name="online-h96",
    why=(
        "the eval-h96 stream consumed one window per call through the public "
        "per-window API, so batching across windows cannot help"
    ),
    lookback=96, horizon=96, stride=1, length=8000, split="standard",
    online=True, rollout_repeats=0, replay_passes=0,
)

WORKLOADS = {w.name: w for w in (EVAL_H96, EVAL_H720, ONLINE_H96)}


def stream_values(length: int, seed: int, channels: int = CHANNELS) -> np.ndarray:
    """Seasonal stream with a slow deterministic drift, shape (length, channels).

    Daily and weekly cycles with fixed per-channel amplitudes and phases, an
    amplitude and level drift over the stream (so the frozen backbone meets
    conditions its train split did not show), an AR(1) component and white
    noise. The seed draws only the noise, and every NOISE_BLOCK rows of each
    noise source are rescaled to zero mean and unit spread: seeds then differ
    in the noise path but not in its energy, which keeps quality metrics
    comparable across seeds.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length)[:, None]
    u = t / length
    phase = np.linspace(0.0, 2.0 * np.pi, channels, endpoint=False)
    daily = np.linspace(0.8, 1.2, channels) * (1.0 + 0.3 * u)
    weekly = np.linspace(0.5, 0.3, channels)
    x = (
        daily * np.sin(2 * np.pi * t / DAY + phase)
        + weekly * np.sin(2 * np.pi * t / WEEK + 0.5 * phase)
        + 0.5 * u
    )

    def block_white(scale: float) -> np.ndarray:
        z = rng.standard_normal((length, channels))
        for lo in range(0, length, NOISE_BLOCK):
            b = z[lo : lo + NOISE_BLOCK]
            if len(b) > 1:
                z[lo : lo + NOISE_BLOCK] = (b - b.mean(axis=0)) / b.std(axis=0)
        return scale * z

    innovations = block_white(0.1)
    ar = np.zeros((length, channels))
    for i in range(1, length):
        ar[i] = 0.5 * ar[i - 1] + innovations[i]
    return x + ar + block_white(0.2)


def write_stream(path, length: int, seed: int, channels: int = CHANNELS) -> None:
    """Write the seeded stream as a timestamped CSV with a header row."""
    values = stream_values(length, seed, channels)
    lines = ["date," + ",".join(f"c{j}" for j in range(channels))]
    lines += [
        f"t{i:06d}," + ",".join(f"{v:.6f}" for v in row) for i, row in enumerate(values)
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
