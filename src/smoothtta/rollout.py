"""Plan/execute delayed-revelation rollout over a data split.

The error memory reads only residuals Y - forecast, which never depend on a
correction, so every window's memory snapshot is fixed before any window is
corrected. `rollout` and `build_decoder_training_set` share one engine with
two steps:

- Plan. From the window starts and the windows flagged for a non-finite
  forecast, index arithmetic gives each window's memory version (how many
  earlier unflagged windows the memory has folded) and the last target index
  that memory has read. The leakage guard is one assertion over the plan:
  that index lies before the window's start, for every window. The
  ``immediate`` schedule folds a window as soon as it is corrected and trips
  the guard whenever windows overlap. Flags exist only once forecasts do, so
  the plan grows chunk by chunk; a window's entry depends on earlier windows
  only.
- Execute. Windows run in chronological chunks under a fixed byte budget.
  `_execute` prepares each chunk: one backbone call, one FFT period
  estimate, the boundary (contamination and anchors are transforms on the
  batched arrays, seeded per window index), one local solve per prefix
  length and a streaming EMA fold of the memory. The consumer corrects it:
  one decoder pass over all (window, channel) rows and one clipped fusion.
  `rollout` steps `_execute` on a one-worker thread pool, one chunk ahead:
  it submits the step to chunk k+1, corrects chunk k, then takes the step's
  result, so at most one step is in flight. BLAS, FFT and large ufunc loops
  release the GIL, so the two halves overlap on two cores. Each chunk's
  arithmetic is the same on either thread, so outputs are unchanged.
  `build_decoder_training_set` iterates `_execute` inline: its per-chunk
  work is a cheap copy into the training arrays, and a chunk prepared ahead
  would only raise its peak memory.

The per-window API (`correct_window` and the functions it calls) runs the
same kernels with a batch of one. Both read constants built once from the
configuration: the transfer operator per (H, alpha), the local propagator
per (H, alpha, a) and the fusion gate per (schedule, H).
"""

from __future__ import annotations

import json
import logging
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .backbones import predict_batch
from .boundary import PrefixBoundary, contaminate_errors, estimate_periods, select_prefix_length
from .chain import build_transfer_operator
from .config import RolloutConfig
from .data import DataError, Dataset
from .decoder import (
    DecoderParams,
    TrainConfig,
    build_features,
    decode,
    decode_batch,
    feature_blocks,
    init_params,
    train_decoder,
)
from .fusion import fuse, global_gate
from .local import solve_local
from .memory import (
    MemoryState,
    cold_start,
    context_rows,
    context_vector,
    fold_templates,
    residual_summaries,
)

# Execute-chunk budget, sized by the decoder training set's feature rows of
# d * (5H + 2K) floats per window (rollout's decoder pass builds no rows); a
# chunk's other per-window arrays are of the same order. In `rollout` two
# chunks are live at once: the one being corrected and the one the worker is
# preparing. The inline training-set build holds one.
CHUNK_BYTES = 4 << 20

decoder_log = logging.getLogger("smoothtta.decoder")


class ContractViolation(RuntimeError):
    """Leakage or frozen-parameter breach (CLI exit code 4)."""


@dataclass
class EvalReport:
    dataset: str
    backbone: str
    manifest: dict
    rows: list[dict]
    n_flagged: int = 0
    timing: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def n_windows(self) -> int:
        return len(self.rows)

    def aggregate(self, skip: int = 0) -> dict:
        return aggregate_rows(self.rows, skip=skip)

    def summary(self) -> dict:
        return {
            "dataset": self.dataset,
            "backbone": self.backbone,
            "n_windows": self.n_windows,
            "n_flagged": self.n_flagged,
            **self.aggregate(),
            **self.extra,
        }

    def summary_row(self, keys=("mse_base", "mse_corrected", "improvement"), **lead) -> dict:
        """One summary-CSV row: the `lead` columns, then the named aggregates."""
        agg = self.aggregate()
        return {**lead, **{k: agg[k] for k in keys}}


def aggregate_rows(rows: list[dict], skip: int = 0, prefix: str = "") -> dict:
    """Mean window metrics, optionally skipping the first warm-up windows."""
    used = rows[skip:]
    if not used:
        return {}
    keys = [k for k in used[0] if k.startswith(prefix) and k.endswith(("_base", "_corrected"))]
    agg = {k: float(np.mean([r[k] for r in used])) for k in keys}
    base = agg.get(prefix + "mse_base")
    corr = agg.get(prefix + "mse_corrected")
    if base is not None and corr is not None and base > 0:
        agg[prefix + "improvement"] = (base - corr) / base
    return agg


def correct_window(
    forecast: np.ndarray,
    boundary: PrefixBoundary,
    memory: MemoryState,
    decoder_params: DecoderParams | None,
    config: RolloutConfig,
) -> tuple[np.ndarray, dict]:
    """One window's correction field and diagnostics, given its boundary.

    The per-window counterpart of the engine's execute step, through the
    same functions with a batch of one. The transfer operator (cached per
    (H, alpha)), its propagator (per (H, alpha, a)), the fusion schedule and
    its gate (per (schedule, H)) are built by the first call that needs them.
    """
    s = config.solver
    horizon, d = forecast.shape
    schedule = s.schedule()
    if boundary.is_empty():
        delta = np.zeros_like(forecast)
        return delta, {"local": delta, "global": delta}

    if s.global_only:
        local_field = np.zeros_like(forecast)
    else:
        local_field = solve_local(
            boundary.prefix_error,
            build_transfer_operator(horizon, s.smoothness_alpha),
            ridge_coef=s.ridge_coef,
            coef_clip=s.basis_clip,
            response_mix=s.local_mix,
        ).combined

    mem = cold_start(horizon, d, s.memory_decay, s.context_size) if s.no_memory else memory
    if schedule.global_mix > 0 and decoder_params is not None:
        global_field = decode(
            decoder_params,
            forecast,
            local_field,
            boundary.padded_error,
            boundary.mask,
            mem.template,
            context_vector(mem),
        )
    else:
        global_field = np.zeros_like(forecast)

    delta = fuse(local_field, global_field, schedule)
    return delta, {"local": local_field, "global": global_field}


def _window_starts(dataset: Dataset, config: RolloutConfig, part: str = "test") -> np.ndarray:
    lo, hi = dataset.range_of(part)
    L, H = config.lookback, config.horizon
    if hi - lo < L + H:
        raise DataError(
            f"{part} split has {hi - lo} points, needs at least lookback + horizon = {L + H}"
        )
    return np.arange(lo + L, hi - H + 1, config.effective_stride)[: config.max_windows]


class _Plan:
    """Window starts, flags and memory versions; grows as each chunk's flags arrive.

    Unflagged windows feed the memory one at a time in chronological order,
    so a window's memory version counts the earlier unflagged windows it may
    read: under the safe schedule those whose horizon has elapsed
    (t_j + H <= t_i), under ``immediate`` all of them.
    """

    def __init__(self, starts: np.ndarray, horizon: int, schedule: str):
        self.starts, self.horizon, self.schedule = starts, horizon, schedule
        self.known = 0  # windows whose flags have arrived
        self.counts = np.zeros(len(starts) + 1, dtype=int)  # unflagged among the first k
        self.fed = np.full(len(starts) + 1, -horizon)  # fed[v]: start of the v-th unflagged

    @property
    def n_flagged(self) -> int:
        return int(self.known - self.counts[self.known])

    def extend(self, ok: np.ndarray) -> np.ndarray:
        """Add the next windows' flags; their memory versions, leakage-checked."""
        lo, hi = self.known, self.known + len(ok)
        self.known = hi
        self.counts[lo + 1 : hi + 1] = self.counts[lo] + np.cumsum(ok)
        self.fed[self.counts[lo] + 1 : self.counts[hi] + 1] = self.starts[lo:hi][ok]
        starts, H = self.starts[lo:hi], self.horizon
        if self.schedule == "safe":
            versions = self.counts[np.searchsorted(self.starts[:hi], starts - H, side="right")]
        else:
            versions = self.counts[lo:hi]
        consumed = self.fed[versions] + H - 1  # last target a version-v memory has read
        leaks = np.flatnonzero(consumed >= starts)
        if leaks.size:
            i = leaks[0]
            raise ContractViolation(
                f"memory already consumed target index {consumed[i]} but window "
                f"{lo + i} starts at {starts[i]}: correction would leak its own targets"
            )
        return versions


@dataclass
class _Chunk:
    """The unflagged windows of one execute chunk and what their corrections read.

    Fields are (n, H, d) unless noted; `lengths` is 0 for a zero-shot window.
    """

    windows: np.ndarray     # (n,) window index in the split
    starts: np.ndarray      # (n,) first target index
    versions: np.ndarray    # (n,) memory version read
    forecasts: np.ndarray
    targets: np.ndarray
    residuals: np.ndarray   # targets - forecasts
    lengths: np.ndarray     # (n,) boundary length
    masks: np.ndarray       # (n, H) observed steps
    padded: np.ndarray      # boundary error, zero off the mask
    local: np.ndarray
    templates: np.ndarray   # memory template
    contexts: np.ndarray    # (n, 2K) memory context


def _boundaries(X, forecasts, residuals, windows, config: RolloutConfig,
                contamination_ratio=0.0, contamination_sigma=None, anchors=None):
    """(lengths, masks, padded errors) of a chunk's unflagged windows."""
    s = config.solver
    n, H, _ = residuals.shape
    floor = s.min_prefix_support
    if anchors is not None:
        support, count = anchors
        masks = np.zeros((n, H))
        if count == 0:  # nothing revealed: zero-shot windows
            return np.zeros(n, dtype=int), masks, np.zeros_like(residuals)
        for row, i in enumerate(windows.tolist()):
            rng = np.random.default_rng([config.seed, 104729, i])
            masks[row, rng.choice(support, size=count, replace=False)] = 1.0
        return np.full(n, support), masks, np.where(masks[..., None] > 0, residuals, 0.0)

    if config.prefix_mode == "fixed":
        p = config.prefix_length
        lengths = np.full(n, select_prefix_length(p, p, H, floor))
    else:  # the delayed-revelation budget equals the period estimate
        periods = estimate_periods(X, fallback=floor).tolist()
        lengths = np.array([select_prefix_length(p, p, H, floor) for p in periods], dtype=int)
    masks = (np.arange(H) < lengths[:, None]).astype(float)
    padded = np.where(masks[..., None] > 0, residuals, 0.0)
    if contamination_ratio > 0:
        hit = np.flatnonzero(lengths > 0)
        seeds = [int(np.random.default_rng([config.seed, 15485863, i]).integers(2**31))
                 for i in windows[hit].tolist()]
        padded[hit] = contaminate_errors(padded[hit], forecasts[hit], lengths[hit],
                                         contamination_ratio, contamination_sigma, seeds)
    return lengths, masks, padded


def _execute(plan: _Plan, backbone, dataset: Dataset, config: RolloutConfig,
             use_local: bool = True, use_memory: bool = True, **protocol):
    """Yield a `_Chunk` for every execute chunk that has unflagged windows.

    `use_local=False` zeroes the local branch and `use_memory=False` reads a
    cold memory; the plan's versions still count the real memory.
    `protocol` goes to `_boundaries`.
    """
    s = config.solver
    values = dataset.values
    H, L, d, K = config.horizon, config.lookback, dataset.channels, s.context_size
    op = build_transfer_operator(H, s.smoothness_alpha)
    size = max(1, CHUNK_BYTES // (8 * d * (5 * H + 2 * K)))
    summaries = np.empty((len(plan.starts), 2))  # of unflagged windows, in fold order
    n_summaries = 0
    template, version = np.zeros((H, d)), 0  # the fold state
    pending: deque = deque()  # residuals not folded yet, in fold order

    for lo in range(0, len(plan.starts), size):
        idx = np.arange(lo, min(lo + size, len(plan.starts)))
        t = plan.starts[idx]
        X = values[t[:, None] + np.arange(-L, 0)]
        forecasts = predict_batch(backbone, X, t.tolist())
        ok = np.isfinite(forecasts).all(axis=(1, 2))
        versions = plan.extend(ok)
        if not ok.any():
            continue
        idx, t, X, forecasts, versions = idx[ok], t[ok], X[ok], forecasts[ok], versions[ok]
        targets = values[t[:, None] + np.arange(H)]
        residuals = targets - forecasts
        lengths, masks, padded = _boundaries(X, forecasts, residuals, idx, config, **protocol)

        local = np.zeros_like(residuals)
        for a in np.unique(lengths[lengths > 0]).tolist() if use_local else ():
            sel = lengths == a
            local[sel] = solve_local(
                padded[sel, :a], op, s.ridge_coef, s.basis_clip, s.local_mix
            ).combined

        if use_memory:
            summaries[n_summaries : n_summaries + len(idx)] = residual_summaries(residuals)
            n_summaries += len(idx)
            pending.extend(residuals)
            top = int(versions[-1])
            folds = [pending.popleft() for _ in range(top - version)]
            snapshots = fold_templates(template, folds, s.memory_decay)
            templates = snapshots[versions - version]
            contexts = context_rows(summaries[:n_summaries], versions, K)
            template, version = snapshots[-1], top
        else:
            templates = np.zeros_like(residuals)
            contexts = np.zeros((len(idx), 2 * K))

        yield _Chunk(idx, t, versions, forecasts, targets, residuals, lengths, masks,
                     padded, local, templates, contexts)


class _OneAhead(ThreadPoolExecutor):
    """A one-worker thread pool that iterates `items` at most one item ahead.

    Use it as a context manager and iterate the object. While the caller
    holds item k, the worker produces item k+1. An exception raised by
    `items` reaches the caller as the same object. Leaving the `with` block,
    normally or by an exception, joins the worker after its one step in
    flight. `busy` counts the worker's seconds inside `items` and `waited`
    the caller's seconds blocked on the worker's result.
    """

    _END = object()  # what `next` returns once `items` run out

    def __init__(self, items):
        super().__init__(max_workers=1, thread_name_prefix="smoothtta-ahead")
        self._items = iter(items)
        self.busy = self.waited = 0.0

    def _step(self):
        t = time.perf_counter()
        item = next(self._items, self._END)
        self.busy += time.perf_counter() - t
        return item

    def __iter__(self):
        ahead = self.submit(self._step)
        while True:
            t = time.perf_counter()
            item = ahead.result()  # re-raises the worker's exception
            self.waited += time.perf_counter() - t
            if item is self._END:
                return
            ahead = self.submit(self._step)
            yield item


def _metrics(chunk: _Chunk, corrected: np.ndarray, sl: slice) -> dict[str, list[float]]:
    err_b = chunk.residuals[:, sl]
    err_c = chunk.targets[:, sl] - corrected[:, sl]
    return {
        "mse_base": np.mean(err_b**2, axis=(1, 2)).tolist(),
        "mse_corrected": np.mean(err_c**2, axis=(1, 2)).tolist(),
        "mae_base": np.mean(np.abs(err_b), axis=(1, 2)).tolist(),
        "mae_corrected": np.mean(np.abs(err_c), axis=(1, 2)).tolist(),
    }


def rollout(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None = None,
    part: str = "test",
    contamination_ratio: float = 0.0,
    contamination_sigma: np.ndarray | None = None,
    anchors: tuple[int, int] | None = None,
    headline_slice: slice | None = None,
    extra_slices: dict[str, slice] | None = None,
) -> EvalReport:
    """Correct every window of a split and collect per-window metrics.

    Protocol hooks: `contamination_ratio` corrupts the visible prefix at
    +-6 sigma, `anchors=(support, count)` switches to sparse-anchor
    boundaries, `headline_slice` restricts the headline metrics to a step
    range and `extra_slices` adds named step-range metrics (near/far
    fields). All metrics are computed against clean targets.
    """
    config.validate()
    s = config.solver
    H = config.horizon
    schedule = s.schedule()
    use_decoder = schedule.global_mix > 0 and decoder_params is not None
    backbone_digest = backbone.param_digest()
    sigma = contamination_sigma if contamination_sigma is not None else dataset.train_std()
    slices = {"": headline_slice if headline_slice is not None else slice(0, H)}
    slices.update({f"{name}_": sl for name, sl in (extra_slices or {}).items()})

    plan = _Plan(_window_starts(dataset, config, part), H, config.memory_schedule)
    chunks = _execute(plan, backbone, dataset, config, use_local=not s.global_only,
                      use_memory=not s.no_memory, contamination_ratio=contamination_ratio,
                      contamination_sigma=sigma, anchors=anchors)
    rows: list[dict] = []
    t0 = time.perf_counter()
    with _OneAhead(chunks) as ahead:  # the worker owns `plan` until the join
        for c in ahead:
            delta = np.zeros_like(c.forecasts)
            if c.lengths.any():  # an empty boundary keeps the zero-shot forecast
                sel = slice(None) if c.lengths.all() else c.lengths > 0
                global_field = (
                    decode_batch(decoder_params, c.forecasts[sel], c.local[sel], c.padded[sel],
                                 c.masks[sel], c.templates[sel], c.contexts[sel])
                    if use_decoder else np.zeros_like(c.local[sel])
                )
                delta[sel] = fuse(c.local[sel], global_field, schedule)
            corrected = c.forecasts + delta
            columns = {
                "window": c.windows.tolist(),
                "start": c.starts.tolist(),
                "prefix_length": c.lengths.tolist(),
                "memory_version": c.versions.tolist(),
            }
            for prefix, sl in slices.items():
                columns.update({prefix + k: v for k, v in _metrics(c, corrected, sl).items()})
            rows.extend(dict(zip(columns, values)) for values in zip(*columns.values()))
    elapsed = time.perf_counter() - t0

    if backbone.param_digest() != backbone_digest:
        raise ContractViolation("backbone parameters changed during rollout")
    if decoder_params is not None and decoder_params.digest() != decoder_params.frozen_digest:
        raise ContractViolation("decoder parameters changed after they were frozen")

    report = EvalReport(
        dataset=dataset.name,
        backbone=getattr(backbone, "kind", type(backbone).__name__),
        manifest=config.manifest(),
        rows=rows,
        n_flagged=plan.n_flagged,
        timing={
            "rollout_seconds": elapsed,
            "windows": len(rows),
            "worker_busy_seconds": ahead.busy,
            "caller_wait_seconds": ahead.waited,
        },
    )
    report.extra = report.aggregate()
    for name in (extra_slices or {}):
        report.extra.update(aggregate_rows(rows, prefix=f"{name}_"))
    return report


def build_decoder_training_set(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    part: str = "val",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel decoder samples from a simulated rollout.

    Replays the deployment pipeline (prefix selection, local solve, safe
    memory schedule) through the engine over fully observed windows,
    emitting one feature row per (window, channel) with the full residual as
    regression target. Ablation switches do not apply here. Returns
    (features, targets, local_fields, gate).
    """
    config.validate()
    H, d = config.horizon, dataset.channels
    gate = global_gate(config.solver.schedule(ablate=False), H)
    plan = _Plan(_window_starts(dataset, config, part), H, "safe")
    capacity = len(plan.starts) * d  # rows when no window is flagged
    feats = np.empty((capacity, 5 * H + 2 * config.solver.context_size))
    targets, locals_ = np.empty((capacity, H)), np.empty((capacity, H))
    n = 0
    for c in _execute(plan, backbone, dataset, config):
        k = len(c.windows) * d
        feats[n : n + k] = build_features(
            c.forecasts, c.local, c.padded, c.masks, c.templates, c.contexts
        ).reshape(k, -1)
        targets[n : n + k] = c.residuals.transpose(0, 2, 1).reshape(k, H)
        locals_[n : n + k] = c.local.transpose(0, 2, 1).reshape(k, H)
        n += k
    if n == 0:
        raise DataError(f"no usable windows in the {part} split")
    return feats[:n], targets[:n], locals_[:n], gate


def train_decoder_for(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    part: str = "val",
    train_config: TrainConfig | None = None,
) -> tuple[DecoderParams, list[float]]:
    """Initialize and fit a decoder from simulated rollouts over one split.

    Logs the training-set build time and, per FEATURE_LAYOUT block, the
    number of columns that are zero in every row (their W1 columns only decay
    in training) on the `smoothtta.decoder` logger, next to `train_decoder`'s
    event for the gradient gate and the optimizer.
    """
    started = time.perf_counter()
    feats, targets, locals_, gate = build_decoder_training_set(
        backbone, dataset, config, part
    )
    elapsed = time.perf_counter() - started
    zero = ~feats.any(axis=0)
    blocks = feature_blocks(config.horizon, config.solver.context_size)
    decoder_log.info(
        "decoder training set: %d rows of width %d built in %.3f s; "
        "columns zero in every row, by block: %s",
        feats.shape[0], feats.shape[1], elapsed,
        ", ".join(f"{name} {int(zero[cols].sum())}/{cols.stop - cols.start}"
                  for name, cols in blocks.items()),
    )
    params = init_params(
        horizon=config.horizon,
        context_size=config.solver.context_size,
        hidden=config.solver.hidden_dim,
        output_scale=config.solver.global_scale,
        seed=config.seed,
    )
    cfg = train_config or TrainConfig(seed=config.seed)
    return train_decoder(params, feats, targets, locals_, gate, cfg)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def write_rows(rows: list[dict], path) -> None:
    """Rows as CSV with full-precision floats; byte-stable for equal rows."""
    if not rows:
        with open(path, "w") as fh:
            fh.write("")
        return
    keys = list(rows[0].keys())
    lines = [",".join(keys)]
    for row in rows:
        lines.append(",".join(_format_value(row[k]) for k in keys))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_metrics_csv(report: EvalReport, path) -> None:
    """Per-window metric rows; full-precision floats, byte-stable given a seed."""
    write_rows(report.rows, path)


def write_manifest(report: EvalReport, path) -> None:
    payload = {
        "dataset": report.dataset,
        "backbone": report.backbone,
        "config": report.manifest,
        "n_windows": report.n_windows,
        "n_flagged": report.n_flagged,
        "aggregates": report.extra,
        "timing": report.timing,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
