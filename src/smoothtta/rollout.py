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
- Execute. Windows run in chronological chunks under a fixed byte budget
  that serves the worker and the training-set build. `_execute` prepares
  each chunk: one backbone call, one FFT period estimate, the boundary
  (contamination and anchors are transforms on the batched arrays, seeded
  per window index), one local solve per prefix length and a streaming EMA
  fold of the memory. It keeps a window's
  residual for the fold only while a later window will fold it. The
  consumer corrects the chunk in views of at most `BLOCK_ROWS` (window,
  channel) rows, each with one decoder pass and one clipped fusion, which
  bounds the decoder's activations. `rollout` folds the memory only
  when the decoder in use reads it (`DecoderParams.reads_memory`): with no
  decoder, with `global_mix` 0, or with a decoder whose memory-template and
  context W1 columns are all zero, the worker folds nothing and the windows
  read a cold memory, which such a decoder ignores. The manifest records
  the choice as `memory_folded`; the plan's memory versions are the same.
  `rollout` steps `_execute` on a one-worker thread pool, one chunk ahead:
  it submits the step to chunk k+1, corrects chunk k, then takes the step's
  result, so at most one step is in flight. BLAS, FFT and large ufunc loops
  release the GIL, so the two halves overlap on two cores. Each chunk's
  arithmetic is the same on either thread, and every block multiplies the
  chunk's span (`decode_batch`'s `min_span`), so outputs are unchanged.
  `build_decoder_training_set` iterates `_execute` inline: it copies each
  chunk's fields into a `FeatureStore`, and a chunk prepared ahead would
  only raise its peak memory.

The per-window API (`correct_window` and the functions it calls) runs the
same kernels with a batch of one. Both read constants built once from the
configuration: the transfer operator per (H, alpha), the local propagator
per (H, alpha, a) and the fusion gate per (schedule, H).
"""

from __future__ import annotations

import json
import logging
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .backbones import predict_batch
from .boundary import (PrefixBoundary, contaminate_errors, derive_seeds, estimate_periods,
                       prefix_hits, select_prefix_length)
from .chain import build_transfer_operator
from .config import RolloutConfig
from .data import DataError, Dataset
from .decoder import (DecoderParams, FeatureStore, decode, decode_batch, decoder_span,
                      feature_blocks, init_params, input_width, train_decoder)
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

# Execute-chunk budget. A chunk takes CHUNK_BYTES // (8 * d * (5H + 2K)) windows, the
# decoder's input width per window; it holds about six (H, d) fields per window (forecasts,
# targets, residuals, padded errors, local field, template) and the masks and contexts, so
# about 1.2 budgets. It serves the worker, whose calls stream their weights once per chunk,
# and the training-set build, which holds one chunk; `rollout` two. Another size can move
# the last bits of the outputs: short BLAS products may round differently from tall ones.
CHUNK_BYTES = 4 << 20
BLOCK_ROWS = 256  # rows per block of rollout's decoder pass: its activations, ~2 MB at H=96

decoder_log = logging.getLogger("smoothtta.decoder")


class ContractViolation(RuntimeError):
    """Leakage or frozen-parameter breach (CLI exit code 4)."""


UNREVEALED_KEYS = ("mse_base_unrevealed", "mse_corrected_unrevealed", "improvement_unrevealed")


@dataclass
class EvalReport:
    dataset: str
    backbone: str
    manifest: dict
    rows: list[dict]
    # per row: squared-error sums, base and corrected, over the (step, channel) entries
    # the window's boundary left unobserved, and their count; never a CSV column
    unrevealed: np.ndarray
    n_flagged: int = 0
    timing: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def n_windows(self) -> int:
        return len(self.rows)

    def aggregate(self) -> dict:
        """`aggregate_rows`, then the `UNREVEALED_KEYS`, pooled over every window's
        unrevealed entries: NaN if there are none, or if their base error is zero."""
        agg = aggregate_rows(self.rows)
        base, corrected, count = self.unrevealed.sum(axis=0).tolist()
        agg["mse_base_unrevealed"] = base / count if count else math.nan
        agg["mse_corrected_unrevealed"] = corrected / count if count else math.nan
        agg["improvement_unrevealed"] = (base - corrected) / base if base else math.nan
        return agg

    def summary(self) -> dict:
        """The run's identity and counts, then `extra`: `rollout` fills it with `aggregate()`."""
        return {
            "dataset": self.dataset,
            "backbone": self.backbone,
            "n_windows": self.n_windows,
            "n_flagged": self.n_flagged,
            **self.extra,
        }

    def summary_row(self, keys=("mse_base", "mse_corrected", "improvement", *UNREVEALED_KEYS),
                    **lead) -> dict:
        """One summary-CSV row: the `lead` columns, then the named aggregates from `extra`."""
        return {**lead, **{k: self.extra[k] for k in keys}}


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
    read: those with t_j + gap <= t_i, where `gap` is H under the safe
    schedule (the horizon has elapsed) and 1 under ``immediate`` (all of them).
    """

    def __init__(self, starts: np.ndarray, horizon: int, schedule: str):
        self.starts, self.horizon = starts, horizon
        self.gap = horizon if schedule == "safe" else 1
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
        starts = self.starts[lo:hi]
        versions = self.counts[np.searchsorted(self.starts[:hi], starts - self.gap, side="right")]
        consumed = self.fed[versions] + self.horizon - 1  # last target a version-v memory has read
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

    def __getitem__(self, b: slice) -> _Chunk:
        return _Chunk(*(getattr(self, f.name)[b] for f in fields(self)))


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
        keys = [[config.seed, 104729, i] for i in windows.tolist()]
        masks[np.arange(n)[:, None], prefix_hits(keys, support, count, 1)[0][:, 0]] = 1.0
        return np.full(n, support), masks, np.where(masks[..., None] > 0, residuals, 0.0)

    # the delayed-revelation budget: each window's period estimate, or the fixed prefix
    fft = config.prefix == "fft"
    periods = estimate_periods(X, fallback=floor).tolist() if fft else n * [config.prefix]
    lengths = np.array([select_prefix_length(p, p, H, floor) for p in periods], dtype=int)
    masks = (np.arange(H) < lengths[:, None]).astype(float)
    padded = np.where(masks[..., None] > 0, residuals, 0.0)
    if contamination_ratio > 0:
        hit = np.flatnonzero(lengths > 0)
        seeds = derive_seeds([[config.seed, 15485863, i] for i in windows[hit].tolist()])
        padded[hit] = contaminate_errors(padded[hit], forecasts[hit], lengths[hit],
                                         contamination_ratio, contamination_sigma, seeds)
    return lengths, masks, padded


def _execute(plan: _Plan, backbone, dataset: Dataset, config: RolloutConfig,
             use_local: bool = True, use_memory: bool = True, **protocol):
    """Yield a `_Chunk` for every execute chunk that has unflagged windows.

    `use_local=False` zeroes the local branch and `use_memory=False` reads a
    cold memory; the plan's versions still count the real memory. Residuals
    are kept for the fold only when some later window folds them.
    `protocol` goes to `_boundaries`.
    """
    s = config.solver
    values = dataset.values
    H, L, d, K = config.horizon, config.lookback, dataset.channels, s.context_size
    op = build_transfer_operator(H, s.smoothness_alpha)
    size = max(1, CHUNK_BYTES // (8 * d * input_width(H, K)))
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
        del X  # read only by the period estimate

        solved = np.unique(lengths[lengths > 0]).tolist() if use_local else []
        # one prefix length for the whole chunk: the solve's own field, not a zero-filled copy
        local = None if len(solved) == 1 and lengths.all() else np.zeros_like(residuals)
        for a in solved:
            sel = lengths == a
            combined = solve_local(padded[sel, :a], op, s.ridge_coef, s.basis_clip,
                                   s.local_mix).combined
            if local is None:
                local = combined
            else:
                local[sel] = combined

        if use_memory:
            summaries[n_summaries : n_summaries + len(idx)] = residual_summaries(residuals)
            n_summaries += len(idx)
            # only windows that the last window may fold; starts ascend, so a prefix
            pending.extend(residuals[: np.searchsorted(t + plan.gap, plan.starts[-1], "right")])
            top = int(versions[-1])
            folds = [pending.popleft() for _ in range(top - version)]
            snapshots = fold_templates(template, folds, s.memory_decay)
            templates = snapshots[versions - version]
            contexts = context_rows(summaries[:n_summaries], versions, K)
            template, version = snapshots[-1].copy(), top  # a view would keep `snapshots`
            del folds, snapshots
        else:
            templates = np.zeros_like(residuals)
            contexts = np.zeros((len(idx), 2 * K))

        yield _Chunk(idx, t, versions, forecasts, targets, residuals, lengths, masks,
                     padded, local, templates, contexts)
        del idx, t, forecasts, versions, targets, residuals, lengths, masks, padded, local
        del templates, contexts  # nothing of this chunk stays bound while the next is prepared


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


def _scores(chunk: _Chunk, corrected: np.ndarray, slices: dict[str, slice]):
    """A block's per-window mean errors over each of `slices`' steps, and (n, 3) sums: base
    and corrected squared errors over the steps its mask leaves unobserved, and their count.
    Each error's |e| is squared in place, one buffer at a time, for every slice and the sums."""
    unseen = 1.0 - chunk.masks
    columns = {p + k: None for p in slices for k in ("mse_base", "mse_corrected", "mae_base",
                                                    "mae_corrected")}
    sums = []
    for kind, err in (("base", chunk.residuals), ("corrected", chunk.targets - corrected)):
        mag = np.abs(err)
        for p, sl in slices.items():
            columns[f"{p}mae_{kind}"] = np.mean(mag[:, sl], axis=(1, 2)).tolist()
        mag *= mag  # |e| * |e| == e**2, bit for bit
        for p, sl in slices.items():
            columns[f"{p}mse_{kind}"] = np.mean(mag[:, sl], axis=(1, 2)).tolist()
        sums.append(np.matmul(unseen[:, None], mag).sum(axis=(1, 2)))  # (1, H) @ (H, d) each
        del mag
    return columns, np.stack([*sums, unseen.sum(axis=1) * corrected.shape[2]], axis=1)


def rollout(
    backbone,
    dataset: Dataset,
    config: RolloutConfig,
    decoder_params: DecoderParams | None = None,
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
    fields). All metrics are computed against clean targets. Anchors replace
    the prefix that contamination corrupts, so the two cannot be combined.
    The worker prepares chunks sized by `CHUNK_BYTES`; the caller corrects
    each in blocks of at most `BLOCK_ROWS` decoder rows, which bound its
    activations. `timing` records both threads' busy seconds. `unrevealed`
    holds each window's squared errors summed over the steps its mask leaves
    unobserved, from the same squares as the metric columns (`_scores`).
    """
    config.validate()
    if anchors is not None and contamination_ratio > 0:
        raise ValueError("rollout takes contamination_ratio or anchors, not both")
    s = config.solver
    H = config.horizon
    schedule = s.schedule()
    use_decoder = schedule.global_mix > 0 and decoder_params is not None
    fold = use_decoder and decoder_params.reads_memory and not s.no_memory
    backbone_digest = backbone.param_digest()
    sigma = contamination_sigma if contamination_sigma is not None else dataset.train_std()
    slices = {"": headline_slice if headline_slice is not None else slice(0, H)}
    slices.update({f"{name}_": sl for name, sl in (extra_slices or {}).items()})

    plan = _Plan(_window_starts(dataset, config), H, config.memory_schedule)
    chunks = _execute(plan, backbone, dataset, config, use_local=not s.global_only,
                      use_memory=fold, contamination_ratio=contamination_ratio,
                      contamination_sigma=sigma, anchors=anchors)
    rows: list[dict] = []
    unrevealed: list[np.ndarray] = []  # per block, beside its rows

    def correction(c: _Chunk, span: int) -> np.ndarray:
        global_field = (
            decode_batch(decoder_params, c.forecasts, c.local, c.padded, c.masks, c.templates,
                         c.contexts, min_span=span)
            if use_decoder else np.zeros_like(c.local)
        )
        return fuse(c.local, global_field, schedule)

    t0, busy = time.perf_counter(), 0.0
    with _OneAhead(chunks) as ahead:  # the worker owns `plan` until the join
        for chunk in ahead:
            started = time.perf_counter()
            span = decoder_span(chunk.masks, chunk.padded)  # what a one-block pass reads
            # even blocks, never one window of several: a one-row product takes
            # numpy's matrix-vector path, whose sums differ in the last bits
            n, size = len(chunk.windows), max(2, BLOCK_ROWS // dataset.channels)
            parts = max(1, min(-(-n // size), n // 2))
            for c in (chunk[n * j // parts : n * (j + 1) // parts] for j in range(parts)):
                # all windows of a chunk have a boundary or none has (zero-shot forecasts stay)
                delta = correction(c, span) if c.lengths.any() else np.zeros_like(c.forecasts)
                corrected = c.forecasts + delta
                scores, sums = _scores(c, corrected, slices)
                columns = {
                    "window": c.windows.tolist(),
                    "start": c.starts.tolist(),
                    "prefix_length": c.lengths.tolist(),
                    "memory_version": c.versions.tolist(),
                    **scores,
                }
                unrevealed.append(sums)
                rows.extend(dict(zip(columns, values)) for values in zip(*columns.values()))
            busy += time.perf_counter() - started
    elapsed = time.perf_counter() - t0

    if backbone.param_digest() != backbone_digest:
        raise ContractViolation("backbone parameters changed during rollout")
    if decoder_params is not None and decoder_params.digest() != decoder_params.frozen_digest:
        raise ContractViolation("decoder parameters changed after they were frozen")

    report = EvalReport(
        dataset=dataset.name,
        backbone=getattr(backbone, "kind", type(backbone).__name__),
        manifest={**config.manifest(), "memory_folded": fold},
        rows=rows,
        unrevealed=np.concatenate(unrevealed) if unrevealed else np.zeros((0, 3)),
        n_flagged=plan.n_flagged,
        timing={
            "rollout_seconds": elapsed,
            "windows": len(rows),
            "worker_busy_seconds": ahead.busy,
            "caller_wait_seconds": ahead.waited,
            "caller_busy_seconds": busy,
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
) -> tuple[FeatureStore, np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel decoder samples from a simulated rollout.

    Replays the deployment pipeline (prefix selection, local solve, safe
    memory schedule) through the engine over fully observed windows,
    emitting one sample per (window, channel) with the full residual as
    regression target. Ablation switches do not apply here. Returns
    (features, targets, local_fields, gate): a `FeatureStore` and two of its
    fields. It stores the template from the first chunk whose template is
    nonzero on, and no padded error, which is the residual on the mask here.
    Logs the build time, the store's and the dense rows' MiB and, per
    FEATURE_LAYOUT block, the columns zero in every row (their W1 columns
    are zero in the trained decoder) on the `smoothtta.decoder` logger.
    """
    started = time.perf_counter()
    config.validate()
    H, d, K = config.horizon, dataset.channels, config.solver.context_size
    gate = global_gate(config.solver.schedule(ablate=False), H)
    plan = _Plan(_window_starts(dataset, config, part), H, "safe")
    capacity = len(plan.starts)  # windows when none is flagged
    rows = [np.empty((capacity * d, H)) for _ in range(3)]  # forecasts, local fields, targets
    templates, masks, contexts = None, np.empty((capacity, H)), np.empty((capacity, 2 * K))
    w = 0
    for c in _execute(plan, backbone, dataset, config):
        k = len(c.windows)
        if templates is None and c.templates.any():
            templates = np.zeros((capacity * d, H))
        for out, field in zip(rows + [templates], (c.forecasts, c.local, c.residuals, c.templates)):
            if out is not None:
                out[w * d : (w + k) * d].reshape(k, d, H)[:] = field.transpose(0, 2, 1)
        masks[w : w + k], contexts[w : w + k] = c.masks, c.contexts
        w += k
        del c, field  # released before the engine prepares the next chunk
    if w == 0:
        raise DataError(f"no usable windows in the {part} split")
    store = FeatureStore(*(r[: w * d] for r in rows),
                         None if templates is None else templates[: w * d], masks[:w], contexts[:w])
    zero, (n, width) = ~store.any(axis=0), store.shape
    decoder_log.info(
        "decoder training set: %d rows of width %d built in %.3f s, stored by field in "
        "%.1f MiB besides the targets (dense rows: %.1f MiB); "
        "columns zero in every row, by block: %s",
        n, width, time.perf_counter() - started,
        (store.nbytes - store.targets.nbytes) / 2**20, n * width * 8 / 2**20,
        ", ".join(f"{name} {int(zero[cols].sum())}/{cols.stop - cols.start}"
                  for name, cols in feature_blocks(H, K).items()),
    )
    return store, store.targets, store.local_fields, gate


def decoder_shape(config: RolloutConfig) -> dict:
    """`init_params`' horizon, context_size, hidden and output_scale for `config`."""
    s = config.solver
    return dict(horizon=config.horizon, context_size=s.context_size, hidden=s.hidden_dim,
                output_scale=s.global_scale)


def fit_decoder(trainset, config: RolloutConfig) -> tuple[DecoderParams, list[float]]:
    """`train_decoder` on a `build_decoder_training_set` result, from a fresh `decoder_shape`."""
    feats, targets, locals_, gate = trainset  # no star call: its argument tuple holds the init
    return train_decoder(init_params(**decoder_shape(config), seed=config.seed),  # inline: freed
                         feats, targets, locals_, gate, seed=config.seed)


def train_decoder_for(backbone, dataset: Dataset, config: RolloutConfig):
    """`fit_decoder` on the validation split's `build_decoder_training_set`."""
    return fit_decoder(build_decoder_training_set(backbone, dataset, config), config)


def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def write_rows(rows: list[dict], path) -> None:
    """Rows as CSV with full-precision floats, no rows as an empty file; byte-stable."""
    keys = list(rows[0]) if rows else []
    lines = [",".join(keys)] + [",".join(_format_value(row[k]) for k in keys) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n" if rows else "")


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
