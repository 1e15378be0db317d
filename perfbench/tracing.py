"""In-memory spans around the program's public functions, installed from outside.

Each traced function is replaced, in every ``smoothtta`` module namespace
that binds it, by a wrapper that records a span: (name, start, end, parent
span index, operation id). Wrapping at the names the engine looks up means
``smoothtta.rollout.solve_local`` is traced as well as
``smoothtta.local.solve_local``, so per-layer numbers need no edit to the
program. A target that no longer exists is skipped and reports 0 calls.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    """Span and counter store for one traced region.

    ``op`` is the operation id stamped on every span opened while it is set.
    ``counts`` holds exact counters recorded at the same boundaries.
    ``seen`` remembers returned objects; tracers of one run share it, so an
    object built under one tracer counts as reused under the next.
    """

    def __init__(self, seen: dict | None = None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        self.counts: dict[str, float] = defaultdict(float)
        self.seen: dict[int, object] = {} if seen is None else seen

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def seen_before(self, obj) -> bool:
        """True when this exact object was returned earlier (a reuse, not a build)."""
        hit = id(obj) in self.seen
        self.seen[id(obj)] = obj  # keep it alive so its id cannot be reused
        return hit


def _count_windows(tracer, args, kwargs, report):
    tracer.counts["rollout.windows"] += report.n_windows


def _count_macs(tracer, args, kwargs, out):
    params = args[0] if args else kwargs["params"]
    tracer.counts["decoder.decode.macs"] += out.shape[1] * (params.W1.size + params.W2.size)


def _count_operator_hits(tracer, args, kwargs, op):
    tracer.counts["chain.operator.hits"] += tracer.seen_before(op)


# (layer name, defining module, attribute path, counter hook)
TARGETS = (
    ("backbones.predict", "smoothtta.backbones", "LinearForecaster.predict", None),
    ("backbones.fit", "smoothtta.backbones", "fit_linear_backbone", None),
    ("data.load_csv", "smoothtta.data", "load_csv", None),
    ("paramio.io", "smoothtta.paramio", "save_blocks", None),
    ("paramio.io", "smoothtta.paramio", "load_blocks", None),
    ("boundary.period", "smoothtta.boundary", "estimate_dominant_period", None),
    ("boundary.build", "smoothtta.boundary", "build_boundary", None),
    ("boundary.contaminate", "smoothtta.boundary", "contaminate_prefix", None),
    ("chain.operator", "smoothtta.chain", "build_transfer_operator", _count_operator_hits),
    ("local.solve", "smoothtta.local", "solve_local", None),
    ("decoder.decode", "smoothtta.decoder", "decode", _count_macs),
    ("decoder.gradcheck", "smoothtta.decoder", "gradient_check", None),
    ("decoder.train", "smoothtta.decoder", "train_decoder", None),
    ("memory.update", "smoothtta.memory", "update_memory", None),
    ("memory.context", "smoothtta.memory", "context_vector", None),
    ("fusion.fuse", "smoothtta.fusion", "fuse", None),
    ("fusion.apply", "smoothtta.fusion", "apply_correction", None),
    ("rollout.engine", "smoothtta.rollout", "rollout", _count_windows),
    ("rollout.correct_window", "smoothtta.rollout", "correct_window", None),
    ("rollout.trainset", "smoothtta.rollout", "build_decoder_training_set", None),
    ("rollout.write", "smoothtta.rollout", "write_metrics_csv", None),
    ("rollout.write", "smoothtta.rollout", "write_manifest", None),
    ("protocols.grid", "smoothtta.protocols", "run_contamination_grid", None),
    ("cli.main", "smoothtta.cli", "main", None),
)


def _wrap(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


class Patch:
    """Installed wrappers; ``restore()`` puts every original back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _resolve(module_name: str, path: str):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attr


def install(tracer: Tracer, targets=TARGETS) -> Patch:
    """Wrap every target at each name that binds it, recording into ``tracer``.

    Untraced passes run with the patch restored, so they pay no wrapper cost.
    """
    patch = Patch()
    for layer, module_name, path, hook in targets:
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            continue
        wrapper = _wrap(tracer, layer, original, hook)
        if "." in path:  # a method: patch the class attribute only
            patch.saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            continue
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "smoothtta" or n.startswith("smoothtta."))
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    patch.saved.append((module, key, original))
                    setattr(module, key, wrapper)
    return patch


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls and summed self time per span name."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for rec, own in zip(spans, self_times(spans)):
        totals[rec[0]]["calls"] += 1
        totals[rec[0]]["self_s"] += own
    return dict(totals)


def write_spans(path, spans: list[list], region: str) -> None:
    """Append spans with their self time as CSV rows tagged with the region."""
    own = self_times(spans)
    new = not path.exists()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        if new:
            w.writerow(["region", "index", "name", "start", "end", "parent", "op", "self_s"])
        for i, (rec, s) in enumerate(zip(spans, own)):
            w.writerow([region, i, rec[0], repr(rec[1]), repr(rec[2]), rec[3], rec[4], repr(s)])
