"""In-memory span tracer that wraps the package's public functions from
outside the package.

Wrapping replaces module and class attributes, because that is where the
package's call sites resolve these functions today: ``model`` calls
``layers.*``, ``optim`` calls ``model_mod.forward``/``backward`` and its own
imported name ``batchify``, ``cli`` calls ``data_mod.batchify`` and
``model.predict``, and ``evaluation`` and ``layers._gru_run`` call their
module globals. ``AdamState.step`` and the ``ParamSet`` methods are wrapped
on their classes. Every attribute is restored when ``installed`` exits.

A span is ``[name, start, end, parent index]``; spans stay in memory and
are written out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from cbgru import cli, data, evaluation, layers, model, optim

COUNT_ONLY = "count-only"
NEST_TOLERANCE_S = 1e-9


def _arg(fn: Callable, args: tuple, kwargs: dict, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _on_batchify(counts, fn, args, kwargs, out) -> None:
    batches, skipped = out
    counts["data.encoded"] += sum(b.size for b in batches)
    counts["data.skipped_short"] += skipped


def _on_forward(counts, fn, args, kwargs, out) -> None:
    counts["model.forward.samples"] += _arg(fn, args, kwargs, "batch").size


def _on_predict_records(counts, fn, args, kwargs, out) -> None:
    counts["cli.pairs_enumerated"] += len(_arg(fn, args, kwargs, "samples"))
    counts["cli.pairs_scored"] += len(out)


def _on_bootstrap(counts, fn, args, kwargs, out) -> None:
    counts["evaluation.bootstrap.resamples"] += _arg(fn, args, kwargs, "b")


# (owner, attribute, span name, hook); COUNT_ONLY counts calls without a span
TARGETS = [
    (data, "parse_corpus", "data.parse_corpus", None),
    (data, "corpus_samples", "data.corpus_samples", None),
    (data, "build_vocab", "data.build_vocab", None),
    (data, "batchify", "data.batchify", _on_batchify),
    (optim, "batchify", "data.batchify", _on_batchify),
    (layers, "embed_forward", "layers.embed.fwd", None),
    (layers, "embed_backward", "layers.embed.bwd", None),
    (layers, "conv_forward", "layers.conv.fwd", None),
    (layers, "conv_backward", "layers.conv.bwd", None),
    (layers, "bigru_forward", "layers.bigru.fwd", None),
    (layers, "bigru_backward", "layers.bigru.bwd", None),
    (layers, "gru_step", "layers.gru_step", COUNT_ONLY),
    (layers, "max_pool", "layers.pool.fwd", None),
    (layers, "attentive_pool", "layers.pool.fwd", None),
    (layers, "max_pool_backward", "layers.pool.bwd", None),
    (layers, "attentive_pool_backward", "layers.pool.bwd", None),
    (model, "forward", "model.forward", _on_forward),
    (model, "backward", "model.backward", None),
    (model, "predict", "model.predict", None),
    (model, "init_params", "model.init_params", None),
    (model, "checkpoint_load", "model.checkpoint_load", None),
    (model.ParamSet, "l2_sum", "model.l2_sum", None),
    (model.ParamSet, "add_l2_grads", "model.add_l2_grads", None),
    (model.ParamSet, "copy", "model.params_copy", None),
    (optim, "train_epoch", "optim.train_epoch", None),
    (optim.AdamState, "step", "optim.adam_step", None),
    (evaluation, "micro_f1", "evaluation.micro_f1", None),
    (evaluation, "per_class_and_category", "evaluation.per_class_and_category", None),
    (evaluation, "distance_curve", "evaluation.distance_curve", None),
    (evaluation, "bootstrap_ci", "evaluation.bootstrap_ci", _on_bootstrap),
    (evaluation, "build_report", "evaluation.build_report", None),
    (cli, "train_model", "cli.train_model", None),
    (cli, "predict_records", "cli.predict_records", _on_predict_records),
]

# per-layer metrics read from self times ('.s') and call counts ('.calls')
SELF_TIME = [
    "layers.bigru.fwd", "layers.bigru.bwd", "layers.conv.fwd", "layers.conv.bwd",
    "layers.embed.fwd", "layers.embed.bwd", "layers.pool.fwd", "layers.pool.bwd",
    "model.forward", "model.backward", "model.predict", "model.l2_sum", "model.add_l2_grads",
    "model.params_copy", "model.checkpoint_load", "model.init_params", "optim.adam_step",
    "data.parse_corpus", "data.corpus_samples", "data.build_vocab", "data.batchify",
    "evaluation.micro_f1", "evaluation.per_class_and_category", "evaluation.distance_curve",
    "evaluation.bootstrap_ci", "cli.train_model", "cli.predict_records",
]
CALLS = ["optim.adam_step", "data.batchify", "evaluation.micro_f1"]
# hook or count-only counter -> metric name
COUNTS = {
    "layers.gru_step": "layers.gru_step.calls",
    "data.skipped_short": "data.skipped_short",
    "evaluation.bootstrap.resamples": "evaluation.bootstrap.resamples",
    "cli.pairs_enumerated": "cli.pairs_enumerated",
    "cli.pairs_scored": "cli.pairs_scored",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def _wrap(self, fn: Callable, name: str, hook) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        if hook == COUNT_ONLY:

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, fn, args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def check_nesting(self) -> List[str]:
        """Every self time is >= 0 and the children of a span sum to no more
        than the span itself."""
        children = self._child_time(lambda name: True)
        errors = []
        for i, (name, start, end, _) in enumerate(self.spans):
            if end - start - children[i] < -NEST_TOLERANCE_S:
                errors.append(f"span {i} ({name}): children cover {children[i]:.9f}s of {end - start:.9f}s")
        return errors

    def _child_time(self, keep: Callable[[str], bool]) -> List[float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and keep(name):
                covered[parent] += end - start
        return covered

    def step_ms(self) -> List[float]:
        """Forward + backward + Adam per training batch: from the start of a
        training forward to the end of the Adam step that follows it."""
        steps, fwd_start = [], None
        for name, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != "optim.train_epoch":
                continue
            if name == "model.forward":
                fwd_start = start
            elif name == "optim.adam_step" and fwd_start is not None:
                steps.append(1000.0 * (end - fwd_start))
                fwd_start = None
        return steps

    def metrics(self, jobs: int) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics, each a total over one job (mean over ``jobs``)."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        children = self._child_time(lambda name: True)
        layer_children = self._child_time(lambda name: name.startswith("layers."))
        head = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - children[i]
            calls[name] += 1
            if name == "model.forward":
                head += end - start - layer_children[i]

        out: Dict[str, Tuple[float, str]] = {}
        for name in SELF_TIME:
            out[f"{name}.s"] = (self_s[name] / jobs, "s")
        for name in CALLS:
            out[f"{name}.calls"] = (calls[name] / jobs, "count")
        for counter, metric in COUNTS.items():
            out[metric] = (self.counts[counter] / jobs, "count")
        out["model.head.self_s"] = (head / jobs, "s")
        steps = self.step_ms()
        out["optim.step_ms.p50"] = (_quantile(steps, 0.5), "ms")
        out["optim.step_ms.p90"] = (_quantile(steps, 0.9), "ms")
        out["optim.step_ms.n"] = (float(len(steps)), "count")
        consumed = self.counts["model.forward.samples"]
        out["data.encode_ratio"] = (self.counts["data.encoded"] / consumed if consumed else 0.0, "ratio")
        return out

    def dump(self, path: str, t0: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0, "end": end - t0, "parent": parent}) + "\n")


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
