"""Adam updates over the parameter registry, the per-epoch training loop,
and dev-score early stopping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import model as model_mod
from .data import ConfigError, EncodedCorpus, InputError, batchify, check_int, check_real
from .model import ModelConfig, ParamSet
from .tensor import DimensionError, NumericError, make_rng


class AdamState:
    """Adam with bias correction; moments β1=0.9, β2=0.999, eps=1e-8."""

    def __init__(
        self,
        params: ParamSet,
        lr: float = 0.01,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {n: np.zeros_like(v) for n, v in params.values.items()}
        self.v = {n: np.zeros_like(v) for n, v in params.values.items()}

    def step(self, params: ParamSet) -> None:
        self.step_count += 1
        b1t = 1.0 - self.beta1**self.step_count
        b2t = 1.0 - self.beta2**self.step_count
        for name, value in params.values.items():
            g = params.grads[name]
            if g.shape != value.shape:
                raise DimensionError(f"gradient shape mismatch for '{name}'")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
        params.freeze_pad_columns()


@dataclass
class TrainSchedule:
    max_epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    shuffle_seed: int = 0
    lr: float = 0.01
    dev_fraction: float = 0.0

    def validate(self) -> None:
        for name in ("max_epochs", "batch_size", "patience"):
            check_int(name, getattr(self, name), 1)
        check_int("shuffle_seed", self.shuffle_seed, 0)
        if self.patience > self.max_epochs:
            raise ConfigError("patience cannot exceed max_epochs")
        check_real("lr", self.lr)
        check_real("dev_fraction", self.dev_fraction)
        if not (0.0 <= self.dev_fraction < 1.0):
            raise ConfigError("dev_fraction must lie in [0, 1)")


def train_epoch(
    corpus: EncodedCorpus,
    cfg: ModelConfig,
    params: ParamSet,
    adam: AdamState,
    schedule: TrainSchedule,
    epoch: int,
) -> float:
    """One pass over the data: shuffle with shuffle_seed XOR epoch, leave
    out the samples shorter than the convolution window, run
    forward/backward per mini-batch, apply Adam. Returns the mean per-batch
    loss."""
    rng = make_rng(schedule.shuffle_seed ^ epoch)
    order = rng.permutation(len(corpus))
    batches, _ = batchify(corpus, order[~corpus.short[order]], schedule.batch_size)
    if not batches:
        raise InputError("no training sample is as long as the convolution window")
    losses = []
    for batch in batches:
        trace = model_mod.forward(batch, cfg, params, train_mode=True, rng=rng)
        if not np.isfinite(trace.loss):
            ids = ", ".join(batch.sample_ids)
            raise NumericError(f"epoch {epoch}: loss is {trace.loss} on the batch of samples {ids}")
        model_mod.backward(trace, params)
        adam.step(params)
        losses.append(trace.loss)
    return float(np.mean(losses))


def early_stop(dev_scores: Sequence[float], patience: int) -> Tuple[bool, int]:
    """Returns (stop_now, best_epoch). Epochs are 1-based; ties pick the
    earliest best epoch. Stops once the best score is ``patience`` or more
    epochs old."""
    if not dev_scores:
        raise InputError("early_stop needs at least one score")
    best_epoch = 1 + int(np.argmax(dev_scores))
    return (len(dev_scores) - best_epoch >= patience), best_epoch
