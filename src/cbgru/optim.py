"""Adam updates over the parameter registry and the per-epoch training pass."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import model as model_mod
from .data import ConfigError, EncodedCorpus, InputError, batchify, check_int, check_real
from .model import ModelConfig, ParamSet
from .tensor import NumericError, make_rng


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamState:
    """Adam with bias correction, with moments ``BETA1`` and ``BETA2``.

    Holds the training state of one parameter set: the gradient buffers
    ``grads`` that ``model.backward`` fills, and the moments ``m`` and
    ``v``. Each step walks every array, flattened, in the slabs of
    ``model.slabs``, so no temporary outgrows a slab. ``grad_norms`` holds,
    per step, the global L2 norm of the gradient the step applied."""

    def __init__(self, params: ParamSet, lr: float = 0.01) -> None:
        self.lr = lr
        self.step_count = 0
        self.grads = {n: np.zeros_like(v) for n, v in params.values.items()}
        self.m = {n: np.zeros_like(v) for n, v in params.values.items()}
        self.v = {n: np.zeros_like(v) for n, v in params.values.items()}
        self.grad_norms: List[float] = []

    def step(self, params: ParamSet) -> None:
        self.step_count += 1
        b1t = 1.0 - BETA1**self.step_count
        b2t = 1.0 - BETA2**self.step_count
        sq_norm = 0.0
        for name, value in params.values.items():
            flat = [a.reshape(-1, copy=False) for a in (self.grads[name], self.m[name], self.v[name], value)]
            for sl in model_mod.slabs(value.size):
                gs, m, v, x = (a[sl] for a in flat)
                sq_norm += float(np.vdot(gs, gs))
                m *= BETA1
                m += (1.0 - BETA1) * gs
                v *= BETA2
                v += (1.0 - BETA2) * gs * gs
                x -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
        self.grad_norms.append(math.sqrt(sq_norm))


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
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        check_real("dev_fraction", self.dev_fraction)
        # the dev set is one of k stratified folds, so a fraction must be 1/k
        folds = 1.0 / self.dev_fraction if self.dev_fraction > 0 else 0.0
        if self.dev_fraction != 0 and not (2 <= folds < math.inf and math.isclose(folds, round(folds), rel_tol=1e-9)):
            raise ConfigError(f"dev_fraction must be 0 or 1/k for a whole number k >= 2, got {self.dev_fraction}")


def train_epoch(
    corpus: EncodedCorpus,
    cfg: ModelConfig,
    params: ParamSet,
    adam: AdamState,
    schedule: TrainSchedule,
    epoch: int,
) -> float:
    """One pass over every sample: shuffle with shuffle_seed XOR epoch, run
    forward/backward per mini-batch, apply Adam. A sample shorter than the
    convolution window trains as ``encode`` stored it, padded with PAD.
    Returns the mean per-batch loss."""
    rng = make_rng(schedule.shuffle_seed ^ epoch)
    batches, _ = batchify(corpus, rng.permutation(len(corpus)), schedule.batch_size)
    if not batches:
        raise InputError("the training corpus is empty")
    losses = []
    for batch in batches:
        trace = model_mod.forward(batch, cfg, params, rng=rng)
        if not np.isfinite(trace.loss):
            ids = ", ".join(batch.sample_ids)
            raise NumericError(f"epoch {epoch}: loss is {trace.loss} on the batch of samples {ids}")
        model_mod.backward(trace, params, adam.grads)
        adam.step(params)
        losses.append(trace.loss)
    return float(np.mean(losses))
