"""Model assembly: the conv + bidirectional-GRU classifier with max or
attentive pooling, the CNN baseline (GRU removed, max-pooled conv output),
the regularized NLL loss, exact backprop through the whole graph, and
checkpoint round-tripping.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
import zlib
from dataclasses import dataclass, field, asdict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import layers
from .data import ConfigError, InputError, SequenceBatch, Vocab, check_int, check_real
from .tensor import StateError, glorot_init, log_softmax, make_rng

CHECKPOINT_MAGIC = b"CBGRUCKPT\n"
CHECKPOINT_VERSION = 2


class FormatError(ValueError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class ModelConfig:
    """Architecture switches plus the training-recipe hyperparameters."""

    d_w: int = 100
    d_p: int = 10
    d_c: int = 200
    d_h: int = 100
    k: int = 3
    pooling: str = "max"  # "max" | "attentive"
    use_gru: bool = True
    dropout_p: float = 0.5
    l2_beta: float = 0.0001
    seed: int = 1
    class_names: List[str] = field(default_factory=list)

    def validate(self) -> None:
        for name in ("d_w", "d_p", "d_c", "d_h", "k"):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        if self.pooling not in ("max", "attentive"):
            raise ConfigError(f"unknown pooling mode '{self.pooling}'")
        if not isinstance(self.use_gru, bool):
            raise ConfigError(f"use_gru must be true or false, got {self.use_gru!r}")
        if self.pooling == "attentive" and not self.use_gru:
            raise ConfigError("attentive pooling requires the GRU layer")
        check_real("dropout_p", self.dropout_p)
        if not (0.0 <= self.dropout_p < 1.0):
            raise ConfigError("dropout_p must lie in [0, 1)")
        check_real("l2_beta", self.l2_beta)
        if self.l2_beta < 0:
            raise ConfigError("l2_beta must be non-negative")

    @property
    def d_x(self) -> int:
        return self.d_w + 2 * self.d_p

    @property
    def pooled_dim(self) -> int:
        return 2 * self.d_h if self.use_gru else self.d_c

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown model config keys: {sorted(unknown)}")
        cfg = cls(**obj)
        cfg.validate()
        return cfg


class ParamSpec(NamedTuple):
    """One row of the parameter table.

    ``decay`` arrays enter the L2 term and are Glorot-initialised; the rest
    are biases and start at zero. ``blocks`` splits the rows into equal
    gate blocks, each with its own Glorot limit. A ``pad_frozen`` table
    keeps column 0 (the PAD id) at zero and outside the L2 sum.
    """

    name: str
    shape: Tuple[int, ...]
    decay: bool = True
    pad_frozen: bool = False
    blocks: int = 1


def param_specs(cfg: ModelConfig, n_tokens: int, n_positions: int) -> List[ParamSpec]:
    """The parameter table of a model, in registry and checkpoint order.

    Each GRU direction stacks its gates in r, z, h order: ``W`` is
    (3*d_h, d_c), ``U`` is (3*d_h, d_h) and ``b`` is (3*d_h,).
    """
    specs = [
        ParamSpec("embed.word", (cfg.d_w, n_tokens), pad_frozen=True),
        ParamSpec("embed.pos", (cfg.d_p, n_positions), pad_frozen=True),
        ParamSpec("conv.W", (cfg.d_c, cfg.d_x * cfg.k)),
        ParamSpec("conv.b", (cfg.d_c,), decay=False),
    ]
    if cfg.use_gru:
        for prefix in ("gru_f", "gru_b"):
            specs += [
                ParamSpec(f"{prefix}.W", (3 * cfg.d_h, cfg.d_c), blocks=3),
                ParamSpec(f"{prefix}.U", (3 * cfg.d_h, cfg.d_h), blocks=3),
                ParamSpec(f"{prefix}.b", (3 * cfg.d_h,), decay=False),
            ]
    if cfg.pooling == "attentive":
        specs.append(ParamSpec("att.v", (2 * cfg.d_h,)))
    specs.append(ParamSpec("cls.W", (len(cfg.class_names), cfg.pooled_dim)))
    return specs


class ParamSet:
    """Named registry of trainable arrays with matching gradient buffers,
    laid out by a parameter table (see ``ParamSpec``). Values start at zero.
    """

    def __init__(self, specs: Sequence[ParamSpec]) -> None:
        self.specs = list(specs)
        self.values: Dict[str, np.ndarray] = {s.name: np.zeros(s.shape) for s in self.specs}
        self.grads: Dict[str, np.ndarray] = {s.name: np.zeros(s.shape) for s in self.specs}

    def names(self) -> List[str]:
        return [s.name for s in self.specs]

    def pad_frozen(self) -> List[str]:
        return [s.name for s in self.specs if s.pad_frozen]

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g.fill(0.0)

    def l2_sum(self) -> float:
        total = 0.0
        for s in self.specs:
            if s.decay:
                v = self.values[s.name]
                total += float(np.sum((v[:, 1:] if s.pad_frozen else v) ** 2))
        return total

    def add_l2_grads(self, beta: float) -> None:
        if beta == 0.0:
            return
        for s in self.specs:
            if s.decay:
                g = 2.0 * beta * self.values[s.name]
                if s.pad_frozen:
                    g[:, 0] = 0.0
                self.grads[s.name] += g

    def freeze_pad_columns(self) -> None:
        for name in self.pad_frozen():
            self.values[name][:, 0] = 0.0
            self.grads[name][:, 0] = 0.0

    def copy(self) -> "ParamSet":
        dup = ParamSet(self.specs)
        for name, value in self.values.items():
            dup.values[name][...] = value
        return dup


def init_params(cfg: ModelConfig, n_tokens: int, n_positions: int) -> ParamSet:
    """Glorot-initialized weights, zero biases, zero PAD embedding columns.

    Weights are drawn in table order, except that the weights of one layer
    (one name prefix) are drawn block by block: a GRU direction draws W_r,
    U_r, W_z, U_z, W_h, U_h, which fixes what a seed gives.
    """
    cfg.validate()
    if not cfg.class_names:
        raise ConfigError("model config carries no class names")
    rng = make_rng(cfg.seed)
    params = ParamSet(param_specs(cfg, n_tokens, n_positions))
    weights = [s for s in params.specs if s.decay]
    for _, layer in itertools.groupby(weights, key=lambda s: s.name.split(".")[0]):
        layer = list(layer)
        for gate in range(layer[0].blocks):
            for s in layer:
                block = params.values[s.name].reshape(s.blocks, -1, s.shape[-1])[gate]
                block[...] = glorot_init(block.shape[0], block.shape[1], rng)
    params.freeze_pad_columns()
    return params


def _embedding_views(params: ParamSet, grads: bool = False) -> layers.EmbeddingTables:
    src = params.grads if grads else params.values
    return layers.EmbeddingTables(word=src["embed.word"], pos=src["embed.pos"])


def _bigru_arrays(src: Dict[str, np.ndarray]) -> Tuple[layers.GruArrays, layers.GruArrays]:
    return tuple((src[f"{d}.W"], src[f"{d}.U"], src[f"{d}.b"]) for d in ("gru_f", "gru_b"))


@dataclass
class ForwardTrace:
    """Per-batch caches retained for the backward pass."""

    loss: float
    probs: np.ndarray  # (batch, n_classes)
    batch: SequenceBatch
    cfg: ModelConfig
    sample_caches: List[dict]
    m: int
    consumed: bool = False


def forward(
    batch: SequenceBatch,
    cfg: ModelConfig,
    params: ParamSet,
    train_mode: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> ForwardTrace:
    """Full pipeline: embed -> conv -> (bigru) -> pool -> dropout ->
    classifier, with loss = mean NLL + l2_beta * ||theta||^2."""
    if batch.size == 0:
        raise InputError("forward called with an empty batch")
    n_classes = len(cfg.class_names)
    dropout = train_mode and cfg.dropout_p > 0.0
    if dropout and rng is None:
        raise ConfigError("training forward with dropout needs an rng")

    tables = _embedding_views(params)
    fwd, bwd = _bigru_arrays(params.values) if cfg.use_gru else (None, None)
    w_cls = params.values["cls.W"]

    probs = np.zeros((batch.size, n_classes))
    caches: List[dict] = []
    nll = 0.0
    m = batch.size
    for i in range(m):
        y = int(batch.labels[i])
        if not (0 <= y < n_classes):
            raise IndexError(f"gold label index {y} out of range for {n_classes} classes")
        n = int(batch.lengths[i])
        tok = batch.token_ids[i, :n]
        p1 = batch.pos1_ids[i, :n]
        p2 = batch.pos2_ids[i, :n]

        x = layers.embed_forward(tok, p1, p2, tables)
        c, conv_cache = layers.conv_forward(x, params.values["conv.W"], params.values["conv.b"], cfg.k)
        cache: dict = {"tok": tok, "p1": p1, "p2": p2, "conv": conv_cache, "y": y}

        if cfg.use_gru:
            h, gru_cache = layers.bigru_forward(c, fwd, bwd)
            cache["gru"] = gru_cache
        else:
            h = c
        valid = h.shape[1]
        cache["h"] = h

        if cfg.pooling == "max":
            pooled, argmax = layers.max_pool(h, valid)
            cache["argmax"] = argmax
        else:
            pooled, _, att_cache = layers.attentive_pool(h, params.values["att.v"], valid)
            cache["att"] = att_cache
        cache["pooled"] = pooled

        if dropout:
            keep = rng.random(pooled.shape[0]) >= cfg.dropout_p
            scale = keep / (1.0 - cfg.dropout_p)
            cache["drop_scale"] = scale
            dropped = pooled * scale
        else:
            dropped = pooled
        cache["dropped"] = dropped

        logits = w_cls @ dropped
        log_probs = log_softmax(logits)
        probs[i] = np.exp(log_probs)
        nll -= log_probs[y]
        caches.append(cache)

    loss = nll / m + cfg.l2_beta * params.l2_sum()
    return ForwardTrace(loss=loss, probs=probs, batch=batch, cfg=cfg, sample_caches=caches, m=m)


def backward(trace: ForwardTrace, params: ParamSet) -> None:
    """Populates the gradient buffers with the exact gradient of the loss.
    Each trace supports a single backward pass."""
    if trace.consumed:
        raise StateError("trace already consumed by a previous backward pass")
    trace.consumed = True
    cfg = trace.cfg
    params.zero_grads()

    tables_g = _embedding_views(params, grads=True)
    fwd, bwd = _bigru_arrays(params.values) if cfg.use_gru else (None, None)
    fwd_g, bwd_g = _bigru_arrays(params.grads) if cfg.use_gru else (None, None)
    w_cls = params.values["cls.W"]

    for i, cache in enumerate(trace.sample_caches):
        d_logits = trace.probs[i].copy()
        d_logits[cache["y"]] -= 1.0
        d_logits /= trace.m

        params.grads["cls.W"] += np.outer(d_logits, cache["dropped"])
        d_dropped = w_cls.T @ d_logits
        d_pooled = d_dropped * cache["drop_scale"] if "drop_scale" in cache else d_dropped

        h = cache["h"]
        if cfg.pooling == "max":
            d_h = layers.max_pool_backward(d_pooled, cache["argmax"], h.shape)
        else:
            d_h, d_v = layers.attentive_pool_backward(d_pooled, cache["att"], h, params.values["att.v"])
            params.grads["att.v"] += d_v

        if cfg.use_gru:
            d_c = layers.bigru_backward(d_h, cache["gru"], fwd, bwd, fwd_g, bwd_g)
        else:
            d_c = d_h
        d_x, d_w, d_b = layers.conv_backward(d_c, cache["conv"], params.values["conv.W"])
        params.grads["conv.W"] += d_w
        params.grads["conv.b"] += d_b
        layers.embed_backward(d_x, cache["tok"], cache["p1"], cache["p2"], tables_g)

    params.add_l2_grads(cfg.l2_beta)
    for name in params.pad_frozen():
        params.grads[name][:, 0] = 0.0


def predict(batch: SequenceBatch, cfg: ModelConfig, params: ParamSet) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax predictions (ties break toward the lowest class index) and
    the per-sample confidence vectors. Dropout is always off."""
    trace = forward(batch, cfg, params, train_mode=False)
    return np.argmax(trace.probs, axis=1), trace.probs


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def checkpoint_save(path: str, cfg: ModelConfig, params: ParamSet, vocab: Vocab) -> None:
    """Writes the magic, an 8-byte manifest length, the manifest (JSON),
    raw little-endian float64 parameter blocks in table order, and a
    4-byte CRC-32 of everything before it, atomically (temp file + rename)."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "vocab": vocab.to_dict(),
        "params": [{"name": n, "shape": list(params.values[n].shape)} for n in params.names()],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blocks = (params.values[n].astype("<f8").tobytes() for n in params.names())
    dirname = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            crc = 0
            for chunk in itertools.chain([CHECKPOINT_MAGIC, len(blob).to_bytes(8, "little"), blob], blocks):
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
            fh.write(crc.to_bytes(4, "little"))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def checkpoint_load(path: str) -> Tuple[ModelConfig, ParamSet, Vocab]:
    """Restores a checkpoint. A wrong magic or version, a manifest that does
    not match the parameter table of its config, a file size other than the
    manifest describes, or a CRC mismatch raises FormatError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(CHECKPOINT_MAGIC) + 8)
        if head[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a checkpoint file")
        if len(head) != len(CHECKPOINT_MAGIC) + 8:
            raise FormatError(f"{path}: truncated manifest length")
        blob_len = int.from_bytes(head[len(CHECKPOINT_MAGIC) :], "little")
        if blob_len > size - len(head):
            raise FormatError(f"{path}: manifest length {blob_len} exceeds the file size {size}")
        blob = fh.read(blob_len)
        try:
            manifest = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise FormatError(f"{path}: corrupt manifest") from exc
        version = manifest.get("format_version") if isinstance(manifest, dict) else None
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        try:
            cfg = ModelConfig.from_dict(manifest["config"])
            vocab = Vocab.from_dict(manifest["vocab"])
            listed = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: invalid manifest ({exc})") from exc

        if vocab.clip < 0:
            raise FormatError(f"{path}: negative position clip {vocab.clip}")
        specs = param_specs(cfg, vocab.n_tokens, vocab.n_positions)
        if listed != [(s.name, s.shape) for s in specs]:
            raise FormatError(f"{path}: parameter shapes do not match the stored config")
        expected = len(head) + blob_len + 8 * sum(math.prod(s.shape) for s in specs) + 4
        if size < expected:
            raise FormatError(f"{path}: truncated ({size} of {expected} bytes)")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} bytes past the end of the checkpoint")

        crc = zlib.crc32(blob, zlib.crc32(head))
        params = ParamSet(specs)
        for s in specs:
            raw = fh.read(8 * params.values[s.name].size)
            crc = zlib.crc32(raw, crc)
            params.values[s.name][...] = np.frombuffer(raw, dtype="<f8").reshape(s.shape)
        if int.from_bytes(fh.read(4), "little") != crc:
            raise FormatError(f"{path}: checksum mismatch")
    return cfg, params, vocab
