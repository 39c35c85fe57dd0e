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
import sys
import tempfile
import zlib
from dataclasses import dataclass, field, asdict
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import layers
from .data import ConfigError, InputError, SequenceBatch, Vocab, check_int, check_real, from_section, is_str_list, make_rng

CHECKPOINT_MAGIC = b"CBGRUCKPT\n"
CHECKPOINT_VERSION = 2

# values per slab of the L2-gradient and Adam passes: 256 KB of float64,
# so a slab's gradient, moments and values stay in one core's L2 cache
SLAB_VALUES = 32768


class FormatError(ValueError):
    """Corrupt or incompatible checkpoint file."""


class StateError(RuntimeError):
    """Backward pass invoked on a trace a previous backward pass consumed."""


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
        if not is_str_list(self.class_names):
            raise ConfigError(f"class_names must be a list of strings, got {self.class_names!r}")

    @property
    def d_x(self) -> int:
        return self.d_w + 2 * self.d_p

    @property
    def pooled_dim(self) -> int:
        return 2 * self.d_h if self.use_gru else self.d_c


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


def slabs(size: int) -> Iterator[slice]:
    """Runs of ``SLAB_VALUES`` values over a flattened array of ``size``
    values; the last may be shorter."""
    for start in range(0, size, SLAB_VALUES):
        yield slice(start, start + SLAB_VALUES)


class ParamSet:
    """Named registry of trainable arrays, laid out by a parameter table
    (see ``ParamSpec``). Values start at zero. The gradient buffers are
    training state and live in ``optim.AdamState``, so a set that is only
    scored (a loaded checkpoint, a best-epoch copy) holds none.
    An array whose bytes overflow the address space raises ConfigError
    before anything is allocated.
    """

    def __init__(self, specs: Sequence[ParamSpec]) -> None:
        self.specs = list(specs)
        for s in self.specs:
            if 8 * math.prod(s.shape) > np.iinfo(np.intp).max:
                raise ConfigError(f"model: {s.name} of shape {s.shape} is too large to address")
        self.values: Dict[str, np.ndarray] = {s.name: np.zeros(s.shape) for s in self.specs}

    def names(self) -> List[str]:
        return [s.name for s in self.specs]

    def pad_frozen(self) -> List[str]:
        return [s.name for s in self.specs if s.pad_frozen]

    def l2_sum(self) -> float:
        """Sum of squares of the decayed arrays, PAD columns left out, each
        reduced in place by ``einsum`` with no squared copy of the array."""
        total = 0.0
        for s in self.specs:
            if s.decay:
                v = self.values[s.name]
                if s.pad_frozen:
                    v = v[:, 1:]
                axes = "ij"[: v.ndim]
                total += float(np.einsum(f"{axes},{axes}->", v, v))
        return total

    def add_l2_grads(self, grads: Dict[str, np.ndarray], beta: float) -> None:
        """Adds the gradient of ``beta * l2_sum()`` to ``grads`` and zeroes
        the gradient of every PAD column, one slab at a time."""
        for s in self.specs:
            g = grads[s.name]
            if s.decay and beta != 0.0:
                flat_g, flat_v = g.reshape(-1, copy=False), self.values[s.name].reshape(-1, copy=False)
                for sl in slabs(g.size):
                    gs = flat_g[sl]
                    gs += 2.0 * beta * flat_v[sl]
            if s.pad_frozen:
                g[:, 0] = 0.0

    def copy(self) -> "ParamSet":
        dup = ParamSet(self.specs)
        for name, value in self.values.items():
            dup.values[name][...] = value
        return dup


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init on [-L, L] with L = sqrt(6 / (rows + cols))."""
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


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
    for name in params.pad_frozen():
        params.values[name][:, 0] = 0.0
    return params


def _bigru_arrays(src: Dict[str, np.ndarray]) -> Tuple[layers.GruArrays, layers.GruArrays]:
    return tuple((src[f"{d}.W"], src[f"{d}.U"], src[f"{d}.b"]) for d in ("gru_f", "gru_b"))


@dataclass
class ForwardTrace:
    """Per-batch caches retained for the backward pass."""

    loss: float
    probs: np.ndarray  # (batch, n_classes)
    batch: SequenceBatch
    cfg: ModelConfig
    cache: dict  # one entry per stage, in the batch-wide column layout
    consumed: bool = False


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stable log-softmax down axis 0: over a vector, or over each column of
    a matrix."""
    z = x - x.max(axis=0)
    return z - np.log(np.exp(z).sum(axis=0))


def _run(
    batch: SequenceBatch,
    cfg: ModelConfig,
    params: ParamSet,
    rng: Optional[np.random.Generator],
    keep_cache: bool,
) -> Tuple[np.ndarray, Optional[dict]]:
    """The stage sequence embed -> conv -> (bigru) -> pool -> dropout ->
    classifier, once over the batch on the concatenation of the samples'
    columns; pooling leaves one column per sample. Returns the
    (n_classes, batch) log-probabilities and, with ``keep_cache``, one
    cache entry per stage for ``backward`` (else None, and no stage keeps
    what only ``backward`` reads). Dropout runs when an ``rng`` is given
    and ``dropout_p`` is positive; its masks are drawn as one (batch,
    pooled_dim) array, sample by sample.

    This is the one place a batch is checked: it is not empty, its labels
    are class indices, and its samples, each at least k columns, tile its
    id columns. The layers trust what passes."""
    if batch.size == 0:
        raise InputError("forward called with an empty batch")
    n_classes = len(cfg.class_names)
    labels = batch.labels
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise IndexError(f"gold label index {labels[bad][0]} out of range for {n_classes} classes")
    if batch.lengths.min() < cfg.k or batch.lengths.sum() != batch.ids.shape[1]:
        raise InputError(f"sample lengths {batch.lengths.tolist()} must be >= k = {cfg.k} and sum to {batch.ids.shape[1]}")

    x = layers.embed_forward(batch.ids, params.values["embed.word"], params.values["embed.pos"])
    c, conv_cache = layers.conv_forward(
        x, params.values["conv.W"], params.values["conv.b"], cfg.k, batch.lengths, keep_cache=keep_cache
    )
    del x  # the conv cache holds its windows, so x itself need not live on
    steps = batch.lengths - cfg.k + 1
    gru_cache = None
    if cfg.use_gru:
        h, gru_cache = layers.bigru_forward(c, steps, *_bigru_arrays(params.values), keep_cache=keep_cache)
    else:
        h = c
    if cfg.pooling == "max":
        pooled, pool_cache = layers.max_pool(h, steps, keep_cache=keep_cache)
    else:
        pooled, _, pool_cache = layers.attentive_pool(h, params.values["att.v"], steps)
    drop_scale = None
    if rng is not None and cfg.dropout_p > 0.0:
        keep = rng.random((batch.size, pooled.shape[0])).T >= cfg.dropout_p
        drop_scale = keep / (1.0 - cfg.dropout_p)
        pooled = pooled * drop_scale
    log_probs = log_softmax(params.values["cls.W"] @ pooled)
    if not keep_cache:
        return log_probs, None
    return log_probs, dict(conv=conv_cache, gru=gru_cache, h=h, pool=pool_cache, drop_scale=drop_scale, dropped=pooled)


def forward(
    batch: SequenceBatch,
    cfg: ModelConfig,
    params: ParamSet,
    rng: Optional[np.random.Generator] = None,
) -> ForwardTrace:
    """The full pipeline (see ``_run``) with every cache ``backward`` reads,
    and loss = mean NLL + l2_beta * ||theta||^2."""
    log_probs, cache = _run(batch, cfg, params, rng, keep_cache=True)
    loss = -log_probs[batch.labels, np.arange(batch.size)].mean() + cfg.l2_beta * params.l2_sum()
    return ForwardTrace(loss=loss, probs=np.exp(log_probs.T), batch=batch, cfg=cfg, cache=cache)


def backward(trace: ForwardTrace, params: ParamSet, grads: Dict[str, np.ndarray]) -> None:
    """Sets ``grads``, one entry per parameter array, to the exact gradient
    of the loss, one pass per stage in reverse. Each dense entry becomes
    the array its stage returns; the embedding tables' buffers are
    overwritten in place by ``layers.embed_backward``. Each trace supports
    a single backward pass."""
    if trace.consumed:
        raise StateError("trace already consumed by a previous backward pass")
    trace.consumed = True
    cfg, cache, size = trace.cfg, trace.cache, trace.batch.size

    d_logits = trace.probs.T.copy()
    d_logits[trace.batch.labels, np.arange(size)] -= 1.0
    d_logits /= size
    grads["cls.W"] = d_logits @ cache["dropped"].T
    d_pooled = params.values["cls.W"].T @ d_logits
    if cache["drop_scale"] is not None:
        d_pooled *= cache["drop_scale"]

    h = cache["h"]
    if cfg.pooling == "max":
        d_h = layers.max_pool_backward(d_pooled, cache["pool"], h.shape)
    else:
        d_h, grads["att.v"] = layers.attentive_pool_backward(d_pooled, cache["pool"], h, params.values["att.v"])
    if cfg.use_gru:
        d_h, *directions = layers.bigru_backward(d_h, cache["gru"], *_bigru_arrays(params.values))
        for prefix, direction in zip(("gru_f", "gru_b"), directions):
            grads[f"{prefix}.W"], grads[f"{prefix}.U"], grads[f"{prefix}.b"] = direction

    d_x, grads["conv.W"], grads["conv.b"] = layers.conv_backward(d_h, cache["conv"], params.values["conv.W"])
    layers.embed_backward(d_x, trace.batch.ids, grads["embed.word"], grads["embed.pos"])

    params.add_l2_grads(grads, cfg.l2_beta)


def predict(batch: SequenceBatch, cfg: ModelConfig, params: ParamSet) -> Tuple[np.ndarray, np.ndarray]:
    """Argmax predictions (ties break toward the lowest class index) and
    the per-sample confidence vectors, from the pipeline ``forward`` runs
    but with dropout off and no backward cache kept. No loss is formed, so
    the L2 sum is never evaluated; the probabilities are bitwise those of
    ``forward`` on the same batch."""
    log_probs, _ = _run(batch, cfg, params, None, keep_cache=False)
    probs = np.exp(log_probs.T)
    return np.argmax(probs, axis=1), probs


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def checkpoint_save(path: str, cfg: ModelConfig, params: ParamSet, vocab: Vocab) -> None:
    """Writes the magic, an 8-byte manifest length, the manifest (JSON),
    raw little-endian float64 parameter blocks in table order, and a
    4-byte CRC-32 of everything before it, atomically (temp file + rename).
    Each block is written and checksummed from its array's own buffer,
    which is copied only on a big-endian host."""
    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "vocab": asdict(vocab),
        "params": [{"name": n, "shape": list(params.values[n].shape)} for n in params.names()],
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    blocks = (np.ascontiguousarray(params.values[n], dtype="<f8") for n in params.names())
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
    """Restores a checkpoint. Raises FormatError on a wrong magic or version,
    an invalid config or vocabulary, config and vocabulary class lists that
    differ, params unlike the config's parameter table, a wrong file size or
    a bad CRC. Each parameter block is read straight into its array."""
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
            cfg = from_section(ModelConfig, manifest["config"], "config")
            vocab = from_section(Vocab, manifest["vocab"], "vocab")
            listed = [(e["name"], tuple(e["shape"])) for e in manifest["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: invalid manifest ({exc})") from exc

        if cfg.class_names != vocab.class_names:
            raise FormatError(f"{path}: the config's class names differ from the vocabulary's")
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
        for value in params.values.values():
            if fh.readinto(value) != value.nbytes:
                raise FormatError(f"{path}: truncated while reading the parameters")
            crc = zlib.crc32(value, crc)
            if sys.byteorder == "big":
                value.byteswap(inplace=True)
        if int.from_bytes(fh.read(4), "little") != crc:
            raise FormatError(f"{path}: checksum mismatch")
    return cfg, params, vocab
