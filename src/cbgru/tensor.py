"""Dense double-precision kernels shared by every other module.

Matrices are 2-D float64 numpy arrays in row-major order, vectors are 1-D
float64 arrays. All public operations keep finite inputs finite.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping

import numpy as np


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class DegenerateInputError(ValueError):
    """Input is empty or too short for the requested operation."""


class StateError(RuntimeError):
    """Backward pass invoked without a matching forward cache."""


# step of the central differences in finite_diff_grad
FD_EPS = 1e-5


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic 64-bit generator (PCG64): same seed, same stream."""
    return np.random.Generator(np.random.PCG64(seed))


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform init on [-L, L] with L = sqrt(6 / (rows + cols))."""
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid as 0.5 * tanh(x / 2) + 0.5, which cannot overflow
    and saturates to exactly 0 and 1."""
    return 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64)) + 0.5


def _check_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        raise DimensionError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Stable log-softmax down axis 0: over a vector, or over each column of
    a matrix."""
    z = x - x.max(axis=0)
    return z - np.log(np.exp(z).sum(axis=0))


def finite_diff_grad(
    f: Callable[[Mapping[str, np.ndarray]], float],
    arrays: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Central-difference gradient of ``f``, with step ``FD_EPS``, with
    respect to every scalar in ``arrays``.

    Perturbs entries in place and restores them; ``f`` must be a
    deterministic function of the current array contents.
    """
    grads: Dict[str, np.ndarray] = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_EPS
            fp = float(f(arrays))
            flat[i] = orig - FD_EPS
            fm = float(f(arrays))
            flat[i] = orig
            if not (math.isfinite(fp) and math.isfinite(fm)):
                raise NumericError(f"non-finite objective while perturbing {name}[{i}]")
            gflat[i] = (fp - fm) / (2.0 * FD_EPS)
        grads[name] = g
    return grads


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Elementwise |a - n| / max(|a|, |n|, 1e-6), reduced by max."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    _check_same_shape(a, n, "max_relative_error")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))
