"""Exact restricted Boltzmann machine quantities at desk scale.

A binary RBM over visible units x in {0,1}^k and hidden units h in {0,1}^m
assigns Energy(x, h) = -x'b - h'c - x'Wh.  Everything here is computed
exactly: the hidden sum factorizes per hidden unit, and the partition
function is obtained by enumerating visible configurations.  That
enumeration splits the visible bits into a low and a high half, so its
working tables grow with 2^ceil(k/2) * m and only its output, one value
per configuration, grows with 2^k.  That one table of per-configuration
values gives ln Z, the exact distribution and every row's ln p(x), read
at the row's configuration index, and each routine works in it in place:
ln Z max-shifts and exponentiates it (log_partition_factorized, and
dataset_log_likelihoods after it reads its rows' entries), exact_distribution
then divides it by its sum and returns a copy, and sample_dataset turns
those probabilities into its CDF.  Enumeration guards reject sizes where
the tables stop fitting a desk-scale budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_VISIBLE_ENUM = 20
MAX_HIDDEN_ENUM = 20
MAX_JOINT_ENUM = 24
# High-half configurations per working block of _visible_values.
_CHUNK_ROWS = 8


class EnumerationLimitError(ValueError):
    """Raised when a requested enumeration exceeds the size guards."""


def softplus(g):
    """Numerically stable ln(1 + e^g).

    Evaluates as max(g, 0) + ln(1 + e^-|g|): the exponent is never positive,
    so large arguments do not overflow, and the result is the one
    np.logaddexp(0, g) gives to within 1 ulp.  Built from array-wide exp and
    log1p, it runs several times faster than logaddexp on large arrays.
    """
    return np.maximum(g, 0.0) + np.log1p(np.exp(-np.abs(g)))


def _logsumexp_inplace(v: np.ndarray) -> float:
    """ln sum_i e^(v_i); the float array v is left holding e^(v_i - max v)."""
    a = v.max()
    np.subtract(v, a, out=v)
    return float(a + np.log(np.exp(v, out=v).sum()))


def logsumexp(v) -> float:
    """ln sum_i e^(v_i) over all entries of v, shifted by the largest one."""
    return _logsumexp_inplace(np.array(v, dtype=float))


def sigmoid(g):
    """Logistic function 1 / (1 + e^-g) from numpy's vectorized exp.

    Below g = -709 e^-g overflows, unwarned, and the result is 0 as from
    scipy's expit.  One implementation at every array size keeps each
    element's value independent of the batch it is computed in.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-g))


def _as_float_matrix(arr, name: str) -> np.ndarray:
    out = np.array(arr, dtype=float)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must contain only finite entries")
    return out


@dataclass(frozen=True)
class RbmParams:
    """Parameter triple theta = {c, b, W} of a k-visible, m-hidden RBM."""

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray
    k: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        W = _as_float_matrix(self.W, "W")
        b = _as_float_matrix(self.b, "b")
        c = _as_float_matrix(self.c, "c")
        if W.ndim != 2:
            raise ValueError("W must be a k x m matrix")
        k, m = W.shape
        if k < 1 or m < 1:
            raise ValueError("k and m must be positive")
        if b.shape != (k,):
            raise ValueError("b must have length k")
        if c.shape != (m,):
            raise ValueError("c must have length m")
        for name, arr in (("W", W), ("b", b), ("c", c)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class BinaryDataset:
    """Sample set S of n binary visible vectors, one per row."""

    samples: np.ndarray
    n: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        samples = _as_float_matrix(self.samples, "samples")
        if samples.ndim != 2:
            raise ValueError("samples must be an n x k matrix")
        n, k = samples.shape
        if n < 1 or k < 1:
            raise ValueError("n and k must be positive")
        if not np.all((samples == 0.0) | (samples == 1.0)):
            raise ValueError("samples must contain only 0/1 entries")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)


def _check_probabilities(probs: np.ndarray) -> None:
    # min and max scan the table without building boolean copies of it; the
    # negated comparison also rejects NaN.
    if probs.ndim != 1:
        raise ValueError("probabilities must be a vector")
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise ValueError("probabilities must sum to 1 within 1e-10")


@dataclass(frozen=True)
class ExactDistribution:
    """Exact visible-configuration probabilities plus ln Z."""

    probabilities: np.ndarray
    log_partition: float

    def __post_init__(self):
        probs = _as_float_matrix(self.probabilities, "probabilities")
        _check_probabilities(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "log_partition", float(self.log_partition))


def _index_bits(idx: np.ndarray, bits: int) -> np.ndarray:
    # Row r holds the binary expansion of idx[r], bit 0 in column 0.
    return ((idx[:, None] >> np.arange(bits)) & 1).astype(float)


def enumerate_configs(bits: int) -> np.ndarray:
    """All 2^bits binary vectors in lexicographic order, bit 0 first.

    Row i holds the binary expansion of i with bit 0 stored in column 0,
    the fixed convention for ExactDistribution indices and file dumps.
    bits = 0 gives the one empty vector.
    """
    if bits < 0:
        raise ValueError("bits must be non-negative")
    return _index_bits(np.arange(2 ** bits, dtype=np.int64), bits)


def _check_binary_vector(x, length: int, name: str) -> np.ndarray:
    out = np.asarray(x, dtype=float).reshape(-1)
    if out.shape != (length,):
        raise ValueError(f"{name} must have length {length}")
    if not np.all((out == 0.0) | (out == 1.0)):
        raise ValueError(f"{name} must be binary")
    return out


def energy(params: RbmParams, x, h) -> float:
    """Energy(x, h) = -x'b - h'c - x'Wh."""
    xv = _check_binary_vector(x, params.k, "x")
    hv = _check_binary_vector(h, params.m, "h")
    return float(-xv @ params.b - hv @ params.c - xv @ params.W @ hv)


def free_energy_part1(params: RbmParams, x) -> float:
    """ln of the hidden-configuration sum for one visible vector.

    The sum over h of exp(-Energy(x, h)) factorizes across hidden units,
    giving x'b + sum_j ln(1 + exp(x'W_j + c_j)).  Agreement with the
    brute-force hidden enumeration is the factorization oracle.
    """
    xv = _check_binary_vector(x, params.k, "x")
    value = xv @ params.b + softplus(xv @ params.W + params.c).sum()
    return float(value)


def part1_bruteforce(params: RbmParams, x) -> float:
    """Oracle for free_energy_part1 by enumerating all 2^m hidden states."""
    if params.m > MAX_HIDDEN_ENUM:
        raise EnumerationLimitError(
            f"m={params.m} exceeds hidden enumeration limit {MAX_HIDDEN_ENUM}"
        )
    xv = _check_binary_vector(x, params.k, "x")
    H = enumerate_configs(params.m)
    # -Energy(x, h) = x'b + h'(c + W'x), linear in h
    exponents = xv @ params.b + H @ (params.c + params.W.T @ xv)
    return float(logsumexp(exponents))


def _visible_values(params: RbmParams) -> np.ndarray:
    """Part 1 of all 2^k visible configurations, in enumerate_configs order.

    Configuration i = i_lo + 2^lo * i_hi joins a low-half and a high-half
    configuration, so its hidden preactivation is A_lo[i_lo] + A_hi[i_hi]
    and its bias term v_lo[i_lo] + v_hi[i_hi].  The high half is walked in
    blocks of _CHUNK_ROWS, so no 2^k x m table is ever built.
    """
    k = params.k
    if k > MAX_VISIBLE_ENUM:
        raise EnumerationLimitError(
            f"k={k} exceeds visible enumeration limit {MAX_VISIBLE_ENUM}"
        )
    lo = k // 2
    X_lo, X_hi = enumerate_configs(lo), enumerate_configs(k - lo)
    A_lo = X_lo @ params.W[:lo] + params.c
    A_hi = X_hi @ params.W[lo:]
    v_lo, v_hi = X_lo @ params.b[:lo], X_hi @ params.b[lo:]
    values = np.empty((len(X_hi), len(X_lo)))
    for start in range(0, len(X_hi), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        block = softplus(A_hi[rows, None] + A_lo).sum(axis=-1)
        values[rows] = block + v_hi[rows, None] + v_lo
    return values.reshape(-1)


def log_partition_factorized(params: RbmParams) -> float:
    """ln Z via the factorized hidden sum and visible enumeration."""
    return _logsumexp_inplace(_visible_values(params))


def log_partition_bruteforce(params: RbmParams) -> float:
    """Oracle ln Z by the double sum over all (x, h) pairs, chunked over x."""
    if params.k + params.m > MAX_JOINT_ENUM:
        raise EnumerationLimitError(
            f"k+m={params.k + params.m} exceeds joint enumeration limit "
            f"{MAX_JOINT_ENUM}"
        )
    H = enumerate_configs(params.m)
    hidden_term = H @ params.c
    X = enumerate_configs(params.k)
    chunk = max(1, 2 ** 22 // H.shape[0])
    partials = []
    for start in range(0, X.shape[0], chunk):
        Xc = X[start:start + chunk]
        exponents = (Xc @ params.b)[:, None] + Xc @ params.W @ H.T + hidden_term
        partials.append(logsumexp(exponents))
    return float(logsumexp(partials))


def _log_likelihoods(params: RbmParams, X: np.ndarray) -> np.ndarray:
    # Row x of X is configuration sum_j x_j 2^j of the enumeration, so one
    # table gives both its part 1 and ln Z.
    values = _visible_values(params)
    idx = (X @ 2.0 ** np.arange(params.k)).astype(np.intp)
    rows = values[idx]
    return rows - _logsumexp_inplace(values)


def exact_log_likelihood(params: RbmParams, x) -> float:
    """ln p(x) = part 1 minus ln Z; never positive beyond roundoff."""
    xv = _check_binary_vector(x, params.k, "x")
    return float(_log_likelihoods(params, xv[None])[0])


def _probability_table(params: RbmParams) -> tuple[np.ndarray, float]:
    # The enumeration's own table, turned into probabilities in place.
    table = _visible_values(params)
    log_z = _logsumexp_inplace(table)
    table /= table.sum()
    return table, log_z


def exact_distribution(params: RbmParams) -> ExactDistribution:
    """Probability table over all 2^k visible configurations."""
    return ExactDistribution(*_probability_table(params))


def dataset_log_likelihoods(params: RbmParams, data: BinaryDataset) -> np.ndarray:
    """Exact ln p(x) for every dataset row, read from one enumeration."""
    if data.k != params.k:
        raise ValueError("dataset width does not match params")
    return _log_likelihoods(params, data.samples)


def sample_dataset(params: RbmParams, n: int, seed: int) -> BinaryDataset:
    """n i.i.d. exact draws via inverse CDF on the 2^k probability table."""
    if n < 1:
        raise ValueError("n must be positive")
    probs, _ = _probability_table(params)
    _check_probabilities(probs)
    cdf = np.cumsum(probs, out=probs)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    idx = np.minimum(idx, len(cdf) - 1)
    return BinaryDataset(_index_bits(idx, params.k))
