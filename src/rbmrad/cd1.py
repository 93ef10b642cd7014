"""Mean-field CD-1: inference passes, approximate log-partition, training.

The hidden and visible passes replace each binary unit by its conditional
expectation, a sigmoid of its input, with biases ignored throughout.  The
resulting one-step reconstruction yields a per-observation approximation of
ln Z and a deterministic weight update whose training progress is audited
against the exact likelihood from the rbm module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rbm import (
    BinaryDataset,
    EnumerationLimitError,
    RbmParams,
    _check_binary_vector,
    dataset_log_likelihoods,
    sigmoid,
    softplus,
)

MAX_AUDIT_VISIBLE = 12
BATCH_CAP = 32


@dataclass(frozen=True)
class TrainingTrace:
    """One audit row of a CD-1 training run."""

    epoch: int
    mean_exact_loglik: float
    learning_rate: float
    seed: int


def meanfield_hidden(params: RbmParams, x) -> np.ndarray:
    """Hidden expectations h_tilde_j = sigmoid(x'W_j), biases ignored."""
    xv = _check_binary_vector(x, params.k, "x")
    return sigmoid(xv @ params.W)


def meanfield_visible(params: RbmParams, h_tilde) -> np.ndarray:
    """Visible expectations x_tilde_i = sigmoid(W_i. h_tilde)."""
    hv = np.asarray(h_tilde, dtype=float).reshape(-1)
    if hv.shape != (params.m,):
        raise ValueError(f"h_tilde must have length {params.m}")
    if np.any(hv <= 0.0) or np.any(hv >= 1.0):
        raise ValueError("h_tilde entries must lie strictly in (0, 1)")
    return sigmoid(params.W @ hv)


def cd1_log_partition(params: RbmParams, x) -> float:
    """Approximate ln Z from one mean-field reconstruction of x.

    Equals sum_j ln(1 + exp(sum_i W_ij sigmoid(sum_v W_iv sigmoid(x'W_v)))),
    the part-1 factorization evaluated at the reconstructed x_tilde.  Written
    out inline; the composition through meanfield_hidden and
    meanfield_visible is the test oracle.
    """
    xv = _check_binary_vector(x, params.k, "x")
    inner = sigmoid(xv @ params.W)
    x_tilde = sigmoid(params.W @ inner)
    return float(softplus(x_tilde @ params.W).sum())


def cd1_approx_log_likelihood(params: RbmParams, x) -> float:
    """Bias-free part 1 minus the CD-1 approximate ln Z."""
    xv = _check_binary_vector(x, params.k, "x")
    return float(softplus(xv @ params.W).sum()) - cd1_log_partition(params, x)


def _check_learning_rate(learning_rate) -> None:
    if not 0.0 <= learning_rate < np.inf:
        raise ValueError("learning_rate must be finite and nonnegative")


def _cd1_update(W: np.ndarray, X: np.ndarray, learning_rate: float) -> np.ndarray:
    """The CD-1 weight update on raw arrays the caller has already validated.

    Equals W + learning_rate * ((X'H - X_tilde'H_neg) / B) built from
    rbm.sigmoid and @, bit for bit: the products use ndarray.dot, cheaper
    than @ on minibatches of at most BATCH_CAP rows, and each logistic runs
    sigmoid's exp, + 1 and reciprocal in place on a product with -W.  The
    caller holds np.errstate(over="ignore"): exp overflows, to a logistic
    of exactly 0, where a product with -W exceeds 709.
    """
    neg_W = -W
    H = _logistic_in_place(X.dot(neg_W))
    X_tilde = _logistic_in_place(H.dot(neg_W.T))
    H_neg = _logistic_in_place(X_tilde.dot(neg_W))
    delta = X.T.dot(H)
    delta -= X_tilde.T.dot(H_neg)
    delta /= X.shape[0]
    delta *= learning_rate
    delta += W
    return delta


def _logistic_in_place(e: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(e)) is sigmoid(-e), written into e
    np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def cd1_gradient_step(
    params: RbmParams,
    minibatch: BinaryDataset,
    learning_rate: float,
) -> RbmParams:
    """One CD-1 update from batch-mean positive and negative statistics.

    W moves by the mean of x h_tilde' - x_tilde h_tilde'' over the batch,
    where the negative-phase hidden pass feeds the real-valued x_tilde back
    through the sigmoid.  Biases stay frozen.  The fully mean-field rule is
    deterministic.
    """
    _check_learning_rate(learning_rate)
    if minibatch.k != params.k:
        raise ValueError("minibatch width does not match params")
    with np.errstate(over="ignore"):
        W = _cd1_update(params.W, minibatch.samples, learning_rate)
    return RbmParams(W=W, b=params.b, c=params.c)


def train_cd1(
    init: RbmParams,
    data: BinaryDataset,
    epochs: int,
    learning_rate: float,
    seed: int,
    audit_every: int = 1,
) -> list[TrainingTrace]:
    """CD-1 over shuffled minibatches with exact-likelihood audits.

    Epoch 0 records the initialization; afterwards every audit_every-th
    epoch and the final epoch are audited.  Batch size is min(n, 32) and the
    shuffle is reseeded per epoch from (seed, epoch), so a fixed seed gives
    a bit-identical trace.

    Every argument is validated once, here; the loop then updates the raw
    weight matrix with the same rule as cd1_gradient_step.  Each audit wraps
    W in an RbmParams, and the final epoch is always audited, so a run whose
    weights stop being finite raises ValueError before any trace is returned.
    """
    if init.k > MAX_AUDIT_VISIBLE:
        raise EnumerationLimitError(
            f"k={init.k} exceeds exact-audit limit {MAX_AUDIT_VISIBLE}"
        )
    if data.k != init.k:
        raise ValueError("dataset width does not match params")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if audit_every < 1:
        raise ValueError("audit_every must be positive")
    _check_learning_rate(learning_rate)

    batch_size = min(data.n, BATCH_CAP)

    def audit(epoch: int, W: np.ndarray) -> TrainingTrace:
        params = RbmParams(W=W, b=init.b, c=init.c)
        mean_ll = float(dataset_log_likelihoods(params, data).mean())
        return TrainingTrace(
            epoch=epoch,
            mean_exact_loglik=mean_ll,
            learning_rate=float(learning_rate),
            seed=int(seed),
        )

    W = init.W
    trace = [audit(0, W)]
    for epoch in range(1, epochs + 1):
        rng = np.random.default_rng([seed, epoch])
        shuffled = data.samples[rng.permutation(data.n)]
        with np.errstate(over="ignore"):
            for start in range(0, data.n, batch_size):
                W = _cd1_update(W, shuffled[start:start + batch_size], learning_rate)
        if epoch % audit_every == 0 or epoch == epochs:
            trace.append(audit(epoch, W))
    return trace
