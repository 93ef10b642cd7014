"""Monte-Carlo estimation of empirical Rademacher complexity.

For a hypothesis class H and sample S of size n, the quantity estimated is
E_sigma[max over h in H of (1/n) sum_i sigma_i h(x_i)] with sigma uniform on
{-1,+1}^n.  The linear classes F and G admit the exact analytic inner
supremum (an l1/l-infinity duality); the nonlinear classes use multi-restart
projected gradient ascent, which only ever reports values of feasible
points, so every estimate is a certified lower bound of the true supremum.
That is the safe direction when estimates are compared against upper
bounds.  One loop, _ascend, owns the feasible set of every optimized class
(k x cols matrices with each column in the l1 ball of radius W): it draws
the starts, steps and projects; each sigma vector's value is the best
point its own rows reached, exact at W = 0, where every start is 0.  Its
steps take Barzilai-Borwein lengths, and only active rows enter each
objective call.  An estimator passes only its row function.  The part-1
family (H, LOGLIK_PART1) bounds b and each w_j by separate balls, so its
bias term takes the closed-form sup of F and its m hidden units share one
ascent over w (cols = 1); T and CD1_LOGZ ascend over the whole W
(cols = m).  All four follow analytic gradients, and one forward pass
gives each row's value and gradient.

Sigma index i draws its optimizer randomness from the stream (master seed,
i), and all restarts and sigma vectors share one row-per-problem block.
Each product over the sample runs one ascent row or, in FINITE_T, one
sigma vector at a time, F's and G's integer sums are exact, and the
projection treats each row alone: no value depends on its batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rbm import BinaryDataset, sigmoid, softplus

# How each class's inner sup is computed, in the order the CLI lists them.
INNER_SUP_KIND = {
    "F": "analytic",
    "G": "analytic",
    "H": "optimized",
    "LOGLIK_PART1": "optimized",
    "T": "optimized",
    "CD1_LOGZ": "optimized",
    "FINITE_T": "finite-max",
}
CLASS_NAMES = tuple(INNER_SUP_KIND)

_STEP_SIZE = 0.1  # initial ascent step of every row
_REL_TOL = 1e-9  # a row retires once an accepted move gains relatively less
_MIN_STEP = 1e-14


@dataclass(frozen=True)
class ConstraintSpec:
    """Radii of the hypothesis balls: ||b||_1 <= B, each ||W_j||_1 <= W.

    The hidden bias c is fixed at 0 in every class.
    """

    B_radius: float
    W_radius: float

    def __post_init__(self):
        for name in ("B_radius", "W_radius"):
            value = float(getattr(self, name))
            if not (value >= 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite nonnegative real")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class OptimizerSettings:
    """Projected-gradient-ascent controls shared by the nonlinear classes."""

    restarts: int = 8
    iterations: int = 500

    def __post_init__(self):
        if self.restarts < 4:
            raise ValueError("restarts must be at least 4")
        if self.iterations < 200:
            raise ValueError("iterations must be at least 200")


@dataclass
class RademacherBatch:
    """Seeded sigma vectors: count x n signs drawn from one seed."""

    sigma_vectors: np.ndarray
    seed: int

    def __post_init__(self):
        sig = np.asarray(self.sigma_vectors, dtype=float)
        if sig.ndim != 2:
            raise ValueError("sigma_vectors must be a count x n matrix")
        if not np.all(np.abs(sig) == 1.0):
            raise ValueError("sigma entries must be +1 or -1")
        self.sigma_vectors = sig
        self.seed = int(self.seed)


@dataclass(frozen=True)
class EstimateReport:
    """Monte-Carlo estimate of one class's empirical Rademacher complexity.

    It holds what the estimator measured, every sigma vector's inner sup;
    the mean, its standard error, the count and the inner-sup kind are
    derived from those values.  optimizer_restarts is 0 for the classes
    without an ascent.
    """

    class_name: str
    per_sigma_values: tuple
    seed: int
    optimizer_restarts: int = 0

    def __post_init__(self):
        if self.class_name not in INNER_SUP_KIND:
            raise ValueError(f"unknown class name {self.class_name!r}")
        values = tuple(map(float, self.per_sigma_values))
        if not values:
            raise ValueError("an estimate needs at least one sigma vector")
        bad = sum(not math.isfinite(v) for v in values)
        if bad:
            raise ValueError(f"{bad} of {len(values)} inner sup values are non-finite")
        object.__setattr__(self, "per_sigma_values", values)

    @property
    def num_sigma(self) -> int:
        return len(self.per_sigma_values)

    @property
    def inner_sup_kind(self) -> str:
        return INNER_SUP_KIND[self.class_name]

    @property
    def mean(self) -> float:
        return float(np.array(self.per_sigma_values).mean())

    @property
    def stderr(self) -> float:
        if self.num_sigma < 2:
            return float("nan")
        values = np.array(self.per_sigma_values)
        return float(values.std(ddof=1) / math.sqrt(values.size))


def sample_sigma_batch(n: int, count: int, seed: int) -> RademacherBatch:
    """count i.i.d. uniform sign vectors of length n, deterministic per seed."""
    if n < 1:
        raise ValueError("n must be positive")
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    sig = rng.integers(0, 2, size=(count, n)).astype(float) * 2.0 - 1.0
    return RademacherBatch(sigma_vectors=sig, seed=seed)


def _project_l1_rows(V: np.ndarray, radius: float) -> np.ndarray:
    """Row-wise Euclidean projection onto the l1 ball of given radius.

    Magnitudes shrink by theta = max_j (css_j - radius) / j, css_j the sum
    of the j largest; the max falls at the projection's support size.  Both
    css and the shrink run on the magnitudes minus the row's largest, the
    sort's first entry: inside the support those gaps are at most the
    radius, so a magnitude far above it cannot round the output off the
    ball.  A row whose magnitudes sum to at most the radius comes back
    unchanged.
    """
    A = np.abs(V)
    U = np.sort(A, axis=1)[:, ::-1]
    top = U[:, :1]
    css = np.cumsum(U - top, axis=1)
    theta = ((css - radius) / np.arange(1, V.shape[1] + 1)).max(axis=1, keepdims=True)
    inside = A.sum(axis=1, keepdims=True) <= radius
    out = np.where(inside, A, np.maximum((A - top) - theta, 0.0))
    return np.copysign(out, V, out=out)


def _project_columns(Z: np.ndarray, k: int, m: int, radius: float) -> np.ndarray:
    # Rows hold flattened k x m matrices; each of the m columns gets its own
    # l1 projection.
    cols = Z.reshape(Z.shape[0], k, m).transpose(0, 2, 1).reshape(-1, k)
    cols = _project_l1_rows(cols, radius)
    return cols.reshape(Z.shape[0], m, k).transpose(0, 2, 1).reshape(Z.shape[0], -1)


def project_l1(v, radius: float) -> np.ndarray:
    """Euclidean projection of one vector onto {u : ||u||_1 <= radius}.

    Sort-and-threshold: magnitudes above a data-dependent threshold shrink
    by it, the rest clamp to zero.  Points already inside come back
    unchanged.
    """
    if not radius >= 0.0:
        raise ValueError("radius must be nonnegative")
    v = np.asarray(v, dtype=float).reshape(-1)
    return _project_l1_rows(v[None, :], radius)[0]


def _check_batch(data: BinaryDataset, batch: RademacherBatch) -> None:
    if batch.sigma_vectors.shape[1] != data.n:
        raise ValueError("sigma vectors must have length n")


def _linear_values(data: BinaryDataset, batch: RademacherBatch, radius: float):
    # Exact inner sup of the linear class v'x over ||v||_1 <= radius, per
    # sigma vector: radius * ||X'sigma||_inf / n.
    V = batch.sigma_vectors @ data.samples
    return radius * np.abs(V).max(axis=1) / data.n


def _estimate_linear(
    class_name: str, radius: float, data: BinaryDataset, batch: RademacherBatch
) -> EstimateReport:
    _check_batch(data, batch)
    values = _linear_values(data, batch, radius)
    return EstimateReport(class_name, values, batch.seed)


def estimate_R_F(
    data: BinaryDataset, spec: ConstraintSpec, batch: RademacherBatch
) -> EstimateReport:
    """Linear class f(x) = b'x with ||b||_1 <= B; exact inner sup per sigma."""
    return _estimate_linear("F", spec.B_radius, data, batch)


def estimate_R_G(
    data: BinaryDataset, spec: ConstraintSpec, batch: RademacherBatch
) -> EstimateReport:
    """Linear class g(x) = w'x with ||w||_1 <= W; c contributes nothing."""
    return _estimate_linear("G", spec.W_radius, data, batch)


def _ascend(
    data: BinaryDataset,
    spec: ConstraintSpec,
    batch: RademacherBatch,
    opt: OptimizerSettings,
    cols: int,
    block: int,
    objective,
) -> np.ndarray:
    """Multi-restart ascent over the feasible set of every optimized class.

    A row is a flattened k x cols matrix whose columns lie in the l1 ball
    of radius spec.W_radius.  Sigma vector i owns `block` consecutive rows,
    started uniform in [-W_radius, W_radius] from the stream (seed, i).
    objective(Z, sig_rows, rows) returns the value and gradient of each
    block row listed in `rows`, given in block order with its point and
    sigma vector.  The loop keeps the active rows' points, values,
    gradients, steps and sigma vectors compacted, and calls the objective
    once per iteration on them.  A row moves only when its step improves
    it; a rejected move halves the step.  After an accepted move d, with
    gradient change y, the step is the projected Barzilai-Borwein length
    |d|^2 / (-d.y), or doubles where -d.y is not positive or the ratio is
    not finite; both products run one row at a time.  A row retires once a
    move gains relatively less than _REL_TOL, once its step underflows
    _MIN_STEP, or once a rejected candidate equals its point bit for bit (a
    projected fixed point, to which every other step projects back).  Its
    value, the best it has seen, is written out when it retires, or after
    the loop if it reaches the cap.  Each sigma vector's value is the max
    over its block, attained inside the feasible set; at W = 0 every start
    is the zero matrix.
    """
    _check_batch(data, batch)
    if cols < 1:
        raise ValueError("m must be positive")
    count = batch.sigma_vectors.shape[0]
    k, radius = data.k, spec.W_radius
    sig_rows = np.repeat(batch.sigma_vectors, block, axis=0)
    starts = []
    for i in range(count):
        rng = np.random.default_rng([batch.seed, i])
        starts.append(rng.uniform(-1.0, 1.0, size=(block, k * cols)) * radius)
    Z = _project_columns(np.concatenate(starts, axis=0), k, cols, radius)
    every = np.arange(Z.shape[0])
    f, G = objective(Z, sig_rows, every)
    best = np.empty(every.size)
    rows, sig, steps = every, sig_rows, np.full(every.size, _STEP_SIZE)
    for _ in range(opt.iterations):
        if rows.size == 0:
            break
        cand = _project_columns(Z + steps[:, None] * G, k, cols, radius)
        fc, gc = objective(cand, sig, rows)
        improved = fc > f
        rel = (fc - f) / np.maximum(1.0, np.abs(fc))
        d = cand - Z
        curv = np.einsum("ri,ri->r", d, G - gc)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bb = np.einsum("ri,ri->r", d, d) / curv
        grown = np.where((curv > 0.0) & np.isfinite(bb), bb, 2.0 * steps)
        steps = np.where(improved, grown, 0.5 * steps)
        Z = np.where(improved[:, None], cand, Z)
        f = np.where(improved, fc, f)
        G = np.where(improved[:, None], gc, G)
        done = np.where(improved, rel < _REL_TOL, (steps < _MIN_STEP) | ~d.any(axis=1))
        if done.any():
            best[rows[done]] = f[done]
            live = ~done
            rows, sig, steps = rows[live], sig[live], steps[live]
            Z, f, G = Z[live], f[live], G[live]
    best[rows] = f
    return best.reshape(count, block).max(axis=1)


def _part1_rows(Z, X, sig_rows):
    # Row r holds one hidden unit's w; objective sig'softplus(X w) / n.
    # Each product runs one row at a time, so a row gets the same bits in
    # any block.
    n = X.shape[0]
    A = (Z[:, None, :] @ X.T)[:, 0]
    value = np.einsum("rn,rn->r", softplus(A), sig_rows) / n
    return value, ((sigmoid(A) * sig_rows)[:, None, :] @ X)[:, 0] / n


def _part1_family(
    class_name: str,
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings,
) -> EstimateReport:
    # Shared class: x -> m b'x + sum_j ln(1 + exp(w_j'x)); H is the m = 1 case.
    # The balls on b and on each w_j are separate, so the value m (linear sup
    # + best w) is attained at b = B sign(v_q) e_q, w_1 = .. = w_m = w*.
    if m < 1:
        raise ValueError("m must be positive")
    X = data.samples
    best_w = _ascend(
        data, spec, batch, opt, 1, opt.restarts,
        lambda Z, sig, rows: _part1_rows(Z, X, sig),
    )
    values = m * (_linear_values(data, batch, spec.B_radius) + best_w)
    return EstimateReport(class_name, values, batch.seed, opt.restarts)


def estimate_R_H(
    data: BinaryDataset,
    spec: ConstraintSpec,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Class h(x) = b'x + ln(1 + exp(w'x)) over the two l1 balls."""
    return _part1_family("H", data, spec, 1, batch, opt)


def estimate_R_loglik_part1(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Part-1 log-likelihood class: shared b, one w_j per hidden unit."""
    return _part1_family("LOGLIK_PART1", data, spec, m, batch, opt)


def t_value(W, u: int, j: int, X) -> np.ndarray:
    """Values of t_W(x) = W_uj sigmoid(sum_v W_uv sigmoid(x'W_v)) on rows of X."""
    W = np.asarray(W, dtype=float)
    X = np.asarray(X, dtype=float)
    k, m = W.shape
    if not (0 <= u < k and 0 <= j < m):
        raise ValueError(f"pair u={u} j={j} outside k={k} m={m}")
    s = sigmoid(X @ W)
    mid = sigmoid(s @ W[u])
    return W[u, j] * mid


def _t_rows(Z, X, sig_rows, m: int, u, j):
    # Row r holds a flattened k x m matrix W and its pair (u[r], j[r]);
    # objective sig' t_W(X) / n with t = W_uj sigmoid(W[u] s), s = sigmoid(W' X'),
    # and its gradient by backpropagation.  Each row's tensors are laid out
    # (units, n), so every product and reduction over the sample runs on the
    # last axis.
    n, k = X.shape
    W_cube = Z.reshape(Z.shape[0], k, m)
    rows = np.arange(Z.shape[0])
    g = sig_rows / n
    W_u = W_cube[rows, u, :]
    W_uj = W_cube[rows, u, j][:, None]
    s = sigmoid(W_cube.transpose(0, 2, 1) @ X.T)
    mid = sigmoid((W_u[:, None, :] @ s)[:, 0])
    value = np.einsum("rn,rn->r", W_uj * mid, sig_rows) / n
    G_pre = g * W_uj * mid * (1.0 - mid)
    grad_u = (s @ G_pre[:, :, None])[:, :, 0]
    # In place, s turned into 1 - s after its last read: two (rows, m, n) arrays
    # alive, not three, so glibc does not trim and refault the heap every call.
    D = G_pre[:, None, :] * W_u[:, :, None]
    D *= s
    D *= np.subtract(1.0, s, out=s)
    grad = (D @ X).transpose(0, 2, 1)
    grad[rows, u, :] += grad_u
    grad[rows, u, j] += np.einsum("rn,rn->r", g, mid)
    return value, grad.reshape(Z.shape)


def _cd1_logz_rows(Z, X, sig_rows, m: int):
    # Row r holds a flattened k x m matrix W; objective
    # sig' sum_j softplus(W_j' x_tilde) / n with x_tilde = sigmoid(W sigmoid(W' X')),
    # and its gradient by backpropagation through the three uses of W:
    # a = W' X', b = W s, c = W' x_tilde, each laid out (units, n).  G_* is
    # the gradient of the objective by each preactivation.
    n, k = X.shape
    W_cube = Z.reshape(Z.shape[0], k, m)
    W_t = W_cube.transpose(0, 2, 1)
    s = sigmoid(W_t @ X.T)
    x_tilde = sigmoid(W_cube @ s)
    c = W_t @ x_tilde
    value = np.einsum("rn,rn->r", softplus(c).sum(axis=1), sig_rows) / n
    G_c = (sig_rows / n)[:, None, :] * sigmoid(c)
    G_b = (W_cube @ G_c) * x_tilde * (1.0 - x_tilde)
    G_a = (W_t @ G_b) * s * (1.0 - s)
    grad = G_c @ x_tilde.transpose(0, 2, 1) + s @ G_b.transpose(0, 2, 1) + G_a @ X
    return value, grad.transpose(0, 2, 1).reshape(Z.shape)


def estimate_R_T(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Nested-sigmoid class T with a discrete outer max over the pair (u, j).

    Each (u, j) gets its own multi-restart ascent over W (every column inside
    the l1 ball).
    """
    X = data.samples
    # A sigma vector's block runs through the pairs (u, j) in row-major
    # order, with `restarts` consecutive rows per pair.
    pair = np.arange(data.k * m * opt.restarts) // opt.restarts
    count = batch.sigma_vectors.shape[0]
    U, J = np.tile(pair // m, count), np.tile(pair % m, count)
    values = _ascend(
        data, spec, batch, opt, m, pair.size,
        lambda Z, sig, rows: _t_rows(Z, X, sig, m, U[rows], J[rows]),
    )
    return EstimateReport("T", values, batch.seed, opt.restarts)


def estimate_R_cd1_logZ(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Class x -> CD-1 approximate ln Z, optimized over column-bounded W."""
    X = data.samples
    values = _ascend(
        data, spec, batch, opt, m, opt.restarts,
        lambda Z, sig, rows: _cd1_logz_rows(Z, X, sig, m),
    )
    return EstimateReport("CD1_LOGZ", values, batch.seed, opt.restarts)


def estimate_R_finite_T(
    data: BinaryDataset, members, batch: RademacherBatch
) -> EstimateReport:
    """Exact inner max over an explicit finite list of (W, u, j) members."""
    _check_batch(data, batch)
    members = list(members)
    if not members:
        raise ValueError("members must be nonempty")
    for W, _, _ in members:
        if len(W) != data.k:
            raise ValueError(f"a member W has k={len(W)} rows, data has k={data.k}")
    table = np.stack([t_value(W, u, j, data.samples) for W, u, j in members])
    values = (table @ batch.sigma_vectors[:, :, None])[:, :, 0].max(axis=1) / data.n
    return EstimateReport("FINITE_T", values, batch.seed)


def generate_members(
    k: int, m: int, count: int, radius: float, seed: int
) -> list[tuple[np.ndarray, int, int]]:
    """Random T members: W uniform on [-radius, radius] with columns projected
    into the l1 ball, the start draw of _ascend."""
    if count < 1:
        raise ValueError("count must be positive")
    if not 0.0 <= radius < math.inf:
        raise ValueError("radius must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(count):
        Z = rng.uniform(-1.0, 1.0, size=(1, k * m)) * radius
        W = _project_columns(Z, k, m, radius)
        members.append((W.reshape(k, m), int(rng.integers(k)), int(rng.integers(m))))
    return members


def count_quantized_behaviors(
    data: BinaryDataset, grid, u: int, j: int, epsilon: float
) -> int:
    """Distinct epsilon-rounded value vectors of t_W over the sample."""
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    table = np.stack([t_value(W, u, j, data.samples) for W in grid])
    quantized = np.round(table / epsilon).astype(np.int64)
    return int(np.unique(quantized, axis=0).shape[0])
