"""Monte-Carlo estimation of empirical Rademacher complexity.

For a hypothesis class H and a sample x_1 .. x_n, the quantity estimated is
E_sigma[max over h in H of (1/n) sum_i sigma_i h(x_i)] with sigma uniform on
{-1,+1}^n.  The linear classes F and G admit the exact analytic inner
supremum (an l1/l-infinity duality); the nonlinear classes use multi-restart
projected gradient ascent, which only ever reports values of feasible
points, so every estimate is a certified lower bound of the true supremum.
That is the safe direction when estimates are compared against upper
bounds.  One loop, _ascend, owns the feasible set of every optimized class
(k x cols matrices with each column in the l1 ball of radius W): it draws
the starts, steps and projects; each sigma vector's value is the best
point its own rows reached, exact at W = 0, where every start is 0.  A
row's first step, W / max|g|, moves its largest coordinate one radius;
later steps take Barzilai-Borwein lengths, and only active rows enter each
objective call.  An estimator passes only its row function.  The part-1
family (H, LOGLIK_PART1) bounds b and each w_j by separate balls, so its
bias term takes the closed-form sup of F and its m hidden units share one
ascent over w (cols = 1); T and CD1_LOGZ ascend over the whole W
(cols = m).  All four follow analytic gradients, and one forward pass
gives each row's value and gradient.

The sample enters every objective only through its d distinct rows U and
their signed counts S (see _signed_counts): each estimator sums over U,
weighted by S and divided by the original n, so repeated rows cost nothing.
Sigma index i draws its optimizer randomness from the stream (master seed,
i), and all restarts and sigma vectors share one row-per-problem block.
Each product over U runs one ascent row or, in FINITE_T, one sigma vector
at a time, the integer sums of S and of F's and G's S @ U are exact, and
the projection treats each row alone: no value depends on its batch.

CLASSES is the one table of classes: each name maps to its inner-sup
kind, its estimate_R_* function and the bounds.csv names summed into its
comparator.  CLASS_NAMES is the table's order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bounds import _check_radius
from .rbm import BinaryDataset, sigmoid, softplus

_LN2 = math.log(2.0)  # softplus(0); ln 2 * (1 / ln 2) rounds to exactly 1
_REL_TOL = 1e-9  # a row retires once an accepted move gains relatively less
_MIN_STEP = 1e-14
# Cap on step * max(max|g|, 1) for first steps and once a candidate leaves
# the float range: a longer step can put step * g, or the projection's sums
# over it, past about 1.8e308; steps and moves of at most 1e300 keep a point
# plus its move, and sums of k such entries, finite.
_MAX_MOVE = 1e300


@dataclass(frozen=True)
class ConstraintSpec:
    """Radii of the hypothesis balls: ||b||_1 <= B, each ||W_j||_1 <= W.

    The hidden bias c is fixed at 0 in every class.
    """

    B_radius: float
    W_radius: float

    def __post_init__(self):
        for name in ("B_radius", "W_radius"):
            object.__setattr__(self, name, _check_radius(getattr(self, name), name))


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
    without an ascent.  inputs holds what the estimator ran on, keyed by
    estimate-CSV column: n and k of the data, the radii of the spec, and m
    where the estimator takes one.
    """

    class_name: str
    per_sigma_values: tuple
    seed: int
    optimizer_restarts: int = 0
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.class_name not in CLASSES:
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
        return CLASSES[self.class_name].kind

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


def _signed_counts(data: BinaryDataset, batch: RademacherBatch):
    """The sample's d distinct rows U, in first-occurrence order, and the
    N x d signed counts S: S[i, c] sums sigma_i over the copies of U[c], in
    exact integers, scattered by one O(N n) bincount for every sample.
    """
    X, sig = data.samples, batch.sigma_vectors
    if sig.shape[1] != data.n:
        raise ValueError("sigma vectors must have length n")
    # Each row as one byte string, so a 1-D unique finds the distinct rows;
    # inverse's shape differs between numpy 1.x and 2.0, hence the reshape.
    rows = np.ascontiguousarray(X).view(np.dtype((np.void, X.itemsize * data.k)))
    _, first, inverse = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    order = np.argsort(first)
    label = np.argsort(order)[inverse.reshape(-1)]
    N, d = sig.shape[0], first.size
    bins = (np.arange(N)[:, None] * d + label).ravel()  # i * d + label[j]
    S = np.bincount(bins, weights=sig.ravel(), minlength=N * d).reshape(N, d)
    return X[first[order]], S


def _inputs(data: BinaryDataset, spec: ConstraintSpec, **more) -> dict:
    return {"n": data.n, "k": data.k, "B_radius": spec.B_radius,
            "W_radius": spec.W_radius, **more}


def _linear_values(U, S, n: int, radius: float):
    # Exact inner sup of the linear class v'x over ||v||_1 <= radius, per
    # sigma vector: radius * ||X'sigma||_inf / n, with X'sigma = U'S_i.
    return radius * np.abs(S @ U).max(axis=1) / n


def _estimate_linear(
    class_name: str,
    radius: float,
    data: BinaryDataset,
    spec: ConstraintSpec,
    batch: RademacherBatch,
) -> EstimateReport:
    values = _linear_values(*_signed_counts(data, batch), data.n, radius)
    return EstimateReport(class_name, values, batch.seed, inputs=_inputs(data, spec))


def estimate_R_F(
    data: BinaryDataset, spec: ConstraintSpec, batch: RademacherBatch
) -> EstimateReport:
    """Linear class f(x) = b'x with ||b||_1 <= B; exact inner sup per sigma."""
    return _estimate_linear("F", spec.B_radius, data, spec, batch)


def estimate_R_G(
    data: BinaryDataset, spec: ConstraintSpec, batch: RademacherBatch
) -> EstimateReport:
    """Linear class g(x) = w'x with ||w||_1 <= W; c contributes nothing."""
    return _estimate_linear("G", spec.W_radius, data, spec, batch)


def _ascend(
    S: np.ndarray,
    seed: int,
    spec: ConstraintSpec,
    opt: OptimizerSettings,
    k: int,
    cols: int,
    block: int,
    objective,
) -> np.ndarray:
    """Multi-restart ascent over the feasible set of every optimized class.

    A row is a flattened k x cols matrix whose columns lie in the l1 ball
    of radius spec.W_radius.  Sigma vector i, whose signed counts are S[i],
    owns `block` consecutive rows, started uniform in [-W_radius, W_radius]
    from the stream (seed, i).  objective(Z, sig_rows, rows) returns the
    value and gradient of each block row listed in `rows`, given in block
    order with its point and signed counts.  The loop keeps the active
    rows' points, values, gradients, steps and signed counts compacted,
    and calls the objective once per iteration on them.  A row's first
    step, W_radius / max|g| at its start, moves its largest coordinate one
    radius, the distance from the ball's centre to a vertex; it is capped
    so that step * max(max|g|, 1) <= _MAX_MOVE, and is 0 where no finite
    step moves a radius.  A row moves only when its step improves it; a
    rejected move halves the step.  After an accepted move d, with
    gradient change y, the step is the projected Barzilai-Borwein length
    |d|^2 / (-d.y), or doubles where -d.y is not positive or the ratio is
    not finite; both products run one row at a time.  Should a candidate
    overflow, every row's step is cut to that cap, and the candidate is
    recomputed.  A row retires once a
    move gains relatively less than _REL_TOL, once its step underflows
    _MIN_STEP, or once a rejected candidate equals its point bit for bit (a
    projected fixed point, to which every other step projects back).  Its
    value, the best it has seen, is written out when it retires, or after
    the loop if it reaches the cap.  Each sigma vector's value is the max
    over its block, attained inside the feasible set; at W = 0 every start
    is the zero matrix.
    """
    if cols < 1:
        raise ValueError("m must be positive")
    count, radius = S.shape[0], spec.W_radius
    sig_rows = np.repeat(S, block, axis=0)
    starts = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        starts.append(rng.uniform(-1.0, 1.0, size=(block, k * cols)) * radius)
    Z = _project_columns(np.concatenate(starts, axis=0), k, cols, radius)
    every = np.arange(Z.shape[0])
    f, G = objective(Z, sig_rows, every)
    best, rows, sig, gmax = np.empty(every.size), every, sig_rows, np.abs(G).max(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first, cap = radius / gmax, _MAX_MOVE / np.maximum(gmax, 1.0)
    # Step 0, so the row retires at once, where no finite step moves a radius.
    steps = np.where(np.isfinite(first), np.minimum(first, cap), 0.0)
    # One error context for the whole loop: a candidate that leaves the
    # float range raises where it is formed, and no iteration pays to check.
    with np.errstate(over="raise", invalid="raise"):
        for _ in range(opt.iterations):
            if rows.size == 0:
                break
            try:
                cand = _project_columns(Z + steps[:, None] * G, k, cols, radius)
            except FloatingPointError:
                gmax = np.maximum(np.abs(G).max(axis=1), 1.0)
                steps = np.minimum(steps, _MAX_MOVE / gmax)
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


def _part1_rows(Z, U, S_rows, n: int):
    # Row r holds one hidden unit's w; objective S'softplus(U w) / n, summed
    # in units of ln 2, so the value at w = 0 is ln 2 sum(sigma) / n exactly
    # (0 where the signs cancel).  Each product runs one row at a time, so
    # a row gets the same bits in any block.
    A = (Z[:, None, :] @ U.T)[:, 0]
    value = _LN2 * np.einsum("rd,rd->r", softplus(A) * (1.0 / _LN2), S_rows) / n
    return value, ((sigmoid(A) * S_rows)[:, None, :] @ U)[:, 0] / n


def _part1_values(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings,
) -> np.ndarray:
    # Shared class: x -> m b'x + sum_j ln(1 + exp(w_j'x)); H is the m = 1 case.
    # The balls on b and on each w_j are separate, so the value m (linear sup
    # + best w) is attained at b = B sign(v_q) e_q, w_1 = .. = w_m = w*.
    if m < 1:
        raise ValueError("m must be positive")
    U, S = _signed_counts(data, batch)
    best_w = _ascend(
        S, batch.seed, spec, opt, data.k, 1, opt.restarts,
        lambda Z, S_rows, rows: _part1_rows(Z, U, S_rows, data.n),
    )
    return m * (_linear_values(U, S, data.n, spec.B_radius) + best_w)


def estimate_R_H(
    data: BinaryDataset,
    spec: ConstraintSpec,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Class h(x) = b'x + ln(1 + exp(w'x)) over the two l1 balls."""
    values = _part1_values(data, spec, 1, batch, opt)
    return EstimateReport("H", values, batch.seed, opt.restarts, _inputs(data, spec))


def estimate_R_loglik_part1(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Part-1 log-likelihood class: shared b, one w_j per hidden unit."""
    values = _part1_values(data, spec, m, batch, opt)
    inputs = _inputs(data, spec, m=m)
    return EstimateReport("LOGLIK_PART1", values, batch.seed, opt.restarts, inputs)


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


def _t_rows(Z, U, S_rows, n: int, m: int, u, j):
    # Row r holds a flattened k x m matrix W and its pair (u[r], j[r]);
    # objective S' t_W(U) / n with t = W_uj sigmoid(W[u] s), s = sigmoid(W' U'),
    # and its gradient by backpropagation.  Each row's tensors are laid out
    # (units, d), so every product and reduction over the distinct rows runs
    # on the last axis.
    k = U.shape[1]
    W_cube = Z.reshape(Z.shape[0], k, m)
    rows = np.arange(Z.shape[0])
    g = S_rows / n
    W_u = W_cube[rows, u, :]
    W_uj = W_cube[rows, u, j][:, None]
    s = sigmoid(W_cube.transpose(0, 2, 1) @ U.T)
    mid = sigmoid((W_u[:, None, :] @ s)[:, 0])
    value = np.einsum("rd,rd->r", W_uj * mid, S_rows) / n
    G_pre = g * W_uj * mid * (1.0 - mid)
    grad_u = (s @ G_pre[:, :, None])[:, :, 0]
    # In place, s turned into 1 - s after its last read: two (rows, m, d) arrays
    # alive, not three, so glibc does not trim and refault the heap every call.
    D = G_pre[:, None, :] * W_u[:, :, None]
    D *= s
    D *= np.subtract(1.0, s, out=s)
    grad = (D @ U).transpose(0, 2, 1)
    grad[rows, u, :] += grad_u
    grad[rows, u, j] += np.einsum("rd,rd->r", g, mid)
    return value, grad.reshape(Z.shape)


def _cd1_logz_rows(Z, U, S_rows, n: int, m: int):
    # Row r holds a flattened k x m matrix W; objective
    # S' sum_j softplus(W_j' x_tilde) / n with x_tilde = sigmoid(W sigmoid(W' U')),
    # and its gradient by backpropagation through the three uses of W:
    # a = W' U', b = W s, c = W' x_tilde, each laid out (units, d).  As in
    # _part1_rows, the sum runs in units of ln 2.  G_* is the gradient of
    # the objective by each preactivation.
    k = U.shape[1]
    W_cube = Z.reshape(Z.shape[0], k, m)
    W_t = W_cube.transpose(0, 2, 1)
    s = sigmoid(W_t @ U.T)
    x_tilde = sigmoid(W_cube @ s)
    c = W_t @ x_tilde
    units = (softplus(c) * (1.0 / _LN2)).sum(axis=1)
    value = _LN2 * np.einsum("rd,rd->r", units, S_rows) / n
    G_c = (S_rows / n)[:, None, :] * sigmoid(c)
    G_b = (W_cube @ G_c) * x_tilde * (1.0 - x_tilde)
    G_a = (W_t @ G_b) * s * (1.0 - s)
    grad = G_c @ x_tilde.transpose(0, 2, 1) + s @ G_b.transpose(0, 2, 1) + G_a @ U
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
    U, S = _signed_counts(data, batch)
    # A sigma vector's block runs through the pairs (u, j) in row-major
    # order, with `restarts` consecutive rows per pair.
    pair = np.arange(data.k * m * opt.restarts) // opt.restarts
    pu, pj = np.tile(pair // m, S.shape[0]), np.tile(pair % m, S.shape[0])
    values = _ascend(
        S, batch.seed, spec, opt, data.k, m, pair.size,
        lambda Z, S_rows, rows: _t_rows(Z, U, S_rows, data.n, m, pu[rows], pj[rows]),
    )
    inputs = _inputs(data, spec, m=m)
    return EstimateReport("T", values, batch.seed, opt.restarts, inputs)


def estimate_R_cd1_logZ(
    data: BinaryDataset,
    spec: ConstraintSpec,
    m: int,
    batch: RademacherBatch,
    opt: OptimizerSettings = OptimizerSettings(),
) -> EstimateReport:
    """Class x -> CD-1 approximate ln Z, optimized over column-bounded W."""
    U, S = _signed_counts(data, batch)
    values = _ascend(
        S, batch.seed, spec, opt, data.k, m, opt.restarts,
        lambda Z, S_rows, rows: _cd1_logz_rows(Z, U, S_rows, data.n, m),
    )
    inputs = _inputs(data, spec, m=m)
    return EstimateReport("CD1_LOGZ", values, batch.seed, opt.restarts, inputs)


def finite_t_inputs(members) -> tuple[float, float]:
    """LEMMA4_FINITE's W and ln |T| for the finite class of these members.

    W, the largest |t|, is their largest column l1 norm.  FINITE_T records
    both values and bounds tabulates them, so compare's exact join sees the
    same bits on both sides.
    """
    t_max = max(float(np.abs(W).sum(axis=0).max()) for W, _, _ in members)
    return t_max, math.log(len(members))


def estimate_R_finite_T(
    data: BinaryDataset, members, batch: RademacherBatch
) -> EstimateReport:
    """Exact inner max over an explicit finite list of (W, u, j) members."""
    U, S = _signed_counts(data, batch)
    members = list(members)
    if not members:
        raise ValueError("members must be nonempty")
    for W, _, _ in members:
        if len(W) != data.k:
            raise ValueError(f"a member W has k={len(W)} rows, data has k={data.k}")
    table = np.stack([t_value(W, u, j, U) for W, u, j in members])
    values = (table @ S[:, :, None])[:, :, 0].max(axis=1) / data.n
    t_max, ln_card_T = finite_t_inputs(members)
    inputs = {"n": data.n, "k": data.k, "W_radius": t_max, "ln_card_T": ln_card_T}
    return EstimateReport("FINITE_T", values, batch.seed, inputs=inputs)


def generate_members(
    k: int, m: int, count: int, radius: float, seed: int
) -> list[tuple[np.ndarray, int, int]]:
    """Random T members: W uniform on [-radius, radius] with columns projected
    into the l1 ball, the start draw of _ascend."""
    if count < 1:
        raise ValueError("count must be positive")
    radius = _check_radius(radius, "radius")
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


@dataclass(frozen=True)
class HypothesisClass:
    """One row of the class table.

    kind says how the inner sup is computed; estimator is the estimate_R_*
    function; bounds are the bounds.csv names whose values are summed into
    the class's comparator, none when it has no closed form.
    """

    kind: str
    estimator: Callable
    bounds: tuple = ()


# Every class, in the order the CLI lists them.
CLASSES = {
    "F": HypothesisClass("analytic", estimate_R_F, ("LEMMA1",)),
    "G": HypothesisClass("analytic", estimate_R_G, ("REMARK2",)),
    "H": HypothesisClass("optimized", estimate_R_H, ("LEMMA1", "REMARK2")),
    "LOGLIK_PART1": HypothesisClass(
        "optimized", estimate_R_loglik_part1, ("THEOREM1",)
    ),
    "T": HypothesisClass("optimized", estimate_R_T),
    "CD1_LOGZ": HypothesisClass("optimized", estimate_R_cd1_logZ, ("COROLLARY1",)),
    "FINITE_T": HypothesisClass("finite-max", estimate_R_finite_T, ("LEMMA4_FINITE",)),
}
CLASS_NAMES = tuple(CLASSES)
