"""One-shot verification suites over the library's core identities.

Each suite runs a fixed seeded batch of checks and reports how many failed.
The CLI `verify` subcommand executes all of them and exits nonzero when any
check fails, which makes the suite usable as a build gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cd1, rademacher, rbm


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_params(rng, k: int, m: int, scale: float = 2.0) -> rbm.RbmParams:
    return rbm.RbmParams(
        W=rng.uniform(-scale, scale, size=(k, m)),
        b=rng.uniform(-scale, scale, size=k),
        c=rng.uniform(-scale, scale, size=m),
    )


def _random_machine(rng, high: int) -> rbm.RbmParams:
    # k, then m, each uniform on [1, high), then the parameters
    k = int(rng.integers(1, high))
    return random_params(rng, k, int(rng.integers(1, high)))


def factorization_gaps(rng, machines: int, draws: int, high: int) -> np.ndarray:
    """|free_energy_part1 - 2^m hidden enumeration| at draws x per machine."""
    gaps = []
    for _ in range(machines):
        params = _random_machine(rng, high)
        for _ in range(draws):
            x = rng.integers(0, 2, size=params.k).astype(float)
            gaps.append(abs(
                rbm.free_energy_part1(params, x) - rbm.part1_bruteforce(params, x)
            ))
    return np.array(gaps)


def partition_gaps(rng, machines: int, k_high: int, km_high: int) -> np.ndarray:
    """|factorized ln Z - double enumeration| with k < k_high, k + m < km_high."""
    gaps = []
    for _ in range(machines):
        k = int(rng.integers(1, k_high))
        params = random_params(rng, k, int(rng.integers(1, km_high - k)))
        gaps.append(abs(
            rbm.log_partition_factorized(params)
            - rbm.log_partition_bruteforce(params)
        ))
    return np.array(gaps)


def lipschitz_violations(rng, pairs: int) -> np.ndarray:
    """Pairs on [-50, 50] where |softplus(g1) - softplus(g2)| > |g1 - g2|."""
    g1 = rng.uniform(-50.0, 50.0, size=pairs)
    g2 = rng.uniform(-50.0, 50.0, size=pairs)
    return np.abs(rbm.softplus(g1) - rbm.softplus(g2)) > np.abs(g1 - g2) + 1e-12


def meanfield_gaps(rng, machines: int, high: int):
    """|cd1_log_partition - its mean-field composition| at one x per machine.

    Also returns, per machine, whether h_tilde and x_tilde leave (0, 1).
    """
    gaps, outside = [], []
    for _ in range(machines):
        params = _random_machine(rng, high)
        x = rng.integers(0, 2, size=params.k).astype(float)
        h_tilde = cd1.meanfield_hidden(params, x)
        x_tilde = cd1.meanfield_visible(params, h_tilde)
        outside.append([np.any((v <= 0.0) | (v >= 1.0)) for v in (h_tilde, x_tilde)])
        composed = float(rbm.softplus(x_tilde @ params.W).sum())
        gaps.append(abs(cd1.cd1_log_partition(params, x) - composed))
    return np.array(gaps), np.array(outside)


def ascent_instance(rng, n: int, k: int, m: int):
    """Data X (n x k binary), signs sig and a point z of (m + 1) k entries."""
    X = rng.integers(0, 2, size=(n, k)).astype(float)
    sig = rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    return X, sig, rng.uniform(-1.0, 1.0, size=(m + 1) * k)


def gradient_gap(objective, z: np.ndarray) -> float:
    """Relative gap between objective's gradient and differences of its value."""
    analytic = objective(z)[1]
    fd = np.array([
        objective(z + e)[0] - objective(z - e)[0] for e in 1e-5 * np.eye(z.size)
    ]) / 2e-5
    # denominator floored at 1: zero-gradient instances otherwise divide
    # finite-difference ulp noise by an arbitrary tiny constant
    return np.linalg.norm(analytic - fd) / max(1.0, np.linalg.norm(analytic))


def rows_gradient_gap(rows_fn, Z: np.ndarray, *args) -> float:
    """gradient_gap of an ascent row function's summed row values over Z."""
    def objective(p):
        value, grad = rows_fn(p.reshape(Z.shape), *args)
        return value.sum(), grad.ravel()
    return gradient_gap(objective, Z.ravel())


def part1_gradient_gap(X, sig, m: int, z: np.ndarray) -> float:
    """rows_gradient_gap of rademacher._part1_rows at the m vectors in z[k:]."""
    W = z[X.shape[1]:].reshape(m, -1)
    return rows_gradient_gap(rademacher._part1_rows, W, X, np.tile(sig, (m, 1)))


def suite_factorization(seed: int = 0) -> SuiteResult:
    """free_energy_part1 against the 2^m hidden enumeration."""
    gaps = factorization_gaps(np.random.default_rng([seed, 1]), 50, 4, 7)
    return SuiteResult("factorization", gaps.size, int((gaps > 1e-9).sum()))


def suite_partition(seed: int = 0) -> SuiteResult:
    """Factorized ln Z against the double enumeration."""
    gaps = partition_gaps(np.random.default_rng([seed, 2]), 25, 8, 11)
    return SuiteResult("partition", gaps.size, int((gaps > 1e-9).sum()))


def suite_lipschitz(seed: int = 0) -> SuiteResult:
    """|softplus(g1) - softplus(g2)| <= |g1 - g2| on [-50, 50]."""
    bad = lipschitz_violations(np.random.default_rng([seed, 3]), 100_000)
    return SuiteResult("lipschitz", bad.size, int(bad.sum()))


def suite_projection(seed: int = 0) -> SuiteResult:
    """project_l1 feasibility, idempotence, and distance dominance.

    Vectors with magnitudes up to 1e300, some tied at the largest, must
    come back with l1 norm min(|v|_1, radius), radius below 2.  Also runs
    the ascent's own path, _project_columns on a block of flattened k x m
    rows: each row must be feasible and equal, bit for bit, to projecting
    its m columns one at a time with project_l1.
    """
    rng = np.random.default_rng([seed, 4])
    checks = failures = 0
    for _ in range(200):
        d = int(rng.integers(1, 9))
        radius = float(rng.uniform(0.0, 2.0))
        v = rng.uniform(-3.0, 3.0, size=d)
        p = rademacher.project_l1(v, radius)
        checks += 3
        failures += np.abs(p).sum() > radius + 1e-12
        failures += np.max(np.abs(rademacher.project_l1(p, radius) - p)) > 1e-12
        # projection must be at least as close as any sampled feasible point
        q = rng.uniform(-1.0, 1.0, size=d)
        norm = np.abs(q).sum()
        if norm > radius and norm > 0.0:
            q *= radius / norm
        failures += (
            np.linalg.norm(v - p) > np.linalg.norm(v - q) + 1e-12
        )
    for _ in range(100):
        d, radius = int(rng.integers(1, 9)), float(rng.uniform(0.0, 2.0))
        v = rng.uniform(-1.0, 1.0, size=d) * 10.0 ** rng.uniform(0.0, 300.0)
        v[rng.random(d) < 0.3] = np.abs(v).max()
        norm = np.abs(rademacher.project_l1(v, radius)).sum()
        checks += 1
        failures += abs(norm - min(np.abs(v).sum(), radius)) > 1e-12 * radius
    for _ in range(50):
        k, m = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        radius = float(rng.uniform(0.0, 2.0))
        Z = rng.uniform(-3.0, 3.0, size=(5, k * m))
        block = rademacher._project_columns(Z, k, m, radius).reshape(5, k, m)
        for z, p in zip(Z.reshape(5, k, m), block):
            alone = [rademacher.project_l1(col, radius) for col in z.T]
            checks += 2
            failures += np.abs(p).sum(axis=0).max() > radius + 1e-12
            failures += not np.array_equal(p.T, alone)
    return SuiteResult("projection", checks, failures)


def suite_gradient(seed: int = 0) -> SuiteResult:
    """The ascent gradients against central differences of their objectives.

    Covers the row functions themselves: _part1_rows, _cd1_logz_rows and
    _t_rows at every pair (u, j).  On the same instances it also checks the
    values of _part1_rows, against sig'softplus(X w) / n for each w, and of
    _t_rows, against sig't_value / n at every pair.
    """
    rng = np.random.default_rng([seed, 5])
    checks = failures = 0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        X, sig, z = ascent_instance(rng, n, k, m)
        # the w block doubles as one flattened k x m matrix W
        W, w = z[k:].reshape(k, m), z[k:].reshape(m, k)
        row = (W.reshape(1, -1), X, sig[None], m)
        gaps = [part1_gradient_gap(X, sig, m, z),
                rows_gradient_gap(rademacher._cd1_logz_rows, *row)]
        part1 = rademacher._part1_rows(w, X, np.tile(sig, (m, 1)))[0]
        value_gaps = [np.abs(part1 - sig @ rbm.softplus(X @ w.T) / n).max()]
        for u, j in np.ndindex(k, m):
            gaps.append(rows_gradient_gap(rademacher._t_rows, *row, [u], [j]))
            t = rademacher._t_rows(*row, [u], [j])[0][0]
            value_gaps.append(abs(t - sig @ rademacher.t_value(W, u, j, X) / n))
        checks += len(gaps) + len(value_gaps)
        failures += sum(gap > 1e-4 for gap in gaps)
        failures += sum(gap > 1e-12 for gap in value_gaps)
    return SuiteResult("gradient", checks, failures)


def suite_holder(seed: int = 0) -> SuiteResult:
    """_linear_values, the inner sup of F, G and the part-1 bias term,
    against the 2d signed vertices."""
    rng = np.random.default_rng([seed, 6])
    failures = 0
    for _ in range(200):
        d = int(rng.integers(1, 7))
        radius = float(rng.uniform(0.0, 3.0))
        vertices = np.concatenate([radius * np.eye(d), -radius * np.eye(d)])
        n = int(rng.integers(1, 9))
        data = rbm.BinaryDataset(rng.integers(0, 2, size=(n, d)).astype(float))
        batch = rademacher.sample_sigma_batch(n, 4, int(rng.integers(2**31)))
        brute = (batch.sigma_vectors @ data.samples @ vertices.T).max(axis=1) / n
        values = rademacher._linear_values(data, batch, radius)
        failures += np.abs(values - brute).max() > 1e-12
    return SuiteResult("holder", 200, failures)


def suite_meanfield(seed: int = 0) -> SuiteResult:
    """Mean-field ranges, the CD-1 ln Z composition, CD1_LOGZ's row value and
    the CD-1 weight update."""
    gaps, outside = meanfield_gaps(np.random.default_rng([seed, 7]), 50, 7)
    checks = gaps.size + outside.size
    failures = int((gaps > 1e-12).sum() + outside.sum())
    # a CD1_LOGZ ascent row's value is sig'(cd1_log_partition of each x) / n
    rng = np.random.default_rng([seed, 8])
    for _ in range(50):
        params = _random_machine(rng, 7)
        X, sig, _ = ascent_instance(rng, 5, params.k, params.m)
        W = params.W.reshape(1, -1)
        value = rademacher._cd1_logz_rows(W, X, sig[None], params.m)[0][0]
        direct = sig @ [cd1.cd1_log_partition(params, xi) for xi in X] / 5
        checks += 1
        failures += abs(value - direct) > 1e-12
    # the CD-1 update against one assembled row by row from the mean-field
    # passes; the negative hidden pass is the transposed machine's visible pass
    rng = np.random.default_rng([seed, 9])
    for _ in range(50):
        params = _random_machine(rng, 7)
        flipped = rbm.RbmParams(W=params.W.T, b=params.c, c=params.b)
        X = rng.integers(0, 2, size=(int(rng.integers(1, 9)), params.k)).astype(float)
        rate = float(rng.uniform(0.0, 1.0))
        delta = np.zeros_like(params.W)
        for x in X:
            h = cd1.meanfield_hidden(params, x)
            x_tilde = cd1.meanfield_visible(params, h)
            h_neg = cd1.meanfield_visible(flipped, x_tilde)
            delta += np.outer(x, h) - np.outer(x_tilde, h_neg)
        update = cd1._cd1_update(params.W, X, rate)
        checks += 1
        failures += np.abs(update - (params.W + rate * delta / len(X))).max() > 1e-12
    zero = rbm.RbmParams(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
    checks += 1
    failures += abs(
        cd1.cd1_log_partition(zero, np.zeros(3)) - 2.0 * math.log(2.0)
    ) > 1e-12
    return SuiteResult("meanfield", checks, failures)


ALL_SUITES = (
    suite_factorization,
    suite_partition,
    suite_lipschitz,
    suite_projection,
    suite_gradient,
    suite_holder,
    suite_meanfield,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
