"""Estimator contracts: analytic sups, the optimizer, projections, reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbmrad as rr
from rbmrad import rademacher

LN2 = math.log(2.0)


def bernoulli_data(rng, n, k):
    return rr.BinaryDataset(rng.integers(0, 2, size=(n, k)).astype(float))


SMALL_OPT = rr.OptimizerSettings(restarts=4, iterations=200)


class TestSigmaBatch:
    def test_single_value(self):
        batch = rr.sample_sigma_batch(1, 1, 0)
        assert batch.sigma_vectors.shape == (1, 1)
        assert abs(batch.sigma_vectors[0, 0]) == 1.0

    def test_coordinate_means_center(self):
        batch = rr.sample_sigma_batch(4, 100_000, 7)
        assert np.all(np.abs(batch.sigma_vectors.mean(axis=0)) <= 0.02)

    def test_seed_reproducibility(self):
        a = rr.sample_sigma_batch(10, 50, 3)
        b = rr.sample_sigma_batch(10, 50, 3)
        assert np.array_equal(a.sigma_vectors, b.sigma_vectors)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            rr.sample_sigma_batch(0, 1, 0)
        with pytest.raises(ValueError):
            rr.sample_sigma_batch(1, 0, 0)


class TestProjectL1:
    def test_interior_unchanged(self):
        v = np.array([0.25, -0.25])
        assert np.array_equal(rr.project_l1(v, 1.0), v)

    @pytest.mark.parametrize("radius", [-1.0, math.nan])
    def test_invalid_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be nonnegative"):
            rr.project_l1([0.25, -0.25], radius)

    def test_axis_case(self):
        assert np.allclose(rr.project_l1([3.0, 0.0], 1.0), [1.0, 0.0], atol=1e-15)

    def test_idempotence(self, rng):
        for _ in range(50):
            v = rng.uniform(-3, 3, size=int(rng.integers(1, 8)))
            p = rr.project_l1(v, 1.0)
            assert np.max(np.abs(rr.project_l1(p, 1.0) - p)) <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=6),
        st.floats(0, 5),
    )
    def test_feasibility_property(self, values, radius):
        p = rr.project_l1(np.array(values), radius)
        assert np.abs(p).sum() <= radius + 1e-10

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=8),
        st.floats(0, 100),
    )
    def test_feasible_at_huge_magnitudes(self, values, radius):
        # Magnitudes far above the radius, where a threshold formed as
        # css - radius on the raw magnitudes rounds off the ball.
        p = rr.project_l1(np.array(values), radius)
        assert np.abs(p).sum() <= radius * (1.0 + 1e-12)

    @pytest.mark.parametrize("v, radius, expected", [
        ([1e16, 0.0], 3.0, [3.0, 0.0]),
        ([1e20, 1.0, -3.0], 1.0, [1.0, 0.0, 0.0]),
        ([1e17, 2.0], 100.0, [100.0, 0.0]),
    ])
    def test_huge_entry_examples_exact(self, v, radius, expected):
        assert np.array_equal(rr.project_l1(v, radius), expected)

    @staticmethod
    def bisection_theta(v, radius):
        # The threshold of a row outside the ball: the root of the
        # decreasing sum(max(|v| - theta, 0)) - radius on [0, max |v|].
        lo, hi = 0.0, np.abs(v).max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(np.abs(v) - mid, 0.0).sum() > radius:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def test_rows_match_a_bisection_oracle(self, rng):
        # Random blocks at k = 1..12 mix rows well outside the ball, rows
        # inside it, rows scaled onto its sphere, tied magnitudes and zeros.
        outside = 0
        for k in range(1, 13):
            for radius in (0.3, 1.0, 7.5):
                V = rng.uniform(-3.0, 3.0, size=(24, k)) * rng.uniform(0.05, 4.0, (24, 1))
                V[0:4] *= radius / np.abs(V[0:4]).sum(axis=1, keepdims=True)
                V[4:8] = np.round(V[4:8])  # ties, and zeros
                V[8:12, : k // 2] = 0.0
                V[12:16] = rng.choice([-1.0, 1.0], size=(4, k)) * rng.uniform(0.1, 2.0, (4, 1))
                P = rademacher._project_l1_rows(V, radius)
                for v, p in zip(V, P):
                    scale = max(radius, np.abs(v).max())
                    if np.abs(v).sum() <= radius * (1.0 + 1e-12):
                        assert np.allclose(p, v, rtol=0.0, atol=1e-12 * scale)
                        continue
                    outside += 1
                    theta = self.bisection_theta(v, radius)
                    ref = np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)
                    assert np.allclose(p, ref, rtol=0.0, atol=1e-12 * scale)
                    # KKT: the row lands on the sphere, every entry below
                    # theta maps to 0, and the rest shrink by theta.
                    assert abs(np.abs(p).sum() - radius) <= 1e-12 * scale * k
                    below = np.abs(v) < theta * (1.0 - 1e-12)
                    assert np.all(p[below] == 0.0)
                    above = np.abs(v) > theta * (1.0 + 1e-12)
                    assert np.allclose(np.abs(v[above]) - np.abs(p[above]), theta,
                                       rtol=0.0, atol=1e-12 * scale)
                    assert np.all(np.sign(p[above]) == np.sign(v[above]))
        assert outside > 400


class TestLinearClasses:
    def test_zero_radius_F(self, rng):
        data = bernoulli_data(rng, 10, 4)
        batch = rr.sample_sigma_batch(10, 20, 1)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=1.0)
        assert rr.estimate_R_F(data, spec, batch).mean == 0.0

    def test_single_sample_all_ones(self):
        data = rr.BinaryDataset(np.ones((1, 3)))
        batch = rr.RademacherBatch(np.array([[1.0], [-1.0]]), seed=0)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_F(data, spec, batch)
        assert report.mean == 1.0 and report.per_sigma_values == (1.0, 1.0)

    def test_G_matches_F_at_equal_radii(self, rng):
        data = bernoulli_data(rng, 15, 5)
        batch = rr.sample_sigma_batch(15, 40, 2)
        spec = rr.ConstraintSpec(B_radius=0.7, W_radius=0.7)
        f = rr.estimate_R_F(data, spec, batch)
        g = rr.estimate_R_G(data, spec, batch)
        assert (f.mean, f.stderr, f.num_sigma) == (g.mean, g.stderr, g.num_sigma)

    def test_kind_is_analytic(self, rng):
        data = bernoulli_data(rng, 8, 3)
        batch = rr.sample_sigma_batch(8, 5, 0)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        assert rr.estimate_R_F(data, spec, batch).inner_sup_kind == "analytic"


class TestOptimizedClasses:
    def test_H_collapses_at_zero_radii(self, rng):
        data = bernoulli_data(rng, 12, 4)
        batch = rr.sample_sigma_batch(12, 25, 4)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=0.0)
        report = rr.estimate_R_H(data, spec, batch, SMALL_OPT)
        expected = LN2 * batch.sigma_vectors.sum(axis=1) / 12
        assert np.allclose(report.per_sigma_values, expected, atol=0)
        assert report.mean == pytest.approx(expected.mean(), abs=1e-15)

    def test_H_dominates_feasible_points(self, rng):
        data = bernoulli_data(rng, 10, 3)
        batch = rr.sample_sigma_batch(10, 6, 9)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_H(data, spec, batch, SMALL_OPT)
        X, n = data.samples, data.n
        for i, sig in enumerate(batch.sigma_vectors):
            got = report.per_sigma_values[i]
            zero_value = LN2 * sig.sum() / n
            assert got >= zero_value - 1e-12
            for _ in range(8):
                b = rr.project_l1(rng.uniform(-1, 1, 3), 1.0)
                w = rr.project_l1(rng.uniform(-1, 1, 3), 1.0)
                value = (sig @ (X @ b) + sig @ rr.softplus(X @ w)) / n
                assert got >= value - 1e-9

    def test_loglik_m1_identical_to_H(self, rng):
        data = bernoulli_data(rng, 10, 4)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        h = rr.estimate_R_H(data, spec, rr.sample_sigma_batch(10, 8, 5), SMALL_OPT)
        p1 = rr.estimate_R_loglik_part1(
            data, spec, 1, rr.sample_sigma_batch(10, 8, 5), SMALL_OPT
        )
        assert h.mean == p1.mean and h.stderr == p1.stderr

    def test_loglik_is_m_times_H(self, rng):
        data = bernoulli_data(rng, 10, 4)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        h_batch = rr.sample_sigma_batch(10, 8, 5)
        p1_batch = rr.sample_sigma_batch(10, 8, 5)
        h = rr.estimate_R_H(data, spec, h_batch, SMALL_OPT)
        p1 = rr.estimate_R_loglik_part1(data, spec, 3, p1_batch, SMALL_OPT)
        assert np.array_equal(
            np.array(p1.per_sigma_values),
            3 * np.array(h.per_sigma_values),
        )

    def test_loglik_zero_radii_collapse(self, rng):
        data = bernoulli_data(rng, 10, 3)
        batch = rr.sample_sigma_batch(10, 12, 6)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=0.0)
        report = rr.estimate_R_loglik_part1(data, spec, 3, batch, SMALL_OPT)
        expected = 3 * LN2 * batch.sigma_vectors.sum(axis=1) / 10
        assert np.allclose(report.per_sigma_values, expected, atol=0)

    def test_estimator_determinism(self, rng):
        data = bernoulli_data(rng, 10, 3)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        a = rr.estimate_R_H(data, spec, rr.sample_sigma_batch(10, 6, 8), SMALL_OPT)
        b = rr.estimate_R_H(data, spec, rr.sample_sigma_batch(10, 6, 8), SMALL_OPT)
        assert a == b

    def test_optimizer_settings_enforced(self):
        # Checked at construction, so no estimator gets too few of either.
        with pytest.raises(ValueError, match="restarts must be at least 4"):
            rr.OptimizerSettings(restarts=2)
        with pytest.raises(ValueError, match="iterations must be at least 200"):
            rr.OptimizerSettings(iterations=100)


class TestFeasibleFloor:
    """Every per-sigma value is attained: at W = 0 it is the row function at 0."""

    def test_zero_radius_values_are_the_row_function_at_zero(self):
        data = bernoulli_data(np.random.default_rng(3), 13, 4)
        batch = rr.sample_sigma_batch(13, 40, 5)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=0.0)
        X, sig = data.samples, batch.sigma_vectors
        at_zero = rademacher._part1_rows(np.zeros((40, 4)), X, sig)[0]
        h = rr.estimate_R_H(data, spec, batch, SMALL_OPT)
        assert np.array_equal(h.per_sigma_values, at_zero)
        p1 = rr.estimate_R_loglik_part1(data, spec, 3, batch, SMALL_OPT)
        assert np.array_equal(p1.per_sigma_values, 3 * at_zero)
        cd1 = rr.estimate_R_cd1_logZ(data, spec, 2, batch, SMALL_OPT)
        cd1_at_zero = rademacher._cd1_logz_rows(np.zeros((40, 8)), X, sig, 2)[0]
        assert np.array_equal(cd1.per_sigma_values, cd1_at_zero)
        t = rr.estimate_R_T(data, spec, 2, batch, SMALL_OPT)
        assert np.array_equal(t.per_sigma_values, np.zeros(40))

    @pytest.mark.parametrize("estimator", [
        rr.estimate_R_loglik_part1, rr.estimate_R_T, rr.estimate_R_cd1_logZ,
    ])
    def test_zero_hidden_units_rejected(self, rng, estimator):
        data = bernoulli_data(rng, 6, 2)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        with pytest.raises(ValueError, match="m must be positive"):
            estimator(data, spec, 0, rr.sample_sigma_batch(6, 3, 0), SMALL_OPT)


class TestClassT:
    def test_zero_radius_exact_zero(self, rng):
        data = bernoulli_data(rng, 8, 3)
        batch = rr.sample_sigma_batch(8, 5, 2)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=0.0)
        report = rr.estimate_R_T(data, spec, 2, batch, SMALL_OPT)
        assert report.mean == 0.0 and all(v == 0.0 for v in report.per_sigma_values)

    def test_range_invariant(self, rng):
        for _ in range(200):
            k, m = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            W = rng.uniform(-2, 2, size=(k, m))
            u, j = int(rng.integers(k)), int(rng.integers(m))
            x = rng.integers(0, 2, size=(1, k)).astype(float)
            radius = np.abs(W).sum(axis=0).max()
            assert abs(rr.t_value(W, u, j, x)[0]) <= radius

    @pytest.mark.parametrize("u, j", [(-1, 0), (3, 0), (0, -1), (0, 2)])
    def test_pair_out_of_range_rejected(self, rng, u, j):
        # A negative index would otherwise wrap around to the last unit.
        data = bernoulli_data(rng, 6, 3)
        W = rng.uniform(-1, 1, size=(3, 2))
        batch = rr.sample_sigma_batch(6, 4, 1)
        with pytest.raises(ValueError, match="outside k=3 m=2"):
            rr.t_value(W, u, j, data.samples)
        with pytest.raises(ValueError, match="outside k=3 m=2"):
            rr.estimate_R_finite_T(data, [(W, u, j)], batch)
        with pytest.raises(ValueError, match="outside k=3 m=2"):
            rr.count_quantized_behaviors(data, [W], u, j, 0.05)

    def test_ascent_points_inside_the_ball_at_large_radius(self, monkeypatch):
        # At W = 300 Barzilai-Borwein steps put entries near 1e254 into the
        # projection; every point it returns must still be feasible.
        data = bernoulli_data(np.random.default_rng(5), 50, 6)
        batch = rr.sample_sigma_batch(50, 20, 5)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=300.0)
        project = rademacher._project_columns
        norms = []

        def recorded(Z, k, m, radius):
            out = project(Z, k, m, radius)
            norms.append(np.abs(out.reshape(-1, k, m)).sum(axis=1).max())
            return out

        monkeypatch.setattr(rademacher, "_project_columns", recorded)
        opt = rr.OptimizerSettings(restarts=8, iterations=200)
        rr.estimate_R_T(data, spec, 3, batch, opt)
        assert len(norms) > 1
        assert max(norms) <= 300.0 * (1.0 + 1e-12)

    def test_per_sigma_nonnegative_and_bounded(self, rng):
        data = bernoulli_data(rng, 8, 3)
        batch = rr.sample_sigma_batch(8, 10, 3)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_T(data, spec, 2, batch, SMALL_OPT)
        values = np.array(report.per_sigma_values)
        assert np.all(values >= 0.0)
        assert report.mean <= spec.W_radius + 3 * report.stderr


class TestCd1LogZClass:
    def test_zero_radius_collapse(self, rng):
        data = bernoulli_data(rng, 9, 3)
        batch = rr.sample_sigma_batch(9, 8, 1)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=0.0)
        report = rr.estimate_R_cd1_logZ(data, spec, 2, batch, SMALL_OPT)
        expected = 2 * LN2 * batch.sigma_vectors.sum(axis=1) / 9
        assert np.allclose(report.per_sigma_values, expected, atol=0)

    def test_sup_dominates_zero_point(self, rng):
        data = bernoulli_data(rng, 9, 3)
        batch = rr.sample_sigma_batch(9, 8, 4)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_cd1_logZ(data, spec, 2, batch, SMALL_OPT)
        zero_vals = 2 * LN2 * batch.sigma_vectors.sum(axis=1) / 9
        assert np.all(np.array(report.per_sigma_values) >= zero_vals - 1e-15)


def all_pairs(k, m):
    pair = np.arange(k * m)
    return pair // m, pair % m


def central_differences(value_rows, Z, h=1e-5):
    fd = np.empty_like(Z)
    for q in range(Z.shape[1]):
        shift = np.zeros(Z.shape[1])
        shift[q] = h
        fd[:, q] = (value_rows(Z + shift) - value_rows(Z - shift)) / (2 * h)
    return fd


def ascent_points(rng, k, m):
    """An interior point, W = 0 and a point on every column's l1 sphere."""
    interior = rng.uniform(-1.0, 1.0, size=(1, k * m)) / k
    outside = rng.uniform(1.5, 3.0, size=(1, k * m)) * rng.choice([-1.0, 1.0], k * m)
    sphere = rademacher._project_columns(outside, k, m, 1.0)
    assert np.allclose(np.abs(sphere.reshape(k, m)).sum(axis=0), 1.0)
    return [interior, np.zeros((1, k * m)), sphere]


class TestAscentGradients:
    """The analytic row gradients of CD1_LOGZ and T against central differences."""

    def check(self, rng, rows_fn, pair_args):
        for _ in range(20):
            k, m, n = (int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                       int(rng.integers(1, 9)))
            X = rng.integers(0, 2, size=(n, k)).astype(float)
            extra = pair_args(k, m)
            rows = extra[0].size if extra else 1
            sig = np.repeat(rng.choice([-1.0, 1.0], size=(1, n)), rows, axis=0)
            for point in ascent_points(rng, k, m):
                Z = np.repeat(point, rows, axis=0)
                analytic = rows_fn(Z, X, sig, m, *extra)[1]
                fd = central_differences(lambda P: rows_fn(P, X, sig, m, *extra)[0], Z)
                gap = np.linalg.norm(analytic - fd, axis=1) / np.maximum(
                    1.0, np.linalg.norm(analytic, axis=1)
                )
                assert gap.max() <= 1e-6, (k, m, n, gap.max())

    def test_cd1_logz_gradient(self, rng):
        self.check(rng, rademacher._cd1_logz_rows, lambda k, m: ())

    def test_t_gradient_every_pair(self, rng):
        self.check(rng, rademacher._t_rows, all_pairs)


class TestAscentObjectives:
    """The ascent objectives equal the library's definitions of each class."""

    def test_t_rows_match_t_value(self, rng):
        for _ in range(20):
            k, m, n = int(rng.integers(1, 6)), int(rng.integers(1, 4)), 8
            X = rng.integers(0, 2, size=(n, k)).astype(float)
            sig = rng.choice([-1.0, 1.0], size=n)
            W = rng.uniform(-1.0, 1.0, size=(k, m)) / k  # columns inside the ball
            u, j = all_pairs(k, m)
            rows = rademacher._t_rows(
                np.repeat(W.reshape(1, -1), u.size, axis=0),
                X, np.tile(sig, (u.size, 1)), m, u, j,
            )[0]
            expected = [sig @ rr.t_value(W, a, b, X) / n for a, b in zip(u, j)]
            assert np.max(np.abs(rows - expected)) <= 1e-12

    def test_cd1_logz_rows_match_cd1_log_partition(self, rng):
        for _ in range(20):
            k, m, n = int(rng.integers(1, 6)), int(rng.integers(1, 4)), 8
            X = rng.integers(0, 2, size=(n, k)).astype(float)
            sig = rng.choice([-1.0, 1.0], size=n)
            W = rng.uniform(-1.0, 1.0, size=(k, m)) / k  # columns inside the ball
            params = rr.RbmParams(W=W, b=np.zeros(k), c=np.zeros(m))
            row = rademacher._cd1_logz_rows(W.reshape(1, -1), X, sig[None], m)[0]
            expected = sum(
                s * rr.cd1_log_partition(params, x) for s, x in zip(sig, X)
            ) / n
            assert abs(row[0] - expected) <= 1e-12


class TestBatchIndependence:
    """A sigma vector's value, and a row's output, do not depend on its batch."""

    ESTIMATES = {
        "F": rr.estimate_R_F,
        "G": rr.estimate_R_G,
        "H": lambda data, spec, batch: rr.estimate_R_H(data, spec, batch, SMALL_OPT),
        "LOGLIK_PART1": lambda data, spec, batch: rr.estimate_R_loglik_part1(
            data, spec, 3, batch, SMALL_OPT
        ),
        "T": lambda data, spec, batch: rr.estimate_R_T(data, spec, 2, batch, SMALL_OPT),
        "CD1_LOGZ": lambda data, spec, batch: rr.estimate_R_cd1_logZ(
            data, spec, 2, batch, SMALL_OPT
        ),
        "FINITE_T": lambda data, spec, batch: rr.estimate_R_finite_T(
            data, rr.generate_members(4, 2, 256, 1.0, 3), batch
        ),
    }

    def test_every_class_covered(self):
        assert set(self.ESTIMATES) == set(rademacher.CLASS_NAMES)

    @pytest.mark.parametrize("class_name", ESTIMATES)
    def test_first_value_same_alone(self, rng, class_name):
        estimate = self.ESTIMATES[class_name]
        data = bernoulli_data(rng, 13, 4)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        batch = rr.sample_sigma_batch(13, 5, 9)
        alone = rr.RademacherBatch(batch.sigma_vectors[:1], batch.seed)
        first = estimate(data, spec, batch).per_sigma_values[0]
        assert estimate(data, spec, alone).per_sigma_values == (first,)

    def test_finite_T_values_same_alone(self, rng):
        # Criterion 9's sizes: k = 6, n = 50 and 256 members.
        data = bernoulli_data(rng, 50, 6)
        members = rr.generate_members(6, 3, 256, 1.0, 109)
        batch = rr.sample_sigma_batch(50, 300, 109)
        values = rr.estimate_R_finite_T(data, members, batch).per_sigma_values
        for i, sig in enumerate(batch.sigma_vectors):
            alone = rr.RademacherBatch(sig[None], batch.seed)
            assert rr.estimate_R_finite_T(data, members, alone).per_sigma_values == (
                values[i],
            )

    def test_row_functions_blockwise_equal_rowwise(self, rng):
        k, m, n, rows = 6, 3, 50, 40
        X = rng.integers(0, 2, size=(n, k)).astype(float)
        Z = rng.uniform(-1.0, 1.0, size=(rows, k * m))
        sig = rng.choice([-1.0, 1.0], size=(rows, n))
        pair = rng.integers(k * m, size=rows)
        u, j = pair // m, pair % m
        # k = 10, n = 50 is a size where plain 2-D BLAS products round a
        # block of rows differently from one row.
        X10 = rng.integers(0, 2, size=(n, 10)).astype(float)
        W10 = rng.uniform(-0.3, 0.3, size=(rows, 10))
        cases = [
            lambda r: rademacher._t_rows(Z[r], X, sig[r], m, u[r], j[r]),
            lambda r: rademacher._cd1_logz_rows(Z[r], X, sig[r], m),
            lambda r: rademacher._part1_rows(W10[r], X10, sig[r]),
        ]
        for rows_fn in cases:
            value, grad = rows_fn(slice(None))
            for r in range(rows):
                one_value, one_grad = rows_fn(slice(r, r + 1))
                assert one_value[0] == value[r]
                assert np.array_equal(one_grad[0], grad[r])

    def test_projection_blockwise_equal_rowwise(self, rng):
        # Scales from 0.1 to 3 put rows both inside and outside the ball.
        V = rng.uniform(-1.0, 1.0, size=(40, 6)) * rng.uniform(0.1, 3.0, (40, 1))
        P = rademacher._project_l1_rows(V, 1.0)
        assert 0 < np.count_nonzero(np.abs(V).sum(axis=1) > 1.0) < 40
        for r in range(40):
            assert np.array_equal(rademacher._project_l1_rows(V[r:r + 1], 1.0)[0], P[r])


class TestAscentDriver:
    """_ascend steps along the gradient stored with each row's current point."""

    # An anisotropic concave quadratic -((z - c)**2 * a).sum() with its
    # maximum 0 at c, inside the unit l1 ball: a gradient kept from the
    # start no longer points at c, so a stale one stalls short.
    A = np.array([0.5, 1.0, 2.0, 4.0])
    C = np.array([0.3, -0.2, 0.1, 0.25])  # ||c||_1 = 0.85

    @staticmethod
    def quadratic(a, c):
        return lambda Z, sig, rows: (-((Z - c) ** 2 * a).sum(axis=1), -2.0 * a * (Z - c))

    @staticmethod
    def ascend(rng, objective, iterations):
        # 16 sigma vectors of one row each; a row is one column of k = 4
        # entries in the unit l1 ball.
        data = bernoulli_data(rng, 5, 4)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=1.0)
        opt = rr.OptimizerSettings(restarts=4, iterations=iterations)
        batch = rr.sample_sigma_batch(5, 16, 2)
        return rademacher._ascend(data, spec, batch, opt, 1, 1, objective)

    def test_reaches_maximum_of_concave_quadratic(self, rng):
        values = self.ascend(rng, self.quadratic(self.A, self.C), 500)
        assert np.all(values <= 0.0) and np.all(values >= -1e-6)

    def test_step_grows_on_success(self, rng):
        # A shallow quadratic whose maximum lies 0.56 to 1.09 from the
        # starts.  With steps of at most 0.1, each step closes at most
        # 2 * 0.01 * 0.1 = 0.2% of the distance along the flattest axis, so
        # 100 iterations would leave most of it; doubling steps reach the
        # maximum and retire every row before iteration 100.
        calls = []
        shallow = self.quadratic(0.02 * self.A, np.array([-0.3, 0.3, -0.2, 0.1]))

        def counted(Z, sig, rows):
            calls.append(Z.shape[0])
            return shallow(Z, sig, rows)

        values = self.ascend(rng, counted, 500)
        assert len(calls) <= 1 + 100  # the start, the steps
        assert np.all(values <= 0.0) and np.all(values >= -1e-6)

    def test_rows_retire_when_the_step_underflows(self, rng):
        # A flat objective never accepts a step, so every row halves its
        # step 44 times (0.1 * 2**-44 < _MIN_STEP) and retires long before
        # the cap of 200 iterations.  Its gradient -z points into the ball
        # from every nonzero point, so the candidate (1 - step) z never
        # equals its point and no row retires at a projected fixed point.
        calls = []

        def flat(Z, sig, rows):
            calls.append(Z.shape[0])
            return np.zeros(Z.shape[0]), -Z

        values = self.ascend(rng, flat, 200)
        assert len(calls) == 1 + 44  # the start, the steps
        assert set(calls) == {16}
        assert np.array_equal(values, np.zeros(16))

    def test_rows_retire_at_a_fixed_point(self, rng):
        # A linear objective c'z is largest at the vertex -e_1 of the ball.
        # Once a row sits there, its projected candidate is that vertex
        # again, bit for bit, and the row retires at once rather than
        # halving its step down to _MIN_STEP as a flat row does.
        c = np.array([0.1, -0.4, 0.2, 0.3])
        calls = []

        def linear(Z, sig, rows):
            calls.append(Z.shape[0])
            return Z @ c, np.tile(c, (Z.shape[0], 1))

        values = self.ascend(rng, linear, 200)
        assert np.array_equal(values, np.full(16, 0.4))
        assert len(calls) <= 1 + 15

    def test_retired_rows_leave_the_block(self, rng):
        # Rows 0-7 are flat, with the inward gradient -z of the underflow
        # test above, and retire after 44 halvings.  Rows 8-15 follow
        # a steep quartic with its maximum at c: its curvature vanishes
        # there, so even Barzilai-Borwein steps close in only linearly, and
        # at this scale the last row gains less than _REL_TOL only on step
        # 58.  The calls shrink as rows retire, each gets the sigma vectors
        # of the rows it is passed, and a retired row keeps its value.
        a, c = 1e8 * self.A, self.C
        flat = np.arange(16) < 8
        seen = []

        def mixed(Z, sig, rows):
            seen.append((rows, sig))
            value = np.where(flat[rows], 0.25, -((Z - c) ** 4 * a).sum(axis=1))
            grad = np.where(flat[rows, None], -Z, -4.0 * a * (Z - c) ** 3)
            return value, grad

        values = self.ascend(rng, mixed, 500)
        sigma = rr.sample_sigma_batch(5, 16, 2).sigma_vectors
        sizes = [rows.size for rows, _ in seen]
        assert sizes[0] == 16
        assert all(x >= y for x, y in zip(sizes, sizes[1:]))
        assert len(seen) > 1 + 44 and not flat[seen[-1][0]].any()
        assert all(np.array_equal(sig, sigma[rows]) for rows, sig in seen)
        assert np.array_equal(values[flat], np.full(8, 0.25))
        assert np.all(values[~flat] <= 0.0) and np.all(values[~flat] >= -1e-6)

    def test_rows_at_the_cap_report_their_last_accepted_value(self, rng):
        # 4 sigma vectors with blocks of 4 rows.  Rows 1 and 2 of each block
        # gain 0.1% on every call, whatever their point, so they are still
        # active after the 200th step; rows 0 and 3 are flat and retire
        # early.  Replaying the recorded calls with the acceptance rule
        # fc > f gives each row's last accepted value, and each returned
        # value is the max over its block.
        drifting = np.isin(np.arange(16) % 4, (1, 2))
        base = np.tile([0.1, 1.0, 0.9, 0.5], 4)
        base[3] = 1.5  # block 0's max comes from a retired row
        seen = np.zeros(16)
        calls = []

        def objective(Z, sig, rows):
            value = np.where(drifting[rows], base[rows] * (1.0 + seen[rows] / 1000), base[rows])
            seen[rows] += 1
            calls.append((rows.copy(), value))
            return value, np.where(drifting[rows, None], 0.0, np.ones_like(Z))

        data = bernoulli_data(rng, 5, 4)
        spec = rr.ConstraintSpec(B_radius=0.0, W_radius=1.0)
        opt = rr.OptimizerSettings(restarts=4, iterations=200)
        batch = rr.sample_sigma_batch(5, 4, 2)
        values = rademacher._ascend(data, spec, batch, opt, 1, 4, objective)
        assert len(calls) == 1 + 200
        assert np.array_equal(calls[-1][0], np.flatnonzero(drifting))
        accepted = calls[0][1].copy()
        for rows, value in calls[1:]:
            accepted[rows] = np.maximum(accepted[rows], value)
        assert np.array_equal(values, accepted.reshape(4, 4).max(axis=1))
        assert values[0] == 1.5
        assert np.array_equal(values[1:], np.full(3, 1.0 * (1.0 + 200 / 1000)))

    def test_one_objective_call_per_iteration(self, rng, monkeypatch):
        # And no call at the zero matrix: every value comes from the ascent's
        # own rows.
        calls = []
        rows = rademacher._part1_rows

        def counted(Z, *args):
            calls.append((Z.shape[0], not Z.any()))
            return rows(Z, *args)

        monkeypatch.setattr(rademacher, "_part1_rows", counted)
        data = bernoulli_data(rng, 10, 3)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        rr.estimate_R_H(data, spec, rr.sample_sigma_batch(10, 6, 8), SMALL_OPT)
        assert not any(zero for _, zero in calls)
        ascent = [size for size, _ in calls]
        assert 1 <= len(ascent) <= SMALL_OPT.iterations + 1
        assert ascent[0] == 6 * SMALL_OPT.restarts
        assert ascent == sorted(ascent, reverse=True)

    def test_H_ascent_converges_in_few_calls(self, monkeypatch):
        # Criterion 6's data and settings on 60 sigma vectors.  The loop
        # runs until its slowest row retires: Barzilai-Borwein steps need 37
        # calls here, a step that only doubles on success 221.
        calls = []
        rows = rademacher._part1_rows

        def counted(*args):
            calls.append(None)
            return rows(*args)

        monkeypatch.setattr(rademacher, "_part1_rows", counted)
        data = bernoulli_data(np.random.default_rng(106), 50, 10)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        opt = rr.OptimizerSettings(restarts=8, iterations=500)
        rr.estimate_R_H(data, spec, rr.sample_sigma_batch(50, 60, 106), opt)
        assert len(calls) < 100


class TestFiniteT:
    def test_singleton_centered(self, rng):
        data = bernoulli_data(rng, 20, 4)
        members = rr.generate_members(4, 2, 1, 1.0, 5)
        batch = rr.sample_sigma_batch(20, 2000, 6)
        report = rr.estimate_R_finite_T(data, members, batch)
        assert abs(report.mean) <= 3 * report.stderr
        assert report.inner_sup_kind == "finite-max"

    def test_duplicates_equal_singleton(self, rng):
        data = bernoulli_data(rng, 15, 3)
        members = rr.generate_members(3, 2, 1, 1.0, 7)
        a = rr.estimate_R_finite_T(data, members, rr.sample_sigma_batch(15, 50, 8))
        b = rr.estimate_R_finite_T(
            data, members * 3, rr.sample_sigma_batch(15, 50, 8)
        )
        # matmul blocking may reorder the dot-product sums by an ulp
        assert a.mean == pytest.approx(b.mean, abs=1e-14)
        assert a.stderr == pytest.approx(b.stderr, abs=1e-14)

    def test_empty_members_rejected(self, rng):
        data = bernoulli_data(rng, 5, 2)
        with pytest.raises(ValueError):
            rr.estimate_R_finite_T(data, [], rr.sample_sigma_batch(5, 3, 0))

    def test_members_for_another_k_rejected(self, rng):
        data = bernoulli_data(rng, 5, 6)
        members = rr.generate_members(4, 2, 3, 1.0, 1)
        with pytest.raises(ValueError, match="k=4 rows, data has k=6"):
            rr.estimate_R_finite_T(data, members, rr.sample_sigma_batch(5, 3, 0))

    def test_member_columns_within_radius(self):
        members = rr.generate_members(5, 3, 40, 0.8, 11)
        for W, u, j in members:
            assert np.abs(W).sum(axis=0).max() <= 0.8 + 1e-10
            assert 0 <= u < 5 and 0 <= j < 3

    @pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0])
    def test_member_radius_validated(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
            rr.generate_members(4, 2, 3, radius, 1)

    def test_members_reach_a_radius_above_k(self):
        # The draw scales with the radius, so members fill the whole ball
        # rather than a radius-k corner of it.
        members = rr.generate_members(6, 3, 200, 30.0, 1)
        norms = [np.abs(W).sum(axis=0).max() for W, _, _ in members]
        assert max(norms) == pytest.approx(30.0, abs=1e-9)


class TestQuantizedBehaviors:
    def test_single_matrix(self, rng):
        data = bernoulli_data(rng, 10, 3)
        W = rng.uniform(-1, 1, (3, 2))
        assert rr.count_quantized_behaviors(data, [W], 0, 0, 0.05) == 1

    def test_duplicates_collapse(self, rng):
        data = bernoulli_data(rng, 10, 3)
        W = rng.uniform(-1, 1, (3, 2))
        assert rr.count_quantized_behaviors(data, [W, W.copy()], 1, 1, 0.05) == 1

    def test_random_grid_count_logged(self, rng):
        data = bernoulli_data(rng, 20, 3)
        grid = [rng.uniform(-1, 1, (3, 2)) for _ in range(1000)]
        count = rr.count_quantized_behaviors(data, grid, 0, 0, 0.05)
        assert 1 <= count <= 1000
        print(f"quantized behaviors over 1000 matrices: {count}")

    def test_epsilon_validated(self, rng):
        data = bernoulli_data(rng, 5, 2)
        with pytest.raises(ValueError):
            rr.count_quantized_behaviors(data, [np.zeros((2, 2))], 0, 0, 0.0)
        with pytest.raises(ValueError):
            rr.count_quantized_behaviors(data, [], 0, 0, 0.05)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            rr.count_quantized_behaviors(data, [np.zeros((2, 2))], 0, 0, math.nan)


class TestReportValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(ValueError, match="1 of 3 inner sup values"):
            rr.EstimateReport("T", (0.5, bad, 0.25), seed=0)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="at least one sigma vector"):
            rr.EstimateReport("F", (), seed=0)

    def test_statistics_and_kind_derived(self):
        report = rr.EstimateReport("FINITE_T", np.array([0.5, 0.25, 1.0]), seed=4)
        assert report.per_sigma_values == (0.5, 0.25, 1.0)
        assert (report.num_sigma, report.inner_sup_kind) == (3, "finite-max")
        assert report.mean == np.mean([0.5, 0.25, 1.0])
        assert report.optimizer_restarts == 0
        assert math.isnan(rr.EstimateReport("F", (0.5,), seed=0).stderr)

    def test_class_order_kept(self):
        # argparse's choices and the rows of comparison.csv follow this order.
        assert rademacher.CLASS_NAMES == (
            "F", "G", "H", "LOGLIK_PART1", "T", "CD1_LOGZ", "FINITE_T"
        )

    def test_stderr_definition(self, rng):
        data = bernoulli_data(rng, 10, 4)
        batch = rr.sample_sigma_batch(10, 30, 2)
        spec = rr.ConstraintSpec(B_radius=1.0, W_radius=1.0)
        report = rr.estimate_R_F(data, spec, batch)
        values = np.array(report.per_sigma_values)
        assert report.stderr == pytest.approx(
            values.std(ddof=1) / math.sqrt(len(values)), abs=1e-15
        )

    def test_constraint_spec_validation(self):
        with pytest.raises(ValueError):
            rr.ConstraintSpec(B_radius=-1.0, W_radius=0.0)
