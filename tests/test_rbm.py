"""Exact-model operations: energies, factorizations, partition functions."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit
from scipy.special import logsumexp as scipy_logsumexp

import rbmrad as rr
from rbmrad import rbm as rbm_mod
from conftest import random_params

LN2 = math.log(2.0)


def zero_params(k, m):
    return rr.RbmParams(W=np.zeros((k, m)), b=np.zeros(k), c=np.zeros(m))


class TestTypes:
    def test_params_dims_derived(self, rng):
        p = random_params(rng, 3, 2)
        assert (p.k, p.m) == (3, 2) and p.W.shape == (3, 2)

    def test_params_reject_nan(self):
        with pytest.raises(ValueError):
            rr.RbmParams(W=[[np.nan]], b=[0.0], c=[0.0])

    def test_params_reject_mismatch(self):
        with pytest.raises(ValueError):
            rr.RbmParams(W=np.zeros((2, 2)), b=np.zeros(3), c=np.zeros(2))

    def test_params_arrays_immutable(self, rng):
        p = random_params(rng, 2, 2)
        with pytest.raises(ValueError):
            p.W[0, 0] = 1.0

    def test_dataset_rejects_nonbinary(self):
        with pytest.raises(ValueError):
            rr.BinaryDataset(np.array([[0.5]]))

    def test_dataset_rejects_empty(self):
        with pytest.raises(ValueError):
            rr.BinaryDataset(np.zeros((0, 3)))

    def test_distribution_must_normalize(self):
        with pytest.raises(ValueError):
            rr.ExactDistribution(np.array([0.5, 0.4]), 0.0)

    def test_distribution_rejects_out_of_range(self):
        # Sums to 1, so only the range check can refuse it.
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            rr.ExactDistribution(np.array([1.5, -0.5]), 0.0)


class TestEnergy:
    def test_all_zero_state(self, rng):
        p = random_params(rng, 3, 2)
        assert rr.energy(p, np.zeros(3), np.zeros(2)) == 0.0

    def test_weight_term(self):
        p = rr.RbmParams(W=[[1.0], [1.0]], b=[0.0, 0.0], c=[0.0])
        assert rr.energy(p, [1, 1], [1]) == -2.0

    def test_bias_terms(self):
        p = rr.RbmParams(W=[[0.0]], b=[2.0], c=[3.0])
        assert rr.energy(p, [1], [1]) == -5.0

    def test_dimension_mismatch(self, rng):
        p = random_params(rng, 3, 2)
        with pytest.raises(ValueError):
            rr.energy(p, [1, 0], [0, 0])


class TestFreeEnergyPart1:
    def test_all_zero_params(self):
        assert rr.free_energy_part1(zero_params(3, 4), np.ones(3)) == pytest.approx(
            4 * LN2, abs=1e-12
        )

    def test_zero_x_reduces_to_hidden_biases(self, rng):
        p = random_params(rng, 4, 3)
        expected = np.log1p(np.exp(p.c)).sum()
        assert rr.free_energy_part1(p, np.zeros(4)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_matches_bruteforce(self, rng):
        for _ in range(30):
            k, m = rng.integers(1, 7, size=2)
            p = random_params(rng, int(k), int(m))
            x = rng.integers(0, 2, size=int(k)).astype(float)
            assert rr.free_energy_part1(p, x) == pytest.approx(
                rr.part1_bruteforce(p, x), abs=1e-10
            )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_factorization_property(self, k, m, seed):
        gen = np.random.default_rng(seed)
        p = random_params(gen, k, m)
        x = gen.integers(0, 2, size=k).astype(float)
        assert abs(rr.free_energy_part1(p, x) - rr.part1_bruteforce(p, x)) <= 1e-9


class TestPart1Bruteforce:
    def test_zero_params(self):
        assert rr.part1_bruteforce(zero_params(2, 3), np.zeros(2)) == pytest.approx(
            3 * LN2, abs=1e-12
        )

    def test_single_inactive_unit(self):
        p = rr.RbmParams(W=np.zeros((2, 1)), b=np.zeros(2), c=np.zeros(1))
        assert rr.part1_bruteforce(p, np.ones(2)) == pytest.approx(LN2, abs=1e-12)

    def test_enumeration_guard(self):
        p = zero_params(2, 21)
        with pytest.raises(rr.EnumerationLimitError):
            rr.part1_bruteforce(p, np.zeros(2))


class TestLogPartition:
    def test_zero_params_factorized(self):
        assert rr.log_partition_factorized(zero_params(3, 2)) == pytest.approx(
            5 * LN2, abs=1e-12
        )

    def test_smallest_case(self):
        assert rr.log_partition_factorized(zero_params(1, 1)) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_zero_params_bruteforce(self):
        assert rr.log_partition_bruteforce(zero_params(3, 2)) == pytest.approx(
            5 * LN2, abs=1e-12
        )

    def test_suppressed_hidden_unit_limit(self):
        # c = -30 freezes the single hidden unit, leaving ln 2^k + ln 1
        p = rr.RbmParams(W=np.zeros((2, 1)), b=np.zeros(2), c=[-30.0])
        assert rr.log_partition_bruteforce(p) == pytest.approx(
            2 * LN2, abs=1e-10
        )

    def test_routes_agree(self, rng):
        for _ in range(20):
            k, m = rng.integers(1, 7, size=2)
            p = random_params(rng, int(k), int(m))
            assert rr.log_partition_factorized(p) == pytest.approx(
                rr.log_partition_bruteforce(p), abs=1e-10
            )

    def test_chunked_bruteforce_still_agrees(self, rng):
        # k + m large enough that the x block is split into chunks, and k
        # large enough that the split enumeration walks several blocks of
        # its high half.
        k, m = 12, 11
        assert 2 ** (k - k // 2) >= 3 * rbm_mod._CHUNK_ROWS
        p = random_params(rng, k, m, scale=0.5)
        assert rr.log_partition_factorized(p) == pytest.approx(
            rr.log_partition_bruteforce(p), abs=1e-9
        )

    def test_guards(self):
        with pytest.raises(rr.EnumerationLimitError):
            rr.log_partition_factorized(zero_params(21, 1))
        with pytest.raises(rr.EnumerationLimitError):
            rr.log_partition_bruteforce(zero_params(13, 12))


class TestLogsumexp:
    @pytest.mark.parametrize("size", [1, 64, 2**20])
    def test_matches_scipy(self, rng, size):
        v = rng.normal(0.0, 10.0, size=size)
        expected = scipy_logsumexp(v)
        assert rbm_mod.logsumexp(v) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("level", [700.0, -700.0])
    def test_no_overflow(self, level):
        value = rbm_mod.logsumexp(np.full(64, level))
        assert value == pytest.approx(level + math.log(64.0), rel=1e-15, abs=0)

    def test_list_and_matrix_inputs(self, rng):
        v = rng.normal(size=(8, 4))
        assert rbm_mod.logsumexp(v) == pytest.approx(scipy_logsumexp(v), rel=1e-12)
        assert rbm_mod.logsumexp(list(v[0])) == pytest.approx(
            scipy_logsumexp(v[0]), rel=1e-12
        )


class TestExactLogLikelihood:
    def test_uniform_model(self):
        assert rr.exact_log_likelihood(zero_params(3, 2), [1, 0, 1]) == pytest.approx(
            -3 * LN2, abs=1e-12
        )

    def test_smallest_case(self):
        assert rr.exact_log_likelihood(zero_params(1, 1), [0]) == pytest.approx(
            -LN2, abs=1e-12
        )

    def test_matches_distribution_entry(self, rng):
        for _ in range(10):
            p = random_params(rng, 4, 3)
            dist = rr.exact_distribution(p)
            x = rng.integers(0, 2, size=4)
            idx = int(x @ (2 ** np.arange(4)))
            assert rr.exact_log_likelihood(p, x.astype(float)) == pytest.approx(
                math.log(dist.probabilities[idx]), abs=1e-10
            )

    def test_never_positive(self, rng):
        for _ in range(20):
            p = random_params(rng, 3, 3)
            x = rng.integers(0, 2, size=3).astype(float)
            assert rr.exact_log_likelihood(p, x) <= 1e-10


class TestExactDistribution:
    def test_uniform(self):
        dist = rr.exact_distribution(zero_params(2, 1))
        assert np.allclose(dist.probabilities, 0.25, atol=1e-12)

    def test_strong_visible_bias(self):
        p = rr.RbmParams(W=[[0.0]], b=[10.0], c=[0.0])
        assert rr.exact_distribution(p).probabilities[1] >= 0.9999

    def test_self_consistency(self, rng):
        p = random_params(rng, 3, 2)
        dist = rr.exact_distribution(p)
        for idx, x in enumerate(rr.enumerate_configs(3)):
            assert dist.probabilities[idx] == pytest.approx(
                math.exp(rr.exact_log_likelihood(p, x)), abs=1e-10
            )

    def test_split_order_every_k(self, rng):
        # Odd k and k = 1 (an empty low half) included.
        for k in range(1, 10):
            p = random_params(rng, k, 3)
            dist = rr.exact_distribution(p)
            expected = [
                math.exp(rr.free_energy_part1(p, x) - dist.log_partition)
                for x in rr.enumerate_configs(k)
            ]
            assert np.allclose(dist.probabilities, expected, rtol=0.0, atol=1e-12)

    def test_normalization(self, rng):
        p = random_params(rng, 5, 4)
        assert abs(rr.exact_distribution(p).probabilities.sum() - 1.0) <= 1e-10


class TestSampleDataset:
    def test_rejects_empty_request(self, rng):
        with pytest.raises(ValueError):
            rr.sample_dataset(random_params(rng, 2, 2), 0, 1)

    def test_uniform_sampling_concentrates(self):
        data = rr.sample_dataset(zero_params(4, 2), 10_000, 13)
        means = data.samples.mean(axis=0)
        assert np.all(means >= 0.47) and np.all(means <= 0.53)

    def test_draws_decode_bit_order(self):
        # Nearly all mass on x = (1, 0, 1), index 5.
        p = rr.RbmParams(W=np.zeros((3, 1)), b=[40.0, -40.0, 40.0], c=[0.0])
        data = rr.sample_dataset(p, 50, 2)
        assert np.all(data.samples == [1.0, 0.0, 1.0])

    def test_seed_determinism(self, rng):
        p = random_params(rng, 3, 2)
        a = rr.sample_dataset(p, 100, 5)
        b = rr.sample_dataset(p, 100, 5)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("k", [1, 3, 7, 10])
    def test_draws_invert_the_public_distribution(self, rng, k):
        # Sampling builds its CDF in the enumeration's table; its draws must
        # be those of the table exact_distribution returns, whose ln Z must
        # be log_partition_factorized's bit for bit.
        p = random_params(rng, k, 4)
        dist = rr.exact_distribution(p)
        n, seed = 500, 11
        u = np.random.default_rng(seed).random(n)
        idx = np.searchsorted(np.cumsum(dist.probabilities), u, side="right")
        idx = np.minimum(idx, 2 ** k - 1)
        expected = rr.enumerate_configs(k)[idx]
        assert np.array_equal(rr.sample_dataset(p, n, seed).samples, expected)
        assert dist.log_partition == rr.log_partition_factorized(p)


class TestConventions:
    def test_bit_order(self):
        assert np.array_equal(
            rr.enumerate_configs(2), [[0, 0], [1, 0], [0, 1], [1, 1]]
        )
        assert rr.enumerate_configs(0).shape == (1, 0)
        with pytest.raises(ValueError):
            rr.enumerate_configs(-1)

    def test_softplus_lipschitz(self, rng):
        g1 = rng.uniform(-50, 50, size=100_000)
        g2 = rng.uniform(-50, 50, size=100_000)
        assert np.all(
            np.abs(rr.softplus(g1) - rr.softplus(g2)) <= np.abs(g1 - g2) + 1e-12
        )

    def test_softplus_stable_at_extremes(self):
        assert rr.softplus(800.0) == 800.0
        assert rr.softplus(-800.0) == 0.0
        assert isinstance(rr.softplus(800.0), np.float64)
        g = np.array([np.inf, -np.inf])
        assert np.array_equal(rr.softplus(g), [np.inf, 0.0])
        assert np.isnan(rr.softplus(np.nan))

    def test_softplus_matches_logaddexp_to_one_ulp(self):
        g = np.linspace(-60.0, 60.0, 1_200_001)
        ref = np.logaddexp(0.0, g)
        ulp = np.spacing(np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(rr.softplus(g) - ref) <= ulp)

    def test_softplus_raises_no_warning(self):
        g = np.array([-800.0, 800.0, -np.inf, np.inf, np.nan, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rr.softplus(g)

    def test_sigmoid_matches_expit(self):
        g = np.linspace(-800.0, 800.0, 1_600_001)
        ref = expit(g)
        got = rr.sigmoid(g)
        assert np.abs(got - ref).max() <= 4.5e-16
        tail = ref > 1e-300
        assert (np.abs(got - ref)[tail] / ref[tail]).max() <= 1e-15

    def test_sigmoid_stable_at_extremes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(rr.sigmoid(np.array([-1000.0, 1000.0])), [0.0, 1.0])
            assert (rr.sigmoid(-1000.0), rr.sigmoid(1000.0)) == (0.0, 1.0)
        assert isinstance(rr.sigmoid(0.5), np.float64)
        assert rr.sigmoid(0.0) == 0.5

    def test_dataset_log_likelihoods_matches_scalar(self, rng):
        # Oracle sharing no table with the lookup: the single-x part 1 minus
        # the double-sum ln Z.  k = 1 leaves the low half empty and k = 7
        # splits it unequally; every row appears twice.
        for k in (1, 2, 7):
            p = random_params(rng, k, 3)
            X = rng.integers(0, 2, size=(12, k)).astype(float)
            data = rr.BinaryDataset(np.concatenate([X, X[::-1]]))
            vec = rr.dataset_log_likelihoods(p, data)
            log_z = rr.log_partition_bruteforce(p)
            assert vec.shape == (data.n,)
            for x, value in zip(data.samples, vec):
                oracle = rr.free_energy_part1(p, x) - log_z
                assert abs(value - oracle) <= 1e-12, (k, x)


class TestMemory:
    """At k = m = 20 the exact routines hold the enumeration's one 2^20 table.

    ln Z, sampling and row log-likelihoods work in that table in place, so
    each stays below two tables; exact_distribution returns a defensive copy
    of it and stays below three.
    """

    TABLE = 8 * 2 ** 20

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture
    def params(self, rng):
        return random_params(rng, 20, 20, scale=0.25)

    def test_log_partition_peak(self, params):
        assert self.peak_bytes(rr.log_partition_factorized, params) < 2 * self.TABLE

    def test_sample_dataset_peak(self, params):
        assert self.peak_bytes(rr.sample_dataset, params, 1000, 3) < 2 * self.TABLE

    def test_dataset_log_likelihoods_peak(self, params, rng):
        data = rr.BinaryDataset(rng.integers(0, 2, size=(1000, 20)))
        peak = self.peak_bytes(rr.dataset_log_likelihoods, params, data)
        assert peak < 2 * self.TABLE

    def test_exact_distribution_peak(self, params):
        assert self.peak_bytes(rr.exact_distribution, params) < 3 * self.TABLE
