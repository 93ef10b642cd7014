"""Mean-field passes, the CD-1 log-partition, and the training loop."""

import math
import warnings

import numpy as np
import pytest

import rbmrad as rr
from conftest import random_params
from rbmrad import cd1, rbm

LN2 = math.log(2.0)


def bias_free(rng, k, m, scale=2.0):
    return rr.RbmParams(
        W=rng.uniform(-scale, scale, size=(k, m)), b=np.zeros(k), c=np.zeros(m)
    )


class TestMeanFieldHidden:
    def test_zero_weights(self):
        p = rr.RbmParams(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
        assert np.allclose(rr.meanfield_hidden(p, [1, 0, 1]), 0.5, atol=0)

    def test_unit_column(self):
        p = rr.RbmParams(W=[[1.0], [1.0]], b=np.zeros(2), c=np.zeros(1))
        assert rr.meanfield_hidden(p, [1, 1])[0] == pytest.approx(
            0.88079707797788244, abs=1e-12
        )

    def test_zero_input(self, rng):
        p = random_params(rng, 4, 3)
        assert np.allclose(rr.meanfield_hidden(p, np.zeros(4)), 0.5, atol=0)


class TestMeanFieldVisible:
    def test_zero_weights(self):
        p = rr.RbmParams(W=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
        assert np.allclose(rr.meanfield_visible(p, [0.3, 0.7]), 0.5, atol=0)

    def test_unit_row(self):
        p = rr.RbmParams(W=[[1.0, 1.0]], b=np.zeros(1), c=np.zeros(2))
        assert rr.meanfield_visible(p, [0.5, 0.5])[0] == pytest.approx(
            0.73105857863000488, abs=1e-12
        )

    def test_balanced_row(self):
        p = rr.RbmParams(W=[[1.0, -1.0]], b=np.zeros(1), c=np.zeros(2))
        assert rr.meanfield_visible(p, [0.5, 0.5])[0] == pytest.approx(0.5, abs=0)

    def test_rejects_out_of_range(self, rng):
        p = random_params(rng, 2, 2)
        with pytest.raises(ValueError):
            rr.meanfield_visible(p, [0.0, 0.5])


class TestCd1LogPartition:
    def test_zero_weights(self):
        p = rr.RbmParams(W=np.zeros((4, 3)), b=np.zeros(4), c=np.zeros(3))
        assert rr.cd1_log_partition(p, np.ones(4)) == pytest.approx(
            3 * LN2, abs=1e-12
        )

    def test_composition_oracle(self, rng):
        for _ in range(30):
            k, m = rng.integers(1, 7, size=2)
            p = random_params(rng, int(k), int(m))
            x = rng.integers(0, 2, size=int(k)).astype(float)
            h_tilde = rr.meanfield_hidden(p, x)
            x_tilde = rr.meanfield_visible(p, h_tilde)
            composed = float(rr.softplus(x_tilde @ p.W).sum())
            assert abs(rr.cd1_log_partition(p, x) - composed) <= 1e-12

    def test_scalar_closed_form(self):
        w = -1.3
        p = rr.RbmParams(W=[[w]], b=[0.0], c=[0.0])
        inner = 1.0 / (1.0 + math.exp(-w * 1.0))
        mid = 1.0 / (1.0 + math.exp(-w * inner))
        assert rr.cd1_log_partition(p, [1.0]) == pytest.approx(
            math.log(1.0 + math.exp(w * mid)), abs=1e-12
        )


class TestCd1ApproxLogLikelihood:
    def test_zero_weights(self):
        p = rr.RbmParams(W=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(2))
        assert rr.cd1_approx_log_likelihood(p, [1, 0, 1]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_zero_input_first_term(self, rng):
        p = bias_free(rng, 4, 2)
        expected = 2 * LN2 - rr.cd1_log_partition(p, np.zeros(4))
        assert rr.cd1_approx_log_likelihood(p, np.zeros(4)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_gap_to_exact_is_finite(self, rng):
        # The approximation error has no guaranteed sign; report it only.
        gaps = []
        for _ in range(10):
            p = bias_free(rng, 5, 4)
            x = rng.integers(0, 2, size=5).astype(float)
            exact = rr.exact_log_likelihood(p, x)
            gaps.append(rr.cd1_approx_log_likelihood(p, x) - exact)
        assert np.all(np.isfinite(gaps))
        print(f"cd1 approx-vs-exact gap range: [{min(gaps):.4f}, {max(gaps):.4f}]")


class TestGradientStep:
    def test_zero_learning_rate(self, rng):
        p = bias_free(rng, 3, 2)
        batch = rr.BinaryDataset(rng.integers(0, 2, (8, 3)).astype(float))
        out = rr.cd1_gradient_step(p, batch, 0.0)
        assert np.array_equal(out.W, p.W)

    def test_zero_weight_statistics(self):
        p = rr.RbmParams(W=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
        batch = rr.BinaryDataset(np.array([[1.0, 1.0], [1.0, 0.0]]))
        out = rr.cd1_gradient_step(p, batch, 1.0)
        expected = 0.5 * batch.samples.mean(axis=0)[:, None] - 0.25
        assert np.allclose(out.W, expected, atol=1e-15)

    def test_zero_weight_fixed_point(self):
        p = rr.RbmParams(W=np.zeros((2, 1)), b=np.zeros(2), c=np.zeros(1))
        batch = rr.BinaryDataset(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = rr.cd1_gradient_step(p, batch, 0.7)
        assert np.array_equal(out.W, np.zeros((2, 1)))

    def test_determinism(self, rng):
        p = bias_free(rng, 4, 3)
        batch = rr.BinaryDataset(rng.integers(0, 2, (16, 4)).astype(float))
        a = rr.cd1_gradient_step(p, batch, 0.1)
        b = rr.cd1_gradient_step(p, batch, 0.1)
        assert np.array_equal(a.W, b.W)

    def test_negative_learning_rate_rejected(self, rng):
        p = bias_free(rng, 2, 2)
        batch = rr.BinaryDataset(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            rr.cd1_gradient_step(p, batch, -0.1)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rng, rate):
        p = bias_free(rng, 2, 2)
        batch = rr.BinaryDataset(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="learning_rate"):
            rr.cd1_gradient_step(p, batch, rate)


class TestTrainCd1:
    def test_epochs_zero_single_audit(self, rng):
        p = bias_free(rng, 3, 2, scale=0.5)
        data = rr.sample_dataset(p, 50, 1)
        trace = rr.train_cd1(p, data, 0, 0.05, 7)
        assert len(trace) == 1 and trace[0].epoch == 0

    def test_negative_epochs_rejected(self, rng):
        p = bias_free(rng, 3, 2)
        data = rr.sample_dataset(p, 10, 1)
        with pytest.raises(ValueError):
            rr.train_cd1(p, data, -1, 0.05, 7)

    def test_audit_guard(self):
        p = rr.RbmParams(W=np.zeros((13, 2)), b=np.zeros(13), c=np.zeros(2))
        data = rr.BinaryDataset(np.zeros((4, 13)))
        with pytest.raises(rr.EnumerationLimitError):
            rr.train_cd1(p, data, 1, 0.05, 0)

    def test_trace_determinism(self, rng):
        p = bias_free(rng, 4, 2, scale=0.5)
        data = rr.sample_dataset(p, 100, 3)
        init = rr.RbmParams(
            W=rng.uniform(-0.1, 0.1, (4, 2)), b=np.zeros(4), c=np.zeros(2)
        )
        a = rr.train_cd1(init, data, 5, 0.05, 11)
        b = rr.train_cd1(init, data, 5, 0.05, 11)
        assert a == b

    def test_audit_schedule(self, rng):
        p = bias_free(rng, 3, 2, scale=0.5)
        data = rr.sample_dataset(p, 40, 2)
        trace = rr.train_cd1(p, data, 5, 0.05, 9, audit_every=2)
        assert [t.epoch for t in trace] == [0, 2, 4, 5]

    def test_single_all_ones_sample_improves(self):
        init = rr.RbmParams(W=np.zeros((2, 2)), b=np.zeros(2), c=np.zeros(2))
        data = rr.BinaryDataset(np.ones((1, 2)))
        trace = rr.train_cd1(init, data, 50, 0.1, 0)
        assert trace[-1].mean_exact_loglik >= trace[0].mean_exact_loglik

    def test_one_params_per_audit_and_no_minibatch_datasets(self, rng, monkeypatch):
        p = bias_free(rng, 3, 2, scale=0.5)
        data = rr.sample_dataset(p, 70, 4)
        built = {"RbmParams": 0, "BinaryDataset": 0}
        for name in built:
            original = getattr(cd1, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                built[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cd1, name, counting)
        trace = rr.train_cd1(p, data, 5, 0.05, 9, audit_every=2)
        assert built == {"RbmParams": len(trace), "BinaryDataset": 0}

    def test_final_weights_match_chained_public_steps(self, rng, monkeypatch):
        init = bias_free(rng, 4, 3, scale=0.1)
        data = rr.sample_dataset(bias_free(rng, 4, 3), 75, 5)
        epochs, rate, seed = 4, 0.2, 13
        audited = []

        def recording(*args, **kwargs):
            audited.append(rr.RbmParams(*args, **kwargs))
            return audited[-1]

        monkeypatch.setattr(cd1, "RbmParams", recording)
        rr.train_cd1(init, data, epochs, rate, seed, audit_every=epochs)
        monkeypatch.undo()

        params = init
        batch_size = min(data.n, cd1.BATCH_CAP)
        for epoch in range(1, epochs + 1):
            order = np.random.default_rng([seed, epoch]).permutation(data.n)
            for start in range(0, data.n, batch_size):
                batch = rr.BinaryDataset(data.samples[order[start:start + batch_size]])
                params = rr.cd1_gradient_step(params, batch, rate)
        assert np.array_equal(audited[-1].W, params.W)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, rng, rate):
        p = bias_free(rng, 3, 2)
        data = rr.sample_dataset(p, 10, 1)
        with pytest.raises(ValueError, match="learning_rate"):
            rr.train_cd1(p, data, 1, rate, 7)


def plain_update(W, X, learning_rate):
    """The CD-1 update written out with rbm.sigmoid and @."""
    H = rbm.sigmoid(X @ W)
    X_tilde = rbm.sigmoid(H @ W.T)
    H_neg = rbm.sigmoid(X_tilde @ W)
    return W + learning_rate * ((X.T @ H - X_tilde.T @ H_neg) / X.shape[0])


class TestCd1Update:
    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_equals_plain_formula(self, rng, scale):
        for trial in range(200):
            k, m = int(rng.integers(1, 13)), int(rng.integers(1, 8))
            W = rng.uniform(-scale, scale, size=(k, m))
            X = rng.integers(0, 2, size=(int(rng.integers(1, 33)), k)).astype(float)
            rate = 0.0 if trial % 4 == 0 else float(rng.uniform(0.0, 2.0))
            with np.errstate(over="ignore"):
                got = cd1._cd1_update(W, X, rate)
            assert np.array_equal(got, plain_update(W, X, rate))

    def test_callers_hold_the_overflow(self, rng):
        # saturated: exp of a product with -W overflows
        W = rng.choice([-800.0, 800.0], size=(5, 3))
        X = rng.integers(0, 2, size=(32, 5)).astype(float)
        with pytest.warns(RuntimeWarning, match="overflow"):
            cd1._cd1_update(W, X, 0.1)
        params = rr.RbmParams(W=W, b=np.zeros(5), c=np.zeros(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rr.cd1_gradient_step(params, rr.BinaryDataset(X), 0.1)
            trace = rr.train_cd1(params, rr.BinaryDataset(X), 3, 0.1, 5)
        assert np.array_equal(out.W, plain_update(W, X, 0.1))
        assert len(trace) == 4 and np.isfinite(trace[-1].mean_exact_loglik)

    def test_caller_weights_not_mutated(self, rng):
        W = rng.uniform(-2.0, 2.0, size=(4, 3))
        before = W.copy()
        X = rng.integers(0, 2, size=(10, 4)).astype(float)
        params = rr.RbmParams(W=W, b=np.zeros(4), c=np.zeros(3))
        cd1._cd1_update(W, X, 0.5)
        rr.cd1_gradient_step(params, rr.BinaryDataset(X), 0.5)
        assert np.array_equal(W, before) and np.array_equal(params.W, before)
