"""Closed-form bound calculators: spot values, identities, monotonicity."""

import math

import numpy as np
import pytest

import rbmrad as rr

# Spot values frozen from a 40-digit evaluation of the defining formulas.
LEMMA1_1_2_100 = 0.11774100225154747
REMARK2_2_10_50 = 0.60697085175405854
THEOREM1_1_1_10_4_50 = 2.4278834070162342
LEMMA4_1_LN256_50 = 0.47096400900618988
SAUER_3_100 = 13.845361550523778
COROLLARY1_1_4_2_100_3 = 2.437900866204616


class TestSpotValues:
    def test_lemma1(self):
        assert rr.bound_lemma1(1.0, 2, 100) == pytest.approx(
            LEMMA1_1_2_100, rel=1e-14
        )

    def test_remark2(self):
        assert rr.bound_remark2(2.0, 10, 50) == pytest.approx(
            REMARK2_2_10_50, rel=1e-14
        )

    def test_theorem1(self):
        assert rr.bound_theorem1(1.0, 1.0, 10, 4, 50) == pytest.approx(
            THEOREM1_1_1_10_4_50, rel=1e-14
        )

    def test_lemma4_finite(self):
        assert rr.bound_lemma4_finite(1.0, math.log(256), 50) == pytest.approx(
            LEMMA4_1_LN256_50, rel=1e-14
        )

    def test_sauer_shelah(self):
        assert rr.sauer_shelah_ln_card(3, 100) == pytest.approx(
            SAUER_3_100, rel=1e-14
        )

    def test_corollary1(self):
        assert rr.bound_corollary1(1.0, 4, 2, 100, 3) == pytest.approx(
            COROLLARY1_1_4_2_100_3, rel=1e-14
        )


class TestZeroRadii:
    def test_zero_B(self):
        assert rr.bound_lemma1(0.0, 5, 10) == 0.0

    def test_zero_W(self):
        assert rr.bound_remark2(0.0, 5, 10) == 0.0
        assert rr.bound_lemma4_finite(0.0, 3.0, 10) == 0.0
        assert rr.bound_theorem1(0.0, 0.0, 5, 2, 10) == 0.0
        assert rr.bound_corollary1(0.0, 5, 2, 10, 3) == 0.0

    def test_vc_zero_card(self):
        assert rr.sauer_shelah_ln_card(0, 50) == 0.0


class TestScaling:
    def test_quadruple_n_halves(self):
        for n in (25, 60, 111):
            a = rr.bound_lemma1(1.5, 8, n)
            b = rr.bound_lemma1(1.5, 8, 4 * n)
            assert b == pytest.approx(a / 2.0, rel=1e-12)

    def test_linear_in_radius(self):
        assert rr.bound_remark2(3.0, 7, 40) == pytest.approx(
            3.0 * rr.bound_remark2(1.0, 7, 40), rel=1e-12
        )

    def test_finite_class_sqrt2_step(self):
        # |T| 16 -> 256 doubles ln|T|, so the bound grows by sqrt(2)
        a = rr.bound_lemma4_finite(1.0, math.log(16), 50)
        b = rr.bound_lemma4_finite(1.0, math.log(256), 50)
        assert b == pytest.approx(a * math.sqrt(2.0), rel=1e-12)


class TestIdentities:
    def test_theorem1_decomposition_exact(self):
        for B, W, k, m, n in [
            (1.0, 1.0, 10, 4, 50),
            (0.3, 2.5, 6, 1, 17),
            (2.0, 0.0, 3, 7, 200),
        ]:
            combined = rr.bound_theorem1(B, W, k, m, n)
            parts = m * (rr.bound_lemma1(B, k, n) + rr.bound_remark2(W, k, n))
            assert combined == parts

    def test_corollary1_decomposition_exact(self):
        for W, k, m, n, vc in [(1.0, 4, 2, 100, 3), (0.7, 9, 5, 33, 1)]:
            combined = rr.bound_corollary1(W, k, m, n, vc)
            parts = rr.bound_theorem1(0.0, W, k, m, n) + k * rr.bound_lemma4_finite(
                W, rr.sauer_shelah_ln_card(vc, n), n
            )
            assert combined == parts

    def test_corollary1_vc0_recovers_theorem1(self):
        for W, k, m, n in [(1.0, 5, 3, 50), (2.0, 12, 2, 400)]:
            assert rr.bound_corollary1(W, k, m, n, 0) == rr.bound_theorem1(
                0.0, W, k, m, n
            )


class TestMonotonicity:
    def test_decreasing_in_n(self):
        values = [rr.bound_theorem1(1.0, 1.0, 6, 3, n) for n in (10, 20, 40, 80)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_d(self):
        values = [rr.bound_lemma1(1.0, d, 50) for d in (2, 4, 8, 100)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increasing_in_vc(self):
        values = [rr.bound_corollary1(1.0, 6, 3, 50, vc) for vc in (0, 1, 2, 5, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_linear_in_m(self):
        values = [rr.bound_theorem1(1.0, 1.0, 6, m, 50) for m in (1, 2, 3)]
        assert np.allclose(np.diff(values), values[0], rtol=1e-12)


class TestDomainChecks:
    def test_d_one_rejected(self):
        with pytest.raises(ValueError):
            rr.bound_lemma1(1.0, 1, 50)
        with pytest.raises(ValueError):
            rr.bound_remark2(1.0, 1, 50)
        with pytest.raises(ValueError):
            rr.bound_theorem1(1.0, 1.0, 1, 2, 50)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            rr.bound_lemma1(-0.1, 4, 50)
        with pytest.raises(ValueError):
            rr.bound_lemma4_finite(-1.0, 2.0, 50)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            rr.bound_lemma1(1.0, 4, 0)
        with pytest.raises(ValueError):
            rr.sauer_shelah_ln_card(-1, 50)
        with pytest.raises(ValueError):
            rr.bound_corollary1(1.0, 4, 0, 50, 1)

    def test_negative_ln_card_rejected(self):
        with pytest.raises(ValueError):
            rr.bound_lemma4_finite(1.0, -0.5, 50)

