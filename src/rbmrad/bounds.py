"""Closed-form Rademacher complexity bounds.

Every bound is a Massart-style expression radius * sqrt(2 * ln(cardinality
proxy) / n).  They all route through one shared primitive so that the
stated decompositions (the likelihood bound as m times the two linear-class
bounds, the CD-1 corollary as its bias-free term plus the finite-class
term) hold exactly in floating point, not merely up to rounding.
"""

from __future__ import annotations

import math


def _massart(radius: float, ln_card: float, n: int) -> float:
    return radius * math.sqrt(2.0 * ln_card / n)


def _check_radius(value: float, name: str) -> float:
    value = float(value)
    if not (value >= 0.0) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite nonnegative real")
    return value


def _check_count(value: int, name: str, minimum: int) -> int:
    if int(value) != value or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")
    return int(value)


def bound_lemma1(B: float, d: int, n: int) -> float:
    """B * sqrt(2 ln d / n) for linear predictors with ||b||_1 <= B.

    d = 1 is rejected: ln 1 = 0 collapses the bound to zero even with a
    nonzero radius, which the finite-class step does not support.
    """
    B = _check_radius(B, "B")
    d = _check_count(d, "d", 2)
    n = _check_count(n, "n", 1)
    return _massart(B, math.log(d), n)


def bound_remark2(W: float, d: int, n: int) -> float:
    """Same form with the column radius W in place of B."""
    W = _check_radius(W, "W")
    d = _check_count(d, "d", 2)
    n = _check_count(n, "n", 1)
    return _massart(W, math.log(d), n)


def bound_theorem1(B: float, W: float, k: int, m: int, n: int) -> float:
    """m * sqrt(2 ln k / n) * (B + W) for the part-1 log-likelihood class.

    Computed as m * (bound_lemma1 + bound_remark2) with d = k, which is the
    same real number and makes the decomposition identity exact.
    """
    k = _check_count(k, "k", 2)
    m = _check_count(m, "m", 1)
    return m * (bound_lemma1(B, k, n) + bound_remark2(W, k, n))


def bound_lemma4_finite(W: float, ln_card_T: float, n: int) -> float:
    """W * sqrt(2 ln|T| / n) for a finite class of |t| <= W functions."""
    W = _check_radius(W, "W")
    ln_card_T = float(ln_card_T)
    if not (ln_card_T >= 0.0) or not math.isfinite(ln_card_T):
        raise ValueError("ln_card_T must be a finite nonnegative real")
    n = _check_count(n, "n", 1)
    return _massart(W, ln_card_T, n)


def sauer_shelah_ln_card(vc: int, n: int) -> float:
    """ln of the (n+1)^vc growth cap for a class of VC dimension vc."""
    vc = _check_count(vc, "vc", 0)
    n = _check_count(n, "n", 1)
    return vc * math.log(n + 1)


def bound_corollary1(W: float, k: int, m: int, n: int, vc: int) -> float:
    """(W/sqrt(n)) * (m sqrt(2 ln k) + k sqrt(2 vc ln(n+1))).

    Computed as the bias-free likelihood term plus k times the finite-class
    bound under the Sauer-Shelah cap, so the stated reductions (vc = 0
    recovers the B = 0 likelihood bound) are exact.
    """
    part1_term = bound_theorem1(0.0, W, k, m, n)  # checks k and m first
    return part1_term + k * bound_lemma4_finite(W, sauer_shelah_ln_card(vc, n), n)
