"""Saddle-point asymptotics and growth normalizations for Jensen sequences.

Four groups of operations:

* ``solve_L``, the positive root of n = L (pi e^L + 3/4) rounded at the
  requested precision (its Newton solver lives in :mod:`.zeta_core`, whose
  quadrature window needs it), and the two-term approximation
  F_hat / gamma_hat built on L(n), with correction
  b1(L) = (2L^4 + 9L^3 + 16L^2 + 6L + 2) / (24 (L+1)^3);
* ``saddle_coeffs``: the lambda-expansion coefficients A_3..A_6 of
  f((1+lambda) a) / f(a) = exp(-C lambda^2 / 2)(1 + A_3 lambda^3 + ...),
  f(t) = (log t)^n t^(-3/4) e^(-pi t), derived *numerically* by power-series
  composition of the log-integrand (the printed closed forms are the test
  oracle, not the implementation); this one saddle expansion also checks
  that its linear term vanishes and its quadratic term is -C/2 with
  C = (1/L + 1/L^2) n - 3/4;
* growth normalizations (A(n), delta(n)) for the zeta coefficient sequence
  (via n_hat = 2n - 2, L = L(n_hat), K = (1/L + 1/L^2) n_hat - 3/4) and for
  modular-form coefficient sequences (first-order in general, second-order
  closed forms for the partition parameters m = 1/24, weight = -1/2), each
  wrapped as :class:`AsymParams` by one builder over a memoised
  (n, prec) -> (A, delta) function, plus the consistency functional
  C(n, j) = n^(3/2) (gamma(n+j) e^(d^2 j^2 - A j) / gamma(n) - 1);
* the modified Bessel function I_kappa(x), mpmath's ``besseli`` at explicit
  precision, a standalone tool: the growth normalizations above use closed
  forms instead.

All functions take explicit binary precision (``b1_of`` reads it from a
BigReal argument) and return BigReal-valued results rounded at that
precision.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, Union

import mpmath
from mpmath import mpf, workprec

from .zeta_core import (
    BigReal,
    DomainError,
    Number,
    PrecisionFailure,
    _require_prec,
    _solve_L_raw,
    gamma_exact,
)

__all__ = [
    "AsymParams",
    "solve_L",
    "b1_of",
    "F_hat",
    "gamma_hat",
    "saddle_coeffs",
    "zeta_A_delta",
    "C_of",
    "bessel_I",
    "zeta_params",
    "partition_params",
    "modular_params",
]

# ---------------------------------------------------------------------------
# Saddle solver
# ---------------------------------------------------------------------------


def solve_L(n: Number, prec: int) -> BigReal:
    """Unique positive solution L(n) of n = L (pi e^L + 3/4), for n >= 2."""
    _require_prec(prec)
    if mpf(n) < 2:
        raise DomainError(f"solve_L requires n >= 2, got {n!r}")
    raw = _solve_L_raw(n, prec)
    with workprec(prec):
        return BigReal(+raw, prec)


def _b1_raw(L: mpf) -> mpf:
    num = 2 * L**4 + 9 * L**3 + 16 * L**2 + 6 * L + 2
    return num / (24 * (L + 1) ** 3)


def b1_of(L: Union[BigReal, Number], prec: Optional[int] = None) -> BigReal:
    """First correction coefficient b1 = (2L^4+9L^3+16L^2+6L+2)/(24(L+1)^3).

    ``prec`` defaults to the precision of a :class:`BigReal` L; a plain
    number needs it, so mpmath's global precision never sets it.
    """
    if isinstance(L, BigReal):
        prec = L.prec_bits if prec is None else prec
        L = L.value
    _require_prec(prec)
    with workprec(prec + 16):
        L_mp = mpf(L)
        if L_mp <= 0:
            raise DomainError(f"b1_of requires L > 0, got {L!r}")
        value = _b1_raw(L_mp)
    with workprec(prec):
        return BigReal(+value, prec)


def _F_hat_raw(n: Number, prec: int) -> mpf:
    with workprec(prec + 20):
        n_mp = mpf(n)
        L = _solve_L_raw(n_mp, prec + 20)
        main = (
            mpmath.sqrt(2 * mpmath.pi)
            * L ** (n_mp + 1)
            * mpmath.exp(L / 4 - n_mp / L + mpf(3) / 4)
            / mpmath.sqrt((1 + L) * n_mp - mpf(3) / 4 * L**2)
        )
        return +(main * (1 + _b1_raw(L) / n_mp))


def F_hat(n: Number, prec: int) -> BigReal:
    """Two-term saddle-point approximation of F(n) (valid for n > 0)."""
    _require_prec(prec)
    if mpf(n) <= 0:
        raise DomainError(f"F_hat requires n > 0, got {n!r}")
    raw = _F_hat_raw(n, prec)
    with workprec(prec):
        return BigReal(+raw, prec)


def gamma_hat(n: int, prec: int) -> BigReal:
    """Asymptotic gamma(n): (n!/(2n)!) 2^(6-2n) C(2n,2) F_hat(2n-2)."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"gamma_hat requires an integer n >= 2, got {n!r}")
    _require_prec(prec)
    with workprec(prec + 20):
        f_hat = _F_hat_raw(2 * n - 2, prec)
        value = (
            mpmath.factorial(n)
            / mpmath.factorial(2 * n)
            * mpf(2) ** (6 - 2 * n)
            * mpmath.binomial(2 * n, 2)
            * f_hat
        )
    with workprec(prec):
        return BigReal(+value, prec)


# ---------------------------------------------------------------------------
# Saddle-series coefficients A_3..A_6
# ---------------------------------------------------------------------------


def _series_mul(a: List[mpf], b: List[mpf], order: int) -> List[mpf]:
    out = [mpf(0)] * (order + 1)
    for i, ai in enumerate(a):
        if i > order or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _series_log1p(y: List[mpf], order: int) -> List[mpf]:
    """log(1 + Y) for a series Y with Y[0] = 0, truncated at ``order``."""
    assert y[0] == 0
    out = [mpf(0)] * (order + 1)
    power = y[: order + 1] + [mpf(0)] * max(0, order + 1 - len(y))
    sign = 1
    for m in range(1, order + 1):
        coeff = mpf(sign) / m
        for k in range(order + 1):
            out[k] += coeff * power[k]
        power = _series_mul(power, y, order)
        sign = -sign
    return out


def _series_exp(t: List[mpf], order: int) -> List[mpf]:
    """exp(T) for a series T with T[0] = 0, truncated at ``order``."""
    assert t[0] == 0
    out = [mpf(0)] * (order + 1)
    out[0] = mpf(1)
    for k in range(1, order + 1):
        acc = mpf(0)
        for j in range(1, k + 1):
            if j < len(t) and t[j] != 0:
                acc += j * t[j] * out[k - j]
        out[k] = acc / k
    return out


def _saddle_series_raw(n: Number, i_max: int, prec: int) -> List[mpf]:
    """Return [A_3, ..., A_i_max].

    Expands  phi(lambda) = log f((1+lambda) a) - log f(a)
           = n log(1 + log(1+lambda)/L) - (3/4) log(1+lambda) - pi a lambda
    as a power series in lambda, checks that the linear term vanishes (the
    saddle equation) and that the quadratic term is -C/2; the tail from
    lambda^3 on is exponentiated to produce the A_i.
    """
    order = i_max
    wp = prec + 48
    with workprec(wp):
        n_mp = mpf(n)
        L = _solve_L_raw(n_mp, wp)
        a = mpmath.exp(L)
        eps = 1 / L

        # log(1+lambda) = sum_{k>=1} (-1)^(k+1) lambda^k / k
        log1p = [mpf(0)] + [mpf((-1) ** (k + 1)) / k for k in range(1, order + 1)]
        inner = [c * eps for c in log1p]  # log(1+lambda)/L
        phi = [n_mp * c for c in _series_log1p(inner, order)]
        for k in range(1, order + 1):
            phi[k] -= mpf(3) / 4 * log1p[k]
        phi[1] -= mpmath.pi * a

        # Sanity: the linear term is the (scaled) saddle-equation residual.
        scale = mpmath.pi * a
        if abs(phi[1]) > scale * mpf(2) ** (-prec):
            raise PrecisionFailure(
                f"saddle expansion linear term {phi[1]} did not vanish at n={n!r}"
            )
        c_curv = (eps + eps * eps) * n_mp - mpf(3) / 4
        quad = phi[2]
        with workprec(prec + 16):
            if abs(quad + c_curv / 2) > abs(c_curv / 2) * mpf(2) ** (-prec + 8):
                raise PrecisionFailure(
                    f"quadratic saddle term {quad} != -C/2 = {-c_curv / 2} at n={n!r}"
                )

        tail = [mpf(0)] * (order + 1)
        for k in range(3, order + 1):
            tail[k] = phi[k]
        expanded = _series_exp(tail, order)
        return [+expanded[i] for i in range(3, i_max + 1)]


def saddle_coeffs(n: Number, i_max: int = 6, prec: int = 128) -> List[BigReal]:
    """Numerically derived saddle coefficients [A_3, ..., A_i_max] (i_max <= 6)."""
    _require_prec(prec)
    if not 3 <= i_max <= 6:
        raise DomainError(f"saddle_coeffs supports 3 <= i_max <= 6, got {i_max}")
    if mpf(n) < 2:
        raise DomainError(f"saddle_coeffs requires n >= 2, got {n!r}")
    coeffs = _saddle_series_raw(n, i_max, prec)
    with workprec(prec):
        return [BigReal(+c, prec) for c in coeffs]


# ---------------------------------------------------------------------------
# Growth normalizations: zeta
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)  # renormalize asks for A, then delta, at one (n, prec)
def _zeta_A_delta_raw(n: int, prec: int) -> Tuple[mpf, mpf]:
    with workprec(prec + 24):
        n_hat = mpf(2 * n - 2)
        L = _solve_L_raw(n_hat, prec + 24)
        K = (1 / L + 1 / L**2) * n_hat - mpf(3) / 4
        delta_sq = 1 / n_hat - 2 / (L**2 * K)
        if delta_sq <= 0:
            raise DomainError(
                f"zeta growth normalization undefined at n={n} (delta^2 <= 0)"
            )
        delta = mpmath.sqrt(delta_sq)
        a_val = (
            mpmath.log(n * L**2 / (4 * n_hat**2))
            + (L - 1) / (L**2 * K)
            + n_hat * (L + 2) / (L**4 * K**2)
        )
        return +a_val, +delta


def zeta_A_delta(n: int, prec: int) -> Tuple[BigReal, BigReal]:
    """Growth pair (A(n), delta(n)) for the zeta coefficient sequence, n >= 7.

    Uses n_hat = 2n - 2, L = L(n_hat), K = (1/L + 1/L^2) n_hat - 3/4:
        delta(n) = sqrt(1/n_hat - 2/(L^2 K))
        A(n)     = log(n L^2 / (4 n_hat^2)) + (L-1)/(L^2 K) + n_hat (L+2)/(L^4 K^2)
    delta is not real below n = 7, so smaller shifts are rejected.
    """
    _require_prec(prec)
    if not isinstance(n, int) or n < 7:
        raise DomainError(f"zeta_A_delta requires an integer n >= 7, got {n!r}")
    a_val, delta = _zeta_A_delta_raw(n, prec)
    with workprec(prec):
        return BigReal(+a_val, prec), BigReal(+delta, prec)


def C_of(
    n: int,
    j: int,
    prec: int,
    gamma_fn: Optional[Callable[[int, int], BigReal]] = None,
) -> BigReal:
    """Consistency functional C(n, j) = n^(3/2) (gamma(n+j) e^(d^2 j^2 - A j) / gamma(n) - 1).

    Measures the normalized deviation of the shifted-coefficient ratio
    gamma(n+j)/gamma(n) from its two-term growth model e^(A(n) j - delta(n)^2 j^2).
    For n >= 7 and 1 <= j <= 8 the deviation satisfies |C(n, j)| < 14.25, and
    C(n, j) < 0 throughout n <= 500 (the model slightly overestimates the ratio
    at small n; the sign reverses for j near 8 once n reaches ~1000).

    ``gamma_fn(n, prec)`` may be injected (e.g. a cached provider); it defaults
    to :func:`jensenpoly.zeta_core.gamma_exact`.
    """
    _require_prec(prec)
    if not isinstance(n, int) or n < 7:
        raise DomainError(f"C_of requires an integer n >= 7, got {n!r}")
    if not isinstance(j, int) or not 1 <= j <= 8:
        raise DomainError(f"C_of requires 1 <= j <= 8, got {j!r}")
    if gamma_fn is None:
        gamma_fn = gamma_exact

    wp = prec + 32
    g_n = gamma_fn(n, wp).value
    g_nj = gamma_fn(n + j, wp).value
    with workprec(wp):
        a_val, delta = _zeta_A_delta_raw(n, wp)
        ratio = g_nj / g_n * mpmath.exp(delta**2 * j**2 - a_val * j)
        value = mpf(n) ** mpf("1.5") * (ratio - 1)
    with workprec(prec):
        return BigReal(+value, prec)


# ---------------------------------------------------------------------------
# Bessel I
# ---------------------------------------------------------------------------


def bessel_I(kappa: Number, x: Number, prec: int) -> BigReal:
    """Modified Bessel function I_kappa(x), x > 0, by ``mpmath.besseli``.

    Evaluated at ``prec + 32`` bits and rounded to ``prec``.  A negative
    integer order is read as its absolute value (I_(-m) = I_m): mpmath sums
    it around the Gamma poles, which at small x costs seconds or fails.
    """
    _require_prec(prec)
    with workprec(prec + 32):
        x_mp = mpf(x)
        k_mp = mpf(kappa)
        if x_mp <= 0:
            raise DomainError(f"bessel_I requires x > 0, got {x!r}")
        if mpmath.isint(k_mp) and k_mp < 0:
            k_mp = -k_mp
        raw = mpmath.besseli(k_mp, x_mp)
    with workprec(prec):
        return BigReal(+raw, prec)


# ---------------------------------------------------------------------------
# Growth normalizations: modular forms / partitions
# ---------------------------------------------------------------------------

_PARTITION_M = Fraction(1, 24)
_PARTITION_WEIGHT = Fraction(-1, 2)


def _as_fraction(value) -> Fraction:
    # Floats and mpf go through str() so that 1/24 entered as a decimal
    # literal still means the rational the caller wrote down.
    return Fraction(value if isinstance(value, (Fraction, int, str)) else str(value))


@functools.lru_cache(maxsize=64)
def _modular_A_delta_raw(n: int, m: Fraction, order: int, prec: int) -> Tuple[mpf, mpf]:
    with workprec(prec + 24):
        if order == 1:
            m_mp = mpf(m.numerator) / m.denominator
            a_val = 2 * mpmath.pi * mpmath.sqrt(m_mp / n)
            delta = mpmath.sqrt(mpmath.pi / 2) * m_mp ** mpf("0.25") * mpf(n) ** mpf("-0.75")
            return +a_val, +delta
        # order == 2: closed forms for the partition parameters only.
        x = mpf(24 * n - 1)
        a_val = 2 * mpmath.pi / mpmath.sqrt(x) - 24 / x
        delta_sq = 12 * mpmath.pi / x ** mpf("1.5") - 288 / x**2
        if delta_sq <= 0:
            raise DomainError(
                f"second-order partition delta^2 <= 0 at n={n} (needs n >= 3)"
            )
        return +a_val, +mpmath.sqrt(delta_sq)


# ---------------------------------------------------------------------------
# AsymParams bundles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymParams:
    """Growth data (A(n), delta(n)) a sequence carries for renormalization.

    ``A_of_n`` / ``delta_of_n`` are callables (n, prec) -> mpf; ``n_min`` is
    the smallest shift at which delta(n) is real and positive.
    """

    A_of_n: Callable[[int, int], mpf]
    delta_of_n: Callable[[int, int], mpf]
    n_min: int


def _growth_params(A_delta: Callable[[int, int], Tuple[mpf, mpf]], n_min: int) -> AsymParams:
    """AsymParams reading A(n) and delta(n) off one memoised (n, prec) -> (A, delta)."""
    return AsymParams(
        A_of_n=lambda n, prec: A_delta(n, prec)[0],
        delta_of_n=lambda n, prec: A_delta(n, prec)[1],
        n_min=n_min,
    )


def zeta_params() -> AsymParams:
    """Growth parameters for the zeta Taylor-coefficient sequence (n >= 7)."""
    return _growth_params(_zeta_A_delta_raw, 7)


def partition_params(order: int = 2) -> AsymParams:
    """Growth parameters for the partition sequence (order 2 by default)."""
    return modular_params(_PARTITION_M, _PARTITION_WEIGHT, order)


def modular_params(m, weight, order: int = 1) -> AsymParams:
    """Growth parameters (A(n), delta(n)) for a weakly holomorphic form's coefficients.

    ``order=1`` uses the universal leading terms A = 2 pi sqrt(m/n),
    delta = sqrt(pi/2) m^(1/4) n^(-3/4) (n >= 1), which ``weight`` does not
    enter; ``order=2`` uses the sharper closed forms valid for the partition
    generating function (m = 1/24, weight = -1/2):
    A = 2 pi / sqrt(24n-1) - 24/(24n-1),
    delta = sqrt(12 pi (24n-1)^(-3/2) - 288 (24n-1)^(-2)) (n >= 3).
    """
    if order not in (1, 2):
        raise DomainError(f"order must be 1 or 2, got {order!r}")
    m_frac = _as_fraction(m)
    w_frac = _as_fraction(weight)
    if m_frac <= 0:
        raise DomainError(f"pole order m must be positive, got {m!r}")
    if order == 2 and (m_frac, w_frac) != (_PARTITION_M, _PARTITION_WEIGHT):
        raise DomainError(
            "second-order growth closed forms are available only for the "
            "partition parameters m=1/24, weight=-1/2"
        )
    return _growth_params(lambda n, prec: _modular_A_delta_raw(n, m_frac, order, prec),
                          3 if order == 2 else 1)
