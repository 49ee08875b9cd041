"""High-precision Taylor coefficients of the completed Riemann zeta function.

The completed zeta function  Lambda(s) = pi^(-s/2) Gamma(s/2) zeta(s)  is
symmetric about s = 1/2, and the even Taylor coefficients gamma(n) of
(-1 + 4 z^2) Lambda(1/2 + z) = sum_n gamma(n) z^(2n) / n!  control the
real-rootedness questions handled by the ``jensen`` module.  Everything here
reduces to the classical theta-integral representation on (1, oo):

    theta0(t)        = sum_{k >= 1} exp(-pi k^2 t)                    (t >= 1)
    F(n)             = int_1^oo (log t)^n t^(-3/4) theta0(t) dt       (n >= 0)
    Lambda^(n)(1/2)  = -2^(n+2) n!  +  F(n) / 2^(n-1)                 (n even)
    gamma(n)         = (n!/(2n)!) (32 C(2n,2) F(2n-2) - F(2n)) / 2^(2n-1)

After u = log t the F-integrand becomes  u^n e^(u/4) theta0(e^u),  a sharply
peaked unimodal bump whose maximum sits near the saddle point u = L(n), the
positive root of  n = L (pi e^L + 3/4)  (solved in :mod:`.asymptotics`).  By
linearity the two F integrals of gamma(n) merge into one, with W = 32 C(2n,2):

    gamma(n) = (n!/(2n)!) int_0^oo u^(2n-2) (W - u^2) e^(u/4) theta0(e^u) du / 2^(2n-1)

whose integrand is positive wherever it carries mass, so nothing cancels.  One
quadrature rule serves every exponent: a doubling-refinement trapezoid over a
certified peak window, on u itself where 5 n >= prec and after a
double-exponential change of variable below that; two successive refinements
must agree to 2^-(prec+5) relative.

The integrand works on raw ``mpmath.libmp`` values with two exps per node,
e^(u/4) and q = exp(-pi e^u), and sums theta0's series as fixed-point integers.

All public operations take an explicit binary precision ``prec`` (>= 64) and
return :class:`BigReal` / :class:`GammaValue` values that are correctly
rounded *results of the requested precision*, independent of the working
precision used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import mpmath
from mpmath import mp, mpf, workprec
from mpmath.libmp import (MPZ_ONE, fone, from_int, from_man_exp, mpf_add, mpf_div, mpf_exp,
                          mpf_log, mpf_mul, mpf_neg, mpf_pi, mpf_pow, mpf_shift, mpf_sub,
                          round_nearest, to_fixed)

__all__ = [
    "MIN_PREC",
    "BigReal",
    "GammaValue",
    "DomainError",
    "PrecisionFailure",
    "theta0",
    "F_exact",
    "lambda_deriv",
    "lambda_deriv_or_zero",
    "gamma_exact",
]


#: Minimum accepted binary working precision for every public operation.
MIN_PREC = 64

#: Doublings the trapezoid may take before an F value is a precision failure.
_MAX_DOUBLINGS = 14


class DomainError(ValueError):
    """An argument lies outside the operation's documented domain."""


class PrecisionFailure(ArithmeticError):
    """The adaptive precision ladder was exhausted without stabilizing."""


Number = Union[int, float, mpf]


@dataclass(frozen=True)
class BigReal:
    """An arbitrary-precision real paired with its binary precision.

    ``value`` is an ``mpmath.mpf`` correctly rounded to ``prec_bits``
    significant bits; re-evaluating the producing operation at
    ``prec_bits + 64`` moves the result by a relative amount below
    ``2**(16 - prec_bits)``.
    """

    value: mpf
    prec_bits: int

    def __post_init__(self) -> None:
        if self.prec_bits < MIN_PREC:
            raise DomainError(
                f"prec_bits={self.prec_bits} below the minimum {MIN_PREC}"
            )

    def __float__(self) -> float:
        return float(self.value)

    def __str__(self) -> str:
        digits = max(1, int(self.prec_bits * 0.30103))
        return mpmath.nstr(self.value, digits)


@dataclass(frozen=True)
class GammaValue:
    """One Taylor coefficient gamma(n) with provenance.

    ``source`` is ``"exact_integral"`` (one quadrature of the merged, positive
    integrand) or ``"asymptotic"`` (saddle-point approximation).
    """

    n: int
    value: BigReal
    source: str


def _require_prec(prec: int) -> None:
    if not isinstance(prec, int) or prec < MIN_PREC:
        raise DomainError(f"prec must be an integer >= {MIN_PREC}, got {prec!r}")


# ---------------------------------------------------------------------------
# theta0
# ---------------------------------------------------------------------------


def _theta0_raw(t: tuple, prec: int) -> tuple:
    """Sum exp(-pi k^2 t), k >= 1, for a raw libmp t; returns a raw value.

    One exp per call, q = exp(-pi t) at prec + 10 bits.  The rest,
    S = 1 + q^3 + q^8 + ..., is summed as fixed-point integers with prec + 24
    fraction bits: each term is the previous one times a step q^(2k-1) that
    grows by q^2, until a term is 0 at that scale.  Each term costs S >= 1 a
    few units of 2^-(prec+24), so q S keeps the relative accuracy of q even
    where q itself is tiny (large t is exactly where the F integrand peaks).
    """
    wp, fb, rnd = prec + 10, prec + 24, round_nearest
    q = mpf_exp(mpf_neg(mpf_mul(mpf_pi(wp, rnd), t, wp, rnd)), wp, rnd)
    q1 = to_fixed(q, fb)
    q2 = q1 * q1 >> fb
    step = q2 * q1 >> fb  # q^(2k-1) at k = 2
    total = term = MPZ_ONE << fb
    while term:
        term = term * step >> fb
        total += term
        step = step * q2 >> fb
    return mpf_mul(q, from_man_exp(total, -fb), wp, rnd)


def theta0(t: Number, prec: int) -> BigReal:
    """Jacobi-type theta sum  sum_{k>=1} exp(-pi k^2 t)  for finite t >= 1.

    Raises :class:`DomainError` for t < 1 or a non-finite t; the
    functional-equation branch for small t is out of scope (the F integral
    only needs t >= 1).
    """
    _require_prec(prec)
    with workprec(prec + 16):
        tv = mpf(t)
        if not mpmath.isfinite(tv) or tv < 1:
            raise DomainError(f"theta0 requires a finite t >= 1, got {t!r}")
    with workprec(prec):
        return BigReal(+mp.make_mpf(_theta0_raw(tv._mpf_, prec)), prec)


# ---------------------------------------------------------------------------
# F(n) quadrature
# ---------------------------------------------------------------------------

def _saddle_log(n: Number, prec: int) -> mpf:
    """Positive root L of n = L (pi e^L + 3/4); lazy import breaks the cycle."""
    from .asymptotics import _solve_L_raw

    return _solve_L_raw(n, prec)


def _make_integrand(n: Number, wp: int, w: int = 0):
    """Return g(u) = u^n e^(u/4) theta0(e^u), times (w - u^2) when w is non-zero.

    g takes and returns mpf, as the trapezoid needs, but works on raw libmp
    values at ``wp`` bits, rounding to nearest; e^u is e^(u/4) squared twice.
    mpf_pow, like ``u ** n``, hands an integer n to mpf_pow_int.
    """
    exponent, weight, rnd = mp.convert(n)._mpf_, from_int(w), round_nearest

    def g(u: mpf) -> mpf:
        x = u._mpf_
        e4 = mpf_exp(mpf_shift(x, -2), wp, rnd)
        e2 = mpf_mul(e4, e4, wp, rnd)
        value = mpf_mul(mpf_mul(mpf_pow(x, exponent, wp, rnd), e4, wp, rnd),
                        _theta0_raw(mpf_mul(e2, e2, wp, rnd), wp), wp, rnd)
        if w:
            value = mpf_mul(value, mpf_sub(weight, mpf_mul(x, x, wp, rnd), wp, rnd), wp, rnd)
        return mp.make_mpf(value)

    return g


def _peak_window(g, n: Number, wp: int, tail_bits: int) -> Tuple[mpf, mpf, mpf]:
    """Window [u_lo, u_peak, u_hi] outside which |g| < 2^-tail_bits * peak."""
    if mpf(n) > 0:
        u_peak = _saddle_log(n, wp)
    else:
        u_peak = mpf(0)
    peak = g(max(u_peak, mpf("1e-3"))) if u_peak == 0 else g(u_peak)
    if peak <= 0:
        raise PrecisionFailure(f"integrand peak underflowed for n={n}")
    target = peak * mpf(2) ** (-tail_bits)

    step = max(u_peak, mpf(1)) / 4
    u_hi = max(u_peak, mpf(1))
    while abs(g(u_hi)) > target:
        u_hi += step

    if mpf(n) > 0 and u_peak > 0:
        lo, hi = mpf(0), u_peak
        for _ in range(60):
            mid = (lo + hi) / 2
            if g(mid) > target:
                hi = mid
            else:
                lo = mid
        u_lo = lo
    else:
        u_lo = mpf(0)
    return u_lo, u_peak, u_hi


def _mapped_integrand(g, c: mpf, wp: int):
    """Return f(s) = g(u(s)) u'(s) for u(s) = c log(1 + exp(s - e^(-s))).

    Like g, f takes and returns mpf but works on raw libmp values at ``wp``
    bits.  With a = e^(-s) and b = exp(s - a), u' = c (1 + a) b / (1 + b).
    """
    cr, rnd = c._mpf_, round_nearest

    def f(s: mpf) -> mpf:
        a = mpf_exp(mpf_neg(s._mpf_), wp, rnd)
        b = mpf_exp(mpf_sub(s._mpf_, a, wp, rnd), wp, rnd)
        b1 = mpf_add(fone, b, wp, rnd)
        u = mp.make_mpf(mpf_mul(cr, mpf_log(b1, wp, rnd), wp, rnd))
        du = mpf_div(mpf_mul(mpf_mul(cr, mpf_add(fone, a, wp, rnd), wp, rnd), b, wp, rnd),
                     b1, wp, rnd)
        return mp.make_mpf(mpf_mul(g(u)._mpf_, du, wp, rnd))

    return f


def _F_raw(n: Number, prec: int, w: int = 0) -> mpf:
    """F(n), or the integral of its (w - u^2)-weighted integrand when w is
    non-zero, by a doubling trapezoid over the certified window.

    The integrand rises monotonically to its peak, so the mass left of the
    window is at most u_lo 2^-(prec+30) peak; it decays doubly-exponentially
    past u_hi.  Where 5 n >= prec the rule sums g on [u_lo, u_hi], where g is
    flat enough at both ends for spectral convergence.  Below that the order-n
    zero of g at u = 0 slows the plain rule to h^(n+2), so it sums g(u(s)) u'(s)
    in s, with u(s) = c log(1 + exp(s - e^(-s))) and c = max(u_peak, 1)/2
    (Takahasi & Mori's double-exponential idea): the mapped integrand decays
    doubly-exponentially as s -> -oo, and past u ~ c the map is nearly linear,
    so the strip of analyticity around the peak keeps its width.  The s window
    maps onto a superset of [u_lo, u_hi].  Each doubling halves h and evaluates
    only the new midpoints; two successive refinements must agree to
    2^-(prec+5) relative within 14 doublings, and the result must be positive.
    """
    wp = prec + 40
    with workprec(wp):
        g = _make_integrand(n, wp, w)
        u_lo, u_peak, u_hi = _peak_window(g, n, wp, prec + 30)
        # Gaussian width of the bump: sigma = L / sqrt(C), C = (e+e^2)n - 3/4.
        if u_peak > 0:
            eps = 1 / u_peak
            sigma = u_peak / mpmath.sqrt((eps + eps * eps) * n - mpf(3) / 4)
        else:
            sigma = mpf(1)
        if 5 * n >= prec:
            f, lo, hi = g, u_lo, u_hi
        else:
            c = max(u_peak, mpf(1)) / 2
            f = _mapped_integrand(g, c, wp)
            # log b(s_lo) = s_lo - e^(-s_lo) <= ell, so u(s_lo) <= u_lo.
            if u_lo > 0:
                ell = mpmath.log(mpmath.expm1(u_lo / c))
            else:
                ell = -(prec + 30) * mpmath.ln2
            lo = ell if ell >= 0 else -mpmath.log(1 - ell)
            hi = u_hi / c + 1
            sigma /= c  # du/ds is about c at the peak
        n0 = max(16, int((hi - lo) / (sigma / 3)) + 1)

        h = (hi - lo) / n0
        total = (f(lo) + f(hi)) / 2
        for i in range(1, n0):
            total += f(lo + i * h)
        estimate = total * h

        tol = mpf(2) ** (-(prec + 5))
        for _doubling in range(_MAX_DOUBLINGS):
            mids = mpf(0)
            for i in range(n0):  # the n0 new midpoints
                mids += f(lo + (i + mpf(1) / 2) * h)
            h /= 2
            n0 *= 2
            total += mids
            new_estimate = total * h
            if abs(new_estimate - estimate) <= abs(new_estimate) * tol:
                if new_estimate <= 0:
                    raise PrecisionFailure(f"trapezoid sum for F({n}) is not positive")
                return +new_estimate
            estimate = new_estimate
        raise PrecisionFailure(
            f"trapezoid refinement did not stabilize for F({n}) at {prec} bits"
        )


def F_exact(n: Number, prec: int) -> BigReal:
    """F(n) = int_1^oo (log t)^n t^(-3/4) theta0(t) dt, relative error < 2^(16-prec).

    Accepts any finite real n >= 0, integer or not.
    """
    _require_prec(prec)
    with workprec(prec + 16):
        nv = mpf(n)
        if not mpmath.isfinite(nv) or nv < 0:
            raise DomainError(f"F_exact requires a finite n >= 0, got {n!r}")
    raw = _F_raw(n, prec)
    with workprec(prec):
        return BigReal(+raw, prec)


# ---------------------------------------------------------------------------
# Lambda derivatives and gamma(n)
# ---------------------------------------------------------------------------


def _check_even_positive(n: int) -> None:
    if not isinstance(n, int) or n <= 0:
        raise DomainError(f"lambda_deriv requires a positive integer n, got {n!r}")
    if n % 2:
        raise DomainError(
            f"lambda_deriv requires even n (odd derivatives vanish); got {n}; "
            "use lambda_deriv_or_zero for the zero-returning convenience path"
        )


def lambda_deriv(n: int, prec: int) -> BigReal:
    """n-th derivative of the completed zeta function at 1/2 (n even, > 0).

    Computes  -2^(n+2) n!  +  F(n) / 2^(n-1)  with the factorial part exact,
    F(n) at prec + 32 bits and the sum at prec + 48.  The sum cancels at most
    one bit: for t >= 1, theta0(t) <= e^(-pi t) / (1 - e^(-3 pi)) and
    log t <= t - 1, so F(n) <= 1.0001 e^(-pi) n! / pi^(n+1), and F(n) / 2^(n-1)
    stays below 2^-14 of 2^(n+2) n! for every even n >= 2.
    """
    _check_even_positive(n)
    _require_prec(prec)

    const_term = -(1 << (n + 2)) * math.factorial(n)  # exact integer
    with workprec(prec + 48):
        total = mpf(const_term) + _F_raw(n, prec + 32) / mpf(2) ** (n - 1)
    with workprec(prec):
        return BigReal(+total, prec)


def lambda_deriv_or_zero(n: int, prec: int) -> BigReal:
    """Convenience path: exact zero for odd n > 0, else :func:`lambda_deriv`."""
    _require_prec(prec)
    if isinstance(n, int) and n > 0 and n % 2 == 1:
        return BigReal(mpf(0), prec)
    return lambda_deriv(n, prec)


def gamma_exact(n: int, prec: int) -> GammaValue:
    """Taylor coefficient gamma(n) from one quadrature of a positive integrand.

    gamma(n) = (n!/(2n)!) int_0^oo u^(2n-2) (W - u^2) e^(u/4) theta0(e^u) du
    / 2^(2n-1) with W = 32 C(2n,2), which merges the two F integrals of
    (n!/(2n)!) (W F(2n-2) - F(2n)) / 2^(2n-1), so nothing cancels.  W and the
    prefactor are exact integers.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"gamma_exact requires an integer n >= 1, got {n!r}")
    _require_prec(prec)

    weight = 32 * math.comb(2 * n, 2)  # exact integer
    # (2n)!/n! * 2^(2n-1): exact integer denominator of the prefactor.
    denom = (math.factorial(2 * n) // math.factorial(n)) << (2 * n - 1)
    # 28 guard bits for the quadrature, 16 more for the exact division.
    integral = _F_raw(2 * n - 2, prec + 28, weight)
    with workprec(prec + 44):
        value = integral / mpf(denom)
    with workprec(prec):
        rounded = +value
    if rounded <= 0:
        raise PrecisionFailure(f"gamma_exact({n}) lost positivity")
    return GammaValue(n=n, value=BigReal(rounded, prec), source="exact_integral")
