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
positive root of  n = L (pi e^L + 3/4), which ``_solve_L_raw`` finds by
Newton's method (:mod:`.asymptotics` builds its public saddle data on it).  By
linearity the two F integrals of gamma(n) merge into one, with W = 32 C(2n,2):

    gamma(n) = (n!/(2n)!) int_0^oo u^(2n-2) (W - u^2) e^(u/4) theta0(e^u) du / 2^(2n-1)

whose integrand is positive wherever it carries mass, so nothing cancels.  One
quadrature rule serves every exponent: a doubling-refinement trapezoid over a
certified peak window, on u itself where 5 n >= prec and after a
double-exponential change of variable s -> u(s) with scale c below that.  Its
acceptance rule has two clauses: two successive refinements agree to
2^-(prec+5) relative, or, once the agreement in bits at least doubles per
level, the square-law error estimate d_j^2 / d_(j-1) of the last one is below
that.

Every node lies on one dyadic lattice k 2^-j, in u or in s, so neighbouring
exponents share nodes.  The integrand splits into a per-value part
u^n (W - u^2) and a shared node factor, e^(u/4) theta0(e^u) (times u'(s) on
the mapped side), which a memo keeps for the previous F value, keyed by the
working precision, c and the exact node.  c is a power of two, so neighbours
share one map.  The shared factor works on raw ``mpmath.libmp`` values with
two exps per node, e^(u/4) and q = exp(-pi e^u), and sums theta0's series as
fixed-point integers.

All public operations take an explicit binary precision ``prec`` (>= 64) and
return :class:`BigReal` values that are correctly rounded *results of the
requested precision*, independent of the working precision used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Tuple, Union

import mpmath
from mpmath import mp, mpf, workprec
from mpmath.libmp import (MPZ_ONE, fone, from_int, from_man_exp, mpf_abs, mpf_add, mpf_div,
                          mpf_exp, mpf_gt, mpf_le, mpf_log, mpf_lt, mpf_mul, mpf_neg, mpf_pi,
                          mpf_pow, mpf_shift, mpf_sign, mpf_sub, round_nearest, to_fixed)

__all__ = [
    "MIN_PREC",
    "BigReal",
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

#: Node factors one F value may keep in the memo (some 5-10 MB at most); an
#: F value that refines past this computes its further nodes without keeping
#: them, so a sum that does not settle cannot fill memory.
_MEMO_NODES = 1 << 13


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

def _solve_L_raw(n: Number, prec: int) -> mpf:
    """Newton iteration for the positive root of n = L (pi e^L + 3/4).

    Start from L0 = log(n / log n) (valid for n >= 3, clamped otherwise); the
    map is monotone increasing in L > 0 so a half-step fallback keeps the
    iterate positive.  Residual is verified to 2^(-prec+8) * n.
    """
    with workprec(prec + 20):
        n_mp = mpf(n)
        if n_mp <= 0:
            raise DomainError(f"saddle solver requires n > 0, got {n!r}")
        if n_mp > 3:
            L = mpmath.log(n_mp / mpmath.log(n_mp))
        else:
            L = mpf(1) / 2
        if L <= 0:
            L = mpf(1) / 2
        tol = mpf(2) ** (-prec - 10)
        for _iteration in range(prec + 80):
            e_l = mpmath.exp(L)
            residual = L * (mpmath.pi * e_l + mpf(3) / 4) - n_mp
            slope = mpmath.pi * e_l * (1 + L) + mpf(3) / 4
            step = residual / slope
            nxt = L - step
            if nxt <= 0:
                nxt = L / 2
            if abs(nxt - L) < abs(L) * tol:
                L = nxt
                break
            L = nxt
        else:
            raise PrecisionFailure(f"saddle solver did not converge for n={n!r}")
        check = abs(L * (mpmath.pi * mpmath.exp(L) + mpf(3) / 4) - n_mp)
        if check > abs(n_mp) * mpf(2) ** (-prec + 8):
            raise PrecisionFailure(
                f"saddle residual {check} too large for n={n!r} at {prec} bits"
            )
        return +L


def _ceil_log2(x: mpf) -> int:
    """The least integer e with 2^e >= x, for x > 0."""
    return x.exp + (x.man - 1).bit_length()


def _node_factor(x: tuple, wp: int, ce: Optional[int]):
    """The factor of the F integrand that does not depend on the exponent.

    On the plain side (``ce`` is None) x is u and the factor is
    e^(u/4) theta0(e^u), with e^u e^(u/4) squared twice.  On the mapped side x
    is s, c = 2^ce, and the factor is the pair (u, e^(u/4) theta0(e^u) u'(s))
    for u = c log(1 + b), a = e^(-s), b = exp(s - a) and
    u' = c (1 + a) b / (1 + b).  Raw libmp values at ``wp`` bits, rounding to
    nearest.
    """
    rnd = round_nearest
    if ce is not None:
        a = mpf_exp(mpf_neg(x), wp, rnd)
        b = mpf_exp(mpf_sub(x, a, wp, rnd), wp, rnd)
        b1 = mpf_add(fone, b, wp, rnd)
        u = mpf_shift(mpf_log(b1, wp, rnd), ce)
        du = mpf_shift(mpf_div(mpf_mul(mpf_add(fone, a, wp, rnd), b, wp, rnd), b1, wp, rnd), ce)
        return u, mpf_mul(_node_factor(u, wp, None), du, wp, rnd)
    e4 = mpf_exp(mpf_shift(x, -2), wp, rnd)
    e2 = mpf_mul(e4, e4, wp, rnd)
    return mpf_mul(e4, _theta0_raw(mpf_mul(e2, e2, wp, rnd), wp), wp, rnd)


def _make_integrand(n: Number, wp: int, w: int = 0, ce: Optional[int] = None,
                    factor=None):
    """Return f(x) = u^n F(x), times (w - u^2) when w is non-zero.

    F is the shared factor of :func:`_node_factor` (``factor``, which defaults
    to it, maps x to it), so f is g(u) = u^n e^(u/4) theta0(e^u) (w - u^2) on
    the plain side and g(u(s)) u'(s) on the mapped one.  f takes and returns
    raw libmp values at ``wp`` bits; mpf_pow, like ``u ** n``, hands an
    integer n to mpf_pow_int.
    """
    exponent, weight, rnd = mp.convert(n)._mpf_, from_int(w), round_nearest
    if factor is None:
        def factor(x):
            return _node_factor(x, wp, ce)

    def f(x: tuple) -> tuple:
        u, shared = (x, factor(x)) if ce is None else factor(x)
        value = mpf_mul(mpf_pow(u, exponent, wp, rnd), shared, wp, rnd)
        if w:
            value = mpf_mul(value, mpf_sub(weight, mpf_mul(u, u, wp, rnd), wp, rnd), wp, rnd)
        return value

    return f


def _peak_window(f, n: Number, u_peak: mpf, ce: Optional[int],
                 tail_bits: int) -> Tuple[int, int, int]:
    """Lattice window (j, k_lo, k_hi) of the integrand f in its variable x.

    j is the least level whose step 2^-j is at most a third of the bump's
    Gaussian width, sigma = L / sqrt(C) with C = (e + e^2) n - 3/4 and e = 1/L
    (divided by c on the mapped side, where du/ds is about c at the peak).
    From the node nearest the peak, P = f(k_peak 2^-j), the window walks
    outward in strides of four nodes to the first node on each side where
    f <= 2^-tail_bits P; on u it stops at 0.  Every node it evaluates is a
    node of the trapezoid.  Left of the peak f rises monotonically (u' rises
    with s), so the mass left of x_lo is at most a small multiple of f(x_lo)
    (u(s) <= e^2 u'(s) there); f decays doubly-exponentially past x_hi.  The
    level is then refined until the window holds at least 16 intervals.
    """
    with workprec(64):
        if u_peak > 0:
            eps = 1 / u_peak
            sigma = u_peak / mpmath.sqrt((eps + eps * eps) * n - mpf(3) / 4)
        else:
            sigma = mpf(1)
        if ce is None:
            x_peak, k_min = u_peak, 0  # u >= 0
        else:
            c = mpf(2) ** ce
            sigma /= c
            x_peak, k_min = mpf(0), -math.inf
            if u_peak > 0:  # u(s) = u_peak: s - e^(-s) = log b, so e^(-s) = W(1/b)
                b = mpmath.expm1(u_peak / c)
                x_peak = mpmath.log(b) + mpmath.lambertw(1 / b)
        j = _ceil_log2(3 / sigma)
        k_peak = int(mpmath.nint(mpmath.ldexp(x_peak, j)))

    def at(k: int) -> tuple:
        return f(from_man_exp(k, -j))

    peak = at(k_peak)
    if mpf_sign(peak) <= 0:
        raise PrecisionFailure(f"integrand peak underflowed for n={n}")
    target = mpf_shift(peak, -tail_bits)
    k_hi = k_peak + 4
    while mpf_gt(at(k_hi), target):
        k_hi += 4
    k_lo = k_peak - 4
    while k_lo > k_min and mpf_gt(at(k_lo), target):
        k_lo -= 4
    k_lo = max(k_lo, k_min)
    while k_hi - k_lo < 16:
        j, k_lo, k_hi = j + 1, 2 * k_lo, 2 * k_hi
    return j, k_lo, k_hi


def _rule(n: Number, prec: int) -> Tuple[mpf, Optional[int]]:
    """(u_peak, ce): the saddle L(n) (0 at n = 0) and the map scale c = 2^ce,
    None on the plain side (5 n >= prec)."""
    u_peak = _solve_L_raw(n, 64) if n > 0 else mpf(0)
    if 5 * n >= prec:
        return u_peak, None
    with workprec(64):
        return u_peak, _ceil_log2(max(u_peak, mpf(1)) / 2)


#: Shared node factors of the previous F value: (wp, ce, lo, hi, {node: factor}),
#: or None.
_node_memo: Optional[tuple] = None


def _F_raw(n: Number, prec: int, w: int = 0) -> mpf:
    """F(n), or the integral of its (w - u^2)-weighted integrand when w is
    non-zero, by a doubling trapezoid on a dyadic lattice over the certified
    window.

    Where 5 n >= prec the rule sums g(u) = u^n (w - u^2) e^(u/4) theta0(e^u)
    in u, where g is flat enough at both window ends for spectral convergence.
    Below that the order-n zero of g at u = 0 slows the plain rule to h^(n+2),
    so it sums g(u(s)) u'(s) in s, with u(s) = c log(1 + exp(s - e^(-s)))
    (Takahasi & Mori's double-exponential idea): the mapped integrand decays
    doubly-exponentially as s -> -oo, and past u ~ c the map is nearly linear,
    so the strip of analyticity around the peak keeps its width.

    Every node sits on the lattice x = k 2^-j (x = u or s), from the level
    and window of :func:`_peak_window`; each doubling adds the odd k of the
    next level.  The trapezoid's exponential convergence depends on the step,
    not on where the grid starts, so neighbouring values share nodes, and
    c = 2^ceil(log2(max(u_peak, 1)/2)) is a power of two so that they share
    one map.  The integrand is the per-value part u^n (w - u^2) times the
    shared factor of :func:`_node_factor`, which ``_node_memo`` keeps for the
    previous F value only, keyed by the working precision, c and the exact
    node: the nodes this value reuses move into its own table, and once it is
    accepted the rest follow, up to ``_MEMO_NODES`` in all, so a level one
    value stopped short of stays for the next; all go before the sum when
    the windows do not overlap.  A factor depends only on (wp, c, node), so
    each value's bits depend only on its arguments.

    Level j's sum S_j is accepted, within 14 doublings, when d_j =
    |S_j - S_(j-1)| <= 2^-(prec+5) |S_j|, or when the square-law estimate of
    its error, d_j^2 / d_(j-1) (Bailey, Jeyabalan & Li 2005), is below that:
    on an analytic integrand the trapezoid error roughly squares as the step
    halves (Trefethen & Weideman 2014), so this spares the last doubling and
    half the nodes.  That clause reads b_j = log2 |S_j| / d_j to within one,
    asks 2 b_j - b_(j-1) >= prec + 8 (3 bits for the rounding), and applies
    only where b_j >= 2 b_(j-1) > 0, convergence plainly exponential: a stall
    before the asymptotic regime must not pass as convergence.  The 28 + 16
    guard bits of gamma_exact keep the estimate far inside 2^(16-prec).  The
    result must be positive; any exception leaves the memo empty.
    """
    global _node_memo
    wp, rnd = prec + 40, round_nearest
    u_peak, ce = _rule(n, prec)
    if _node_memo is not None and _node_memo[:2] == (wp, ce):
        _, _, previous_lo, previous_hi, previous = _node_memo
    else:
        previous = {}
    _node_memo, table = None, {}

    def factor(x: tuple):
        value = table.get(x)
        if value is None:
            value = previous.pop(x, None)
            if value is None:
                value = _node_factor(x, wp, ce)
            if len(table) < _MEMO_NODES:
                table[x] = value
        return value

    f = _make_integrand(n, wp, w, ce, factor)
    j, k_lo, k_hi = _peak_window(f, n, u_peak, ce, prec + 30)
    lo, hi = from_man_exp(k_lo, -j), from_man_exp(k_hi, -j)
    if previous and (mpf_lt(previous_hi, lo) or mpf_gt(previous_lo, hi)):
        previous.clear()

    total = mpf_shift(mpf_add(f(lo), f(hi), wp, rnd), -1)
    for k in range(k_lo + 1, k_hi):
        total = mpf_add(total, f(from_man_exp(k, -j)), wp, rnd)
    estimate = mpf_shift(total, -j)

    tol, agreed = -(prec + 5), 0
    for _doubling in range(_MAX_DOUBLINGS):
        j, k_lo, k_hi = j + 1, 2 * k_lo, 2 * k_hi
        for k in range(k_lo + 1, k_hi, 2):  # the new midpoints
            total = mpf_add(total, f(from_man_exp(k, -j)), wp, rnd)
        new_estimate = mpf_shift(total, -j)
        diff = mpf_abs(mpf_sub(new_estimate, estimate, wp, rnd))
        # b_j; a raw (sign, man, exp, bc) lies in [2^(exp+bc-1), 2^(exp+bc)).
        bits = new_estimate[2] + new_estimate[3] - diff[2] - diff[3]
        if mpf_le(diff, mpf_shift(mpf_abs(new_estimate), tol)) or (
                bits >= 2 * agreed > 0 and 2 * bits - agreed >= prec + 8):
            if mpf_sign(new_estimate) <= 0:
                raise PrecisionFailure(f"trapezoid sum for F({n}) is not positive")
            table.update(islice(previous.items(), _MEMO_NODES - len(table)))
            _node_memo = (wp, ce, lo, hi, table)
            return mp.make_mpf(new_estimate)
        estimate, agreed = new_estimate, bits
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


def _odd_product(lo: int, hi: int) -> int:
    """(2 lo + 1)(2 lo + 3)...(2 hi - 1), by balanced splitting."""
    if hi - lo <= 16:
        return math.prod(range(2 * lo + 1, 2 * hi, 2))
    return _odd_product(lo, (lo + hi) // 2) * _odd_product((lo + hi) // 2, hi)


def _gamma_denominator(n: int, prec: int) -> mpf:
    """(2n)!/n! * 2^(2n-1) = (2n-1)!! * 2^(3n-1), rounded once to prec bits."""
    return mp.make_mpf(from_man_exp(_odd_product(0, n), 3 * n - 1, prec, round_nearest))


def gamma_exact(n: int, prec: int) -> BigReal:
    """Taylor coefficient gamma(n) from one quadrature of a positive integrand.

    gamma(n) = (n!/(2n)!) int_0^oo u^(2n-2) (W - u^2) e^(u/4) theta0(e^u) du
    / 2^(2n-1) with W = 32 C(2n,2), which merges the two F integrals of
    (n!/(2n)!) (W F(2n-2) - F(2n)) / 2^(2n-1), so nothing cancels.  W is an
    exact integer, and the denominator (2n-1)!! 2^(3n-1) is rounded once.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"gamma_exact requires an integer n >= 1, got {n!r}")
    _require_prec(prec)

    weight = 32 * math.comb(2 * n, 2)  # exact integer
    # 28 guard bits for the quadrature, 16 more for the division.
    integral = _F_raw(2 * n - 2, prec + 28, weight)
    with workprec(prec + 44):
        value = integral / _gamma_denominator(n, prec + 44)
    with workprec(prec):
        rounded = +value
    if rounded <= 0:
        raise PrecisionFailure(f"gamma_exact({n}) lost positivity")
    return BigReal(rounded, prec)
