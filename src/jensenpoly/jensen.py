"""Jensen polynomials, Hermite targets, renormalization, and hyperbolicity.

The pipeline this module implements:

* ``jensen_poly``        — J^{d,n}(X) = sum_j binom(d,j) alpha(n+j) X^j,
                           exact rationals when the sequence is exact.
* ``hermite``            — H_d(X) from H_{d+1} = X H_d - 2d H_{d-1}
                           (generating function e^{-t^2 + Xt}).
* ``generalized_hermite``— H_{F,m}(X) = m! sum_k (-1)^(m-k) c_{m-k} X^k / k!.
* ``renormalize``        — hat J^{d,n}(X) = (delta^-d / alpha(n)) *
                           J^{d,n}((delta X - 1) / e^A), by exact binomial
                           expansion of the affine substitution.
* ``certify``            — the one dispatch for a (sequence, d, n) instance:
                           exact, renormalized (n >= n_min) or raw, with a
                           precision ladder for the floating paths.
* ``read_prec``          — the precision at which a certificate reads its
                           sequence values, for value warm-ups.
* ``is_hyperbolic``      — certified real-rootedness via the Hankel matrix of
                           Newton power sums, whose minors one Bareiss pass
                           reads off the congruent Bezoutian B(p, p'), over
                           the integers on rational input (Sturm fallback on
                           a vanishing minor) or over intervals on floating
                           input (``indeterminate`` on an undecided minor).
* ``find_N``             — least N with every shift in [N, n_max] hyperbolic.
* ``convergence_report`` / ``effective_check_d4`` — table diagnostics.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mpf, workprec

from .zeta_core import MIN_PREC, BigReal, DomainError, PrecisionFailure
from .sequences import SequenceProvider, _rounded, zeta_gamma_provider

__all__ = [
    "ConvergenceRow",
    "DegenerateChainError",
    "EffectiveReport",
    "EffectiveRow",
    "FindNResult",
    "HyperbolicityCertificate",
    "Poly",
    "RationalPoly",
    "cauchy_bound",
    "certify",
    "certify_renormalized",
    "convergence_report",
    "effective_check_d4",
    "find_N",
    "generalized_hermite",
    "hermite",
    "is_hyperbolic",
    "jensen_poly",
    "poly_from_rational",
    "read_prec",
    "renormalize",
    "squarefree_part",
    "sturm_count",
]

DEFAULT_LADDER: Tuple[int, ...] = (128, 256, 512, 1024)
_RAW_GUARD = 8  # guard bits for reading the raw Jensen polynomial's values


class DegenerateChainError(ArithmeticError):
    """A Sturm remainder vanished identically (non-squarefree input)."""


# ---------------------------------------------------------------------------
# Polynomial containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Poly:
    """Dense real-coefficient polynomial; coeffs[i] multiplies X^i."""

    coeffs: Tuple[mpf, ...]
    prec_bits: int

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("Poly needs at least one coefficient")
        if self.prec_bits < MIN_PREC:
            raise ValueError(f"prec_bits must be >= {MIN_PREC}")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient is zero; normalize the degree first")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> mpf:
        return _horner(self.coeffs, x)


@dataclass(frozen=True)
class RationalPoly:
    """Exact-rational polynomial; coeffs[i] multiplies X^i."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("RationalPoly needs at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient is zero; normalize the degree first")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction) -> Fraction:
        return _horner(self.coeffs, x)


def _horner(coeffs: Sequence, x):
    """sum_i coeffs[i] x^i by Horner's rule, in the ring of x and the coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs: Sequence) -> list:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def make_poly(coeffs: Sequence, prec_bits: int) -> Poly:
    """Normalize (trim zero leading coefficients) and build a Poly."""
    with workprec(prec_bits):
        vals = tuple(+mpf(c) if not isinstance(c, mpf) else +c for c in coeffs)
    return Poly(coeffs=tuple(_trim(vals)), prec_bits=prec_bits)


def make_rational_poly(coeffs: Sequence) -> RationalPoly:
    return RationalPoly(coeffs=tuple(_trim([Fraction(c) for c in coeffs])))


def poly_from_rational(rp: RationalPoly, prec: int) -> Poly:
    """Round an exact polynomial to a Poly at ``prec`` bits, each coefficient once."""
    return Poly(coeffs=tuple(_rounded(c, prec).value for c in rp.coeffs), prec_bits=prec)


# ---------------------------------------------------------------------------
# Jensen polynomial and Hermite targets
# ---------------------------------------------------------------------------


def jensen_poly(
    seq: SequenceProvider, d: int, n: int, prec: Optional[int] = None
) -> Union[Poly, RationalPoly]:
    """J^{d,n}(X) = sum_{j=0}^{d} binom(d,j) alpha(n+j) X^j.

    Returns a :class:`RationalPoly` when the sequence has exact rational
    values, otherwise a :class:`Poly` at ``prec`` bits (default 192).
    """
    if d < 1:
        raise DomainError(f"jensen_poly requires degree d >= 1, got {d}")
    if n < 0:
        raise DomainError(f"jensen_poly requires shift n >= 0, got {n}")
    if seq.exact_at is not None:
        coeffs = [Fraction(math.comb(d, j) * seq.exact_at(n + j)) for j in range(d + 1)]
        return RationalPoly(coeffs=tuple(coeffs))
    wp = prec if prec is not None else 192
    rp = wp + _RAW_GUARD
    with workprec(rp):
        vals = [seq.value_at(n + j, rp).value * math.comb(d, j) for j in range(d + 1)]
    with workprec(wp):
        return Poly(coeffs=tuple(+v for v in vals), prec_bits=wp)


def hermite(d: int) -> RationalPoly:
    """H_d(X) with exact integer coefficients via H_{d+1} = X H_d - 2d H_{d-1}."""
    if d < 0:
        raise DomainError(f"hermite requires d >= 0, got {d}")
    h_prev = [Fraction(1)]            # H_0
    if d == 0:
        return RationalPoly(coeffs=(Fraction(1),))
    h_cur = [Fraction(0), Fraction(1)]  # H_1 = X
    for k in range(1, d):
        nxt = [Fraction(0)] + h_cur                      # X * H_k
        for i, c in enumerate(h_prev):                   # - 2k H_{k-1}
            nxt[i] -= 2 * k * c
        h_prev, h_cur = h_cur, nxt
    return RationalPoly(coeffs=tuple(h_cur))


def generalized_hermite(c: Sequence, m: int) -> Union[RationalPoly, Poly]:
    """H_{F,m}(X) = m! * sum_{k=0}^{m} (-1)^(m-k) c_{m-k} X^k / k!.

    ``c`` are the Taylor coefficients of the generating weight F; exact input
    (ints/Fractions) yields a RationalPoly, floats an mpf Poly at 128 bits.
    """
    if m < 0:
        raise DomainError(f"generalized_hermite requires m >= 0, got {m}")
    if len(c) < m + 1:
        raise DomainError(
            f"generalized_hermite needs at least m+1={m + 1} coefficients, got {len(c)}"
        )
    exact = all(isinstance(x, (int, Fraction)) for x in c[: m + 1])
    fact_m = math.factorial(m)
    if exact:
        coeffs = [
            Fraction((-1) ** (m - k) * fact_m, math.factorial(k)) * Fraction(c[m - k])
            for k in range(m + 1)
        ]
        return make_rational_poly(coeffs)
    prec = 128
    with workprec(prec):
        coeffs_f = [
            mpf((-1) ** (m - k)) * fact_m / math.factorial(k) * mpf(c[m - k])
            for k in range(m + 1)
        ]
    return make_poly(coeffs_f, prec)


# ---------------------------------------------------------------------------
# Renormalization
# ---------------------------------------------------------------------------


def renormalize(seq: SequenceProvider, d: int, n: int, prec: int = 192) -> Poly:
    """hat J^{d,n}(X) = (delta(n)^-d / alpha(n)) * J^{d,n}((delta(n) X - 1)/e^{A(n)}).

    The affine substitution is expanded exactly with binomial coefficients
    (no sampling/refitting), at the working precision :func:`read_prec`
    gives, padded by d*|log2 delta| against the cancellation near X = 0.
    """
    if seq.params is None:
        raise DomainError(
            f"sequence {seq.label!r} has no growth parameters; supply AsymParams"
        )
    params = seq.params
    if n < params.n_min:
        raise DomainError(
            f"renormalize needs n >= {params.n_min} for {seq.label!r}, got {n}"
        )
    if d < 1:
        raise DomainError(f"renormalize requires degree d >= 1, got {d}")

    wp = read_prec(seq, d, n, prec)
    with workprec(wp):
        a_val = params.A_of_n(n, wp)
        delta = params.delta_of_n(n, wp)
        alpha = [seq.value_at(n + j, wp).value for j in range(d + 1)]
        e_neg_a = mpmath.exp(-a_val)
        # J((delta X - 1)/e^A) = sum_j c_j e^{-Aj} (delta X - 1)^j with
        # c_j = binom(d,j) alpha(n+j); expand (delta X - 1)^j binomially.
        out = [mpf(0)] * (d + 1)
        ea_pow = mpf(1)
        for j in range(d + 1):
            cj = alpha[j] * math.comb(d, j) * ea_pow
            dpow = mpf(1)
            for i in range(j + 1):
                term = cj * math.comb(j, i) * dpow
                if (j - i) % 2:
                    term = -term
                out[i] += term
                dpow *= delta
            ea_pow *= e_neg_a
        scale = delta ** (-d) / alpha[0]
        coeffs = [scale * v for v in out]
    with workprec(prec):
        return Poly(coeffs=tuple(+c for c in coeffs), prec_bits=prec)


# ---------------------------------------------------------------------------
# Hyperbolicity certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HyperbolicityCertificate:
    """Outcome of a real-rootedness check.

    margin: the smallest certified leading principal minor (positive when
    hyperbolic, the negative witness otherwise, 0 for degenerate/Sturm
    decisions), as a low-precision BigReal for reporting.
    """

    verdict: str  # hyperbolic | not_hyperbolic | indeterminate
    method: str   # hermite_hankel_exact | hermite_hankel_interval | sturm
    margin: BigReal

    _VERDICTS = ("hyperbolic", "not_hyperbolic", "indeterminate")
    _METHODS = ("hermite_hankel_exact", "hermite_hankel_interval", "sturm")

    def __post_init__(self) -> None:
        if self.verdict not in self._VERDICTS:
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.method not in self._METHODS:
            raise ValueError(f"bad method {self.method!r}")
        if self.verdict == "indeterminate" and self.method != "hermite_hankel_interval":
            raise ValueError("only the interval method may return indeterminate")


def _margin_big(x) -> BigReal:
    with workprec(MIN_PREC):
        return BigReal(+mpf(x), MIN_PREC)


def _int_coeffs(rp: RationalPoly) -> List[int]:
    """Clear denominators and content; hyperbolicity is scale-invariant."""
    den_lcm = math.lcm(*[c.denominator for c in rp.coeffs])
    ints = [c.numerator * (den_lcm // c.denominator) for c in rp.coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _bezoutian(a: list) -> list:
    """Upper triangle (j >= i) of the Bezout matrix of p and p', reversed:
    [i][j] = B_{d-1-i,d-1-j}, where (p(x) p'(y) - p(y) p'(x)) / (x - y) =
    sum B_ij x^i y^j.  Filled by B_{i,j} = c_{i+1,j} + B_{i+1,j-1} with c_pq =
    a_p g_q - a_q g_p, g = p', over any ring (integers or mpmath intervals).
    """
    d = len(a) - 1
    g = [i * a[i] for i in range(1, d + 1)] + [0]
    M = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            p, q = d - i, d - 1 - j
            M[i][j] = a[p] * g[q] - a[q] * g[p] + (M[i - 1][j + 1] if i and q else 0)
    return M


def _leading_minors(M: list, div: Callable) -> list:
    """Leading principal minors of the symmetric matrix M by Bareiss, in place.

    Fraction-free over any integral domain: the k-th pivot is the k-th
    leading minor, and ``div`` is the ring's exact division (floor division
    on integers, true division on intervals).  Stops after the first minor
    for which ``pivot > 0`` is not True; an undecided interval comparison
    gives None.  M stays symmetric, so only its upper triangle is read.
    """
    minors, prev = [], 1
    for k, row in enumerate(M):
        pivot = row[k]
        minors.append(pivot)
        if (pivot > 0) is not True:
            break
        for i in range(k + 1, len(M)):
            for j in range(i, len(M)):
                M[i][j] = div(M[i][j] * pivot - row[i] * row[j], prev)
        prev = pivot
    return minors


def _hankel_minors(a: list, div: Callable) -> list:
    """Leading minors of (t_{i+j}), t_k = s_k a_d^k (s_k: Newton power sums of p),
    up to the first that is not positive.  The Bezoutian is congruent to this
    Hankel form, and its k-th leading minor is a_d^(k(3-k)) times the Hankel
    one: an even power, so signs and the stop agree, while its pivots grow
    like a_d^(2k), not a_d^(k(k-1)).
    """
    ad = a[-1]
    return [div(m, ad * ad) if k <= 2 else m * ad ** (k * (k - 3))
            for k, m in enumerate(_leading_minors(_bezoutian(a), div), 1)]


def _poly_derivative_frac(c: List[Fraction]) -> List[Fraction]:
    return [c[i] * i for i in range(1, len(c))] or [Fraction(0)]


def _poly_divmod_frac(
    num: List[Fraction], den: List[Fraction]
) -> Tuple[List[Fraction], List[Fraction]]:
    num = num[:]
    d_deg = len(den) - 1
    lead = den[-1]
    if lead == 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = [Fraction(0)] * max(1, len(num) - d_deg)
    while len(num) - 1 >= d_deg and any(num):
        shift = len(num) - 1 - d_deg
        factor = num[-1] / lead
        q[shift] = factor
        for i in range(d_deg + 1):
            num[shift + i] -= factor * den[i]
        num = _trim(num)
        if len(num) == 1 and num[0] == 0:
            break
    return _trim(q), _trim(num)


def _poly_gcd_frac(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _trim(a), _trim(b)
    while not (len(b) == 1 and b[0] == 0):
        _, r = _poly_divmod_frac(a, b)
        a, b = b, r
    if a[-1] != 0:
        a = [c / a[-1] for c in a]  # monic for determinism
    return a


def squarefree_part(p: RationalPoly) -> RationalPoly:
    """p / gcd(p, p') — same root set, all roots simple (exact arithmetic)."""
    c = list(p.coeffs)
    if len(c) <= 2:
        return make_rational_poly(c)
    g = _poly_gcd_frac(c, _poly_derivative_frac(c))
    if len(g) == 1:
        return make_rational_poly(c)
    q, r = _poly_divmod_frac(c, g)
    if not (len(r) == 1 and r[0] == 0):
        raise ArithmeticError("gcd division must be exact")
    return make_rational_poly(q)


def cauchy_bound(p: RationalPoly) -> Fraction:
    """1 + max |a_i / a_d|: all real roots lie in (-B, B]."""
    lead = p.coeffs[-1]
    if lead == 0:
        raise ValueError("zero leading coefficient")
    m = max((abs(c / lead) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + m


def sturm_count(p: RationalPoly, lo, hi) -> int:
    """Number of distinct real roots of squarefree ``p`` in (lo, hi].

    Exact rational Sturm chain.  Raises :class:`DegenerateChainError` when a
    remainder vanishes identically (input not squarefree); callers deflate
    with :func:`squarefree_part` first.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    chain: List[List[Fraction]] = [list(p.coeffs)]
    if p.degree >= 1:
        chain.append(_poly_derivative_frac(list(p.coeffs)))
        while len(chain[-1]) > 1:
            _, r = _poly_divmod_frac(chain[-2], chain[-1])
            if len(r) == 1 and r[0] == 0:
                raise DegenerateChainError(
                    "Sturm remainder vanished identically; input has repeated roots"
                )
            chain.append([-c for c in r])

    def _variations(x: Fraction) -> int:
        signs = []
        for c in chain:
            v = _horner(c, x)
            if v != 0:
                signs.append(1 if v > 0 else -1)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("interval endpoints must not be roots")
    return _variations(lo) - _variations(hi)


def _exact_certificate(rp: RationalPoly) -> HyperbolicityCertificate:
    d = rp.degree
    if d == 0:
        return HyperbolicityCertificate("hyperbolic", "hermite_hankel_exact", _margin_big(1))
    minors = _hankel_minors(_int_coeffs(rp), operator.floordiv)
    last = minors[-1]
    if last > 0:  # the elimination stops at the first non-positive minor
        return HyperbolicityCertificate(
            "hyperbolic", "hermite_hankel_exact", _margin_big(min(minors))
        )
    if last < 0:
        return HyperbolicityCertificate(
            "not_hyperbolic", "hermite_hankel_exact", _margin_big(last)
        )
    # A zero minor: decide on the squarefree part via an exact Sturm count.
    q = squarefree_part(rp)
    if q.degree == d:
        # squarefree and Hankel not positive definite => a non-real root
        return HyperbolicityCertificate(
            "not_hyperbolic", "hermite_hankel_exact", _margin_big(0)
        )
    bound = cauchy_bound(q)
    real_roots = sturm_count(q, -bound, bound)
    verdict = "hyperbolic" if real_roots == q.degree else "not_hyperbolic"
    return HyperbolicityCertificate(verdict, "sturm", _margin_big(0))


def _interval_certificate(p: Poly) -> HyperbolicityCertificate:
    if p.degree == 0:
        return HyperbolicityCertificate("hyperbolic", "hermite_hankel_interval", _margin_big(1))
    iv = mpmath.iv
    saved = iv.prec
    try:
        iv.prec = p.prec_bits + 32
        a = [iv.mpf(c) for c in p.coeffs]  # exact point intervals
        minors = _hankel_minors(a, operator.truediv)
        last = minors[-1]
        if last.a > 0:  # the elimination stops at the first undecided minor
            verdict, margin = "hyperbolic", min(mpf(m.a) for m in minors)
        elif last.b < 0:
            verdict, margin = "not_hyperbolic", mpf(last.b)
        else:
            verdict, margin = "indeterminate", 0
        return HyperbolicityCertificate(verdict, "hermite_hankel_interval", _margin_big(margin))
    finally:
        iv.prec = saved


def is_hyperbolic(p: Union[Poly, RationalPoly]) -> HyperbolicityCertificate:
    """Certified test that every root of p is real.

    Hermite's criterion: p (degree d) is real-rooted iff the d x d Hankel
    matrix of Newton power sums is positive semidefinite.  The reversed Bezout
    matrix of p and p' is congruent to it, with k-th leading minor a_d^(k(3-k))
    times the Hankel one, so one Bareiss pass over it gives every sign.  Exact
    input gets integer fraction-free minors (definitive verdict, Sturm fallback
    for degenerate chains); floating input gets interval-certified minors and
    may return ``indeterminate``, in which case callers escalate precision.
    """
    if isinstance(p, RationalPoly):
        return _exact_certificate(p)
    if isinstance(p, Poly):
        return _interval_certificate(p)
    raise TypeError(f"is_hyperbolic expects Poly or RationalPoly, got {type(p)!r}")


def _climb(
    build: Callable[[int], Poly], ladder: Sequence[int]
) -> HyperbolicityCertificate:
    """Certify ``build(prec)`` at each ladder precision until a verdict is reached."""
    if not ladder:
        raise ValueError("the precision ladder is empty")
    for prec in ladder:
        cert = is_hyperbolic(build(prec))
        if cert.verdict != "indeterminate":
            break
    return cert


def certify_renormalized(
    seq: SequenceProvider,
    d: int,
    n: int,
    ladder: Sequence[int] = DEFAULT_LADDER,
) -> HyperbolicityCertificate:
    """Certify hat J^{d,n}; on indeterminate, rebuild at the next ladder precision."""
    return _climb(lambda prec: renormalize(seq, d, n, prec), ladder)


def _renormalizes(seq: SequenceProvider, n: int) -> bool:
    return seq.params is not None and n >= seq.params.n_min


# A value warm-up asks for the reads of every (d, n) it will certify, and then
# renormalize asks again on the first rung; both get one delta(n) probe.  The
# warm-up fills the memo before certify reads it back, so it must hold a whole
# sweep: 2^16 entries cover d = 1..8 over 8,192 shifts.
@functools.lru_cache(maxsize=1 << 16)
def _renormalized_read_prec(params, d: int, n: int, prec: int) -> int:
    probe = params.delta_of_n(n, 64)
    return prec + d * max(0, -int(mpmath.mag(probe))) + 48


def read_prec(seq: SequenceProvider, d: int, n: int, prec: int) -> int:
    """Bits at which the certificate of J^{d,n} reads ``seq`` on rung ``prec``.

    Where :func:`certify` renormalizes, the read pads by d*|log2 delta(n)| + 48
    guard bits, which absorb the alternating cancellation of the affine
    substitution; the raw Jensen polynomial pads by ``_RAW_GUARD``.
    """
    if _renormalizes(seq, n):
        return _renormalized_read_prec(seq.params, d, n, prec)
    return prec + _RAW_GUARD


def certify(
    seq: SequenceProvider,
    d: int,
    n: int,
    ladder: Sequence[int] = DEFAULT_LADDER,
) -> HyperbolicityCertificate:
    """Certify J^{d,n} of ``seq`` by the path the sequence allows.

    Exact sequences get the exact-rational verdict; sequences with growth
    parameters are renormalized from ``n_min`` on; anything else has its raw
    Jensen polynomial rounded along the precision ladder.  The verdict may be
    ``indeterminate`` only after the full ladder.
    """
    if seq.exact_at is not None:
        return is_hyperbolic(jensen_poly(seq, d, n))
    if _renormalizes(seq, n):
        return certify_renormalized(seq, d, n, ladder)
    return _climb(lambda prec: jensen_poly(seq, d, n, prec=prec), ladder)


# ---------------------------------------------------------------------------
# Threshold search and reports
# ---------------------------------------------------------------------------


class FindNResult(int):
    """Smallest N >= seq.first_n with every shift in [N, n_max] hyperbolic; int-compatible.

    ``last_failing`` is the largest non-hyperbolic shift (None when all
    shifts scanned were hyperbolic).
    """

    last_failing: Optional[int]
    n_max: int

    def __new__(cls, value: int, last_failing: Optional[int], n_max: int):
        obj = super().__new__(cls, value)
        obj.last_failing = last_failing
        obj.n_max = n_max
        return obj

    def __repr__(self) -> str:
        return (f"FindNResult({int(self)}, last_failing={self.last_failing}, "
                f"n_max={self.n_max})")


def find_N(
    seq: SequenceProvider,
    d: int,
    n_max: int,
    ladder: Sequence[int] = DEFAULT_LADDER,
) -> FindNResult:
    """Scan n = seq.first_n..n_max; return the least N with [N, n_max] all hyperbolic.

    Each shift goes through :func:`certify`; an indeterminate verdict after
    the full ladder raises :class:`~jensenpoly.zeta_core.PrecisionFailure`.
    """
    if d < 1:
        raise DomainError(f"find_N requires d >= 1, got {d}")
    if n_max < seq.first_n:
        raise DomainError(f"find_N requires n_max >= {seq.first_n}, got {n_max}")
    last_failing: Optional[int] = None
    for n in range(seq.first_n, n_max + 1):
        cert = certify(seq, d, n, ladder)
        if cert.verdict == "indeterminate":
            raise PrecisionFailure(
                f"find_N: indeterminate at d={d}, n={n} after ladder {tuple(ladder)}"
            )
        if cert.verdict == "not_hyperbolic":
            last_failing = n
    return FindNResult(seq.first_n if last_failing is None else last_failing + 1,
                       last_failing, n_max)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    coeffs: Tuple[mpf, ...]
    sup_distance: mpf


def convergence_report(
    seq: SequenceProvider, d: int, n_list: Iterable[int], prec: int = 192
) -> List[ConvergenceRow]:
    """Renormalized coefficients and sup-distance to the degree-d Hermite target."""
    target = hermite(d)
    h = [mpf(c.numerator) / c.denominator for c in target.coeffs]
    rows: List[ConvergenceRow] = []
    for n in n_list:
        poly = renormalize(seq, d, n, prec)
        with workprec(prec):
            dist = max(abs(c - t) for c, t in zip(poly.coeffs, h))
        rows.append(ConvergenceRow(n=n, coeffs=poly.coeffs, sup_distance=dist))
    return rows


@dataclass(frozen=True)
class EffectiveRow:
    n: int
    beta: Tuple[mpf, ...]  # beta_0 .. beta_4
    delta: mpf
    checks: Tuple[bool, ...]  # the five printed inequalities, in D4_CHECK_NAMES order

    @property
    def all_hold(self) -> bool:
        return all(self.checks)


@dataclass(frozen=True)
class EffectiveReport:
    rows: Tuple[EffectiveRow, ...]
    first_all_hold: Optional[int]


#: Least shift n for which the degree-4 template is stated.
D4_MIN_N = 100
#: Names of the template's inequalities, in the order of ``EffectiveRow.checks``.
D4_CHECK_NAMES = ("beta3_in_band", "beta1_in_band", "beta4_in_band",
                  "beta2_in_band", "beta0_in_band")
_D4_CONSTS = ("28", "145.70", "16.05", "16.20", "16.01")


def effective_check_d4(
    n_values: Iterable[int],
    seq: Optional[SequenceProvider] = None,
    prec: int = 192,
) -> EffectiveReport:
    """Check the degree-4 inequality template on the zeta sequence.

    For each n >= D4_MIN_N (100) verifies, with beta_k the coefficients of
    hat J^{4,n} and delta = delta(n):

        0 < beta_3 < 28 delta          -145.70 delta < beta_1 < 0
        1 - 16.05 delta^2 < beta_4 < 1
        -12 < beta_2 < -12 + 16.20 delta
        12 - 16.01 delta < beta_0 < 12
    """
    if seq is None:
        seq = zeta_gamma_provider(None)
    if seq.params is None:
        raise DomainError(f"sequence {seq.label!r} has no growth parameters")
    c28, c1457, c1605, c1620, c1601 = (mpf(s) for s in _D4_CONSTS)
    rows: List[EffectiveRow] = []
    for n in n_values:
        if n < D4_MIN_N:
            raise DomainError(f"effective_check_d4 is stated for n >= {D4_MIN_N}, got {n}")
        poly = renormalize(seq, 4, n, prec)
        with workprec(prec):
            delta = seq.params.delta_of_n(n, prec)
            b = list(poly.coeffs)
            checks = (
                bool(0 < b[3] < c28 * delta),
                bool(-c1457 * delta < b[1] < 0),
                bool(1 - c1605 * delta**2 < b[4] < 1),
                bool(-12 < b[2] < -12 + c1620 * delta),
                bool(12 - c1601 * delta < b[0] < 12),
            )
        rows.append(EffectiveRow(n=n, beta=tuple(b), delta=delta, checks=checks))
    # first n starting the trailing run where every row holds
    first_suffix: Optional[int] = None
    for row in rows:
        if row.all_hold:
            if first_suffix is None:
                first_suffix = row.n
        else:
            first_suffix = None
    return EffectiveReport(rows=tuple(rows), first_all_hold=first_suffix)
