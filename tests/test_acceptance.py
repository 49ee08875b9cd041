"""Acceptance gate: seven shipping criteria, one pass/fail line each.

Reference digits quoted here are frozen from the source tables this library
reproduces; comparisons are numeric with tolerances that cover the source's
mixed truncation/rounding display conventions.
"""

import random
import time
from fractions import Fraction

from mpmath import mpf, workprec

from jensenpoly.asymptotics import (
    C_of,
    F_hat,
    b1_of,
    bessel_I,
    gamma_hat,
    partition_params,
    saddle_coeffs,
    solve_L,
    zeta_A_delta,
)
from jensenpoly.cli import _fixed_trunc, _sci_trunc
from jensenpoly.jensen import (
    RationalPoly,
    cauchy_bound,
    certify_renormalized,
    effective_check_d4,
    find_N,
    generalized_hermite,
    hermite,
    is_hyperbolic,
    jensen_poly,
    make_rational_poly,
    renormalize,
    squarefree_part,
    sturm_count,
)
from jensenpoly.sequences import CacheRecord, parse_record, render_record
from jensenpoly.zeta_core import F_exact, gamma_exact, lambda_deriv, theta0

SEED = 20260814


def rel_close(a, b, bits):
    with workprec(700):
        a, b = mpf(a), mpf(b)
        if b == 0:
            return abs(a) < mpf(2) ** (-bits)
        return abs(a - b) <= abs(b) * mpf(2) ** (-bits)


# --------------------------------------------------------------------------
# 1. Taylor-coefficient table: all displayed digits at n = 10, 100, 1000
# --------------------------------------------------------------------------

GAMMA_TABLE = {
    # n: (asymptotic, exact, ratio) exactly as displayed in the reference
    10: ("1.6313374394e-17", "1.6323380490e-17", "1.000613367"),
    100: ("6.5776471904e-205", "6.5777263785e-205", "1.000012038"),
    1000: ("3.8760333086e-2567", "3.8760340890e-2567", "1.000000201"),
}


def test_criterion_1_gamma_table_all_displayed_digits(zeta_seq):
    budget_start = time.monotonic()
    prec = 192
    for n, (hat_ref, exact_ref, ratio_ref) in GAMMA_TABLE.items():
        g = zeta_seq.value_at(n, prec).value
        gh = gamma_hat(n, prec).value
        assert _sci_trunc(gh, 11) == hat_ref, f"n={n} asymptotic digits"
        assert _sci_trunc(g, 11) == exact_ref, f"n={n} exact digits"
        with workprec(prec):
            ratio = g / gh
        assert _fixed_trunc(ratio, 9) == ratio_ref, f"n={n} ratio digits"
    assert time.monotonic() - budget_start < 600


# --------------------------------------------------------------------------
# 2. Exact-rational partition thresholds N(d), d = 2..5, scan to 2000
# --------------------------------------------------------------------------


def test_criterion_2_partition_thresholds_exact(partition_seq):
    budget_start = time.monotonic()
    expected = {2: 25, 3: 94, 4: 206, 5: 381}
    for d, n_ref in expected.items():
        result = find_N(partition_seq, d, 2000)
        assert int(result) == n_ref, f"N({d})"
        assert result.last_failing == n_ref - 1
    # the certification route must be the exact-rational one
    probe = jensen_poly(partition_seq, 4, 206)
    assert isinstance(probe, RationalPoly)
    assert is_hyperbolic(probe).method in ("hermite_hankel_exact", "sturm")
    assert time.monotonic() - budget_start < 300


# --------------------------------------------------------------------------
# 3. Renormalized coefficient tables (4 decimals; degree 6 to 3 decimals)
# --------------------------------------------------------------------------

RENORM_TABLES = {
    # (family, degree): {shift: coefficients, highest power first}
    ("partition", 2): {
        100: "0.9993 0.0731 -1.9568",
        200: "0.9997 0.0459 -1.9902",
        300: "0.9998 0.0346 -1.9935",
        400: "0.9999 0.0282 -1.9951",
    },
    ("partition", 3): {
        100: "0.9981 0.2072 -5.9270 1.1420",
        200: "0.9993 0.1284 -5.9262 -1.4818",
        300: "0.9996 0.0965 -5.9497 -1.3790",
        400: "0.9998 0.0786 -5.9621 -1.2747",
    },
    ("zeta", 2): {
        100: "0.9896 0.3083 -2.0199",
        200: "0.9943 0.2271 -2.0061",
        300: "0.9960 0.1894 -2.0029",
        400: "0.9969 0.1663 -2.0016",
    },
    ("zeta", 3): {
        100: "0.9769 0.7570 -5.8690 -1.2661",
        200: "0.9872 0.5625 -5.9153 -0.9159",
        300: "0.9911 0.4705 -5.9374 -0.7580",
        400: "0.9931 0.4136 -5.9501 -0.6623",
    },
    ("zeta", 6): {
        100: "0.912 3.086 -24.114 -55.652 133.109 151.696 -85.419",
        200: "0.950 2.374 -26.625 -42.824 153.246 115.849 -100.510",
        300: "0.965 2.011 -27.608 -36.282 161.084 97.843 -106.295",
        400: "0.973 1.780 -28.139 -32.111 165.303 86.428 -109.388",
    },
}


def test_criterion_3_renormalized_tables(zeta_seq, partition_seq):
    providers = {"partition": partition_seq, "zeta": zeta_seq}
    for (family, d), rows in RENORM_TABLES.items():
        seq = providers[family]
        tol = mpf("1.05e-3") if d == 6 else mpf("1.05e-4")
        for n, ref_text in rows.items():
            refs = [mpf(s) for s in ref_text.split()]
            poly = renormalize(seq, d, n, 224)
            mine = list(reversed(poly.coeffs))
            assert len(mine) == len(refs)
            for power, (m, r) in enumerate(zip(mine, refs)):
                assert abs(m - r) < tol, (family, d, n, d - power)


# --------------------------------------------------------------------------
# 4. Desk-scale hyperbolicity sweep: d = 1..8, n = 7..2000, no indeterminates
# --------------------------------------------------------------------------


def test_criterion_4_hyperbolicity_sweep_desk_scale(zeta_seq):
    # One warm pass covers every working precision the ladder's first rung
    # requests (wp <= prec + 8*|log2 delta| + 48 <= 312 on this grid).
    for n in range(7, 2009):
        zeta_seq.value_at(n, 312)

    verdicts = {"hyperbolic": 0, "not_hyperbolic": 0, "indeterminate": 0}
    for n in range(7, 2001):
        for d in range(1, 9):
            cert = certify_renormalized(zeta_seq, d, n)
            verdicts[cert.verdict] += 1
    assert verdicts["indeterminate"] == 0
    assert verdicts["not_hyperbolic"] == 0
    assert verdicts["hyperbolic"] == 8 * 1994

    # spot equivalence: the raw (unrenormalized) polynomial agrees
    rng = random.Random(SEED)
    for _ in range(12):
        d = rng.randrange(1, 9)
        n = rng.randrange(7, 2001)
        raw = is_hyperbolic(jensen_poly(zeta_seq, d, n, prec=296))
        assert raw.verdict == "hyperbolic", (d, n)


# --------------------------------------------------------------------------
# 5. Effective bounds: deviation functional C and the degree-4 template
# --------------------------------------------------------------------------


def test_criterion_5_effective_bounds(zeta_seq):
    gamma_fn = zeta_seq.value_at

    # |C(n, j)| < 14.25 on the whole grid; the deviation is strictly negative
    # through n = 500 (the growth model overestimates the ratio at small n;
    # the sign reverses near j = 8 only past n ~ 1000).
    grid_n = list(range(7, 101)) + [200, 500, 1000, 5000]
    for n in grid_n:
        for j in range(1, 9):
            c = C_of(n, j, 160, gamma_fn=gamma_fn).value
            assert abs(c) < mpf("14.25"), (n, j, c)
            assert c != 0, (n, j)
            if n <= 500:
                assert c < 0, (n, j, c)

    # degree-4 inequality template at 50 log-spaced shifts in [104, 10^4]
    points = sorted({round(104 * (10000 / 104) ** (k / 49)) for k in range(50)})
    assert len(points) == 50 and points[0] == 104 and points[-1] == 10000
    report = effective_check_d4(points, seq=zeta_seq, prec=192)
    for row in report.rows:
        assert row.all_hold, (row.n, row.checks)
    assert report.first_all_hold == 104


# --------------------------------------------------------------------------
# 6. Saddle coefficients: numeric derivation vs closed forms, rel 1e-20
# --------------------------------------------------------------------------


def _closed_form_saddle(n, prec):
    """Independent closed-form expressions in (n, eps = 1/L)."""
    with workprec(prec + 16):
        e = 1 / solve_L(n, prec + 16).value
        a3 = (e / 3 + e**2 / 2 + e**3 / 3) * n - mpf(1) / 4
        a4 = -(e / 4 + 11 * e**2 / 24 + e**3 / 2 + e**4 / 4) * n + mpf(3) / 16
        a5 = (e / 5 + 5 * e**2 / 12 + 7 * e**3 / 12 + e**4 / 2 + e**5 / 5) * n - mpf(3) / 20
        a6 = (
            (e**2 / 18 + e**3 / 6 + 17 * e**4 / 72 + e**5 / 6 + e**6 / 18) * n**2
            - (e / 4 + 91 * e**2 / 180 + 17 * e**3 / 24 + 17 * e**4 / 24 + e**5 / 2 + e**6 / 6) * n
            + mpf(5) / 32
        )
        return [+a3, +a4, +a5, +a6]


def test_criterion_6_saddle_coefficients_closed_forms():
    for n in (20, 50, 200):
        numeric = [c.value for c in saddle_coeffs(n, 6, 256)]
        closed = _closed_form_saddle(n, 256)
        assert len(numeric) == 4
        for k, (num, clo) in enumerate(zip(numeric, closed)):
            with workprec(320):
                rel = abs(num - clo) / abs(clo)
            assert rel < mpf("1e-20"), (n, k + 3, rel)


# --------------------------------------------------------------------------
# 7. Property suites
# --------------------------------------------------------------------------


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _random_poly_cases(rng):
    """1000 integer polynomials of degree <= 8: dense-random, real-rooted
    products, and rigged degenerate/complex mixtures."""
    cases = []
    for _ in range(500):
        d = rng.randrange(1, 9)
        coeffs = [Fraction(rng.randrange(-9, 10)) for _ in range(d)]
        coeffs.append(Fraction(rng.choice([i for i in range(-9, 10) if i])))
        cases.append(make_rational_poly(coeffs))
    for _ in range(300):
        d = rng.randrange(1, 9)
        poly = [Fraction(rng.choice([1, 2, 3]))]
        for _ in range(d):
            root = Fraction(rng.randrange(-6, 7))
            poly = _poly_mul(poly, [-root, Fraction(1)])
        cases.append(make_rational_poly(poly))
    for _ in range(200):
        root = Fraction(rng.randrange(-4, 5))
        poly = _poly_mul([-root, Fraction(1)], [-root, Fraction(1)])
        if rng.random() < 0.5:
            b = rng.randrange(1, 5)  # X^2 + b: complex pair
            poly = _poly_mul(poly, [Fraction(b), Fraction(0), Fraction(1)])
        if rng.random() < 0.5:
            other = Fraction(rng.randrange(-4, 5))
            poly = _poly_mul(poly, [-other, Fraction(1)])
        cases.append(make_rational_poly(poly))
    return cases


def _sturm_route_verdict(rp):
    """Independent certification: distinct-real-root count of the squarefree
    part over (-B, B] with B a certified root bound."""
    sq = squarefree_part(rp)
    if sq.degree == 0:
        return "hyperbolic"
    bound = cauchy_bound(sq)
    return (
        "hyperbolic"
        if sturm_count(sq, -bound, bound) == sq.degree
        else "not_hyperbolic"
    )


def test_criterion_7_property_suites(zeta_seq, partition_seq, tmp_path):
    # (a) three-term recurrence of the Hermite family, exact, degrees <= 20
    for d in range(1, 20):
        shifted = (Fraction(0),) + hermite(d).coeffs
        prev = hermite(d - 1).coeffs
        rhs = [
            s - 2 * d * (prev[i] if i < len(prev) else 0)
            for i, s in enumerate(shifted)
        ]
        assert tuple(rhs) == hermite(d + 1).coeffs

    # (b) Hankel-vs-Sturm agreement on 1000 random integer polynomials
    rng = random.Random(SEED)
    cases = _random_poly_cases(rng)
    assert len(cases) == 1000
    agree = 0
    for rp in cases:
        hankel = is_hyperbolic(rp).verdict
        assert hankel in ("hyperbolic", "not_hyperbolic")
        if hankel == _sturm_route_verdict(rp):
            agree += 1
    assert agree == 1000

    # (c) generalized limit polynomials with Gaussian Taylor coefficients
    gauss = [Fraction(1), 0, Fraction(-1), 0, Fraction(1, 2), 0, Fraction(-1, 6)]
    for m in range(0, 7):
        assert generalized_hermite(gauss, m).coeffs == hermite(m).coeffs

    # (d) precision-ladder stability of every public numeric operation
    lo_bits, hi_bits, keep = 192, 320, 160

    def stable(fn):
        lo, hi = fn(lo_bits), fn(hi_bits)
        lo = lo if isinstance(lo, (list, tuple)) else [lo]
        hi = hi if isinstance(hi, (list, tuple)) else [hi]
        for a, b in zip(lo, hi):
            assert rel_close(a, b, keep), fn

    stable(lambda p: theta0(mpf("1.37"), p).value)
    stable(lambda p: F_exact(50, p).value)
    stable(lambda p: gamma_exact(40, p).value)
    stable(lambda p: lambda_deriv(8, p).value)
    stable(lambda p: solve_L(500, p).value)
    stable(lambda p: b1_of(solve_L(500, p)).value)
    stable(lambda p: F_hat(123, p).value)
    stable(lambda p: gamma_hat(60, p).value)
    stable(lambda p: [c.value for c in saddle_coeffs(30, 6, p)])
    stable(lambda p: [x.value for x in zeta_A_delta(120, p)])
    stable(lambda p: C_of(50, 3, p).value)
    stable(lambda p: bessel_I(mpf("0.5"), mpf("2.5"), p).value)
    stable(lambda p: bessel_I(mpf("1.75"), mpf("300"), p).value)
    stable(lambda p: partition_params(2).A_of_n(75, p))
    stable(lambda p: partition_params(2).delta_of_n(75, p))
    stable(lambda p: list(renormalize(zeta_seq, 4, 150, p).coeffs))
    stable(lambda p: list(renormalize(partition_seq, 3, 80, p).coeffs))

    # (e) cache round-trip bit-exactness on 1000 random records
    rng = random.Random(SEED + 1)
    for i in range(1000):
        prec = rng.randrange(64, 513)
        man = rng.getrandbits(prec) | (1 << (prec - 1))
        exp = rng.randrange(-3000, 3001)
        sign = rng.choice([1, -1])
        with workprec(prec):
            x = mpf(sign * man) * mpf(2) ** exp
        rec = CacheRecord.from_value(i, x, prec, "exact")
        line = render_record(rec)
        back = parse_record(line)
        assert render_record(back) == line
        assert back.to_mpf(prec)._mpf_ == x._mpf_, (prec, man, exp)
