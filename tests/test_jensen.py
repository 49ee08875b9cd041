"""Jensen polynomials, renormalization, certification, thresholds, reports."""

import dataclasses
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec
from mpmath.libmp import from_rational, round_nearest

from jensenpoly.jensen import (
    DEFAULT_LADDER,
    DegenerateChainError,
    Poly,
    RationalPoly,
    cauchy_bound,
    certify,
    certify_renormalized,
    convergence_report,
    effective_check_d4,
    find_N,
    generalized_hermite,
    hermite,
    is_hyperbolic,
    jensen_poly,
    make_poly,
    make_rational_poly,
    poly_from_rational,
    read_prec,
    renormalize,
    squarefree_part,
    sturm_count,
    _hankel_minors,
    _leading_minors,
)
from jensenpoly.sequences import load_sequence, partition, zeta_gamma_provider
from jensenpoly.zeta_core import DomainError, PrecisionFailure


def _rp(*coeffs_desc):
    """RationalPoly from descending (human-order) coefficients."""
    return make_rational_poly(list(reversed(coeffs_desc)))


class TestContainers:
    def test_poly_basics(self):
        p = make_poly([1, 0, 2], 128)  # 2X^2 + 1
        assert p.degree == 2
        assert p(2) == 9

    def test_leading_zero_trimmed(self):
        p = make_poly([3, 1, 0, 0], 128)
        assert p.degree == 1

    def test_rational_poly_eval(self):
        p = _rp(1, -3, 2)  # X^2 - 3X + 2
        assert p(Fraction(1)) == 0 and p(Fraction(2)) == 0

    def test_round_trip_exact(self):
        rp = _rp(3, 0, Fraction(-1, 4))
        p = poly_from_rational(rp, 128)
        assert isinstance(p, Poly)
        assert p(0) == mpf("-0.25")

    def test_round_from_rational_once(self):
        q = Fraction(703868111321312405673397568678, 5)
        p = poly_from_rational(_rp(1, q), 64)
        exact = from_rational(q.numerator, q.denominator, 64, round_nearest)
        assert p.coeffs[0]._mpf_ == exact


class TestJensenPoly:
    def test_exact_binomial_identity(self, partition_seq):
        for d, n in [(1, 0), (2, 5), (3, 17), (8, 40)]:
            jp = jensen_poly(partition_seq, d, n)
            assert isinstance(jp, RationalPoly)
            for j in range(d + 1):
                assert jp.coeffs[j] == math.comb(d, j) * partition(n + j)

    def test_known_small_case(self, partition_seq):
        jp = jensen_poly(partition_seq, 2, 5)
        assert jp.coeffs == (Fraction(7), Fraction(22), Fraction(15))

    def test_float_path_for_zeta(self, zeta_seq):
        jp = jensen_poly(zeta_seq, 2, 10, prec=128)
        assert isinstance(jp, Poly)
        assert all(c > 0 for c in jp.coeffs)

    def test_domain(self, partition_seq):
        with pytest.raises(DomainError):
            jensen_poly(partition_seq, 0, 5)
        with pytest.raises(DomainError):
            jensen_poly(partition_seq, 2, -1)


class TestHermite:
    def test_first_values(self):
        assert hermite(0).coeffs == (Fraction(1),)
        assert hermite(1).coeffs == (Fraction(0), Fraction(1))
        assert hermite(2).coeffs == (Fraction(-2), Fraction(0), Fraction(1))
        assert hermite(3).coeffs == (Fraction(0), Fraction(-6), Fraction(0), Fraction(1))
        assert hermite(6).coeffs == (
            Fraction(-120), Fraction(0), Fraction(180), Fraction(0),
            Fraction(-30), Fraction(0), Fraction(1),
        )

    def test_recurrence(self):
        # H_{d+1} = X H_d - 2 d H_{d-1}, exact integers, through degree 20.
        for d in range(1, 20):
            h_prev, h, h_next = hermite(d - 1), hermite(d), hermite(d + 1)
            shifted = (Fraction(0),) + h.coeffs  # X * H_d
            rhs = [
                s - 2 * d * (h_prev.coeffs[i] if i <= h_prev.degree else 0)
                for i, s in enumerate(shifted)
            ]
            assert tuple(rhs) == h_next.coeffs

    def test_all_hyperbolic(self):
        for d in range(1, 12):
            assert is_hyperbolic(hermite(d)).verdict == "hyperbolic"


class TestGeneralizedHermite:
    # Taylor coefficients of e^{-t^2}: 1, 0, -1, 0, 1/2, 0, -1/6, ...
    GAUSS = [Fraction(1), 0, Fraction(-1), 0, Fraction(1, 2), 0, Fraction(-1, 6)]

    def test_reduces_to_hermite(self):
        for m in range(0, 7):
            assert generalized_hermite(self.GAUSS, m).coeffs == hermite(m).coeffs

    def test_float_coefficients_give_poly(self):
        out = generalized_hermite([1.0, 0.5, 0.25], 2)
        assert isinstance(out, Poly)


class TestIsHyperbolic:
    def test_distinct_real_roots(self):
        cert = is_hyperbolic(_rp(1, -6, 11, -6))  # (X-1)(X-2)(X-3)
        assert cert.verdict == "hyperbolic"
        assert cert.method == "hermite_hankel_exact"
        assert cert.margin.value > 0

    def test_complex_roots(self):
        cert = is_hyperbolic(_rp(1, 0, 1))  # X^2 + 1
        assert cert.verdict == "not_hyperbolic"

    def test_repeated_real_roots_fall_back_to_sturm(self):
        cert = is_hyperbolic(_rp(1, -4, 5, -2))  # (X-1)^2 (X-2)
        assert cert.verdict == "hyperbolic"
        assert cert.method == "sturm"

    def test_repeated_with_complex_pair(self):
        # (X-1)^2 (X^2+1): degenerate Hankel, not real-rooted
        cert = is_hyperbolic(_rp(1, -2, 2, -2, 1))
        assert cert.verdict == "not_hyperbolic"

    def test_degree_one_and_zero(self):
        assert is_hyperbolic(_rp(3, 5)).verdict == "hyperbolic"
        assert is_hyperbolic(_rp(7)).verdict == "hyperbolic"

    def test_interval_path_decides(self):
        p = make_poly([mpf(-2), mpf(0), mpf(1)], 128)  # X^2 - 2
        cert = is_hyperbolic(p)
        assert cert.verdict == "hyperbolic"
        assert cert.method == "hermite_hankel_interval"
        q = make_poly([mpf(2), mpf(0), mpf(1)], 128)  # X^2 + 2
        assert is_hyperbolic(q).verdict == "not_hyperbolic"

    def test_interval_double_root_indeterminate(self):
        # (X-1)^2: the second Hankel minor is exactly 0, which no interval
        # comparison can certify positive or negative.
        cert = is_hyperbolic(make_poly([1, -2, 1], 128))
        assert (cert.verdict, cert.method) == ("indeterminate", "hermite_hankel_interval")
        assert cert.margin.value == 0

    def test_positive_scaling_invariance(self):
        base = [Fraction(-6), Fraction(11), Fraction(-6), Fraction(1)]
        for scale in (Fraction(3), Fraction(1, 7)):
            cert = is_hyperbolic(make_rational_poly([scale * c for c in base]))
            assert cert.verdict == "hyperbolic"

    def test_degree2_discriminant_equivalence(self, partition_seq):
        # For J^{2,n}: hyperbolic <=> p(n+1)^2 >= p(n) p(n+2).
        for n in range(0, 60):
            cert = is_hyperbolic(jensen_poly(partition_seq, 2, n))
            disc_ok = partition(n + 1) ** 2 >= partition(n) * partition(n + 2)
            assert (cert.verdict == "hyperbolic") == disc_ok, n

    @pytest.mark.parametrize("d, n, real_roots", [
        (8, 1268, 6), (8, 1269, 8), (12, 3000, 4), (12, 5000, 12)])
    def test_high_degree_partition_matches_sturm(self, partition_seq, d, n, real_roots):
        # Sturm's count on the squarefree part is independent of the minors.
        jp = jensen_poly(partition_seq, d, n)
        cert = certify(partition_seq, d, n)
        assert cert.method == "hermite_hankel_exact"
        q = squarefree_part(jp)
        bound = cauchy_bound(q)
        assert (q.degree, sturm_count(q, -bound, bound)) == (d, real_roots)
        assert (cert.verdict == "hyperbolic") == (real_roots == d)


def _from_roots(lead: int, roots: list) -> list:
    """Ascending integer coefficients of lead * prod (X - r)."""
    coeffs = [lead]
    for r in roots:
        coeffs = [(coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)
                  for i in range(len(coeffs) + 1)]
    return coeffs


def _random_int_poly(rng: random.Random, d: int) -> list:
    """Ascending integer coefficients, |a_i| <= 10^30, a_d != 0.

    Half the cases multiply integer linear factors with roots in a window of
    random width, repeats allowed: the Hankel matrix is then positive
    semidefinite, and its minors may be tiny beside the power sums.
    """
    if rng.random() < 0.5:
        lead = rng.choice([-1, 1]) * rng.randint(1, 10)
        base, width = rng.randint(-1000, 1000), rng.choice([2, 50, 1000])
        return _from_roots(lead, [base + rng.randint(0, width) for _ in range(d)])
    coeffs = [rng.randint(-10**30, 10**30) for _ in range(d)]
    return coeffs + [rng.choice([-1, 1]) * rng.randint(1, 10**30)]


def _newton_hankel_minors(a: list) -> list:
    """Oracle: leading minors of (s_{i+j}) times a_d^(k(k-1)), in Fractions.

    Newton's identities give the power sums s_k of the roots; each k x k
    leading minor is a separate Gaussian elimination with row pivoting.
    """
    d = len(a) - 1
    e = [Fraction(a[d - i], a[d]) for i in range(d + 1)]  # monic, descending
    s = [Fraction(d)]
    for k in range(1, 2 * d - 1):
        acc = k * e[k] if k <= d else Fraction(0)
        for i in range(1, min(k, d + 1)):
            acc += e[i] * s[k - i]
        s.append(-acc)
    minors = []
    for k in range(1, d + 1):
        m = [[s[i + j] for j in range(k)] for i in range(k)]
        det = Fraction(1)
        for c in range(k):
            r = next((r for r in range(c, k) if m[r][c] != 0), None)
            if r is None:
                det = Fraction(0)
                break
            if r != c:
                m[c], m[r] = m[r], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, k):
                f = m[r][c] / m[c][c]
                for j in range(c, k):
                    m[r][j] -= f * m[c][j]
        minors.append(det * Fraction(a[d]) ** (k * (k - 1)))
    return minors


class TestLeadingMinors:
    def test_interval_minors_contain_integer_minors(self):
        rng = random.Random(20190514)
        iv = mpmath.iv
        saved = iv.prec
        stopped_early = 0
        try:
            for _ in range(150):
                d = rng.randint(1, 8)
                a = _random_int_poly(rng, d)
                exact = _hankel_minors(a, operator.floordiv)
                for prec in (64, 128, 256):
                    iv.prec = prec
                    enclosed = _hankel_minors([iv.mpf(c) for c in a], operator.truediv)
                    assert len(enclosed) <= len(exact), (a, prec)
                    stopped_early += len(enclosed) < len(exact)
                    # checked at the working precision: at 53 bits a large
                    # integer converts to an interval wider than the enclosure
                    for k, m in enumerate(enclosed):
                        assert exact[k] in m, (a, prec, k)
        finally:
            iv.prec = saved
        assert stopped_early > 0  # some cases stop on an undecided minor

    def test_stops_at_first_non_positive_minor(self):
        # X^2 + 1: reversed Bezoutian of p and p' is [[2, 0], [0, -2]].
        assert _leading_minors([[2, 0], [0, -2]], operator.floordiv) == [2, -4]
        # First minor 0 ends the elimination at once.
        assert _leading_minors([[0, 1], [1, 1]], operator.floordiv) == [0]

    @staticmethod
    def _check_against_oracle(a: list) -> list:
        minors = _hankel_minors(a, operator.floordiv)
        oracle = _newton_hankel_minors(a)
        assert minors == oracle[: len(minors)], a
        assert all(m > 0 for m in minors[:-1]), a
        assert len(minors) == len(oracle) or minors[-1] <= 0, a
        return minors

    def test_random_polynomials_match_newton_oracle(self):
        rng = random.Random(19)
        signs = set()
        for _ in range(200):
            d = rng.randint(1, 8)
            lead = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            a = [rng.randint(-10**6, 10**6) for _ in range(d)] + [lead]
            self._check_against_oracle(a)
            signs.add(lead > 0)
        assert signs == {True, False}

    def test_repeated_roots_stop_on_zero_minor(self):
        rng = random.Random(7)
        for _ in range(40):
            distinct = rng.sample(range(-30, 31), rng.randint(1, 4))
            roots = distinct + rng.choices(distinct, k=rng.randint(1, 4))
            lead = rng.choice([-1, 1]) * rng.randint(1, 50)
            minors = self._check_against_oracle(_from_roots(lead, roots))
            # rank of the Hankel form = number of distinct real roots
            assert len(minors) == len(distinct) + 1 and minors[-1] == 0, roots

    @pytest.mark.parametrize("d, n", [(2, 24), (8, 1268), (8, 2000)])
    def test_partition_jensen_polynomials(self, partition_seq, d, n):
        a = [int(c) for c in jensen_poly(partition_seq, d, n).coeffs]
        self._check_against_oracle(a)


class TestSturmTools:
    def test_counts(self):
        p = _rp(1, -6, 11, -6)  # roots 1, 2, 3
        assert sturm_count(p, 0, 4) == 3
        assert sturm_count(p, Fraction(3, 2), 4) == 2
        assert sturm_count(p, 4, 10) == 0

    def test_root_endpoint_rejected(self):
        with pytest.raises(ValueError):
            sturm_count(_rp(1, -1), 0, 1)

    def test_degenerate_chain(self):
        with pytest.raises(DegenerateChainError):
            sturm_count(_rp(1, -2, 1), 0, 3)  # (X-1)^2

    def test_squarefree_part(self):
        sq = squarefree_part(_rp(1, -4, 5, -2))  # (X-1)^2 (X-2)
        # normalize to monic for comparison with (X-1)(X-2)
        lead = sq.coeffs[-1]
        monic = tuple(c / lead for c in sq.coeffs)
        assert monic == (Fraction(2), Fraction(-3), Fraction(1))

    def test_cauchy_bound_contains_roots(self):
        p = _rp(1, -6, 11, -6)
        bound = cauchy_bound(p)
        assert bound > 3
        assert sturm_count(p, -bound, bound) == 3


class TestRenormalize:
    def test_partition_reference_row(self, partition_seq):
        poly = renormalize(partition_seq, 2, 100, 192)
        refs = [mpf(s) for s in ("-1.9568", "0.0731", "0.9993")]
        for c, r in zip(poly.coeffs, refs):
            assert abs(c - r) < mpf("1.05e-4")

    def test_zeta_reference_row(self, zeta_seq):
        poly = renormalize(zeta_seq, 2, 100, 192)
        refs = [mpf(s) for s in ("-2.0199", "0.3083", "0.9896")]
        for c, r in zip(poly.coeffs, refs):
            assert abs(c - r) < mpf("1.05e-4")

    def test_below_minimum_shift(self, zeta_seq):
        with pytest.raises(DomainError):
            renormalize(zeta_seq, 2, 6, 128)

    def test_verdict_matches_raw_polynomial(self, zeta_seq):
        # The affine substitution preserves real-rootedness, so the raw and
        # renormalized certificates must agree.
        for d, n in [(2, 30), (3, 50), (5, 100)]:
            raw = is_hyperbolic(jensen_poly(zeta_seq, d, n, prec=512))
            hat = certify_renormalized(zeta_seq, d, n)
            assert raw.verdict == hat.verdict == "hyperbolic"

    def test_read_prec_probe_shared_with_renormalize(self, partition_seq):
        calls = []
        base = partition_seq.params

        def delta(n, prec):
            calls.append((n, prec))
            return base.delta_of_n(n, prec)

        seq = dataclasses.replace(
            partition_seq, params=dataclasses.replace(base, delta_of_n=delta))
        assert read_prec(seq, 3, 2, 160) == 168  # below n_min: the raw guard
        wp = read_prec(seq, 3, 200, 160)
        renormalize(seq, 3, 200, 160)
        renormalize(seq, 3, 200, 256)
        # the first rung reuses the warm-up's probe; a new rung probes again
        assert calls == [(200, 64), (200, wp), (200, 64), (200, wp + 96)]

    def test_coefficients_approach_hermite(self, partition_seq):
        h3 = [mpf(c.numerator) / c.denominator for c in hermite(3).coeffs]
        near = renormalize(partition_seq, 3, 100, 160).coeffs
        far = renormalize(partition_seq, 3, 5000, 160).coeffs
        dist_near = max(abs(a - b) for a, b in zip(near, h3))
        dist_far = max(abs(a - b) for a, b in zip(far, h3))
        assert dist_far < dist_near


class TestFindN:
    def test_partition_small_degrees(self, partition_seq):
        r2 = find_N(partition_seq, 2, 1000)
        assert int(r2) == 25 and r2.last_failing == 24
        r3 = find_N(partition_seq, 3, 1000)
        assert int(r3) == 94 and r3.last_failing == 93

    def test_all_hyperbolic_range(self, partition_seq):
        r = find_N(partition_seq, 1, 50)
        assert int(r) == 0 and r.last_failing is None

    def test_result_is_int_compatible(self, partition_seq):
        r = find_N(partition_seq, 2, 200)
        assert r + 0 == 25 and r.n_max == 200

    def test_domain(self, partition_seq):
        with pytest.raises(DomainError):
            find_N(partition_seq, 0, 10)

    def test_scan_starts_at_first_index(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("".join(f"{n},{partition(n)}\n" for n in range(1, 61)))
        r = find_N(load_sequence(path), 2, 58)
        assert int(r) == 25 and r.last_failing == 24
        r = find_N(zeta_gamma_provider(None), 1, 3)
        assert int(r) == 1 and r.last_failing is None

    @staticmethod
    def _file_sequence(tmp_path, values):
        path = tmp_path / "seq.csv"
        path.write_text("".join(f"{n},{v}\n" for n, v in enumerate(values)))
        return load_sequence(path)

    def test_rational_file_takes_exact_path(self, tmp_path):
        # p(n)/3 written as fractions: exactly rational, so every shift is
        # decided by the exact Hankel minors.
        seq = self._file_sequence(tmp_path, [f"{partition(n)}/3" for n in range(203)])
        assert seq.exact_at(30) == Fraction(partition(30), 3)
        assert certify(seq, 2, 30).method == "hermite_hankel_exact"
        assert find_N(seq, 2, 200) == 25

    def test_rational_double_root_decided_exactly(self, tmp_path):
        # J^{2,n} of the constant 0.5 is 0.5 (1+X)^2: its vanishing Hankel
        # minor is settled by the Sturm count of the squarefree part.
        seq = self._file_sequence(tmp_path, ["0.5"] * 30)
        cert = certify(seq, 2, 3)
        assert (cert.verdict, cert.method) == ("hyperbolic", "sturm")
        assert find_N(seq, 2, 5) == 0

    def test_raw_ladder_path_matches_exact(self, tmp_path):
        # p(n)/3 behind value_at alone: no exact values and no growth
        # parameters, so every shift takes the raw-polynomial ladder.
        seq = dataclasses.replace(
            self._file_sequence(tmp_path, [f"{partition(n)}/3" for n in range(203)]),
            exact_at=None)
        assert seq.exact_at is None and seq.params is None
        cert = certify(seq, 2, 30)
        assert (cert.verdict, cert.method) == ("hyperbolic", "hermite_hankel_interval")
        assert find_N(seq, 2, 200) == 25

    def test_indeterminate_after_full_ladder(self, tmp_path):
        # The constant 0.5 behind value_at alone: its J^{2,n} = 0.5 (1+X)^2
        # has a double root, which no rung can decide.
        seq = dataclasses.replace(self._file_sequence(tmp_path, ["0.5"] * 30),
                                  exact_at=None)
        assert seq.exact_at is None and seq.params is None
        cert = certify(seq, 2, 3)
        assert (cert.verdict, cert.method) == ("indeterminate", "hermite_hankel_interval")
        with pytest.raises(PrecisionFailure, match=r"ladder \(128, 256, 512, 1024\)"):
            find_N(seq, 2, 5)


class TestReports:
    def test_convergence_report_improves(self, zeta_seq):
        rows = convergence_report(zeta_seq, 2, [100, 400], prec=160)
        assert rows[0].n == 100 and rows[1].n == 400
        assert rows[1].sup_distance < rows[0].sup_distance

    def test_convergence_report_partition_x2_column(self, partition_seq):
        rows = convergence_report(partition_seq, 3, [100, 400], prec=160)
        c100 = rows[0].coeffs[2]
        c400 = rows[1].coeffs[2]
        assert abs(c100 - mpf("0.2072")) < mpf("1.05e-4")
        assert abs(c400 - mpf("0.0786")) < mpf("1.05e-4")

    def test_effective_check_holds_from_104(self, zeta_seq):
        report = effective_check_d4([104, 150, 200], seq=zeta_seq, prec=192)
        assert all(row.all_hold for row in report.rows)
        assert report.first_all_hold == 104

    def test_effective_margins_shrink(self, zeta_seq):
        h4 = [mpf(12), mpf(0), mpf(-12), mpf(0), mpf(1)]
        report = effective_check_d4([104, 400], seq=zeta_seq, prec=192)
        dev = [
            [abs(b - h) for b, h in zip(row.beta, h4)] for row in report.rows
        ]
        for k in range(5):
            assert dev[1][k] < dev[0][k]

    def test_effective_domain(self, zeta_seq):
        with pytest.raises(DomainError):
            effective_check_d4([99], seq=zeta_seq)


class TestLadder:
    def test_default_ladder(self):
        assert DEFAULT_LADDER == (128, 256, 512, 1024)

    def test_certify_smallest_domain_corner(self, zeta_seq):
        cert = certify_renormalized(zeta_seq, 8, 7)
        assert cert.verdict == "hyperbolic"

    def test_certify_dispatch(self, partition_seq, zeta_seq):
        exact = certify(partition_seq, 2, 24)
        assert (exact.verdict, exact.method) == ("not_hyperbolic", "hermite_hankel_exact")
        assert certify(zeta_seq, 8, 7) == certify_renormalized(zeta_seq, 8, 7)

    def test_empty_ladder_rejected(self, zeta_seq):
        with pytest.raises(ValueError):
            certify(zeta_seq, 2, 7, ladder=())
