"""Core numeric kernels: theta sum, the F integral, derivative values."""

import itertools
import math

import mpmath
import pytest
from mpmath import mpf, workprec
from mpmath.libmp import from_int, from_man_exp

from jensenpoly import zeta_core
from jensenpoly.zeta_core import (
    MIN_PREC,
    BigReal,
    DomainError,
    F_exact,
    PrecisionFailure,
    gamma_exact,
    lambda_deriv,
    lambda_deriv_or_zero,
    theta0,
    _F_raw,
    _make_integrand,
    _peak_window,
)

# Frozen oracle: 50-term direct summation at 220 bits, computed independently
# before the module existed.
THETA0_AT_1 = "0.04321740560665400728765806076"


def rel_close(a, b, bits: int) -> bool:
    """Relative agreement to ``bits`` bits; strings parse at high precision."""
    with workprec(512):
        a = mpf(a) if isinstance(a, str) else a
        b = mpf(b) if isinstance(b, str) else b
        if b == 0:
            return abs(a) < mpf(2) ** (-bits)
        return abs(a - b) <= abs(b) * mpf(2) ** (-bits)


def theta0_counter(monkeypatch):
    """Count theta0 evaluations from now on; the result reads the count."""
    calls = []
    theta = zeta_core._theta0_raw

    def counted(t, prec):
        calls.append(None)
        return theta(t, prec)

    monkeypatch.setattr(zeta_core, "_theta0_raw", counted)
    return lambda: len(calls)


class TestBigReal:
    def test_prec_floor_enforced(self):
        with pytest.raises(ValueError):
            BigReal(mpf(1), MIN_PREC - 1)

    def test_frozen(self):
        x = BigReal(mpf(2), 128)
        with pytest.raises(Exception):
            x.prec_bits = 64

    def test_gamma_value_carries_metadata(self):
        g = gamma_exact(3, 64)
        assert isinstance(g, BigReal) and g.prec_bits == 64


class TestTheta0:
    def test_frozen_oracle_value(self):
        val = theta0(1, 192).value
        assert rel_close(val, THETA0_AT_1, 90)

    def test_closed_form_at_one(self):
        # sum over all integers k of exp(-pi k^2) = pi^(1/4) / Gamma(3/4), checked
        # at a precision where the term recurrence's rounding would show.
        prec = 576
        with workprec(prec + 64):
            exact = (mpmath.pi ** (mpf(1) / 4) / mpmath.gamma(mpf(3) / 4) - 1) / 2
        assert rel_close(theta0(1, prec).value, exact, prec - 16)

    def test_functional_equation(self):
        # 1 + 2 theta0(2) = 2^{-1/2} (1 + 2 theta0(1/2)); theta0(1/2) is a
        # frozen direct-summation oracle (the implementation needs t >= 1).
        theta_half = "0.2097477440418830"
        with workprec(256):
            lhs = theta0(2, 192).value
            rhs = (1 / mpmath.sqrt(2) - 1) / 2 + mpf(theta_half) / mpmath.sqrt(2)
            assert abs(lhs - rhs) < mpf("1e-15")

    def test_domain(self):
        for t in (0, mpf("0.5"), mpf("nan"), mpf("inf"), mpf("-inf")):
            with pytest.raises(DomainError):
                theta0(t, 128)

    @pytest.mark.parametrize("prec", [64, 192, 340, 576])
    @pytest.mark.parametrize("t", ["1", "1.37", "7.4", "150", "3000"])
    def test_jacobi_theta_oracle(self, t, prec):
        # theta0(t) = (theta_3(0, e^(-pi t)) - 1) / 2 from mpmath's jtheta, at
        # enough extra bits that theta_3 - 1 does not cancel.  t = 1 is the
        # longest sum; at t = 3000 even q^2 is below the sum's fixed-point scale.
        with workprec(prec + 64 + math.ceil(math.pi * float(t) / math.log(2))):
            tv = mpf(t)
            oracle = (mpmath.jtheta(3, 0, mpmath.exp(-mpmath.pi * tv)) - 1) / 2
        assert rel_close(theta0(tv, prec).value, oracle, prec - 16)

    def test_precision_ladder_stable(self):
        lo = theta0(mpf("1.37"), 128).value
        hi = theta0(mpf("1.37"), 256).value
        assert rel_close(lo, hi, 120)


class TestFIntegral:
    def test_float64_riemann_sum_oracle(self):
        # Independent oracle: plain numpy Riemann sum over the peak window.
        import numpy as np

        n = 4
        mine = float(F_exact(n, 128).value)
        u = np.linspace(0.0, 12.0, 1_000_001)
        du = u[1] - u[0]
        theta = np.zeros_like(u)
        for k in range(1, 60):
            theta += np.exp(-math.pi * k * k * np.exp(u))
        integrand = u**n * np.exp(u / 4) * theta
        riemann = float(np.sum(integrand) * du)
        assert abs(mine - riemann) / riemann < 1e-8

    @pytest.mark.parametrize("m, prec", [
        (0, 192), (12, 192), (62, 512), (mpf("64.5"), 192),
        (200, 192), (200, 512), (1000, 272)])
    def test_quadrature_routes_agree(self, m, prec):
        # Dual-route check: the doubling trapezoid against mpmath's tanh-sinh on
        # the plain integrand g(u) over the same window.  m = 0, 12 and 62
        # (5 m < prec) take the mapped rule, whose s window is mapped back to u,
        # the others the plain one.
        wp = prec + 40
        u_peak, ce = zeta_core._rule(m, prec)
        j, k_lo, k_hi = _peak_window(_make_integrand(m, wp, 0, ce), m, u_peak, ce, prec + 30)
        window = [from_man_exp(k, -j) for k in (k_lo, k_hi)]
        if ce is not None:
            window = [zeta_core._node_factor(s, wp, ce)[0] for s in window]
        g = _make_integrand(m, wp)
        with workprec(wp):
            u_lo, u_hi = (mpmath.mp.make_mpf(u) for u in window)
            points = [u_lo, u_peak, u_hi] if u_lo < u_peak < u_hi else [u_lo, u_hi]
            ref, error = mpmath.quad(lambda u: mpmath.mp.make_mpf(g(u._mpf_)), points,
                                     error=True)
            assert error < ref * mpf(2) ** -(prec + 5)
        assert rel_close(_F_raw(m, prec), ref, prec - 10)

    def test_refinement_must_settle(self, monkeypatch):
        # A stub node factor that grows with every call never settles; two
        # doublings keep the stub cheap.  The failure empties the memo that
        # F(10) filled.
        _F_raw(10, 64)
        assert zeta_core._node_memo is not None
        calls = itertools.count(1)
        monkeypatch.setattr(zeta_core, "_node_factor",
                            lambda x, wp, ce: from_int(next(calls)))
        monkeypatch.setattr(zeta_core, "_peak_window",
                            lambda f, n, u_peak, ce, tail: (0, 1, 17))
        monkeypatch.setattr(zeta_core, "_MAX_DOUBLINGS", 2)
        with pytest.raises(PrecisionFailure, match="did not stabilize"):
            _F_raw(64, 64)
        assert zeta_core._node_memo is None

    @staticmethod
    def level_stub(monkeypatch, errors):
        """Make the F(0) sum at level j read 1 + errors[j]; count node factors.

        The stub window is x = 1..17 at level 0 (m = 0 takes the mapped rule,
        and u^0 = 1), and the 16 2^(j-1) nodes new at level j >= 1 are the x
        with exponent -j, so giving each of them (1 + 2 e_j - e_(j-1))/16
        makes the sum exactly 1 + e_j; level 0 gets (1 + e_0)/16.
        """
        calls = []

        def factor(x, wp, ce):
            calls.append(None)
            j = max(0, -x[2])
            with workprec(wp):
                e = [mpf(2) ** -b for b in errors]
                value = (1 + 2 * e[j] - e[j - 1]) / 16 if j else (1 + e[0]) / 16
            return x, value._mpf_

        monkeypatch.setattr(zeta_core, "_node_memo", None)
        monkeypatch.setattr(zeta_core, "_node_factor", factor)
        monkeypatch.setattr(zeta_core, "_peak_window",
                            lambda f, n, u_peak, ce, tail: (0, 1, 17))
        return lambda: len(calls)

    def test_algebraic_convergence_is_not_accepted_early(self, monkeypatch):
        # Errors 2^-20, 2^-60, 2^-100, ... gain 40 bits a level, so the levels
        # agree to about 21, 61, 101 and 141 bits.  At 128 bits (tolerance
        # 2^-133) the square-law estimate of level 3, 2 * 101 - 61 = 141 bits,
        # would pass, but 101 < 2 * 61 is not plainly exponential convergence:
        # level 3 is not accepted, and level 4 is, by the two-refinement rule.
        count = self.level_stub(monkeypatch, [20 + 40 * j for j in range(8)])
        assert _F_raw(0, 128) == 1
        assert count() == 17 + 16 * (2 ** 4 - 1)
        monkeypatch.setattr(zeta_core, "_MAX_DOUBLINGS", 3)
        with pytest.raises(PrecisionFailure, match="did not stabilize"):
            _F_raw(0, 128)

    def test_square_law_accepts_one_level_early(self, monkeypatch):
        # Errors 2^-20, 2^-50, 2^-110, 2^-230, ... (b_j = 2 b_(j-1) + 10): the
        # levels agree to about 21, 51 and 111 bits.  Level 3 misses the
        # two-refinement tolerance 2^-133 by 22 bits, yet its square-law
        # estimate, 2 * 111 - 51 = 171 bits, passes, so the sum stops there and
        # never computes the 128 nodes of level 4.
        errors = [20, 50, 110, 230, 470]
        count = self.level_stub(monkeypatch, errors)
        with workprec(168):
            assert _F_raw(0, 128) == 1 + mpf(2) ** -errors[3]
            assert mpf(2) ** -errors[2] - mpf(2) ** -errors[3] > mpf(2) ** -133
        assert count() == 17 + 16 * (2 ** 3 - 1)

    @pytest.mark.parametrize("m", [0, 64])
    def test_result_must_be_positive(self, monkeypatch, m):
        # A negative bump, flat at both window ends, settles within a few
        # doublings; m = 0 takes the mapped rule (with u = s), m = 64 the plain
        # one (times u^64, which moves the bump's peak to about 14.6).  The
        # failure empties the memo that F(10) filled.
        def bump(x, wp, ce):
            with workprec(wp):
                value = (-mpmath.exp(-(mpmath.mp.make_mpf(x) - 10) ** 2))._mpf_
            return value if ce is None else (x, value)

        _F_raw(10, 64)
        assert zeta_core._node_memo is not None
        monkeypatch.setattr(zeta_core, "_node_factor", bump)
        monkeypatch.setattr(zeta_core, "_peak_window",
                            lambda f, n, u_peak, ce, tail: (0, 0, 32))
        with pytest.raises(PrecisionFailure, match="not positive"):
            _F_raw(m, 64)
        assert zeta_core._node_memo is None

    def test_monotone_growth(self):
        assert F_exact(10, 64).value < F_exact(12, 64).value

    def test_real_order_accepted(self):
        # The integral is defined for real n as well (asymptotics need it).
        v = F_exact(mpf("10.5"), 128).value
        assert F_exact(10, 128).value < v < F_exact(11, 128).value

    def test_domain(self):
        for n in (-1, mpf("nan"), mpf("inf"), float("nan"), float("inf")):
            with pytest.raises(DomainError):
                F_exact(n, 128)

    @pytest.mark.parametrize("n, w, wp", [
        (0, 0, 256), (0, 32, 256), (12, 0, 256), (12, 32 * math.comb(14, 2), 256),
        (78, 0, 552), (78, 32 * math.comb(80, 2), 552), (998, 0, 312),
        (998, 32 * math.comb(1000, 2), 312), (mpf("10.5"), 0, 168)])
    def test_integrand_matches_plain_formula(self, n, w, wp):
        # The raw-libmp kernel against u^n e^(u/4) theta0(e^u) (w - u^2) built
        # from mpf objects at wp + 64, theta0 summed one exp per term.  Rounding
        # e^u moves theta0(e^u) by pi e^u times its relative error, hence the
        # pi e^u factor in the tolerance.
        def theta_sum(t):
            first = mpmath.exp(-mpmath.pi * t)
            total, k = first, 2
            while True:
                term = mpmath.exp(-mpmath.pi * k * k * t)
                if term < first * mpf(2) ** -(wp + 64):
                    return total
                total += term
                k += 1

        g = _make_integrand(n, wp, w)
        j, k_lo, k_hi = _peak_window(g, n, zeta_core._rule(n, wp)[0], None, wp)
        with workprec(wp):
            u_lo, u_hi = mpmath.ldexp(k_lo, -j), mpmath.ldexp(k_hi, -j)
            for i in range(20):
                u = u_lo + (u_hi - u_lo) * (2 * i + 1) / 40
                value = mpmath.mp.make_mpf(g(u._mpf_))
                with workprec(wp + 64):
                    plain = u ** n * mpmath.exp(u / 4) * theta_sum(mpmath.exp(u))
                    if w:
                        plain *= w - u * u
                    bound = max(1, mpmath.pi * mpmath.exp(u)) * mpf(2) ** -(wp - 8)
                    assert abs(value - plain) <= abs(plain) * bound, (n, w, u)


class TestGammaExact:
    def test_frozen_oracles(self):
        g10 = gamma_exact(10, 128).value
        g100 = gamma_exact(100, 128).value
        assert rel_close(g10, "1.63233804903014e-17", 45)
        assert rel_close(g100, "6.57772637858207e-205", 45)

    def test_positive_and_tiny(self):
        g = gamma_exact(25, 64).value
        assert 0 < g < 1

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_exact(0, 128)
        with pytest.raises(DomainError):
            gamma_exact(2.5, 128)
        with pytest.raises(ValueError):
            gamma_exact(5, 32)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 5000, 20000])
    def test_denominator_rounds_exact_integer(self, n):
        exact = math.factorial(2 * n) // math.factorial(n) << (2 * n - 1)
        for prec in (96, 556):
            with workprec(prec):
                assert zeta_core._gamma_denominator(n, prec)._mpf_ == mpf(exact)._mpf_

    def test_precision_ladder_stable(self):
        lo = gamma_exact(40, 128).value
        hi = gamma_exact(40, 256).value
        assert rel_close(lo, hi, 120)

    @pytest.mark.parametrize("n, guard", [(2, 64), (10, 256), (32, 512)])
    def test_independent_taylor_series_oracle(self, n, guard):
        # No theta integral: the Taylor series of pi^(-s/2) Gamma(s/2) zeta(s)
        # at s = 1/2 + z.  The product cancels about log2(4^n n!/gamma(n)) bits
        # (zeta and Gamma have poles at distance 1/2), hence the guard bits.
        prec = 128
        with workprec(prec + guard):
            top, quarter, log_pi = 2 * n, mpf(1) / 4, mpmath.log(mpmath.pi)
            zeta_c = [mpmath.zeta(mpf(1) / 2, derivative=k) / math.factorial(k)
                      for k in range(top + 1)]
            # log(pi^(-s/2) Gamma(s/2)) = sum_k c_k z^k
            log_c = [-log_pi / 4 + mpmath.loggamma(quarter),
                     (mpmath.psi(0, quarter) - log_pi) / 2]
            log_c += [mpmath.psi(k - 1, quarter) / (2 ** k * math.factorial(k))
                      for k in range(2, top + 1)]
            # exp of the series: k e_k = sum_{j=1..k} j c_j e_(k-j)
            exp_c = [mpmath.exp(log_c[0])]
            for k in range(1, top + 1):
                exp_c.append(sum(j * log_c[j] * exp_c[k - j]
                                 for j in range(1, k + 1)) / k)
            lam = [sum(exp_c[j] * zeta_c[k - j] for j in range(k + 1))
                   for k in range(top + 1)]
            oracle = math.factorial(n) * (4 * lam[top - 2] - lam[top])
        assert rel_close(gamma_exact(n, prec).value, oracle, prec - 16)

    @pytest.mark.parametrize("n", [1, 12, 33, 100])
    def test_two_integral_formula(self, n):
        # The paper's form (n!/(2n)!) (32 C(2n,2) F(2n-2) - F(2n)) / 2^(2n-1):
        # n = 1 and 12 take the mapped rule, 33 and 100 the plain one.
        with workprec(224):
            f_lo = F_exact(2 * n - 2, 224).value
            f_hi = F_exact(2 * n, 224).value
            ref = (32 * math.comb(2 * n, 2) * f_lo - f_hi) * math.factorial(n) \
                / (math.factorial(2 * n) * mpf(2) ** (2 * n - 1))
        assert rel_close(gamma_exact(n, 192).value, ref, 176)

    def test_one_quadrature_per_value(self, monkeypatch):
        # A precision no other test uses, so no earlier value can be reused.
        calls = []
        rule = zeta_core._F_raw

        def record(m, *rest):
            calls.append(m)
            return rule(m, *rest)

        monkeypatch.setattr(zeta_core, "_F_raw", record)
        gamma_exact(12, 136)
        gamma_exact(40, 136)
        assert calls == [22, 78]

    @pytest.mark.parametrize("n, prec", [(12, 512), (40, 512), (105, 272)])
    def test_bits_do_not_depend_on_the_memo(self, monkeypatch, n, prec):
        # gamma(n) keeps every bit whether the node memo is empty or holds the
        # nodes of a neighbour or of a value at another precision; 12 and 40
        # take the mapped rule at 512 bits, 105 the plain one at 272.
        count = theta0_counter(monkeypatch)
        alone = gamma_exact(n, prec).value._mpf_
        cost_alone = count()
        for before, before_prec in [(n - 1, prec), (n + 1, prec), (n, prec - 64)]:
            zeta_core._node_memo = None
            gamma_exact(before, before_prec)
            start = count()
            assert gamma_exact(n, prec).value._mpf_ == alone
            if before_prec == prec:  # a neighbour's nodes are reused
                assert count() - start < cost_alone / 2

    @pytest.mark.parametrize("n", [12, 40])
    def test_isolated_value_cost(self, monkeypatch, n):
        # Counted theta0 evaluations with an empty memo, independent of the
        # machine: before the square-law clause gamma(12) and gamma(40) at
        # 512 bits took 993 and 1,025.
        monkeypatch.setattr(zeta_core, "_node_memo", None)
        count = theta0_counter(monkeypatch)
        gamma_exact(n, 512)
        assert count() < 700

    @pytest.mark.parametrize("n, prec", [(12, 512), (1000, 512), (100, 312), (1000, 312)])
    def test_contract_against_more_bits(self, n, prec):
        # BigReal's contract, 64 bits up.  (12, 512), (100, 312) and
        # (1000, 312) stop one level early under the square-law clause.
        assert rel_close(gamma_exact(n, prec).value, gamma_exact(n, prec + 64).value, prec - 16)

    @pytest.mark.parametrize("ns, prec, bound", [(range(7, 16), 272, 2000),
                                                 (range(100, 112), 272, 2000),
                                                 (range(160, 173), 312, 600)],
                             ids=["ns0", "ns1", "ns2"])
    def test_neighbours_share_nodes(self, monkeypatch, ns, prec, bound):
        # Counted theta0 evaluations, independent of the machine: without
        # shared nodes the 272-bit blocks took 5,865 and 4,920.  In the 312-bit
        # block gamma(166) and gamma(170) need the level their early-accepted
        # neighbours stopped short of (773 while the memo dropped it).
        count = theta0_counter(monkeypatch)
        for n in ns:
            gamma_exact(n, prec)
        assert count() < bound

    @pytest.mark.parametrize("n", [33, 40])
    def test_1024_bit_rung(self, n):
        # Near m = 64 at 1024 bits the plain trapezoid did not settle (n = 33)
        # or needed some 426k integrand evaluations (n = 40).
        top = gamma_exact(n, 1024).value
        assert rel_close(top, gamma_exact(n, 512).value, 496)


class TestLambdaDeriv:
    def test_odd_rejected_even_required(self):
        with pytest.raises(DomainError):
            lambda_deriv(3, 128)
        with pytest.raises(DomainError):
            lambda_deriv(0, 128)

    def test_or_zero_convention(self):
        z = lambda_deriv_or_zero(7, 128)
        assert z.value == 0

    def test_or_zero_validates_prec_for_odd_n(self):
        # The odd-n shortcut checks its precision like the even path does.
        for n in (3, 4):
            with pytest.raises(DomainError, match="prec must be an integer"):
                lambda_deriv_or_zero(n, 100.5)
        with pytest.raises(DomainError, match="prec must be an integer"):
            lambda_deriv_or_zero(3, 10)

    def test_consistency_with_gamma(self):
        # gamma(n) = (n!/(2n)!) (8n(2n-1) D(2n-2) - D(2n)) with D(k) the k-th
        # derivative at 1/2 -- an algebraic rearrangement that must agree
        # with the direct gamma_exact route.
        # The combination re-cancels ~80 bits (the derivative values are
        # dominated by the factorial constant), so pad the inputs well past
        # the comparison precision.
        prec = 192
        for n in (2, 4, 9):
            with workprec(prec + 192):
                d_lo = lambda_deriv(2 * n - 2, prec + 192).value
                d_hi = lambda_deriv(2 * n, prec + 192).value
                combo = (
                    mpf(math.factorial(n))
                    / math.factorial(2 * n)
                    * (8 * n * (2 * n - 1) * d_lo - d_hi)
                )
                direct = gamma_exact(n, prec).value
            assert rel_close(combo, direct, prec - 24)
