"""Saddle solver, two-term growth model, growth normalizations, Bessel I."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from jensenpoly.asymptotics import (
    AsymParams,
    C_of,
    F_hat,
    b1_of,
    bessel_I,
    gamma_hat,
    modular_params,
    partition_params,
    saddle_coeffs,
    solve_L,
    zeta_A_delta,
    zeta_params,
)
from jensenpoly.zeta_core import DomainError, F_exact, gamma_exact


def rel_close(a, b, bits: int) -> bool:
    with workprec(512):
        a = mpf(a) if isinstance(a, str) else a
        b = mpf(b) if isinstance(b, str) else b
        if b == 0:
            return abs(a) < mpf(2) ** (-bits)
        return abs(a - b) <= abs(b) * mpf(2) ** (-bits)


class TestSolveL:
    def test_defining_equation_residual(self):
        for n in (5, 100, 10_000):
            with workprec(256):
                L = solve_L(n, 224).value
                resid = n - L * (mpmath.pi * mpmath.exp(L) + mpf(3) / 4)
                assert abs(resid) < abs(n) * mpf(2) ** (-200)

    def test_bisection_oracle(self):
        # Frozen oracle: interval bisection on [0.1, 20], run independently.
        with workprec(256):
            lo, hi = mpf("0.1"), mpf("20")
            f = lambda L: 100 - L * (mpmath.pi * mpmath.exp(L) + mpf(3) / 4)
            for _ in range(200):
                mid = (lo + hi) / 2
                if f(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert rel_close(solve_L(100, 224).value, lo, 190)

    def test_monotone_in_n(self):
        assert solve_L(10, 64).value < solve_L(100, 64).value

    def test_domain(self):
        with pytest.raises(DomainError):
            solve_L(0, 128)
        with pytest.raises(DomainError):
            solve_L(-3, 128)


class TestGammaHat:
    def test_frozen_oracles(self):
        assert rel_close(gamma_hat(10, 192).value, "1.63133743944625e-17", 45)
        assert rel_close(gamma_hat(100, 192).value, "6.57764719040526e-205", 45)

    def test_ratio_tends_to_one(self):
        with workprec(256):
            r100 = gamma_exact(100, 192).value / gamma_hat(100, 192).value
            r1000 = gamma_exact(1000, 192).value / gamma_hat(1000, 192).value
            assert abs(r1000 - 1) < abs(r100 - 1) < mpf("2e-5")

    def test_f_hat_tracks_f(self):
        with workprec(192):
            ratio = F_hat(200, 160).value / F_exact(200, 160).value
            assert abs(ratio - 1) < mpf("1e-3")

    def test_b1_finite(self):
        L = solve_L(50, 128)
        assert mpmath.isfinite(b1_of(L).value)

    def test_b1_needs_explicit_prec(self):
        expected = b1_of(2.5, 128)
        with workprec(200):
            with pytest.raises(DomainError, match="prec"):
                b1_of(2.5)
            assert b1_of(2.5, 128) == expected
        with pytest.raises(DomainError, match="prec"):
            b1_of(solve_L(50, 128), 0)
        with workprec(256):
            assert rel_close(expected.value, mpf(1343) / 4116, 120)  # b1(5/2)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_hat(1, 128)


class TestSaddleCoeffs:
    def test_quartic_relation_consistency(self):
        # A_4's n-linear part must mirror A_3's pattern with the next weights;
        # spot-check stability across precisions instead of re-deriving:
        lo = [c.value for c in saddle_coeffs(30, 6, 128)]
        hi = [c.value for c in saddle_coeffs(30, 6, 256)]
        for a, b in zip(lo, hi):
            assert rel_close(a, b, 118)

    def test_domain(self):
        with pytest.raises(DomainError):
            saddle_coeffs(1, 6, 128)
        with pytest.raises(DomainError):
            saddle_coeffs(50, 7, 128)


class TestZetaGrowth:
    def test_minimum_shift(self):
        a7, d7 = zeta_A_delta(7, 128)
        assert d7.value > 0
        with pytest.raises(DomainError):
            zeta_A_delta(6, 128)

    def test_delta_decreasing(self):
        d_100 = zeta_A_delta(100, 128)[1].value
        d_1000 = zeta_A_delta(1000, 128)[1].value
        assert 0 < d_1000 < d_100

    def test_params_wiring(self):
        params = zeta_params()
        assert isinstance(params, AsymParams)
        assert params.n_min == 7
        a, d = zeta_A_delta(50, 160)
        assert rel_close(params.A_of_n(50, 160), a.value, 150)
        assert rel_close(params.delta_of_n(50, 160), d.value, 150)


class TestCof:
    def test_frozen_oracle(self):
        assert rel_close(C_of(10, 1, 128).value, "-0.440220847833051233", 55)

    def test_bounded_sample(self):
        for n, j in [(7, 8), (40, 3), (200, 8)]:
            c = C_of(n, j, 128).value
            assert abs(c) < mpf("14.25")

    def test_negative_through_mid_range(self):
        assert C_of(500, 8, 128).value < 0

    def test_domain(self):
        with pytest.raises(DomainError):
            C_of(6, 1, 128)
        with pytest.raises(DomainError):
            C_of(10, 0, 128)
        with pytest.raises(DomainError):
            C_of(10, 9, 128)

    def test_injectable_gamma(self):
        calls = []

        def fn(n, prec):
            calls.append(n)
            return gamma_exact(n, prec)

        C_of(12, 2, 128, gamma_fn=fn)
        assert sorted(calls) == [12, 14]


class TestBesselI:
    @pytest.mark.parametrize(
        "kappa,x",
        [
            (mpf("0.5"), mpf("2.5")),     # small argument
            (mpf("-0.5"), mpf("7")),      # small argument, negative order
            (3, mpf("0.03")),             # tiny argument
            (mpf("1.75"), mpf("120")),    # large argument
            (0, mpf("700")),              # very large argument
        ],
    )
    def test_against_library_oracle(self, kappa, x):
        mine = bessel_I(kappa, x, 160).value
        with workprec(260):
            ref = mpmath.besseli(mpf(kappa), mpf(x))
        assert rel_close(mine, ref, 150)

    @pytest.mark.parametrize("m,x,prec", [(7, mpf("1e-30"), 64), (3, mpf("1e-30"), 512)])
    def test_negative_integer_order_is_reflected(self, m, x, prec):
        # I_(-m) = I_m; summed around the Gamma poles at tiny x, mpmath's
        # besseli fails to converge (m=7) or takes tens of seconds (m=3).
        assert bessel_I(-m, x, prec).value == bessel_I(m, x, prec).value

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_I(1, 0, 128)


class TestModularGrowth:
    def test_partition_params_wiring(self):
        p2 = partition_params(order=2)
        assert p2.n_min == 3
        assert partition_params(order=1).n_min == 1
        with pytest.raises(DomainError):
            partition_params(order=3)

    @pytest.mark.parametrize(
        "m, weight, order",
        [
            ("1/24", "-1/2", 3),   # no third-order closed forms
            ("1/24", "-1/2", 0),
            (-1, 0, 1),            # m <= 0: A(n) would be complex
            (0, "-1/2", 1),
            ("1/12", "-1/2", 2),   # order 2 exists only for the partition case
            ("1/24", 0, 2),
            ("1/24", "1/2", 2),
            (1, "-1/2", 2),
            (1 / 24, "-1/2", 2),   # a float reads as its decimal 0.041666666666666664
        ],
    )
    def test_modular_params_rejected_at_construction(self, m, weight, order):
        with pytest.raises(DomainError):
            modular_params(m, weight, order=order)

    @pytest.mark.parametrize("decimal, exact", [(0.1, "1/10"), (0.5, Fraction(1, 2))])
    def test_float_m_means_its_decimal(self, decimal, exact):
        # A float goes through str(): 0.1 is 1/10, not the binary double.
        floats, exacts = modular_params(decimal, 0), modular_params(exact, 0)
        for n in (1, 50):
            assert floats.A_of_n(n, 128)._mpf_ == exacts.A_of_n(n, 128)._mpf_
            assert floats.delta_of_n(n, 128)._mpf_ == exacts.delta_of_n(n, 128)._mpf_

    def test_first_order_ignores_weight(self):
        params = [modular_params("1/12", w) for w in ("-1/2", 0, 12, 2.5)]
        for n in (1, 40):
            assert len({p.A_of_n(n, 128)._mpf_ for p in params}) == 1
            assert len({p.delta_of_n(n, 128)._mpf_ for p in params}) == 1

    @pytest.mark.parametrize("m, weight", [(Fraction(1, 24), -0.5), ("1/24", Fraction(-1, 2))])
    def test_second_order_reads_partition_parameters_in_any_form(self, m, weight):
        params = modular_params(m, weight, order=2)
        assert params.A_of_n(80, 160) == partition_params(order=2).A_of_n(80, 160)

    def test_growth_pair_solved_once_per_n_prec(self):
        from jensenpoly.asymptotics import _zeta_A_delta_raw

        params = zeta_params()
        _zeta_A_delta_raw.cache_clear()
        params.A_of_n(123, 200)
        params.delta_of_n(123, 200)
        info = _zeta_A_delta_raw.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_partition_is_modular_special_case(self):
        # p(n) comes from weight -1/2 with m = 1/24.
        generic = modular_params("1/24", "-1/2", order=2)
        p2 = partition_params(order=2)
        with workprec(192):
            assert p2.A_of_n(80, 160) == generic.A_of_n(80, 160)
            assert p2.delta_of_n(80, 160) == generic.delta_of_n(80, 160)

    def test_growth_model_matches_sequence(self):
        # Sanity: exp(A(n)) should track p(n+1)/p(n).
        from jensenpoly.sequences import partition

        p2 = partition_params(order=2)
        with workprec(128):
            n = 400
            model = mpmath.exp(p2.A_of_n(n, 96))
            actual = mpf(partition(n + 1)) / partition(n)
            assert abs(model / actual - 1) < mpf("0.01")
