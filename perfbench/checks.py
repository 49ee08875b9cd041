"""Correctness checks on the CLI's outputs, made apart from the program.

Each check returns a list of error strings (empty when the output is right)
and, where it reads CLI output, the number of operations that failed: a
missing row or an ``indeterminate`` verdict.  Wrong output is an error, not
a failure.  The references are

* the paper's table digits for gamma(10), gamma(100), gamma(1000);
* ``gamma_refs.json``, made by the independent quadrature in ``gamma_ref.py``;
* real-root counts by sympy's Sturm sequences on exact polynomials;
* the published thresholds N(2..5), and p(n) from the Hardy-Ramanujan-
  Rademacher series evaluated here (sympy's own ``partition`` runs the same
  pentagonal recurrence as the program below n = 14,400).
"""

from __future__ import annotations

import csv
import functools
import io
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import mpmath
import sympy
from mpmath import mp, mpf

PAPER_GAMMA = {10: "1.6323380490e-17", 100: "6.5777263785e-205", 1000: "3.8760340890e-2567"}
PUBLISHED_N = {2: 25, 3: 94, 4: 206, 5: 381}
GAMMA_REL_TOL = mpf("1e-11")  # "agree to at least 11 significant digits"
_X = sympy.Symbol("X")


def _rows(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _sci_trunc(x: mpf, sig: int = 11) -> str:
    """x as d.ddddddddddde<exp>, truncated to ``sig`` significant digits."""
    with mp.workdps(sig + 30):
        exp10 = int(mpmath.floor(mpmath.log10(x)))
        mant = int(mpmath.floor(x / mpf(10) ** (exp10 - sig + 1)))
        if mant >= 10**sig:  # log10 rounded up across a power of ten
            exp10 += 1
            mant = int(mpmath.floor(x / mpf(10) ** (exp10 - sig + 1)))
    digits = str(mant)
    return f"{digits[0]}.{digits[1:]}e{exp10}"


# -- zeta sweeps --------------------------------------------------------------


def check_sweep_output(text: str, d_values: Sequence[int],
                       n_values: Sequence[int]) -> Tuple[int, List[str]]:
    """Every (d, n) row is present and ``hyperbolic`` (proved for all d <= 8)."""
    errors: List[str] = []
    seen: Dict[Tuple[int, int], str] = {}
    for row in _rows(text):
        key = (int(row["d"]), int(row["n"]))
        if key in seen:
            errors.append(f"sweep: duplicate row d={key[0]} n={key[1]}")
        seen[key] = row["verdict"]
    failed = 0
    expected = {(d, n) for d in d_values for n in n_values}
    for key in sorted(expected):
        verdict = seen.get(key)
        if verdict is None or verdict == "indeterminate":
            failed += 1
        elif verdict != "hyperbolic":
            errors.append(f"sweep: d={key[0]} n={key[1]} reported {verdict!r}, "
                          "but J^(d,n) is hyperbolic for every d <= 8")
    extra = sorted(set(seen) - expected)
    if extra:
        errors.append(f"sweep: unexpected rows {extra[:3]}")
    return failed, errors


def check_gamma_value(n: int, value: mpf, refs: Dict[int, mpf]) -> List[str]:
    """A full-precision gamma(n) against the paper's digits and the stored reference."""
    errors: List[str] = []
    if n in PAPER_GAMMA and _sci_trunc(value) != PAPER_GAMMA[n]:
        errors.append(f"gamma({n}) = {_sci_trunc(value)}, paper has {PAPER_GAMMA[n]}")
    if n not in refs:
        errors.append(f"gamma({n}): no stored reference; remake gamma_refs.json")
    elif abs(value - refs[n]) > GAMMA_REL_TOL * refs[n]:
        errors.append(f"gamma({n}) = {mpmath.nstr(value, 15)} differs from the "
                      f"reference {mpmath.nstr(refs[n], 15)} beyond 1e-11")
    return errors


def check_gamma_output(text: str, ns: Sequence[int],
                       refs: Dict[int, mpf]) -> Tuple[int, List[str]]:
    """``gamma --exact`` rows: 11 truncated digits, each consistent with the reference."""
    errors: List[str] = []
    printed = {int(r["n"]): r["gamma"] for r in _rows(text)}
    failed = 0
    for n in sorted(set(ns)):
        shown = printed.get(n)
        if shown is None:
            failed += 1
            continue
        if n in PAPER_GAMMA and shown != PAPER_GAMMA[n]:
            errors.append(f"gamma({n}) printed {shown}, paper has {PAPER_GAMMA[n]}")
        if n not in refs:
            errors.append(f"gamma({n}): no stored reference; remake gamma_refs.json")
            continue
        with mp.workdps(40):
            low = mpf(shown)
            ulp = mpf(10) ** (int(shown.split("e")[1]) - 10)
            ref = refs[n]
            # truncated digits: low <= value < low + ulp, up to the reference's own error
            if not (low * (1 - mpf("1e-25")) <= ref < (low + ulp) * (1 + mpf("1e-25"))):
                errors.append(f"gamma({n}) printed {shown}, reference "
                              f"{mpmath.nstr(ref, 15)}")
    extra = sorted(set(printed) - set(ns))
    if extra:
        errors.append(f"gamma: unexpected rows {extra[:3]}")
    return failed, errors


def _real_rooted(coeffs: Sequence[int]) -> bool:
    """All roots real: the squarefree part has as many distinct real roots as its degree."""
    q = sympy.Poly(list(reversed(coeffs)), _X, domain="ZZ").sqf_part()
    return q.count_roots() == q.degree()


def dyadic(x: mpf) -> Fraction:
    """The exact rational value of a binary floating-point number."""
    sign, man, exp, _bc = x._mpf_
    value = Fraction(int(man)) * (Fraction(2) ** exp)
    return -value if sign else value


def check_root_counts(gamma: Dict[int, mpf], pairs: Iterable[Tuple[int, int]]) -> List[str]:
    """J^(d,n) built from the program's gamma values has d distinct real roots."""
    errors: List[str] = []
    for d, n in pairs:
        coeffs = [math.comb(d, j) * dyadic(gamma[n + j]) for j in range(d + 1)]
        scale = math.lcm(*(c.denominator for c in coeffs))
        ints = [int(c * scale) for c in coeffs]
        roots = sympy.Poly(list(reversed(ints)), _X, domain="ZZ").count_roots()
        if roots != d:
            errors.append(f"J^({d},{n}) from the program's gamma has {roots} real "
                          f"roots, expected {d}")
    return errors


# -- partition thresholds ----------------------------------------------------------


@functools.lru_cache(maxsize=None)
def partition_hrr(n: int) -> int:
    """p(n) from the Hardy-Ramanujan-Rademacher series.

    Uses the Selberg form of the Kloosterman-type sum,
    A_k(n) = sqrt(k/3) sum_{l mod 2k, (3l^2+l)/2 = -n mod k} (-1)^l cos((6l+1) pi / 6k),
    and 2 sqrt(n) + 10 terms, which keeps the truncation error far below 1/2.
    """
    if n < 0:
        return 0
    if n < 2:
        return 1
    digits = int(math.pi * math.sqrt(2 * n / 3) / math.log(10)) + 20
    with mp.workdps(digits):
        lam = mpmath.sqrt(mpf(n) - mpf(1) / 24)
        c = mp.pi * mpmath.sqrt(mpf(2) / 3)
        total = mpf(0)
        for k in range(1, 2 * math.isqrt(n) + 11):
            a_k = mpf(0)
            for l in range(2 * k):
                if ((3 * l * l + l) // 2 + n) % k == 0:
                    term = mpmath.cos(mp.pi * (6 * l + 1) / (6 * k))
                    a_k += -term if l % 2 else term
            if a_k == 0:
                continue
            a_k *= mpmath.sqrt(mpf(k) / 3)
            x = c * lam / k
            # d/dn [sinh(x) / lam] with x = c lam / k and dlam/dn = 1 / (2 lam)
            deriv = (c / k * mpmath.cosh(x) / lam - mpmath.sinh(x) / lam**2) / (2 * lam)
            total += a_k * mpmath.sqrt(k) * deriv
        value = total / (mp.pi * mpmath.sqrt(2))
        nearest = int(mpmath.nint(value))
        if abs(value - nearest) > mpf("0.1"):
            raise ArithmeticError(f"HRR series for p({n}) did not settle: {value}")
        return nearest


def _jensen_partition(d: int, n: int, p: Callable[[int], int]) -> List[int]:
    return [math.comb(d, j) * p(n + j) for j in range(d + 1)]


def check_find_n_output(text: str, d: int, n_max: int,
                        p: Callable[[int], int]) -> Tuple[int, List[str]]:
    """N(d): the published value for d <= 5, an exact boundary check otherwise.

    ``p`` gives the reference p(n): J^(d,N-1) must have a non-real root and
    J^(d,N) none.
    """
    rows = _rows(text)
    if len(rows) != 1 or rows[0].get("d") != str(d):
        return n_max + 1, []
    try:
        big_n = int(rows[0]["N"])
    except ValueError:
        return 0, [f"find-n {d}: unparseable N {rows[0]['N']!r}"]
    errors: List[str] = []
    last = rows[0]["last_failing"]
    if last != (str(big_n - 1) if big_n > 0 else ""):
        errors.append(f"find-n {d}: last_failing {last!r} does not sit below N={big_n}")
    if d in PUBLISHED_N:
        if big_n != PUBLISHED_N[d]:
            errors.append(f"find-n {d}: N={big_n}, published N({d})={PUBLISHED_N[d]}")
    elif not 1 <= big_n <= n_max:
        errors.append(f"find-n {d}: N={big_n} outside 1..{n_max}")
    else:
        if _real_rooted(_jensen_partition(d, big_n - 1, p)):
            errors.append(f"find-n {d}: J^({d},{big_n - 1}) is real-rooted, so N < {big_n}")
        if not _real_rooted(_jensen_partition(d, big_n, p)):
            errors.append(f"find-n {d}: J^({d},{big_n}) has a non-real root, so N > {big_n}")
    return 0, errors


def check_partition_values(program: Dict[int, int], reference: Dict[int, int]) -> List[str]:
    return [f"p({n}) = {program[n]}, Rademacher series gives {reference[n]}"
            for n in sorted(program) if program[n] != reference[n]]
