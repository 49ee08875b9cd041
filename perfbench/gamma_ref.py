"""Independent reference values of gamma(n), the xi Taylor coefficients.

This route shares no code with ``jensenpoly``.  With u = log t it evaluates
one integral per value,

    gamma(n) = n! / ((2n)! 2^(2n-1))
               * int_0^oo u^(2n-2) (32 C(2n,2) - u^2) e^(u/4) theta0(e^u) du,

which merges the two F integrals of the program's formula, so nothing
cancels.  theta0(t) = sum_{k>=1} exp(-pi k^2 t) is summed term by term
(``jtheta(3, 0, q)`` would lose every digit to the "- 1" once t is large).
``mpmath.quad`` runs on breakpoints placed every three widths of the bump
around its maximum u0, the root of (2n-2)/u + 1/4 = pi e^u, out to where the
integrand has fallen by 10^-(dps+20) from its peak.

Each value costs seconds, so the benchmark reads them from
``gamma_refs.json``.  Remake that file with

    python3 perfbench/gamma_ref.py

(about two minutes on two cores).
"""

from __future__ import annotations

import json
import math
import sys
from multiprocessing import get_context
from pathlib import Path

import mpmath
from mpmath import mp, mpf

REF_FILE = Path(__file__).with_name("gamma_refs.json")
DPS = 45
DIGITS = 30
REMAKE_COMMAND = "python3 perfbench/gamma_ref.py"


def theta0(t: mpf) -> mpf:
    """sum_{k>=1} exp(-pi k^2 t), summed until a term drops below the working precision."""
    first = mpmath.exp(-mp.pi * t)
    eps = first * mpf(10) ** (-(mp.dps + 10))
    total, k = first, 2
    while True:
        term = mpmath.exp(-mp.pi * k * k * t)
        if term < eps:
            return total
        total += term
        k += 1


def gamma_reference(n: int, dps: int = DPS) -> mpf:
    """gamma(n) to about ``dps`` significant digits."""
    if n < 1:
        raise ValueError(f"gamma_reference needs n >= 1, got {n}")
    with mp.workdps(dps + 15):
        m = 2 * n - 2
        weight = 32 * math.comb(2 * n, 2)

        def log_bump(u):  # log of the integrand's leading factor
            return (m * mpmath.log(u) if m else 0) + u / 4 - mp.pi * mpmath.exp(u)

        if m:
            u0 = mpmath.findroot(lambda u: m / u + mpf(1) / 4 - mp.pi * mpmath.exp(u),
                                 mpmath.log(m / mp.pi + 1) + mpf("0.5"))
            width = 1 / mpmath.sqrt(m / u0**2 + mp.pi * mpmath.exp(u0))
        else:
            u0 = mpf(0)
            width = mpf("0.25")
        step = 3 * width
        drop = (dps + 20) * mpmath.log(10)
        top = log_bump(max(u0, mpf("1e-9")))
        points = [u0]
        while points[0] > 0 and top - log_bump(points[0]) < drop:
            points.insert(0, max(points[0] - step, mpf(0)))
        while top - log_bump(points[-1]) < drop:
            points.append(points[-1] + step)

        def integrand(u):
            power = u**m if m else mpf(1)
            return power * (weight - u * u) * mpmath.exp(u / 4) * theta0(mpmath.exp(u))

        integral = mp.quad(integrand, points)
        prefactor = mpf(math.factorial(n)) / math.factorial(2 * n) / mpf(2) ** (2 * n - 1)
        return +(prefactor * integral)


def _reference_string(n: int) -> str:
    return mpmath.nstr(gamma_reference(n), DIGITS, min_fixed=1, max_fixed=0)


def load_references() -> dict:
    """{n: mpf} from the stored file."""
    data = json.loads(REF_FILE.read_text())
    with mp.workdps(DIGITS + 10):
        return {int(n): mpf(v) for n, v in data["values"].items()}


def write_references(indices, processes: int = 2) -> None:
    with get_context("spawn").Pool(processes) as pool:
        values = pool.map(_reference_string, indices)
    payload = {
        "description": "gamma(n) by the independent theta-integral quadrature in gamma_ref.py",
        "command": REMAKE_COMMAND,
        "dps": DPS,
        "digits": DIGITS,
        "values": {str(n): v for n, v in zip(indices, values)},
    }
    REF_FILE.write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import reference_indices

    write_references(reference_indices())
