"""Sequence providers and the persistent value cache.

This module gives every sequence the suite studies a uniform face —
``SequenceProvider`` — carrying a positive-value accessor at arbitrary
precision, the exact rational value when there is one, and the growth
parameters (A(n), delta(n)) used by the renormalization step:

* ``zeta_gamma_provider``: Taylor coefficients of the completed zeta
  function, backed by a decimal value cache (they are expensive), on disk
  or in memory.
* ``partition_provider``: exact p(n) via Euler's pentagonal recurrence.
* ``load_sequence``: user-supplied (n, value) files in CSV or JSON, held as
  exact rationals.

The cache is a line-oriented text file, one record per line:

    n=<int> prec=<int> src=<tag> val=<sign><digits>e<exp>

where the value is an integer mantissa scaled by a power of ten, carrying
enough digits that parsing it back at ``prec`` bits is bit-exact.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mpf, workprec
from mpmath.libmp import from_rational, round_nearest

from .asymptotics import AsymParams, partition_params, zeta_params
from .zeta_core import MIN_PREC, BigReal, DomainError, gamma_exact

__all__ = [
    "CacheError",
    "CacheFormatError",
    "CacheRecord",
    "FitResult",
    "GammaCache",
    "SequenceDataError",
    "SequenceProvider",
    "decimal_mantissa",
    "fit_growth_params",
    "load_sequence",
    "partition",
    "partition_provider",
    "render_record",
    "parse_record",
    "zeta_gamma_provider",
]


class CacheError(OSError):
    """Cache file could not be read or written."""


class CacheFormatError(ValueError):
    """A cache line failed to parse; reported with file path and line number."""


class SequenceDataError(ValueError):
    """A sequence file violated the contiguity or positivity contract."""


# ---------------------------------------------------------------------------
# Exact decimal codec
# ---------------------------------------------------------------------------


def _sig_digits_for(prec: int) -> int:
    """Decimal digits that guarantee a bit-exact round trip at ``prec`` bits.

    prec * log10(2) digits identify the value; +8 guard digits make the
    decimal-to-binary correctly-rounded parse land on the original bits.
    """
    return (prec * 30103 + 99999) // 100000 + 8


def _round_div(a: int, b: int) -> int:
    """round(a / b) for integers, b > 0, ties away from zero."""
    if a >= 0:
        return (2 * a + b) // (2 * b)
    return -((-2 * a + b) // (2 * b))


def _trunc_div(a: int, b: int) -> int:
    """a / b truncated toward zero, b > 0."""
    if a >= 0:
        return a // b
    return -((-a) // b)


def decimal_mantissa(x: mpf, digits: int, mode: str = "round") -> Tuple[str, str, int]:
    """Render ``x`` as (sign, mantissa-digits, exponent-of-ten).

    The triple means ``int(mantissa) * 10**exponent`` ~ x, correct to within
    half a unit in the last mantissa digit (``mode="round"``) or truncated
    toward zero (``mode="trunc"``, matching printed-table digit conventions).
    Exact for x = 0 (returns ("+", "0", 0)).
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    if mode not in ("round", "trunc"):
        raise ValueError(f"mode must be 'round' or 'trunc', got {mode!r}")
    if x == 0:
        return "+", "0", 0
    sign_bit, man, exp, bc = x._mpf_
    man = int(man)  # gmpy2 mpz -> int for uniform bigint arithmetic
    sign = "-" if sign_bit else "+"
    div = _round_div if mode == "round" else _trunc_div
    # x = man * 2^exp with man in [2^(bc-1), 2^bc); choose k with
    # man * 2^exp * 10^k in [10^(digits-1), 10^digits).
    t = bc + exp  # 2^(t-1) <= |x| < 2^t
    k = digits - 1 - ((t - 1) * 30103) // 100000
    for _ in range(3):  # the log10 estimate is off by at most one
        num = man * (10**k if k >= 0 else 1)
        den = 1 if k >= 0 else 10**-k
        if exp >= 0:
            num <<= exp
        else:
            den <<= -exp
        m = div(num, den)
        if m >= 10**digits:
            k -= 1
        elif m < 10 ** (digits - 1):
            k += 1
        else:
            return sign, str(m), -k
    raise ArithmeticError(f"decimal rendering did not settle for {x!r}")


# ---------------------------------------------------------------------------
# Cache records
# ---------------------------------------------------------------------------

_SOURCES = ("exact",)

_DECIMAL = r"[+-]\d+e-?\d+"
_RECORD_RE = re.compile(rf"^n=(\d+) prec=(\d+) src=([a-z_]+) val=({_DECIMAL})$")


@dataclass(frozen=True)
class CacheRecord:
    """One cached sequence value: index, decimal rendering, precision, origin."""

    n: int
    prec_bits: int
    source: str
    decimal_value: str  # "<sign><digits>e<exp>"

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"CacheRecord.n must be >= 0, got {self.n}")
        if self.prec_bits < MIN_PREC:
            raise ValueError(
                f"CacheRecord.prec_bits must be >= {MIN_PREC}, got {self.prec_bits}"
            )
        if self.source not in _SOURCES:
            raise ValueError(f"CacheRecord.source must be one of {_SOURCES}")
        if not re.fullmatch(_DECIMAL, self.decimal_value):
            raise ValueError(f"malformed decimal_value {self.decimal_value!r}")

    def to_mpf(self, prec: Optional[int] = None) -> mpf:
        """The stored decimal at ``prec`` bits (default: its own precision)."""
        with workprec(prec if prec is not None else self.prec_bits):
            return mpf(self.decimal_value)

    @staticmethod
    def from_value(n: int, value: mpf, prec_bits: int, source: str) -> "CacheRecord":
        sign, digits, exp10 = decimal_mantissa(value, _sig_digits_for(prec_bits))
        return CacheRecord(n=n, prec_bits=prec_bits, source=source,
                           decimal_value=f"{sign}{digits}e{exp10}")


def render_record(record: CacheRecord) -> str:
    """One cache line (no trailing newline)."""
    return (f"n={record.n} prec={record.prec_bits} "
            f"src={record.source} val={record.decimal_value}")


def parse_record(line: str, path: str = "<memory>", lineno: int = 0) -> CacheRecord:
    """Parse one cache line; raise :class:`CacheFormatError` with location on failure."""
    m = _RECORD_RE.match(line.rstrip("\n"))
    if m is None:
        raise CacheFormatError(
            f"{path}:{lineno}: unparseable cache record: {line.rstrip()!r}"
        )
    try:
        return CacheRecord(n=int(m.group(1)), prec_bits=int(m.group(2)),
                           source=m.group(3), decimal_value=m.group(4))
    except ValueError as exc:
        raise CacheFormatError(f"{path}:{lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------


class GammaCache:
    """Append-only decimal cache for expensive sequence values.

    Concurrency contract: many readers may load the file; all writes go
    through one owning process.  ``put`` appends a single line and flushes;
    ``compact``/``clear`` rewrite atomically via a temp file + rename.
    With ``cache_dir=None`` the records live in memory only.
    """

    FILENAME = "zeta_gamma.cache"

    def __init__(self, cache_dir: Optional[Union[str, os.PathLike]]) -> None:
        self.dir = Path(cache_dir) if cache_dir is not None else None
        self.path = self.dir / self.FILENAME if self.dir is not None else None
        self._records: Dict[int, List[CacheRecord]] = {}
        self._loaded = False
        self._torn = False
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # -- loading ------------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._records = {}
        if self.path is not None and self.path.exists():
            try:
                text = self.path.read_text(encoding="ascii")
            except OSError as exc:
                raise CacheError(f"cannot read cache file {self.path}: {exc}") from exc
            lines = text.splitlines()
            # A writer that died mid-append leaves an unterminated last line:
            # drop it here; the next put rewrites the file without it.
            self._torn = bool(text) and not text.endswith("\n")
            if self._torn:
                lines.pop()
            for i, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                rec = parse_record(line, path=str(self.path), lineno=i)
                self._records.setdefault(rec.n, []).append(rec)
        self._loaded = True

    # -- queries ------------------------------------------------------------

    def get(self, n: int, prec: int) -> Optional[BigReal]:
        """Serve n at ``prec`` bits from any stored record with prec_bits >= prec.

        The stored decimal is re-parsed at the requested precision (decimal
        parsing is correctly rounded, so down-conversion is deterministic).
        Picks the tightest adequate record for reproducibility.
        """
        with self._lock:
            self._ensure_loaded()
            candidates = [r for r in self._records.get(n, ()) if r.prec_bits >= prec]
            if not candidates:
                self.misses += 1
                return None
            best = min(candidates, key=lambda r: r.prec_bits)
            self.hits += 1
        return BigReal(best.to_mpf(prec), prec)

    def entries(self) -> List[CacheRecord]:
        with self._lock:
            self._ensure_loaded()
            out: List[CacheRecord] = []
            for n in sorted(self._records):
                out.extend(self._records[n])
            return out

    # -- writes -------------------------------------------------------------

    def put(self, record: CacheRecord) -> None:
        """Append one record (single-writer contract; line write + flush)."""
        with self._lock:
            self._ensure_loaded()
            known = self._records.setdefault(record.n, [])
            if record in known:
                return
            known.append(record)
            if self.path is None:
                return
            if self._torn:
                self.compact()
                return
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="ascii") as fh:
                    fh.write(render_record(record) + "\n")
                    fh.flush()
            except OSError as exc:
                raise CacheError(f"cannot append to cache file {self.path}: {exc}") from exc

    def put_value(self, n: int, value: BigReal, source: str = "exact") -> CacheRecord:
        rec = CacheRecord.from_value(n, value.value, value.prec_bits, source)
        self.put(rec)
        return rec

    def compact(self) -> None:
        """Rewrite the file deduplicated and sorted (atomic rename)."""
        with self._lock:
            self._ensure_loaded()
            if self.path is None:
                return
            tmp = self.path.with_suffix(".tmp")
            try:
                self.dir.mkdir(parents=True, exist_ok=True)
                with open(tmp, "w", encoding="ascii") as fh:
                    for n in sorted(self._records):
                        for rec in self._records[n]:
                            fh.write(render_record(rec) + "\n")
                os.replace(tmp, self.path)
            except OSError as exc:
                raise CacheError(f"cannot rewrite cache file {self.path}: {exc}") from exc
            self._torn = False

    def clear(self) -> None:
        with self._lock:
            self._records = {}
            self._loaded = True
            self._torn = False
            try:
                if self.path is not None and self.path.exists():
                    self.path.unlink()
            except OSError as exc:
                raise CacheError(f"cannot remove cache file {self.path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceProvider:
    """Uniform accessor for a positive sequence plus its growth parameters.

    ``value_at(n, prec)`` returns the value as a BigReal; ``exact_at`` (when
    present) returns the exact rational value (an int or a Fraction) and
    enables the exact-rational certification path.  ``params`` carries the
    (A, delta) formulas used by renormalization, or None when unknown (user
    files without parameters).  ``first_n`` is the least index the sequence
    is defined at.
    ``cache`` is the value cache behind ``value_at``, when there is one.
    """

    value_at: Callable[[int, int], BigReal]
    exact_at: Optional[Callable[[int], Union[int, Fraction]]]
    params: Optional[AsymParams]
    label: str
    first_n: int
    cache: Optional[GammaCache] = None


# -- partition numbers ------------------------------------------------------

_PARTITIONS: List[int] = [1]  # p(0) = 1; grown on demand, guarded by a lock
_PARTITIONS_LOCK = threading.Lock()


def partition(n: int) -> int:
    """Exact partition number p(n) by Euler's pentagonal-number recurrence.

    p(n) = sum_{k>=1} (-1)^(k-1) [ p(n - k(3k-1)/2) + p(n - k(3k+1)/2) ].
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"partition requires an integer n >= 0, got {n!r}")
    with _PARTITIONS_LOCK:
        while len(_PARTITIONS) <= n:
            m = len(_PARTITIONS)
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                if g1 > m:
                    break
                sign = 1 if k % 2 == 1 else -1
                total += sign * _PARTITIONS[m - g1]
                g2 = k * (3 * k + 1) // 2
                if g2 <= m:
                    total += sign * _PARTITIONS[m - g2]
                k += 1
            _PARTITIONS.append(total)
        return _PARTITIONS[n]


def _rounded(q: Union[int, Fraction], prec: int) -> BigReal:
    """The exact rational ``q`` rounded once, to nearest, at ``prec`` bits."""
    with workprec(prec):
        value = mpf(from_rational(q.numerator, q.denominator, prec, round_nearest))
    return BigReal(value, prec)


def partition_provider() -> SequenceProvider:
    """Provider for p(n): exact integers plus the two-term growth parameters."""
    return SequenceProvider(
        value_at=lambda n, prec: _rounded(partition(n), prec),
        exact_at=partition,
        params=partition_params(),
        label="partition",
        first_n=0,
    )


# -- zeta Taylor coefficients -----------------------------------------------


def zeta_gamma_provider(
    cache_dir: Optional[Union[str, os.PathLike]] = None,
) -> SequenceProvider:
    """Provider for the xi Taylor coefficients gamma(n), cache-backed.

    ``value_at`` consults the cache first, computes via
    :func:`jensenpoly.zeta_core.gamma_exact` on a miss, and stores the result.
    With ``cache_dir=None`` the cache lives in memory for the provider's
    lifetime.
    """
    cache = GammaCache(cache_dir)

    def value_at(n: int, prec: int) -> BigReal:
        hit = cache.get(n, prec)
        if hit is not None:
            return hit
        value = gamma_exact(n, prec)
        cache.put_value(n, value, source="exact")
        return value

    return SequenceProvider(
        value_at=value_at,
        exact_at=None,
        params=zeta_params(),
        label="zeta-gamma",
        first_n=1,
        cache=cache,
    )


# -- user-supplied sequences --------------------------------------------------


def _read_pairs_csv(path: Path) -> List[Tuple[int, str]]:
    import csv as _csv

    pairs: List[Tuple[int, str]] = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(_csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 2:
                raise SequenceDataError(
                    f"{path}:{i}: expected two columns (n,value), got {len(row)}"
                )
            a, b = row[0].strip(), row[1].strip()
            if i == 1 and not a.lstrip("+-").isdigit():
                continue  # header row
            try:
                pairs.append((int(a), b))
            except ValueError as exc:
                raise SequenceDataError(f"{path}:{i}: bad index {a!r}") from exc
    return pairs


def _read_pairs_json(path: Path) -> List[Tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise SequenceDataError(f"{path}: expected a JSON array of [n, value] pairs")
    pairs: List[Tuple[int, str]] = []
    for i, item in enumerate(data):
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise SequenceDataError(f"{path}: element {i} is not an [n, value] pair")
        n, v = item
        if not isinstance(n, int):
            raise SequenceDataError(f"{path}: element {i} has non-integer index {n!r}")
        pairs.append((n, repr(v) if isinstance(v, (int, float)) else str(v)))
    return pairs


def load_sequence(
    path: Union[str, os.PathLike],
    fmt: str = "csv",
    params: Optional[AsymParams] = None,
) -> SequenceProvider:
    """Load a positive sequence from a file of (n, value) records.

    Indices must be contiguous from the smallest supplied n; every value must
    be positive.  Each value is parsed once into an exact rational, which
    ``exact_at`` returns.  ``params`` (growth data for renormalization) may
    be supplied by the caller, e.g. from
    :func:`jensenpoly.asymptotics.modular_params`.
    """
    p = Path(path)
    if fmt == "csv":
        pairs = _read_pairs_csv(p)
    elif fmt == "json":
        pairs = _read_pairs_json(p)
    else:
        raise ValueError(f"fmt must be 'csv' or 'json', got {fmt!r}")
    if not pairs:
        raise SequenceDataError(f"{p}: no records")

    pairs.sort(key=lambda t: t[0])
    n0 = pairs[0][0]
    values: Dict[int, Fraction] = {}
    for offset, (n, text) in enumerate(pairs):
        if n != n0 + offset:
            raise SequenceDataError(
                f"{p}: index gap — expected n={n0 + offset}, found n={n}"
            )
        try:
            values[n] = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise SequenceDataError(f"{p}: unparseable value at n={n}: {text!r}") from exc
        if values[n] <= 0:
            raise SequenceDataError(
                f"{p}: non-positive value at n={n}: {text} (sequence must be positive)"
            )
    n_hi = n0 + len(pairs) - 1

    def exact_at(n: int) -> Fraction:
        if n not in values:
            raise DomainError(f"sequence defined on [{n0}, {n_hi}], got n={n}")
        return values[n]

    return SequenceProvider(
        value_at=lambda n, prec: _rounded(exact_at(n), prec),
        exact_at=exact_at,
        params=params,
        label=p.name,
        first_n=n0,
    )


# ---------------------------------------------------------------------------
# Growth-parameter fit (diagnostics for user sequences)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of log(alpha(n+j)/alpha(n)) ~ A j - delta^2 j^2.

    Diagnostics only: a fit proves nothing about the sequence's asymptotics.
    ``hypotheses_evident`` is False when the fitted delta^2 is not positive.
    """

    A: float
    delta_sq: float
    delta: Optional[float]
    rms_residual: float
    hypotheses_evident: bool


def fit_growth_params(
    seq: SequenceProvider, n: int, prec: int = 128, j_max: int = 8
) -> FitResult:
    """Fit empirical (A, delta) at shift n from the next ``j_max`` ratios."""
    if j_max < 2:
        raise ValueError("need at least two ratio points to fit two parameters")
    with workprec(prec + 16):
        base = seq.value_at(n, prec + 16).value
        ys = [mpmath.log(seq.value_at(n + j, prec + 16).value / base)
              for j in range(1, j_max + 1)]
        design = mpmath.matrix([[j, -j * j] for j in range(1, j_max + 1)])
        coef, resid_norm = mpmath.qr_solve(design, mpmath.matrix(ys))
        a_fit, delta_sq = float(coef[0]), float(coef[1])
        rms = float(resid_norm / mpmath.sqrt(j_max))
    positive = delta_sq > 0
    return FitResult(
        A=a_fit,
        delta_sq=delta_sq,
        delta=float(delta_sq**0.5) if positive else None,
        rms_residual=rms,
        hypotheses_evident=positive,
    )
