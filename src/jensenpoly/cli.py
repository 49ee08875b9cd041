"""Command-line interface.

Subcommands
-----------
gamma      exact and asymptotic Taylor-coefficient values and their ratio
jensen     raw or renormalized Jensen polynomial coefficients
sweep      certified hyperbolicity sweep over (degree, shift) ranges
find-n     least shift threshold N(d) for the partition sequence
effective  degree-4 inequality template report (zeta sequence, n >= 100)
tables     reproduce the reference tables (gamma / jensen / N(d) groups)
cache      inspect or clear the persistent value cache

Global flags (accepted before or after the subcommand; the later wins):
``--prec <bits>``, ``--format table|csv|json``, ``--cache-dir <path>``,
``--jobs <k>``.  The cache directory may also come from the environment
variable ``JENSENPOLY_CACHE_DIR``.  ``--jobs`` is checked (k >= 1) but changes
nothing: every value is computed in this one process.

Exit codes: 0 success / all certified hyperbolic; 1 counterexample found;
2 indeterminate or precision failure; 3 usage error or unreadable cache.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

import mpmath
from mpmath import mpf, workprec

from . import __version__
from .asymptotics import gamma_hat
from .jensen import (
    D4_CHECK_NAMES,
    D4_MIN_N,
    DEFAULT_LADDER,
    Poly,
    RationalPoly,
    certify,
    effective_check_d4,
    find_N,
    jensen_poly,
    read_prec,
    renormalize,
)
from .sequences import (
    CacheError,
    CacheFormatError,
    GammaCache,
    decimal_mantissa,
    partition_provider,
    zeta_gamma_provider,
)
from .zeta_core import MIN_PREC, DomainError, PrecisionFailure

__all__ = ["main"]

ENV_CACHE_DIR = "JENSENPOLY_CACHE_DIR"

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 3."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# Formatting helpers (displayed digits are truncated, matching the reference
# tables, so repeated runs diff cleanly against them)
# ---------------------------------------------------------------------------


def _sci_trunc(x: mpf, sig: int) -> str:
    """Scientific notation with ``sig`` significant digits, truncated."""
    if x == 0:
        return "0." + "0" * (sig - 1) + "e0"
    sign, digits, exp10 = decimal_mantissa(x, sig, mode="trunc")
    e = exp10 + len(digits) - 1
    body = digits[0] + "." + digits[1:] if len(digits) > 1 else digits[0]
    return f"{'-' if sign == '-' else ''}{body}e{e}"


def _fixed_trunc(x: mpf, places: int) -> str:
    """Fixed-point with ``places`` decimals, truncated toward zero."""
    sign_bit, man, exp, _bc = x._mpf_
    man = int(man)
    if man == 0:
        return "0." + "0" * places
    num = man * 10**places
    scaled = (num << exp) if exp >= 0 else (num >> -exp)  # floor; man > 0
    s = str(scaled).rjust(places + 1, "0")
    body = f"{s[:-places]}.{s[-places:]}" if places else s
    return ("-" if sign_bit else "") + body


def _renormalized_strs(poly: Poly) -> List[str]:
    """Renormalized coefficients, highest power first: 4 decimals, 3 from degree 6."""
    places = 3 if poly.degree >= 6 else 4
    return [_fixed_trunc(c, places) for c in reversed(poly.coeffs)]


def _gamma_compare(zeta, n: int, prec: int) -> Dict[str, str]:
    """gamma(n), gamma_hat(n) and their ratio, truncated to 11 digits and 9 decimals."""
    g = zeta.value_at(n, prec).value
    gh = gamma_hat(n, prec).value
    with workprec(prec):
        ratio = g / gh
    return {"gamma": _sci_trunc(g, 11), "gamma_hat": _sci_trunc(gh, 11),
            "ratio": _fixed_trunc(ratio, 9)}


def _poly_str(coeffs_desc: Sequence[str], degree: int) -> str:
    """Human form 'c_d X^d + ... + c_0' from truncated coefficient strings."""
    parts: List[str] = []
    for i, c in enumerate(coeffs_desc):
        power = degree - i
        mono = "" if power == 0 else ("X" if power == 1 else f"X^{power}")
        if i == 0:
            parts.append(f"{c}{mono}")
        else:
            sign = "-" if c.startswith("-") else "+"
            parts.append(f" {sign} {c.lstrip('-')}{mono}")
    return "".join(parts)


def _emit(
    rows: List[Dict[str, str]],
    columns: Sequence[str],
    fmt: str,
    meta: Dict[str, object],
    out: io.TextIOBase,
) -> None:
    """Render rows in format ``fmt`` with deterministic ordering."""
    if fmt == "csv":
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])
    elif fmt == "json":
        payload = {"meta": dict(meta), "rows": rows}
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        widths = [
            max(len(c), *(len(str(r.get(c, ""))) for r in rows)) if rows else len(c)
            for c in columns
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
        out.write(header.rstrip() + "\n")
        for row in rows:
            line = "  ".join(str(row.get(c, "")).ljust(w) for c, w in zip(columns, widths))
            out.write(line.rstrip() + "\n")


def _parse_range(text: str, what: str, parser: _Parser) -> List[int]:
    """'A..B' (inclusive, possibly empty when A > B) or a single integer."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError:
        parser.error(f"bad {what} range {text!r} (use N or A..B)")
        raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# gamma warm-up
# ---------------------------------------------------------------------------


def _warm_jensen(seq, ds: List[int], ns: List[int], prec: int) -> None:
    """Store the values J^{d,n} reads on rung ``prec``, for d in ``ds``, n in ``ns``."""
    if seq.exact_at is None and ds and ns:
        warm_prec = max(read_prec(seq, d, n, prec) for n in ns for d in ds)
        for m in sorted({n + j for n in ns for j in range(max(ds) + 1)}):
            seq.value_at(m, warm_prec)


def _provider_for(name: str, cache_dir: Optional[str]):
    if name == "partition":
        return partition_provider()
    if name == "zeta":
        return zeta_gamma_provider(cache_dir)
    raise ValueError(f"unknown sequence {name!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gamma(args: argparse.Namespace, parser: _Parser) -> int:
    mode = "exact" if args.exact else "asymptotic" if args.asymptotic else "compare"
    min_n = 1 if mode == "exact" else 2  # the asymptotic form needs n >= 2
    for n in args.n:
        if n < min_n:
            parser.error(f"gamma {mode} requires n >= {min_n}, got {n}")
    provider = _provider_for("zeta", args.cache_dir)

    rows: List[Dict[str, str]] = []
    for n in sorted(set(args.n)):
        row: Dict[str, str] = {"n": str(n)}
        if mode == "compare":
            row.update(_gamma_compare(provider, n, args.prec))
        elif mode == "exact":
            row["gamma"] = _sci_trunc(provider.value_at(n, args.prec).value, 11)
        else:
            row["gamma_hat"] = _sci_trunc(gamma_hat(n, args.prec).value, 11)
        rows.append(row)
    columns = {
        "exact": ["n", "gamma"],
        "asymptotic": ["n", "gamma_hat"],
        "compare": ["n", "gamma_hat", "gamma", "ratio"],
    }[mode]
    meta = {"command": "gamma", "mode": mode, "prec_bits": args.prec,
            "version": __version__}
    _emit(rows, columns, args.format, meta, sys.stdout)
    return EXIT_OK


def _cmd_jensen(args: argparse.Namespace, parser: _Parser) -> int:
    seq = _provider_for(args.seq, args.cache_dir)
    d, n = args.d, args.n
    if d < 1:
        parser.error(f"degree must be >= 1, got {d}")
    if n < 0:
        parser.error(f"shift must be >= 0, got {n}")
    if args.renormalized:
        if n < seq.params.n_min:
            parser.error(f"renormalization for {args.seq} needs n >= "
                         f"{seq.params.n_min}, got {n}")
        poly = renormalize(seq, d, n, args.prec)
        coeff_strs = _renormalized_strs(poly)
        kindrow = "renormalized"
    else:
        poly = jensen_poly(seq, d, n, prec=args.prec)
        if isinstance(poly, RationalPoly):
            coeff_strs = [str(c.numerator) if c.denominator == 1 else str(c)
                          for c in reversed(poly.coeffs)]
        else:
            coeff_strs = [_sci_trunc(c, 11) for c in reversed(poly.coeffs)]
        kindrow = "raw"

    rows = [
        {"seq": args.seq, "kind": kindrow, "d": str(d), "n": str(n),
         "power": str(poly.degree - i), "coefficient": c}
        for i, c in enumerate(coeff_strs)
    ]
    meta = {"command": "jensen", "prec_bits": args.prec,
            "version": __version__}
    if args.format == "table":
        print(f"J[{args.seq}] d={d} n={n} ({kindrow})")
        print(_poly_str(coeff_strs, poly.degree))
    else:
        _emit(rows, ["seq", "kind", "d", "n", "power", "coefficient"],
              args.format, meta, sys.stdout)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, parser: _Parser) -> int:
    seq = _provider_for(args.seq, args.cache_dir)
    d_values = _parse_range(args.d_range, "degree", parser)
    n_values = _parse_range(args.n_range, "shift", parser)
    for d in d_values:
        if d < 1:
            parser.error(f"degrees must be >= 1, got {d}")
    for n in n_values:
        if n < 0:
            parser.error(f"shifts must be >= 0, got {n}")

    ladder = [args.prec] + [p for p in DEFAULT_LADDER if p > args.prec]
    _warm_jensen(seq, d_values, n_values, ladder[0])

    rows: List[Dict[str, str]] = []
    for d in d_values:
        for n in n_values:
            cert = certify(seq, d, n, ladder)
            rows.append({
                "seq": args.seq, "d": str(d), "n": str(n),
                "verdict": cert.verdict, "method": cert.method,
                "margin": mpmath.nstr(cert.margin.value, 6),
            })
    n_bad = sum(row["verdict"] == "not_hyperbolic" for row in rows)
    n_indet = sum(row["verdict"] == "indeterminate" for row in rows)

    meta = {"command": "sweep", "seq": args.seq, "prec_bits": args.prec,
            "ladder": list(ladder), "version": __version__}
    if args.format == "table":
        total = len(rows)
        print(f"sweep {args.seq}: {total} certificates; "
              f"{total - n_bad - n_indet} hyperbolic, {n_bad} not, {n_indet} indeterminate")
        for row in rows:
            if row["verdict"] != "hyperbolic":
                print(f"  d={row['d']} n={row['n']}: {row['verdict']} ({row['method']})")
    else:
        _emit(rows, ["seq", "d", "n", "verdict", "method", "margin"],
              args.format, meta, sys.stdout)
    if n_indet:
        return EXIT_INDETERMINATE
    if n_bad:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_find_n(args: argparse.Namespace, parser: _Parser) -> int:
    if args.d < 1:
        parser.error(f"degree must be >= 1, got {args.d}")
    if args.max < 0:
        parser.error(f"--max must be >= 0, got {args.max}")
    result = find_N(partition_provider(), args.d, args.max)
    rows = [{
        "d": str(args.d),
        "N": str(int(result)),
        "last_failing": "" if result.last_failing is None else str(result.last_failing),
        "n_max": str(args.max),
    }]
    meta = {"command": "find-n", "prec_bits": args.prec,
            "version": __version__}
    _emit(rows, ["d", "N", "last_failing", "n_max"], args.format, meta, sys.stdout)
    return EXIT_OK


def _cmd_effective(args: argparse.Namespace, parser: _Parser) -> int:
    n_values = _parse_range(args.n_range, "shift", parser)
    valid = [n for n in n_values if n >= D4_MIN_N]
    dropped = len(n_values) - len(valid)
    if dropped:
        print(
            f"warning: the degree-4 template is stated for n >= {D4_MIN_N}; "
            f"dropping {dropped} value(s) below {D4_MIN_N}",
            file=sys.stderr,
        )
    if n_values and not valid:
        parser.error(f"no shifts >= {D4_MIN_N} in range "
                     f"(template is stated for n >= {D4_MIN_N})")
    seq = _provider_for("zeta", args.cache_dir)
    _warm_jensen(seq, [4], valid, args.prec)
    report = effective_check_d4(valid, seq=seq, prec=args.prec)

    rows: List[Dict[str, str]] = []
    for row in report.rows:
        entry: Dict[str, str] = {"n": str(row.n), "delta": _fixed_trunc(row.delta, 8)}
        for k, b in enumerate(row.beta):
            entry[f"beta{k}"] = _fixed_trunc(b, 6)
        for name, ok in zip(D4_CHECK_NAMES, row.checks):
            entry[name] = "pass" if ok else "FAIL"
        entry["all_hold"] = "pass" if row.all_hold else "FAIL"
        rows.append(entry)
    columns = (["n", "delta"] + [f"beta{k}" for k in range(5)]
               + list(D4_CHECK_NAMES) + ["all_hold"])
    meta = {"command": "effective", "prec_bits": args.prec,
            "first_all_hold": report.first_all_hold, "version": __version__}
    _emit(rows, columns, args.format, meta, sys.stdout)
    if args.format == "table":
        print(f"first n with every inequality holding: {report.first_all_hold}")
    return EXIT_OK


_TABLE_GROUPS = ("gamma", "partition-jensen", "zeta-jensen", "zeta-jensen-6", "nd")


def _cmd_tables(args: argparse.Namespace, parser: _Parser) -> int:
    groups = list(_TABLE_GROUPS) if args.group == "all" else [args.group]
    rows: List[Dict[str, str]] = []
    zeta = _provider_for("zeta", args.cache_dir)
    part = partition_provider()

    if "gamma" in groups:
        for n in (10, 100, 1000):
            rows.append({
                "group": "gamma", "n": str(n), "d": "", "entry": "",
                "value": "{gamma_hat} | {gamma} | {ratio}".format(
                    **_gamma_compare(zeta, n, args.prec)),
            })

    shifts = [100, 200, 300, 400]
    jensen_groups = [(group, seq, ds) for group, seq, ds in (
        ("partition-jensen", part, [2, 3]),
        ("zeta-jensen", zeta, [2, 3]),
        ("zeta-jensen-6", zeta, [6]),
    ) if group in groups]
    # One warm-up for every zeta degree asked for computes each value once.
    _warm_jensen(zeta, [d for _, seq, ds in jensen_groups if seq is zeta for d in ds],
                 shifts, args.prec)
    for group, seq, ds in jensen_groups:
        for d in ds:
            for n in shifts:
                poly = renormalize(seq, d, n, args.prec)
                rows.append({
                    "group": group, "n": str(n), "d": str(d), "entry": "",
                    "value": _poly_str(_renormalized_strs(poly), poly.degree),
                })

    if "nd" in groups:
        for d in (2, 3, 4, 5):
            result = find_N(part, d, 2000)
            rows.append({
                "group": "nd", "n": "", "d": str(d),
                "entry": f"last_failing={result.last_failing}",
                "value": str(int(result)),
            })

    meta = {"command": "tables", "groups": groups,
            "prec_bits": args.prec, "version": __version__}
    _emit(rows, ["group", "n", "d", "entry", "value"], args.format, meta, sys.stdout)
    return EXIT_OK


def _cmd_cache(args: argparse.Namespace, parser: _Parser) -> int:
    if args.cache_dir is None:
        parser.error(
            f"no cache directory set (use --cache-dir or ${ENV_CACHE_DIR})"
        )
    cache = GammaCache(args.cache_dir)
    if args.action == "clear":
        # Clearing is how a user recovers from an unreadable cache.
        try:
            what = f"{len(cache.entries())} record(s)"
        except CacheFormatError:
            what = "an unreadable cache"
        cache.clear()
        print(f"cleared {what} from {cache.path}")
        return EXIT_OK
    entries = cache.entries()
    rows = [
        {"n": str(r.n), "prec_bits": str(r.prec_bits), "src": r.source,
         "value": (r.decimal_value[:24] + "...") if len(r.decimal_value) > 27
                  else r.decimal_value}
        for r in entries
    ]
    meta = {"command": "cache", "path": str(cache.path),
            "records": len(entries), "version": __version__}
    _emit(rows, ["n", "prec_bits", "src", "value"], args.format, meta, sys.stdout)
    if args.format == "table":
        print(f"{len(entries)} record(s) in {cache.path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS: a copy not given keeps the value given elsewhere or the root's default.
    parser.add_argument("--prec", type=int, default=argparse.SUPPRESS, metavar="BITS",
                        help="working precision in bits (default 192)")
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default=argparse.SUPPRESS, help="output format (default table)")
    parser.add_argument("--cache-dir", default=argparse.SUPPRESS, metavar="PATH",
                        help=f"persistent cache directory (or ${ENV_CACHE_DIR})")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS, metavar="K",
                        help="checked but unused: values are computed in one process")


def _build_parser() -> _Parser:
    parser = _Parser(prog="jensenpoly",
                     description="High-precision Jensen polynomial toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    _add_common(parser)
    parser.set_defaults(prec=192, format="table", jobs=1,
                        cache_dir=os.environ.get(ENV_CACHE_DIR) or None)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gamma", help="Taylor coefficient values and ratios")
    p.add_argument("n", type=int, nargs="+")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--exact", action="store_true")
    g.add_argument("--asymptotic", action="store_true")
    g.add_argument("--compare", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("jensen", help="Jensen polynomial coefficients")
    p.add_argument("seq", choices=("zeta", "partition"))
    p.add_argument("d", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--renormalized", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_jensen)

    p = sub.add_parser("sweep", help="certified hyperbolicity sweep")
    p.add_argument("seq", choices=("zeta", "partition"))
    p.add_argument("d_range", metavar="D_RANGE", help="e.g. 2 or 1..8")
    p.add_argument("n_range", metavar="N_RANGE", help="e.g. 100 or 7..2000")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("find-n", help="least all-hyperbolic shift threshold")
    p.add_argument("d", type=int)
    p.add_argument("--max", type=int, required=True, metavar="N_MAX")
    _add_common(p)
    p.set_defaults(func=_cmd_find_n)

    p = sub.add_parser("effective", help="degree-4 inequality template report")
    p.add_argument("n_range", metavar="N_RANGE", help="e.g. 104 or 100..500")
    _add_common(p)
    p.set_defaults(func=_cmd_effective)

    p = sub.add_parser("tables", help="reproduce the reference tables")
    p.add_argument("group", nargs="?", default="all",
                   choices=_TABLE_GROUPS + ("all",))
    _add_common(p)
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("cache", help="inspect or clear the value cache")
    p.add_argument("action", nargs="?", default="inspect",
                   choices=("inspect", "clear"))
    _add_common(p)
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    if args.prec < MIN_PREC:
        parser.error(f"precision must be >= {MIN_PREC} bits")
    if args.jobs < 1:
        parser.error("parallelism must be >= 1")
    try:
        return args.func(args, parser)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionFailure as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (CacheError, CacheFormatError) as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    _entry()
