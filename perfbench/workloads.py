"""Workload definitions: the CLI invocations each workload runs, made from a seed.

A workload is a set-up step plus a *round*: a fixed list of ``jensenpoly``
invocations.  Every round of one run is the same list, so a run attempts
whole rounds of the same operations.  The seed picks the shifts inside
narrow windows, chosen so that every seed does nearly the same work (the
quadrature path and the number of values stay fixed).

An operation is one certificate (``sweep``, ``find-n``) or one requested
gamma value (``gamma``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

DEGREES = tuple(range(1, 9))  # every sweep certifies d = 1..8
SWEEP_PREC = 192  # the CLI's default precision
SCATTERED_PREC = 512
SCATTERED_JOBS = 2
PARTITION_DEGREES = tuple(range(2, 9))

# Seed windows.  gamma(n) with n <= 32 takes the tanh-sinh quadrature path,
# larger n the trapezoid path.  The tanh-sinh cost steps with n (at 352 bits
# gamma(12..) costs half again as much as gamma(8..11)), so the tanh-sinh
# block and the small scattered values stay fixed; the seed moves only
# values whose cost is flat in n.
COLD_TANH_START = 7                  # sweep 7..7      -> gamma(7..15)
COLD_TRAP_STARTS = range(100, 116)   # sweep b..b+3    -> gamma(b..b+11)
COLD_TRAP_SHIFTS = 4
WARM_STARTS = range(400, 408)        # cache W..W+15   -> gamma(W..W+23)
WARM_SHIFTS = 16
WARM_INVOCATIONS = 2
# Fixed, so that the per-layer counts (7 * 2001 exact certificates) are the
# same for every seed; the seed picks the p(n) values checked.
PARTITION_MAX = 2000
PARTITION_SAMPLE = 5
SCATTERED_BUCKETS: Tuple[Tuple[int, int], ...] = (
    # (base, number of seeded choices); 100 and 1000 stay fixed so the
    # paper's table digits are checked on every run, 12 and 40 because their
    # cost jumps by a third from one n to the next
    (12, 1), (40, 1), (100, 1), (250, 3), (500, 3), (1000, 1), (2000, 3), (5000, 3),
)
ROOT_COUNT_SAMPLE = 6


@dataclass(frozen=True)
class Invocation:
    """One CLI invocation: its arguments and the operations it must produce.

    ``cache`` names the cache directory the invocation uses: ``"fresh"`` for
    a new empty directory, ``"warm"`` for the workload's filled cache, or
    ``""`` for none.
    """

    argv: Tuple[str, ...]
    kind: str  # sweep | find-n | gamma
    cache: str = ""
    d_values: Tuple[int, ...] = ()
    n_values: Tuple[int, ...] = ()
    n_max: int = 0

    @property
    def ops(self) -> int:
        if self.kind == "sweep":
            return len(self.d_values) * len(self.n_values)
        if self.kind == "find-n":
            return self.n_max + 1
        return len(self.n_values)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    round: Tuple[Invocation, ...]
    fill: Tuple[Invocation, ...] = ()  # set-up invocations that fill the warm cache
    gamma_checked: Tuple[int, ...] = ()  # gamma(n) read back from the cache and checked
    root_count_pairs: Tuple[Tuple[int, int], ...] = ()  # (d, n) rebuilt and root-counted
    partition_sample: Tuple[int, ...] = ()

    @property
    def ops_per_round(self) -> int:
        return sum(inv.ops for inv in self.round)


def _sweep(lo: int, hi: int, cache: str, degrees: Tuple[int, ...] = DEGREES) -> Invocation:
    return Invocation(
        argv=("sweep", "zeta", f"{degrees[0]}..{degrees[-1]}", f"{lo}..{hi}",
              "--format", "csv"),
        kind="sweep", cache=cache, d_values=degrees, n_values=tuple(range(lo, hi + 1)),
    )


def _gamma_span(invs: Sequence[Invocation]) -> Tuple[int, ...]:
    """gamma indices a sweep needs: n..n+d for every shift n."""
    return tuple(sorted({n + j for inv in invs for n in inv.n_values
                         for j in range(max(inv.d_values) + 1)}))


def _root_pairs(rng: random.Random, invs: Sequence[Invocation]) -> Tuple[Tuple[int, int], ...]:
    grid = [(d, n) for inv in invs for d in inv.d_values for n in inv.n_values]
    return tuple(sorted(rng.sample(grid, min(ROOT_COUNT_SAMPLE, len(grid)))))


def zeta_cold_sweep(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    a = COLD_TANH_START
    b = rng.choice(COLD_TRAP_STARTS)
    shifts = 1 if tiny else COLD_TRAP_SHIFTS
    degrees = (1, 2) if tiny else DEGREES
    invs = (_sweep(a, a, "fresh", degrees), _sweep(b, b + shifts - 1, "fresh", degrees))
    return Workload(
        name="zeta-cold-sweep", seed=seed, round=invs,
        gamma_checked=_gamma_span(invs),
        root_count_pairs=_root_pairs(rng, invs),
    )


def zeta_warm_sweep(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    w = rng.choice(WARM_STARTS)
    shifts = 2 if tiny else WARM_SHIFTS
    degrees = (1, 2) if tiny else DEGREES
    fill = _sweep(w, w + shifts - 1, "warm", degrees)
    step = shifts // WARM_INVOCATIONS
    invs = tuple(_sweep(w + i * step, w + (i + 1) * step - 1, "warm", degrees)
                 for i in range(WARM_INVOCATIONS))
    return Workload(
        name="zeta-warm-sweep", seed=seed, round=invs, fill=(fill,),
        gamma_checked=_gamma_span([fill]),
        root_count_pairs=_root_pairs(rng, invs),
    )


def partition_find_n(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    n_max = 400 if tiny else PARTITION_MAX
    degrees = (2, 3) if tiny else PARTITION_DEGREES
    invs = tuple(
        Invocation(argv=("find-n", str(d), "--max", str(n_max), "--format", "csv"),
                   kind="find-n", d_values=(d,), n_max=n_max)
        for d in degrees
    )
    return Workload(
        name="partition-find-n", seed=seed, round=invs,
        partition_sample=tuple(sorted(rng.sample(range(n_max + 1), PARTITION_SAMPLE))),
    )


def zeta_gamma_scattered(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    buckets = SCATTERED_BUCKETS[:4] if tiny else SCATTERED_BUCKETS
    ns = tuple(base + rng.randrange(choices) for base, choices in buckets)
    prec = 256 if tiny else SCATTERED_PREC
    inv = Invocation(
        argv=("gamma", *map(str, ns), "--exact", "--prec", str(prec),
              "--jobs", str(SCATTERED_JOBS), "--format", "csv"),
        kind="gamma", cache="fresh", n_values=ns,
    )
    return Workload(name="zeta-gamma-scattered", seed=seed, round=(inv,))


WORKLOADS = {
    "zeta-cold-sweep": zeta_cold_sweep,
    "zeta-warm-sweep": zeta_warm_sweep,
    "partition-find-n": partition_find_n,
    "zeta-gamma-scattered": zeta_gamma_scattered,
}


def reference_indices() -> List[int]:
    """Every n whose gamma(n) some seed of some workload checks."""
    ns = set()
    ns.update(range(COLD_TANH_START, COLD_TANH_START + DEGREES[-1] + 1))
    for b in COLD_TRAP_STARTS:
        ns.update(range(b, b + COLD_TRAP_SHIFTS + DEGREES[-1]))
    for w in WARM_STARTS:
        ns.update(range(w, w + WARM_SHIFTS + DEGREES[-1]))
    for base, choices in SCATTERED_BUCKETS:
        ns.update(range(base, base + choices))
    return sorted(ns)
