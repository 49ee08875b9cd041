"""Benchmark of the jensenpoly CLI: closed loop, fresh processes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the CLI from the checkout that holds this directory, importing
``jensenpoly`` from its ``src/`` and nowhere else, and exits with code 2
when ``src/`` is missing.
``--workload all`` runs every workload in turn.

One client runs one CLI invocation after another.  A *round* is the
workload's fixed list of invocations (see ``workloads.py``); the run repeats
rounds until ``--seconds`` have passed, then checks every output against
references made apart from the program (``checks.py``).  With ``--trace 0``
the last line of stdout is a JSON object with the end-to-end metrics:

  wall_s       wall time of the timed part per round
  cpu_s        user + system CPU of the timed part per round, pool workers
               included
  ops_per_s    completed operations (certificates or gamma values) per
               second of wall time, over all rounds
  peak_rss_mb  largest resident set of any program process in the run
  setup_s      median time to reach the start state from a fresh interpreter:
               the jensenpoly import, or for zeta-warm-sweep the program's
               own cold sweep that fills the cache

With ``--trace 1`` the run alternates an untraced round and a round run
through ``tracer.py``, and reports per-layer call counts and self times
(counts from the first traced round, times as medians over traced rounds)
plus the tracing overhead.  End-to-end figures come only from ``--trace 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from workloads import Invocation, Workload  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"
RUN_DEADLINE_S = 170.0
SETUP_IMPORTS = 7
WARM_FILLS = 2
CLI = ("-c", "import sys; from jensenpoly.cli import main; sys.exit(main())")
TRACED = (str(BENCH_DIR / "tracer.py"),)
IMPORT_PROBE = ("-c", "import jensenpoly.cli; print(jensenpoly.cli.__file__)")


@dataclass
class Outcome:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_mb: float


@dataclass
class Round:
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_mb: float = 0.0
    outputs: List[Tuple[Invocation, Outcome]] = field(default_factory=list)
    cache_dirs: List[Path] = field(default_factory=list)
    trace: Dict[str, List[float]] = field(default_factory=dict)


class Runner:
    """Runs child processes inside the checkout and keeps them bounded in time."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env.pop("JENSENPOLY_CACHE_DIR", None)
        self._count = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._count += 1
        path = self.work / f"{prefix}-{self._count}"
        path.mkdir()
        return path

    def spawn(self, args: Tuple[str, ...]) -> Outcome:
        self._count += 1
        out_path = self.work / f"out-{self._count}"
        err_path = self.work / f"err-{self._count}"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen((sys.executable, *args), stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        _kill_group(proc.pid)  # pool workers a crashed CLI left behind
        return Outcome(
            returncode=os.waitstatus_to_exitcode(status),
            stdout=out_path.read_text(errors="replace"),
            stderr=err_path.read_text(errors="replace"),
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- set-up --------------------------------------------------------------------


def time_import(runner: Runner) -> float:
    outcome = runner.spawn(IMPORT_PROBE)
    where = Path(outcome.stdout.strip() or "?").resolve()
    if outcome.returncode != 0 or SRC.resolve() not in where.parents:
        raise RuntimeError(f"jensenpoly does not import from {SRC}: {outcome.stderr.strip()}")
    return outcome.wall


def set_up(runner: Runner, workload: Workload):
    """Reach the workload's start state.

    Returns the set-up times, the warm cache (or None) and the fill
    invocations' outcomes, whose output is checked with the rest.
    """
    time_import(runner)
    if not workload.fill:
        return [time_import(runner) for _ in range(SETUP_IMPORTS)], None, []
    times: List[float] = []
    fills: List[Tuple[Invocation, Outcome]] = []
    warm: Optional[Path] = None
    for _ in range(WARM_FILLS):
        warm = runner.fresh_dir("warm")
        wall = 0.0
        for inv in workload.fill:
            outcome = runner.spawn(CLI + inv.argv + ("--cache-dir", str(warm)))
            fills.append((inv, outcome))
            wall += outcome.wall
        times.append(wall)
    return times, warm, fills


# -- rounds --------------------------------------------------------------------


def run_round(runner: Runner, workload: Workload, warm: Optional[Path],
              traced: bool) -> Round:
    result = Round()
    trace_dir = runner.fresh_dir("trace") if traced else None
    for i, inv in enumerate(workload.round):
        extra: Tuple[str, ...] = ()
        if inv.cache == "fresh":
            cache = runner.fresh_dir("cache")
            result.cache_dirs.append(cache)
            extra = ("--cache-dir", str(cache))
        elif inv.cache == "warm":
            extra = ("--cache-dir", str(warm))
        head = TRACED + (str(trace_dir / f"inv{i}.json"),) if traced else CLI
        outcome = runner.spawn(head + inv.argv + extra)
        result.wall += outcome.wall
        result.cpu += outcome.cpu
        result.maxrss_mb = max(result.maxrss_mb, outcome.maxrss_mb)
        result.outputs.append((inv, outcome))
    if trace_dir is not None:
        for path in sorted(trace_dir.glob("*.json*")):
            if path.suffix == ".tmp":
                continue
            for name, (calls, total, own) in json.loads(path.read_text()).items():
                entry = result.trace.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
    return result


# -- checks --------------------------------------------------------------------


def check_output(inv: Invocation, outcome: Outcome, refs) -> Tuple[int, List[str]]:
    """(failed operations, errors) for one invocation's stdout."""
    import checks

    if outcome.returncode not in (0, 1, 2):
        return inv.ops, []
    if inv.kind == "sweep":
        return checks.check_sweep_output(outcome.stdout, inv.d_values, inv.n_values)
    if inv.kind == "find-n":
        if outcome.returncode != 0:
            return inv.ops, []
        return checks.check_find_n_output(outcome.stdout, inv.d_values[0], inv.n_max,
                                          checks.partition_hrr)
    return checks.check_gamma_output(outcome.stdout, inv.n_values, refs)


def check_values(workload: Workload, cache_dirs: List[Path], refs) -> List[str]:
    """gamma values the sweeps stored, read back through the public provider; p(n) samples."""
    import checks
    from jensenpoly.sequences import partition, zeta_gamma_provider

    errors: List[str] = []
    if workload.gamma_checked:
        gamma = {}
        providers = [zeta_gamma_provider(d) for d in cache_dirs]
        for n in workload.gamma_checked:
            for provider in providers:
                if provider.cache.get(n, workloads.SWEEP_PREC) is not None:
                    gamma[n] = provider.value_at(n, workloads.SWEEP_PREC).value
                    break
            else:
                errors.append(f"gamma({n}) missing from the sweep's cache")
        for n, value in sorted(gamma.items()):
            errors += checks.check_gamma_value(n, value, refs)
        pairs = [(d, n) for d, n in workload.root_count_pairs
                 if all(n + j in gamma for j in range(d + 1))]
        errors += checks.check_root_counts(gamma, pairs)
    if workload.partition_sample:
        program = {n: partition(n) for n in workload.partition_sample}
        reference = {n: checks.partition_hrr(n) for n in workload.partition_sample}
        errors += checks.check_partition_values(program, reference)
    return errors


# -- metrics -------------------------------------------------------------------


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(rounds: List[Round], setup_times: List[float], done_ops: int) -> Dict:
    # Per-round means, not medians: the machine's speed drifts in spells of
    # 5-10 s, and the median of many short rounds jumps between spells.
    return {
        "wall_s": _metric(sum(r.wall for r in rounds) / len(rounds), "s"),
        "cpu_s": _metric(sum(r.cpu for r in rounds) / len(rounds), "s"),
        "ops_per_s": _metric(done_ops / sum(r.wall for r in rounds), "1/s"),
        "peak_rss_mb": _metric(max(r.maxrss_mb for r in rounds), "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: List[Round], untraced: List[Round]) -> Dict:
    first = traced[0].trace

    def calls(name: str) -> int:
        return int(first.get(name, (0, 0.0, 0.0))[0])

    def own(name: str) -> float:
        return statistics.median(r.trace.get(name, (0, 0.0, 0.0))[2] for r in traced)

    hits, misses = calls("sequences.cache.hits"), calls("sequences.cache.misses")
    gamma_calls = calls("zeta_core.gamma_exact")
    return {
        "cli.self_s": _metric(own("cli"), "s"),
        "zeta_core.gamma_exact.calls": _metric(gamma_calls, "count"),
        "zeta_core.gamma_exact.self_s": _metric(own("zeta_core.gamma_exact"), "s"),
        "zeta_core.gamma_exact.ms_per_call": _metric(
            1000 * _ratio(own("zeta_core.gamma_exact"), gamma_calls), "ms"),
        "sequences.value_at.calls": _metric(calls("sequences.value_at"), "count"),
        "sequences.value_at.self_s": _metric(own("sequences.value_at"), "s"),
        "sequences.cache.hit_ratio": _metric(_ratio(hits, hits + misses), "ratio"),
        "sequences.cache.load_s": _metric(
            statistics.median(r.trace.get("sequences.cache.load", (0, 0.0, 0.0))[1]
                              for r in traced), "s"),
        "sequences.cache.put.calls": _metric(calls("sequences.cache.put"), "count"),
        "sequences.partition.calls": _metric(calls("sequences.partition"), "count"),
        "sequences.partition.self_s": _metric(own("sequences.partition"), "s"),
        "asymptotics.growth.calls": _metric(calls("asymptotics.growth"), "count"),
        "asymptotics.growth.self_s": _metric(own("asymptotics.growth"), "s"),
        "asymptotics.growth.per_renormalize": _metric(
            _ratio(calls("asymptotics.growth"), calls("jensen.renormalize")), "ratio"),
        "jensen.renormalize.calls": _metric(calls("jensen.renormalize"), "count"),
        "jensen.renormalize.self_s": _metric(own("jensen.renormalize"), "s"),
        "jensen.rungs_per_cert": _metric(
            _ratio(calls("jensen.renormalize"), calls("jensen.certify_renormalized")), "ratio"),
        "jensen.interval_cert.calls": _metric(calls("jensen.interval_cert"), "count"),
        "jensen.interval_cert.self_s": _metric(own("jensen.interval_cert"), "s"),
        "jensen.exact_cert.calls": _metric(calls("jensen.exact_cert"), "count"),
        "jensen.exact_cert.self_s": _metric(own("jensen.exact_cert"), "s"),
        "jensen.jensen_poly.self_s": _metric(own("jensen.jensen_poly"), "s"),
        "jensen.find_N.self_s": _metric(own("jensen.find_N"), "s"),
        "trace.overhead_s": _metric(statistics.median(r.wall for r in traced)
                                    - statistics.median(r.wall for r in untraced), "s"),
    }


# -- running a workload ----------------------------------------------------------


def run_workload(workload: Workload, seconds: float, trace: bool, runner: Runner) -> Dict:
    # Until the timed part ends the harness imports nothing big (no mpmath,
    # sympy or jensenpoly): the peak RSS the kernel reports for a child is at
    # least its parent's RSS at the fork.
    setup_times, warm, fills = set_up(runner, workload)
    untraced: List[Round] = []
    traced: List[Round] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_round(runner, workload, warm, traced=False))
        if trace:
            traced.append(run_round(runner, workload, warm, traced=True))
        if time.perf_counter() - start >= seconds:
            break

    import gamma_ref

    refs = gamma_ref.load_references()
    errors: List[str] = []
    for inv, outcome in fills:
        failed, errs = check_output(inv, outcome, refs)
        if failed:
            errs.append(f"cache fill {' '.join(inv.argv)}: {failed} operations failed "
                        f"(exit {outcome.returncode}): {outcome.stderr.strip()[-300:]}")
        errors += errs
    rounds = untraced + traced
    attempted = failed = 0
    for rnd in rounds:
        for inv, outcome in rnd.outputs:
            n_failed, errs = check_output(inv, outcome, refs)
            attempted += inv.ops
            failed += n_failed
            errors += errs
            if outcome.returncode != 0 and not errs and not n_failed:
                errors.append(f"{' '.join(inv.argv)} exited {outcome.returncode} "
                              "with complete, correct output")
    errors += check_values(workload, [warm] if warm else rounds[-1].cache_dirs, refs)
    if trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced, setup_times, attempted - failed)
    for message in dict.fromkeys(errors):
        print(f"{workload.name}: CHECK FAILED: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_result(name: str, result: Dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"{name}  attempted = {result['attempted']}  failed = {result['failed']}  "
          f"correct = {result['correct']}")


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own harness process."""
    results = {}
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print_result(name, results[name])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()},
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jensenpoly" / "cli.py").is_file():
        print(f"error: no jensenpoly sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        result = run_workload(workload, args.seconds, bool(args.trace), runner)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
