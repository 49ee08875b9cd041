"""Tests of the benchmark itself: every workload at a tiny size, and every check
shown to reject a corrupted output.

    python3 -m pytest perfbench -q

(about a minute on two cores; not part of the tier-1 suite under ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import mpf

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import gamma_ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def refs():
    return gamma_ref.load_references()


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory, refs):
    """One set-up and one untraced plus one traced round of each workload, tiny inputs."""
    out = {}
    for name, make in workloads.WORKLOADS.items():
        workload = make(SEED, tiny=True)
        runner = run.Runner(tmp_path_factory.mktemp(name), time.monotonic() + 170)
        setup_times, warm, fills = run.set_up(runner, workload)
        plain = run.run_round(runner, workload, warm, traced=False)
        traced = run.run_round(runner, workload, warm, traced=True)
        out[name] = (workload, setup_times, warm, fills, plain, traced)
    return out


def _only(rnd, kind):
    return [(inv, o) for inv, o in rnd.outputs if inv.kind == kind]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_clean(name, tiny_runs, refs):
    workload, setup_times, warm, fills, plain, traced = tiny_runs[name]
    assert all(t > 0 for t in setup_times)
    assert len(fills) == (run.WARM_FILLS if workload.fill else 0)
    for inv, outcome in fills:
        assert run.check_output(inv, outcome, refs) == (0, [])
    for rnd in (plain, traced):
        assert rnd.wall > 0 and rnd.cpu > 0 and rnd.maxrss_mb > 0
        for inv, outcome in rnd.outputs:
            assert outcome.returncode == 0, outcome.stderr
            assert run.check_output(inv, outcome, refs) == (0, [])
    dirs = [warm] if warm else plain.cache_dirs
    assert run.check_values(workload, dirs, refs) == []
    metrics = run.end_to_end([plain], setup_times, workload.ops_per_round)
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_counts(tiny_runs):
    """Counts in the trace follow from the inputs."""
    _, _, _, _, _, cold = tiny_runs["zeta-cold-sweep"]
    gammas = len(workloads.zeta_cold_sweep(SEED, tiny=True).gamma_checked)
    assert cold.trace["zeta_core.gamma_exact"][0] == gammas
    assert cold.trace["sequences.cache.put"][0] == gammas
    certs = cold.trace["jensen.certify_renormalized"][0]
    assert certs == workloads.zeta_cold_sweep(SEED, tiny=True).ops_per_round
    assert cold.trace["asymptotics.growth"][0] == 3 * cold.trace["jensen.renormalize"][0]
    assert cold.trace["cli"][0] == 2

    _, _, _, _, _, part = tiny_runs["partition-find-n"]
    workload = workloads.partition_find_n(SEED, tiny=True)
    shifts = workload.round[0].n_max + 1
    assert part.trace["jensen.exact_cert"][0] == workload.ops_per_round
    assert part.trace["sequences.partition"][0] == sum(
        (inv.d_values[0] + 1) * shifts for inv in workload.round)
    assert "zeta_core.gamma_exact" not in part.trace

    _, _, _, _, _, scattered = tiny_runs["zeta-gamma-scattered"]
    ns = workloads.zeta_gamma_scattered(SEED, tiny=True).round[0].n_values
    # computed in the pool workers, whose spans come from their own files
    assert scattered.trace["zeta_core.gamma_exact"][0] == len(ns)

    _, _, _, _, _, warm = tiny_runs["zeta-warm-sweep"]
    assert "zeta_core.gamma_exact" not in warm.trace
    assert warm.trace["sequences.cache.hits"][0] > 0
    layers = run.per_layer([warm], [tiny_runs["zeta-warm-sweep"][4]])
    assert layers["asymptotics.growth.per_renormalize"]["value"] == 3.0
    assert layers["jensen.rungs_per_cert"]["value"] == 1.0


# -- each check rejects a corrupted output -----------------------------------------


def test_sweep_check_rejects_flipped_verdict(tiny_runs):
    _, _, _, _, plain, _ = tiny_runs["zeta-cold-sweep"]
    inv, outcome = _only(plain, "sweep")[0]
    text = outcome.stdout
    assert checks.check_sweep_output(text, inv.d_values, inv.n_values) == (0, [])
    flipped = text.replace(",hyperbolic,", ",not_hyperbolic,", 1)
    failed, errors = checks.check_sweep_output(flipped, inv.d_values, inv.n_values)
    assert failed == 0 and errors
    unsure = text.replace(",hyperbolic,", ",indeterminate,", 1)
    assert checks.check_sweep_output(unsure, inv.d_values, inv.n_values)[0] == 1
    missing = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_sweep_output(missing, inv.d_values, inv.n_values)[0] == 1


def _alter_digit(value: str, position: int) -> str:
    digit = value[position]
    return value[:position] + ("1" if digit != "1" else "2") + value[position + 1:]


def test_gamma_output_check_rejects_altered_digit(tiny_runs, refs):
    _, _, _, _, plain, _ = tiny_runs["zeta-gamma-scattered"]
    inv, outcome = _only(plain, "gamma")[0]
    lines = outcome.stdout.splitlines()
    for row in range(1, len(lines)):
        n, value = lines[row].split(",")
        for position in (2, 11):  # the 2nd and the 11th significant digit
            bad = lines[:row] + [f"{n},{_alter_digit(value, position)}"] + lines[row + 1:]
            failed, errors = checks.check_gamma_output("\n".join(bad) + "\n", inv.n_values, refs)
            assert errors, (n, position)
    assert checks.check_gamma_output("\n".join(lines[:-1]) + "\n", inv.n_values, refs)[0] == 1


def test_paper_digits_reject_altered_digit(refs):
    assert checks.check_gamma_output("n,gamma\n100,6.5777263785e-205\n", [100], refs) == (0, [])
    assert checks.check_gamma_output("n,gamma\n100,6.5777263786e-205\n", [100], refs)[1]
    assert checks.check_gamma_value(1000, refs[1000], refs) == []
    assert checks.check_gamma_value(1000, refs[1000] * (1 + mpf("1e-10")), refs)


def test_cached_gamma_check_rejects_altered_digit(tiny_runs, refs, tmp_path):
    workload, _, _, _, plain, _ = tiny_runs["zeta-cold-sweep"]
    dirs = []
    for i, src in enumerate(plain.cache_dirs):
        dst = tmp_path / f"c{i}"
        shutil.copytree(src, dst)
        dirs.append(dst)
    cache_file = dirs[0] / "zeta_gamma.cache"
    lines = cache_file.read_text().splitlines()
    head, digits = lines[0].split("val=+")
    lines[0] = f"{head}val=+{_alter_digit(digits, 6)}"
    cache_file.write_text("\n".join(lines) + "\n")
    errors = run.check_values(workload, dirs, refs)
    assert any("differs from the reference" in e for e in errors)


def test_root_count_check_rejects_non_real_roots(refs):
    gamma = {n: refs[n] for n in range(100, 110)}
    assert checks.check_root_counts(gamma, [(2, 100), (8, 101)]) == []
    gamma[101] = gamma[101] / 100  # breaks Turan's inequality at n = 100
    assert checks.check_root_counts(gamma, [(2, 100)])


@pytest.mark.parametrize("d, big_n", [(2, 25), (5, 381), (6, 610), (7, 908), (8, 1269)])
def test_find_n_check_rejects_off_by_one(d, big_n):
    def output(value):
        return f"d,N,last_failing,n_max\n{d},{value},{value - 1},2000\n"

    p = checks.partition_hrr
    assert checks.check_find_n_output(output(big_n), d, 2000, p) == (0, [])
    for wrong in (big_n - 1, big_n + 1):
        assert checks.check_find_n_output(output(wrong), d, 2000, p)[1], wrong
    assert checks.check_find_n_output("d,N,last_failing,n_max\n", d, 2000, p)[0] == 2001


def test_partition_check_rejects_wrong_value():
    ref = {n: checks.partition_hrr(n) for n in (5, 777)}
    assert checks.check_partition_values(dict(ref), ref) == []
    assert checks.check_partition_values({5: 7, 777: ref[777] + 1}, ref)


# -- references ---------------------------------------------------------------------


def test_hrr_matches_sympy():
    from sympy.functions.combinatorial.numbers import partition

    for n in list(range(0, 80)) + [500, 1268, 2020]:
        assert checks.partition_hrr(n) == int(partition(n)), n


def test_stored_references_cover_workloads_and_remake(refs):
    assert set(workloads.reference_indices()) <= set(refs)
    for n, digits in checks.PAPER_GAMMA.items():
        assert checks._sci_trunc(refs[n]) == digits
    data = json.loads(gamma_ref.REF_FILE.read_text())
    assert data["values"]["10"] == gamma_ref._reference_string(10)


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partition-find-n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_leaves_program_results_unchanged(tmp_path):
    """The wrapped CLI prints the same rows as the plain one."""
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    args = ("find-n", "3", "--max", "120", "--format", "csv")
    plain = runner.spawn(run.CLI + args)
    traced = runner.spawn(run.TRACED + (str(tmp_path / "t.json"),) + args)
    assert plain.stdout == traced.stdout and plain.returncode == traced.returncode == 0
    stats = json.loads((tmp_path / "t.json").read_text())
    assert stats["cli"][0] == 1 and stats["jensen.find_N"][0] == 1
