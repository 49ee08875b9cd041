"""End-to-end command-line checks (subprocess level, real exit codes; in-process
where a test patches the program)."""

import json
import os
import subprocess
import sys

import pytest

from jensenpoly import cli, sequences
from jensenpoly.sequences import GammaCache, zeta_gamma_provider
from jensenpoly.zeta_core import PrecisionFailure

CMD = [sys.executable, "-m", "jensenpoly.cli"]


def run(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("JENSENPOLY_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + list(args), capture_output=True, text=True, env=env, timeout=600
    )


class TestGammaCommand:
    def test_compare_reference_row(self):
        res = run("gamma", "10", "--compare")
        assert res.returncode == 0
        assert "1.6313374394e-17" in res.stdout
        assert "1.6323380490e-17" in res.stdout
        assert "1.000613367" in res.stdout

    def test_exact_only(self):
        res = run("gamma", "5", "--exact")
        assert res.returncode == 0
        assert "gamma_hat" not in res.stdout

    def test_zero_is_usage_error(self):
        res = run("gamma", "0")
        assert res.returncode == 3

    def test_csv_format(self):
        res = run("gamma", "10", "--compare", "--format", "csv")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "n,gamma_hat,gamma,ratio"
        assert lines[1].startswith("10,1.6313374394e-17,1.6323380490e-17,1.000613367")

    def test_flag_position_flexible(self):
        before = run("--prec", "128", "gamma", "5", "--exact")
        after = run("gamma", "5", "--exact", "--prec", "128")
        assert before.returncode == after.returncode == 0
        assert before.stdout == after.stdout

    def test_jobs_starts_no_process(self, monkeypatch, capsys):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("--jobs must not start a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        command = ["gamma", "7", "8", "--exact"]
        assert cli.main(command + ["--jobs", "2"]) == 0
        two = capsys.readouterr().out
        assert cli.main(command + ["--jobs", "1"]) == 0
        assert capsys.readouterr().out == two

    def test_flags_before_subcommand_kept(self, tmp_path):
        res = run("--format", "csv", "--cache-dir", str(tmp_path), "--prec", "96",
                  "gamma", "7", "--exact", "--prec", "128")
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "n,gamma"
        # --prec given on both sides: the later one wins
        assert [r.prec_bits for r in GammaCache(tmp_path).entries()] == [128]


class TestJensenCommand:
    def test_raw_partition(self):
        res = run("jensen", "partition", "2", "5")
        assert res.returncode == 0
        assert "15X^2 + 22X + 7" in res.stdout

    def test_renormalized_zeta_csv(self):
        res = run("jensen", "zeta", "2", "100", "--renormalized", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "seq,kind,d,n,power,coefficient"
        values = {line.split(",")[4]: line.split(",")[5] for line in lines[1:]}
        assert values == {"2": "0.9896", "1": "0.3083", "0": "-2.0199"}

    def test_renormalized_below_domain(self):
        res = run("jensen", "zeta", "2", "5", "--renormalized")
        assert res.returncode == 3


class TestSweepCommand:
    def test_counterexample_exit(self):
        res = run("sweep", "partition", "2", "20..30")
        assert res.returncode == 1
        assert "not_hyperbolic" in res.stdout

    def test_all_hyperbolic_exit(self):
        res = run("sweep", "partition", "2", "25..40")
        assert res.returncode == 0

    def test_empty_range(self):
        res = run("sweep", "zeta", "2", "5..3", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.strip() == "seq,d,n,verdict,method,margin"

    def test_json_shape(self):
        res = run("sweep", "partition", "3", "94..96", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["meta"]["command"] == "sweep"
        assert [r["verdict"] for r in payload["rows"]] == ["hyperbolic"] * 3

    def test_parallel_output_byte_identical(self, tmp_path):
        a = run("sweep", "zeta", "2", "40..45", "--format", "csv",
                "--cache-dir", str(tmp_path / "c1"), "--jobs", "1")
        b = run("sweep", "zeta", "2", "40..45", "--format", "csv",
                "--cache-dir", str(tmp_path / "c2"), "--jobs", "2")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_warm_up_stores_first_rung_reads(self, tmp_path, monkeypatch, capsys):
        from jensenpoly.jensen import read_prec

        computed = []
        real = sequences.gamma_exact

        def counting(n, prec):
            computed.append(n)
            return real(n, prec)

        monkeypatch.setattr(sequences, "gamma_exact", counting)
        args = ["sweep", "zeta", "1..2", "100..101", "--format", "csv"]
        one, two = tmp_path / "one", tmp_path / "two"
        assert cli.main(args + ["--cache-dir", str(one), "--jobs", "1"]) == 0
        out_one = capsys.readouterr().out
        assert sorted(computed) == [100, 101, 102, 103]  # once per value
        seq = zeta_gamma_provider()
        want = max(read_prec(seq, d, n, 192) for d in (1, 2) for n in (100, 101))
        assert [r.prec_bits for r in GammaCache(one).entries()] == [want] * 4
        res = run(*args, "--cache-dir", str(two), "--jobs", "2")
        assert res.returncode == 0
        assert res.stdout == out_one
        cache_file = GammaCache.FILENAME
        assert (two / cache_file).read_bytes() == (one / cache_file).read_bytes()

    def test_precision_failure_exit_two(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise PrecisionFailure("ladder exhausted")

        monkeypatch.setattr(cli, "certify", failing)
        assert cli.main(["sweep", "partition", "2", "25..26"]) == 2
        assert capsys.readouterr().err == "precision failure: ladder exhausted\n"


class TestFindNCommand:
    def test_degree_two(self):
        res = run("find-n", "2", "--max", "300", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "d,N,last_failing,n_max"
        assert lines[1] == "2,25,24,300"

    def test_degree_eight_larger_scan(self):
        res = run("find-n", "8", "--max", "5000", "--format", "csv")
        assert res.returncode == 0
        assert res.stdout.strip().splitlines()[1] == "8,1269,1268,5000"


class TestEffectiveCommand:
    def test_below_domain_range(self):
        res = run("effective", "7..99")
        assert res.returncode == 3
        assert "n >= 100" in res.stderr

    def test_partial_range_warns_but_runs(self):
        res = run("effective", "98..101")
        assert res.returncode == 0
        assert "dropping" in res.stderr
        assert "100" in res.stdout and "101" in res.stdout

    def test_json_report(self):
        res = run("effective", "104..106", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["meta"]["first_all_hold"] == 104
        assert all(r["all_hold"] == "pass" for r in payload["rows"])


class TestTablesCommand:
    def test_partition_group(self):
        res = run("tables", "partition-jensen", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "group,n,d,entry,value"
        assert len(lines) == 9  # header + 4 rows each for d=2,3
        assert "0.9993X^2 + 0.0731X - 1.9568" in res.stdout
        assert "0.9997X^3 + 0.0786X^2 - 5.9621X - 1.2747" in res.stdout


class TestCacheCommand:
    def test_requires_directory(self):
        res = run("cache")
        assert res.returncode == 3

    def test_env_variable_round_trip(self, tmp_path):
        env = {"JENSENPOLY_CACHE_DIR": str(tmp_path)}
        fill = run("gamma", "7", "--exact", "--prec", "128", env_extra=env)
        assert fill.returncode == 0
        inspect = run("cache", env_extra=env)
        assert inspect.returncode == 0
        assert "1 record(s)" in inspect.stdout
        clear = run("cache", "clear", env_extra=env)
        assert clear.returncode == 0 and "cleared 1" in clear.stdout
        assert run("cache", env_extra=env).stdout.count("exact") == 0

    def test_corrupt_cache_is_exit_three(self, tmp_path):
        (tmp_path / "zeta_gamma.cache").write_text(
            "n=1 prec=64 src=exact val=+1e0\nBROKEN\nn=2 prec=64 src=exact val=+1e0\n"
        )
        res = run("gamma", "7", "--exact", "--cache-dir", str(tmp_path))
        assert res.returncode == 3
        assert "Traceback" not in res.stderr
        assert ":2: unparseable" in res.stderr

    def test_clear_removes_corrupt_cache(self, tmp_path):
        path = tmp_path / "zeta_gamma.cache"
        path.write_text("garbage line\n")
        res = run("cache", "clear", "--cache-dir", str(tmp_path))
        assert res.returncode == 0, res.stderr
        assert not path.exists()
        assert res.stdout == f"cleared an unreadable cache from {path}\n"

    def test_torn_final_line_recovered(self, tmp_path):
        fill = run("gamma", "7", "--exact", "--cache-dir", str(tmp_path))
        with open(tmp_path / "zeta_gamma.cache", "a") as fh:
            fh.write("n=999 prec=352 src=exact val=+1234")
        again = run("gamma", "7", "8", "--exact", "--cache-dir", str(tmp_path))
        assert fill.returncode == again.returncode == 0
        assert again.stdout.startswith(fill.stdout)
        assert "val=+1234" not in (tmp_path / "zeta_gamma.cache").read_text()

    def test_no_cache_dir_parallel_leaves_no_files(self, tmp_path):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        env = {"TMPDIR": str(scratch)}
        one = run("gamma", "7", "8", "9", "10", "--exact", "--jobs", "1", env_extra=env)
        two = run("gamma", "7", "8", "9", "10", "--exact", "--jobs", "2", env_extra=env)
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout
        assert list(scratch.iterdir()) == []

    def test_cached_rerun_identical(self, tmp_path):
        env = {"JENSENPOLY_CACHE_DIR": str(tmp_path)}
        first = run("gamma", "9", "--compare", env_extra=env)
        second = run("gamma", "9", "--compare", env_extra=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestUsage:
    def test_unknown_subcommand(self):
        assert run("no-such-command").returncode == 3

    def test_no_subcommand_prints_help(self):
        res = run()
        assert res.returncode == 3
        assert "COMMAND" in res.stderr

    def test_precision_floor(self):
        assert run("gamma", "5", "--exact", "--prec", "32").returncode == 3

    def test_bad_jobs(self):
        assert run("gamma", "5", "--exact", "--jobs", "0").returncode == 3

    @pytest.mark.parametrize("flag, value, message", [
        ("--prec", "32", "precision must be >= 64 bits"),
        ("--jobs", "0", "parallelism must be >= 1"),
    ])
    @pytest.mark.parametrize("before", [True, False])
    def test_global_flag_floor_message(self, flag, value, message, before):
        command = ["gamma", "5", "--exact"]
        argv = [flag, value] + command if before else command + [flag, value]
        res = run(*argv)
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == f"jensenpoly: error: {message}"

    def test_bad_range_syntax(self):
        assert run("sweep", "partition", "2", "10..x").returncode == 3

    def test_version(self):
        res = run("--version")
        assert res.returncode == 0
        assert "jensenpoly" in res.stdout
