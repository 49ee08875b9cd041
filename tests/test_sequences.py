"""Sequence providers, the decimal cache codec, file loading, growth fits."""

import json
import random
from fractions import Fraction

import pytest
from mpmath import mpf, workprec
from mpmath.libmp import from_rational, round_nearest

from jensenpoly.asymptotics import partition_params
from jensenpoly.sequences import (
    CacheFormatError,
    CacheRecord,
    GammaCache,
    SequenceDataError,
    decimal_mantissa,
    fit_growth_params,
    load_sequence,
    parse_record,
    partition,
    partition_provider,
    render_record,
    zeta_gamma_provider,
)
from jensenpoly.zeta_core import BigReal, DomainError


class TestPartition:
    def test_small_values(self):
        assert [partition(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_known_larger_values(self):
        assert partition(25) == 1958
        assert partition(100) == 190569292

    def test_enumeration_oracle(self):
        # Independent route: count partitions by bounded-part DP.
        def count(n):
            table = [1] + [0] * n
            for part in range(1, n + 1):
                for total in range(part, n + 1):
                    table[total] += table[total - part]
            return table[n]

        for n in range(0, 31):
            assert partition(n) == count(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            partition(-1)

    def test_provider_wiring(self):
        seq = partition_provider()
        assert seq.exact_at is not None and seq.exact_at(5) == 7
        assert seq.params is not None and seq.params.n_min == 3
        v = seq.value_at(5, 96)
        assert isinstance(v, BigReal) and v.value == 7


class TestDecimalCodec:
    def test_round_trip_bit_exact_full_width_mantissas(self):
        rng = random.Random(1234)
        for _ in range(300):
            prec = rng.randrange(64, 480)
            man = rng.getrandbits(prec) | (1 << (prec - 1))
            exp = rng.randrange(-9000, 9000)
            sign = rng.choice([1, -1])
            with workprec(prec):
                x = mpf(sign * man) * mpf(2) ** exp
            rec = CacheRecord.from_value(7, x, prec, "exact")
            back = rec.to_mpf(prec)
            assert back._mpf_ == x._mpf_, (prec, man, exp)

    def test_zero_and_integers(self):
        with workprec(64):
            for v in (mpf(0), mpf(1), mpf(-12345), mpf(2) ** 600):
                rec = CacheRecord.from_value(1, v, 64, "exact")
                assert rec.to_mpf(64) == v

    def test_trunc_vs_round_mode(self):
        with workprec(128):
            x = mpf("1.000613367633")
        sign_r, digits_r, _ = decimal_mantissa(x, 10, mode="round")
        sign_t, digits_t, _ = decimal_mantissa(x, 10, mode="trunc")
        assert digits_r == "1000613368"
        assert digits_t == "1000613367"
        assert sign_r == sign_t == "+"

    def test_trunc_is_toward_zero_for_negatives(self):
        with workprec(128):
            x = mpf("-2.0199876")
        _, digits, exp10 = decimal_mantissa(x, 5, mode="trunc")
        assert digits == "20199"

    @pytest.mark.parametrize("x", [mpf(0), mpf(3), 0, 0.0])
    def test_unknown_mode_rejected_for_zero_too(self, x):
        with pytest.raises(ValueError, match="mode must be"):
            decimal_mantissa(x, 5, mode="bogus")


class TestRecordFormat:
    def test_render_shape(self):
        rec = CacheRecord(n=3, prec_bits=128, source="exact", decimal_value="+123e-5")
        assert render_record(rec) == "n=3 prec=128 src=exact val=+123e-5"

    def test_parse_round_trip(self):
        line = "n=42 prec=192 src=exact val=-98765e-300"
        rec = parse_record(line)
        assert (rec.n, rec.prec_bits, rec.source) == (42, 192, "exact")
        assert render_record(rec) == line

    @pytest.mark.parametrize(
        "line",
        [
            "n=1 prec=128 src=exact val=123e-5",      # missing sign
            "n=1 prec=128 val=+123e-5",               # missing src
            "n=x prec=128 src=exact val=+123e-5",     # bad n
            "n=1 prec=128 src=EXACT val=+123e-5",     # bad tag case
            "n=1 prec=128 src=asymptotic val=+123e-5",  # tag nothing writes
            "garbage",
        ],
    )
    def test_parse_rejects(self, line):
        with pytest.raises(CacheFormatError):
            parse_record(line, path="t.cache", lineno=7)


class TestGammaCache:
    def test_put_get_precision_serving(self, tmp_path):
        cache = GammaCache(tmp_path)
        with workprec(256):
            val = BigReal(mpf(3) / 7, 256)
        cache.put_value(9, val, "exact")
        # lower-precision request is served from the stored record
        assert cache.get(9, 128) is not None
        # higher-precision request is not
        assert cache.get(9, 320) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_persistence_and_clear(self, tmp_path):
        cache = GammaCache(tmp_path)
        with workprec(128):
            cache.put_value(4, BigReal(mpf("0.25"), 128), "exact")
        reloaded = GammaCache(tmp_path)
        assert len(reloaded.entries()) == 1
        reloaded.clear()
        assert not reloaded.path.exists()
        assert GammaCache(tmp_path).entries() == []

    def test_compact_dedups_and_sorts(self, tmp_path):
        cache = GammaCache(tmp_path)
        with workprec(64):
            cache.put_value(5, BigReal(mpf(2), 64), "exact")
            cache.put_value(2, BigReal(mpf(3), 64), "exact")
            cache.put_value(5, BigReal(mpf(2), 64), "exact")  # duplicate: no-op
        cache.compact()
        ns = [r.n for r in GammaCache(tmp_path).entries()]
        assert ns == [2, 5]

    def test_corrupt_file_raises_with_location(self, tmp_path):
        (tmp_path / GammaCache.FILENAME).write_text("n=1 prec=64 src=exact val=+1e0\nBROKEN\n")
        with pytest.raises(CacheFormatError, match=":2: unparseable"):
            GammaCache(tmp_path).entries()

    def test_torn_final_line_dropped_then_rewritten(self, tmp_path):
        path = tmp_path / GammaCache.FILENAME
        good = "n=1 prec=64 src=exact val=+1e0"
        path.write_text(good + "\nn=999 prec=352 src=exact val=+1234")
        cache = GammaCache(tmp_path)
        assert [r.n for r in cache.entries()] == [1]
        with workprec(64):
            cache.put_value(2, BigReal(mpf(3), 64), "exact")
        text = path.read_text()
        assert text.endswith("\n") and "val=+1234" not in text
        assert [r.n for r in GammaCache(tmp_path).entries()] == [1, 2]
        with workprec(64):  # later puts append again
            cache.put_value(3, BigReal(mpf(5), 64), "exact")
        assert path.read_text().startswith(text)
        assert [r.n for r in GammaCache(tmp_path).entries()] == [1, 2, 3]

    def test_memory_only_cache(self):
        cache = GammaCache(None)
        assert cache.path is None
        with workprec(128):
            cache.put_value(4, BigReal(mpf("0.25"), 128), "exact")
        assert cache.get(4, 96).value == mpf("0.25")
        cache.compact()
        assert len(cache.entries()) == 1
        cache.clear()
        assert cache.entries() == []

    def test_provider_computes_once(self, tmp_path):
        seq = zeta_gamma_provider(tmp_path)
        a = seq.value_at(11, 128)
        misses_after_first = seq.cache.misses
        b = seq.value_at(11, 128)
        assert a.value == b.value
        assert seq.cache.misses == misses_after_first
        assert seq.cache.hits >= 1

    def test_provider_without_cache(self):
        seq = zeta_gamma_provider(None)
        assert seq.value_at(9, 96).value > 0

    def test_provider_without_cache_dir_keeps_values_in_memory(self):
        seq = zeta_gamma_provider(None)
        assert seq.cache.path is None
        assert seq.value_at(9, 96).value == seq.value_at(9, 96).value
        assert seq.cache.misses == 1 and seq.cache.hits == 1


class TestLoadSequence:
    def _write_csv(self, tmp_path, rows, header=True):
        path = tmp_path / "seq.csv"
        lines = (["n,value"] if header else []) + [f"{n},{v}" for n, v in rows]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_csv_with_header(self, tmp_path):
        path = self._write_csv(tmp_path, [(0, 1), (1, 1), (2, 2), (3, 3)])
        seq = load_sequence(path)
        assert seq.exact_at(3) == 3
        assert seq.value_at(2, 96).value == 2

    def test_csv_without_header(self, tmp_path):
        path = self._write_csv(tmp_path, [(5, 7), (6, 11)], header=False)
        seq = load_sequence(path)
        assert seq.exact_at(6) == 11

    def test_json(self, tmp_path):
        path = tmp_path / "seq.json"
        path.write_text(json.dumps([[0, 2], [1, "5/2"], [2, 4]]))
        seq = load_sequence(path, fmt="json")
        assert seq.exact_at(1) == Fraction(5, 2)
        assert seq.value_at(1, 96).value == mpf("2.5")

    def test_value_rounded_once(self, tmp_path):
        # The numerator is wider than 64 bits, so rounding it before the
        # division would round twice.
        path = self._write_csv(tmp_path, [(0, "703868111321312405673397568678/5")])
        seq = load_sequence(path)
        assert seq.value_at(0, 64).value._mpf_ == from_rational(
            703868111321312405673397568678, 5, 64, round_nearest)

    def test_gap_rejected(self, tmp_path):
        path = self._write_csv(tmp_path, [(0, 1), (2, 2)])
        with pytest.raises(SequenceDataError, match="gap"):
            load_sequence(path)

    def test_nonpositive_rejected(self, tmp_path):
        path = self._write_csv(tmp_path, [(0, 1), (1, 0)])
        with pytest.raises(SequenceDataError, match="positive"):
            load_sequence(path)

    def test_out_of_range_access(self, tmp_path):
        path = self._write_csv(tmp_path, [(0, 1), (1, 2)])
        seq = load_sequence(path)
        with pytest.raises(DomainError):
            seq.value_at(2, 96)

    def test_params_attach(self, tmp_path):
        rows = [(n, partition(n)) for n in range(0, 40)]
        path = self._write_csv(tmp_path, rows)
        seq = load_sequence(path, params=partition_params(order=2))
        assert seq.params.n_min == 3


class TestFitGrowthParams:
    def test_recovers_partition_growth(self):
        seq = partition_provider()
        fit = fit_growth_params(seq, 400, j_max=8)
        model = partition_params(order=2)
        with workprec(96):
            a_model = float(model.A_of_n(400, 96))
            d_model = float(model.delta_of_n(400, 96))
        assert abs(fit.A - a_model) < 5e-3
        assert fit.hypotheses_evident
        assert abs(fit.delta - d_model) / d_model < 0.35
        assert fit.rms_residual < 1e-3

    def test_pure_geometric_has_no_curvature(self, tmp_path):
        import math

        path = tmp_path / "geo.csv"
        path.write_text("n,value\n" + "\n".join(f"{n},{2**n}" for n in range(20)))
        fit = fit_growth_params(load_sequence(path), 0, j_max=8)
        assert abs(fit.A - math.log(2)) < 1e-9
        assert fit.rms_residual < 1e-9
        assert abs(fit.delta_sq) < 1e-9
