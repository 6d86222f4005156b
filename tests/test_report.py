"""Boolean rate tables and cumulative distribution series."""

from __future__ import annotations

import csv
import io

import pytest

from certsift import FeatureVector
from certsift.errors import EmptyInput
from certsift.report import (
    boolean_feature_table,
    cdf_series,
    feature_cdf,
    write_cdf_csv,
)


def fv(domain: str, **overrides) -> FeatureVector:
    base = dict(
        f1=False, f2=False, f3=False, f4=False, f5=False, f6=False, f7=False,
        f8=False, f9="CA", f10="Org", f11="US", f12="US",
        f13=365, f14=5, f15=0.5,
    )
    base.update(overrides)
    return FeatureVector(domain=domain, **base)


class TestBooleanFeatureTable:
    def test_rates_and_header(self):
        corpus = [
            fv("a.example", f3=True),
            fv("b.example", f3=True),
            fv("c.example", f3=True, f1=True),
            fv("d.example"),
            fv("e.example"),
        ]
        table = boolean_feature_table([("sample", corpus)])
        assert table.header == ("feature", "sample (5)")
        assert table.cell("f3", "sample") == "60.0%"
        assert table.cell("f1", "sample") == "20.0%"
        assert table.cell("f8", "sample") == "0.0%"

    def test_one_decimal_rounding(self):
        # 2 of 7 rows: 28.571...% renders as 28.6%
        corpus = [fv(f"r{i}.example", f4=i < 2) for i in range(7)]
        table = boolean_feature_table([("seven", corpus)])
        assert table.cell("f4", "seven") == "28.6%"

    def test_multiple_corpora_keep_order(self):
        left = [fv("l.example", f2=True)]
        right = [fv("r1.example"), fv("r2.example")]
        table = boolean_feature_table([("fraud", left), ("benign", right)])
        assert table.header == ("feature", "fraud (1)", "benign (2)")
        assert table.cell("f2", "fraud") == "100.0%"
        assert table.cell("f2", "benign") == "0.0%"

    def test_empty_corpus_cells(self):
        table = boolean_feature_table([("nothing", [])])
        assert table.header == ("feature", "nothing (0)")
        for feature in ("f1", "f5", "f8"):
            assert table.cell(feature, "nothing") == "n/a"

    def test_no_corpora_rejected(self):
        with pytest.raises(EmptyInput):
            boolean_feature_table([])

    def test_eight_rows_in_feature_order(self):
        table = boolean_feature_table([("x", [fv("a.example")])])
        assert [row[0] for row in table.rows] == [
            "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8"
        ]

    def test_unknown_cell_raises(self):
        table = boolean_feature_table([("x", [fv("a.example")])])
        with pytest.raises(KeyError):
            table.cell("f1", "missing")

    def test_csv_output(self):
        corpus = [fv("a.example", f6=True), fv("b.example")]
        table = boolean_feature_table([("c", corpus)])
        buffer = io.StringIO()
        table.write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "feature,c (2)"
        assert lines[6] == "F6,50.0%"
        assert len(lines) == 9

    def test_csv_round_trips_a_carriage_return_in_a_corpus_name(self):
        # before Python 3.13, csv.reader ends a record at an unquoted "\r"
        table = boolean_feature_table([("odd\rname", [fv("a.example", f6=True)]),
                                       ("c", [fv("b.example")])])
        buffer = io.StringIO()
        table.write_csv(buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue(), newline="")))
        assert [tuple(row) for row in rows] == [table.header, *table.rows]


class TestCdfSeries:
    def test_known_series(self):
        assert cdf_series([365, 365, 730]) == [
            (365.0, pytest.approx(2 / 3)),
            (730.0, 1.0),
        ]

    def test_single_value(self):
        assert cdf_series([12.5]) == [(12.5, 1.0)]

    def test_monotone_and_complete(self):
        import random

        rng = random.Random(2)
        values = [rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]) for _ in range(500)]
        series = cdf_series(values)
        fractions = [f for _, f in series]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        points = [v for v, _ in series]
        assert points == sorted(set(values))

    def test_fraction_counts_values_at_or_below(self):
        series = dict(cdf_series([1, 2, 2, 3]))
        assert series[1.0] == 0.25
        assert series[2.0] == 0.75
        assert series[3.0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            cdf_series([])


class TestFeatureCdf:
    def test_over_f13(self):
        rows = [fv("a.example", f13=365), fv("b.example", f13=365), fv("c.example", f13=730)]
        assert feature_cdf(rows, "f13") == [(365.0, pytest.approx(2 / 3)), (730.0, 1.0)]

    def test_over_f15_mass_at_zero(self):
        rows = [fv(f"r{i}.example", f15=0.0 if i < 43 else 0.8) for i in range(100)]
        series = dict(feature_cdf(rows, "f15"))
        assert series[0.0] == pytest.approx(0.43)

    def test_non_numeric_feature_rejected(self):
        with pytest.raises(ValueError):
            feature_cdf([fv("a.example")], "f3")

    def test_empty_rows_rejected(self):
        with pytest.raises(EmptyInput):
            feature_cdf([], "f15")


class TestCdfCsv:
    def test_formatting(self):
        buffer = io.StringIO()
        write_cdf_csv(buffer, [(365.0, 2 / 3), (730.0, 1.0)])
        lines = buffer.getvalue().splitlines()
        assert lines == ["value,cum_frac", "365,0.666667", "730,1.000000"]
