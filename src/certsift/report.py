"""Distribution summaries over extracted feature corpora.

Two shapes: a table of boolean feature rates across named corpora (one
row per boolean feature, one column per corpus, percentages at one
decimal), and a cumulative distribution series over a numeric feature
for plotting.
"""

from __future__ import annotations

import io
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import EmptyInput
from .features import BOOLEAN_FEATURES, NUMERIC_FEATURES, FeatureVector, csv_row_writer


@dataclass(frozen=True)
class BooleanFeatureTable:
    """Rates of the eight boolean features across one or more corpora."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def cell(self, feature: str, corpus: str) -> str:
        for row in self.rows:
            if row[0] == feature.upper():
                for j, name in enumerate(self.header[1:], start=1):
                    if name.split(" (")[0] == corpus:
                        return row[j]
        raise KeyError(f"no cell for {feature}/{corpus}")

    def write_csv(self, out: io.TextIOBase) -> None:
        writerow = csv_row_writer(out)
        for row in (self.header, *self.rows):
            writerow(row)


def boolean_feature_table(
    corpora: Sequence[tuple[str, Sequence[FeatureVector]]],
) -> BooleanFeatureTable:
    """Tabulate boolean feature rates; columns keep the given corpus order.

    Every column header carries the corpus size; every cell is the
    percentage of rows with that feature true, at one decimal, or "n/a"
    for an empty corpus.  At least one corpus must be given.
    """
    if not corpora:
        raise EmptyInput("no corpora to tabulate")
    header = ["feature"]
    for name, rows in corpora:
        header.append(f"{name} ({len(rows)})")
    table_rows = []
    for feature in BOOLEAN_FEATURES:
        row = [feature.upper()]
        for _, rows in corpora:
            if not rows:
                row.append("n/a")
                continue
            count = sum(1 for fv in rows if fv.value(feature))
            row.append(f"{100.0 * count / len(rows):.1f}%")
        table_rows.append(tuple(row))
    return BooleanFeatureTable(tuple(header), tuple(table_rows))


def cdf_series(values: Iterable[float]) -> list[tuple[float, float]]:
    """Empirical CDF: sorted distinct values with cumulative fractions.

    The last point always has cumulative fraction 1.0; the fraction at
    each value counts everything less than or equal to it.
    """
    ordered = sorted(values)
    if not ordered:
        raise EmptyInput("no values for a distribution series")
    n = len(ordered)
    series: list[tuple[float, float]] = []
    for i, value in enumerate(ordered, start=1):
        if i == n or ordered[i] != value:
            series.append((float(value), i / n))
    return series


def feature_cdf(rows: Sequence[FeatureVector], feature: str) -> list[tuple[float, float]]:
    """CDF over one numeric feature of a corpus."""
    if feature not in NUMERIC_FEATURES:
        raise ValueError(f"{feature} is not a numeric feature")
    if not rows:
        raise EmptyInput("no rows for a distribution series")
    return cdf_series(float(fv.value(feature)) for fv in rows)


def write_cdf_csv(out: io.TextIOBase, series: Sequence[tuple[float, float]]) -> None:
    writerow = csv_row_writer(out)
    writerow(("value", "cum_frac"))
    for value, fraction in series:
        writerow((f"{value:g}", f"{fraction:.6f}"))
