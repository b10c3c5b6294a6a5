"""The listing of a scan report: packed columns rendered with one format string per row."""

import json
import math
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leggettlab import cli
from leggettlab._json import CHUNK, Rows, render
from leggettlab.cli import EXIT_INTERNAL, main

KEYS = ("c", "alpha", "beta", "S")

# Signed zeros, the smallest and largest subnormals, the smallest normal,
# values near the overflow edge, and values whose 17th digit matters.
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e300, -1e300,
           1.7976931348623157e308, 0.30000000000000004, 0.1, 1.0 / 3.0, 1.0000000000000002,
           0.9999999999999999, 1.2345678901234567e-100]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _render_dicts(columns) -> str:
    """The listing as it was rendered before columns: one dict per row, each value a float or None."""
    c, alpha, beta, s = columns
    return render([{"c": None if c is None else c[n], "alpha": alpha[n], "beta": beta[n], "S": s[n]}
                   for n in range(len(s))])


@settings(max_examples=60, deadline=None)
@given(pool=st.lists(VALUES, min_size=1, max_size=24),
       rows=st.sampled_from([0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1]), weighted=st.booleans())
def test_columns_render_as_the_list_of_dicts(pool, rows, weighted):
    columns = [array("d", (pool[(4 * n + m) % len(pool)] for n in range(rows))) for m in range(4)]
    if not weighted:
        columns[0] = None
    got = render(Rows(KEYS, tuple(columns)))
    # Row by row, so that a failure reports the first row that differs (the split is reversible).
    assert got.split("}, {") == _render_dicts(columns).split("}, {")
    # Every value parses back to the same double, sign of zero included.
    parsed = json.loads(got, parse_int=float)
    assert len(parsed) == rows
    for key, column in zip(KEYS, columns):
        if column is None:
            assert all(row[key] is None for row in parsed)
        else:
            assert [float.hex(row[key]) for row in parsed] == [float.hex(v) for v in column]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_listed_value_that_is_not_finite_is_an_internal_fault(bad):
    with pytest.raises(FloatingPointError):
        render(Rows(KEYS, (None, array("d", [0.5, 1.0]), array("d", [0.5, bad]), array("d", [0.9, 0.9]))))


def test_the_cli_exits_internal_on_a_listed_value_that_is_not_finite(monkeypatch, capsys):
    scan = cli.grid_scan

    def broken(spec, workers=None):
        report = scan(spec, workers=workers)
        listed = report.violations
        return replace(report, violations=listed._replace(s=array("d", [math.nan] * len(listed.s))))

    monkeypatch.setattr(cli, "grid_scan", broken)
    code = main(["scan", "--family", "singlet", "--step", "0.2", "--tolerance=-0.5", "--no-refine"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == "" and "not finite" in captured.err
