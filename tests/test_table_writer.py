"""`cli._emit_table` against the per-cell writer it replaced, byte for byte.

The reference below is that writer: `json.dumps(indent=2, sort_keys=True)`
over rows of `_jnum` cells, and `_fmt` cells joined by commas. A table has
at least one row, every cell is a float or a str, and a column holds one
kind, as in every table the CLI writes.
"""

import contextlib
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from catcorr.cli import _emit_table, _fmt, _jnum


def reference_table(fmt, columns, rows, summary=None) -> str:
    if fmt == "json":
        payload = {
            "columns": columns,
            "rows": [{key: (_jnum(val) if isinstance(val, float) else val)
                      for key, val in zip(columns, row)} for row in rows],
        }
        if summary is not None:
            payload[summary[0]] = summary[1]
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join([_fmt(val) if isinstance(val, float) else val for val in row])
                 for row in rows)
    if summary is not None:
        key, val = summary
        lines.append(f"# {key}={_fmt(val) if isinstance(val, float) else val}")
    return "\n".join(lines) + "\n"


def written_table(fmt, columns, rows, summary=None) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit_table(SimpleNamespace(format=fmt, out=None), columns, rows, summary)
    return out.getvalue()


EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 123456789.0, 1e16, -1e16, 9.999999995e8, 999999999.0,
               1e-5, 9.9999999e-5, 1e-4, 1.23456789e-5, 5e-324, -5e-324, 1.7976931348623157e308,
               0.1, 1 / 3, 2.0 ** 53 + 2, float("nan"), float("inf"), float("-inf"),
               # integral cells, which JSON writes with ".0"
               2.0, -3.0, 1e8,
               # exponents 9 to 15: repr writes them in full, %g does not
               1234567890.0, 1e15, 9.99999999e15,
               # exponents -30 to -39 and subnormals, where 9 digits may not pin the double
               1.5e-35, 2.2250738585072014e-308, 1e-310,
               # rounds up to the next power of ten, which %g writes in full
               9.9999999995e-5]
EDGE_STRINGS = ["mixed_plus", "infinite", "", "a,b", "%s", "100%", 'say "hi"', "tab\tnew\nline",
                "caf\u00e9", "\u2603", "\U0001f600", "back\\slash", "\x00"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("summary", [None, ("sudden_death_time", 1.26566637),
                                     ("sudden_death_time", "infinite"),
                                     ("death", float("nan")), ("a", 9.999999995e8)])
def test_fixed_edge_cells_match_the_reference(fmt, summary):
    columns = ["x", "label", "y", "100%", "x"]
    rows = [(x, s, -x, x * 3.0, x / 7.0)
            for x, s in zip(EDGE_FLOATS, EDGE_STRINGS * 3, strict=False)]
    assert len(rows) == len(EDGE_FLOATS)
    assert written_table(fmt, columns, rows, summary) == reference_table(fmt, columns, rows, summary)


@pytest.mark.parametrize("x", EDGE_FLOATS)
def test_each_edge_float_in_columns_of_its_own_matches_the_reference(x):
    # JSON picks a float column's writer from all of its cells, and the table
    # above puts a nan in every column; here x alone decides each column's writer
    columns = ["x", "y"]
    rows = [(x, -x), (0.5, x / 7.0), (x * 3.0, 2.0)]
    for fmt in ("csv", "json"):
        assert written_table(fmt, columns, rows) == reference_table(fmt, columns, rows)


def test_one_row_of_mixed_kinds_matches_the_reference():
    columns = ["n", "parity", "overlaps", "discord", "sudden_death_time"]
    row = ("3", "odd", "0.3 0.6 0.9", 0.0841577293, "infinite")
    for fmt in ("csv", "json"):
        assert written_table(fmt, columns, [row]) == reference_table(fmt, columns, [row])


_names = st.text(alphabet="ab%\"\\,\u00e9", max_size=3)


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=6))
    columns = [draw(_names) for _ in kinds]
    cell = {True: st.floats() | st.sampled_from(EDGE_FLOATS), False: st.text(max_size=6)}
    rows = draw(st.lists(st.tuples(*(cell[kind] for kind in kinds)), min_size=1, max_size=5))
    # a summary key other than the two fixed keys it would overwrite
    summary = draw(st.none() | st.tuples(_names.filter(lambda k: k not in ("columns", "rows")),
                                         st.floats() | st.text(max_size=6)))
    return columns, rows, summary


@settings(max_examples=300, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_random_tables_match_the_reference(table, fmt):
    columns, rows, summary = table
    assert written_table(fmt, columns, rows, summary) == reference_table(fmt, columns, rows, summary)
