"""The scaling script's table runs: every row's operation succeeds on the row's
smallest input, every row names a class for its peak, and a measured cell
prints the fields the script documents."""

import re

import pytest

import scaling

FIELDS = re.compile(
    r"(?P<shape>[a-z-]+) +(?P<layer>[a-z_]+) +n=(?P<n>\d+) +(?P<seconds>\d+\.\d{6}) s +(?P<peak>\d+\.\d) MB"
    r" (?P<memory>[a-z:]+) +(?P<outcome>ok|[A-Za-z]+Error)(?: count=(?P<count>\d+))?"
)


@pytest.mark.parametrize("row", scaling.TABLE, ids=lambda row: f"{row[0]}-{row[3]}")
def test_row_runs_on_its_smallest_input(row):
    shape, sizes, make, layer, operation, memory = row
    assert list(sizes) == sorted(sizes)
    assert memory in scaling.MEMORY_CLASSES
    result = operation(make(sizes[0]))
    assert layer != "scope" or result > 0


def test_a_measured_cell_prints_the_documented_fields():
    shape, sizes, make, layer, operation, memory = scaling.TABLE[0]
    fields = FIELDS.fullmatch(scaling.line(shape, layer, sizes[0], make, operation, memory))
    assert fields is not None
    assert (fields["shape"], fields["layer"], fields["n"], fields["memory"]) == (shape, layer, str(sizes[0]), memory)
    assert fields["outcome"] == "ok" and fields["count"] is None


def test_the_outcome_names_the_exception_and_a_count_is_printed():
    failed = FIELDS.fullmatch(scaling.line("closed-nest", "x", 1, lambda n: n, lambda n: n // 0, scaling.LINEAR))
    assert failed is not None and failed["outcome"] == "ZeroDivisionError"
    counted = FIELDS.fullmatch(scaling.line("name-chain", "count", 7, lambda n: n, lambda n: n + 1, scaling.NAMES))
    assert counted is not None and (counted["outcome"], counted["count"]) == ("ok", "8")
