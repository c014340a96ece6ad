"""Unit tests for reporting and statistics helpers."""

import pytest

from repro.analysis.report import Series, format_table
from repro.analysis.stats import mean, percentile


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert mean([]) == 0.0

    def test_percentile_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 4.0

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)

    def test_percentile_single_value(self):
        assert percentile([7.0], 30) == 7.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 50)


class TestReport:
    def test_format_table_aligns(self):
        text = format_table("demo", ["x", "y"], [[1, 2.5], [10, 0.25]])
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "x" in lines[1] and "y" in lines[1]
        assert len(lines) == 5

    def test_series_add(self):
        s = Series("remo")
        s.add(0.5)
        s.add(0.7)
        assert s.values == [0.5, 0.7]

    def test_float_formatting(self):
        text = format_table("f", ["v"], [[0.123456]])
        assert "0.1235" in text
