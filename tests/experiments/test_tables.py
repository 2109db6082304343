"""Table reproductions and report formatting."""

from repro.experiments.report import format_table
from repro.experiments.tables import (
    motivation_profile,
    render_motivation_profile,
    render_table1,
    table1_rows,
)


class TestTable1:
    def test_rows(self):
        rows = table1_rows()
        assert "L1d cache" in rows
        assert "BIA" in rows
        assert "64 KB" in rows["L1d cache"]

    def test_render(self):
        text = render_table1(table1_rows())
        assert "Table 1" in text
        assert "Last Level cache" in text


class TestMotivationProfile:
    def test_profile_shape(self):
        data = motivation_profile(bins=600)
        assert set(data) == {"origin", "secure", "secure with avx"}
        for row in data.values():
            assert set(row) == {"L1d ref", "L1i ref", "LL misses"}

    def test_secure_inflates_references(self):
        """The Sec. 3.1 finding: L1d/L1i refs explode, LL misses don't."""
        data = motivation_profile(bins=600)
        origin, secure = data["origin"], data["secure"]
        assert secure["L1d ref"] > 10 * origin["L1d ref"]
        assert secure["L1i ref"] > 10 * origin["L1i ref"]
        # LLC misses stay in the same ballpark (not DRAM-bound)
        assert secure["LL misses"] <= 3 * max(origin["LL misses"], 1)

    def test_avx_reduces_instructions_not_accesses(self):
        data = motivation_profile(bins=600)
        secure, avx = data["secure"], data["secure with avx"]
        assert avx["L1i ref"] < secure["L1i ref"]
        assert avx["L1d ref"] == secure["L1d ref"]

    def test_render(self):
        text = render_motivation_profile(motivation_profile(bins=600), 600)
        assert "L1d ref" in text and "origin" in text


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(
            ["name", "value"], [("a", 1), ("bb", 2.5)], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "2.50" in text
        assert "1" in text

    def test_large_floats_get_thousands_separator(self):
        text = format_table(["x"], [(12345.6,)])
        assert "12,346" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
