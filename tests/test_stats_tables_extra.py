"""Extra edge cases for table rendering."""

from repro.stats.tables import format_number, format_table


class TestFormatTableEdges:
    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        lines = text.splitlines()
        assert len(lines) == 2  # header + separator

    def test_title_optional(self):
        text = format_table(["a"], [["1"]])
        assert not text.startswith("\n")
        assert text.splitlines()[0] == "a"

    def test_wide_cells_expand_columns(self):
        text = format_table(["x"], [["a-very-wide-cell"]])
        assert "a-very-wide-cell" in text


class TestFormatNumberEdges:
    def test_zero(self):
        assert format_number(0) == "0"

    def test_precision(self):
        assert format_number(1234) == "1.23K"
        assert format_number(1_234_567) == "1.23M"
        assert format_number(0.5) == "0.50"

    def test_boundaries(self):
        assert format_number(999) == "999"
        assert format_number(1000) == "1.00K"
