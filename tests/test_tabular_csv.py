"""Tests for repro.tabular.csv_io."""

import tracemalloc

import pytest

from repro.exceptions import CsvParseError, SchemaError
from repro.tabular import csv_io
from repro.tabular.csv_io import iter_csv_chunks, read_csv, read_csv_text, write_csv
from repro.tabular.schema import Field, Schema
from repro.tabular.table import Table


class TestReadCsvText:
    def test_header_and_inference(self):
        table = read_csv_text("a,b\n1,x\n2,y\n")
        assert table.column("a").kind == "numeric"
        assert table.column("b").to_list() == ["x", "y"]

    def test_whitespace_stripped(self):
        table = read_csv_text("a, b\n 1 , x \n")
        assert table.column_names == ["a", "b"]
        assert table.column("b").to_list() == ["x"]

    def test_no_header_with_names(self):
        table = read_csv_text("1,x\n", header=False, column_names=["n", "c"])
        assert table.column("n").values.tolist() == [1.0]

    def test_no_header_without_names_rejected(self):
        with pytest.raises(CsvParseError):
            read_csv_text("1,2\n", header=False)

    def test_schema_parsing(self):
        schema = Schema(
            [Field("n", "numeric"), Field("c", "categorical", levels=("x", "y"))]
        )
        table = read_csv_text("n,c\n3,y\n", schema=schema)
        assert table.column("c").levels == ("x", "y")

    def test_schema_violation(self):
        schema = Schema([Field("n", "numeric")])
        with pytest.raises(SchemaError):
            read_csv_text("n\nabc\n", schema=schema)

    def test_ragged_row_rejected(self):
        with pytest.raises(CsvParseError, match="cells"):
            read_csv_text("a,b\n1\n")

    def test_empty_rejected(self):
        with pytest.raises(CsvParseError):
            read_csv_text("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(CsvParseError, match="no data rows"):
            read_csv_text("a,b\n")

    def test_comment_lines_skipped(self):
        table = read_csv_text(
            "|comment\na\n1\n", skip_comment_prefix="|"
        )
        assert table.column("a").values.tolist() == [1.0]

    def test_missing_token_replacement(self):
        table = read_csv_text(
            "c\n?\nx\n", missing_token="?", missing_replacement="Unknown"
        )
        assert table.column("c").to_list() == ["Unknown", "x"]

    def test_missing_token_kept_by_default(self):
        table = read_csv_text("c\n?\nx\n")
        assert "?" in table.column("c").to_list()

    def test_blank_lines_ignored(self):
        table = read_csv_text("a\n\n1\n\n2\n")
        assert table.n_rows == 2


class TestRoundtrip:
    def test_write_then_read(self, tmp_path, numeric_table):
        path = tmp_path / "data.csv"
        write_csv(numeric_table, path)
        back = read_csv(path)
        assert back.to_dict() == numeric_table.to_dict()

    def test_integral_floats_written_as_ints(self, tmp_path):
        table = Table.from_dict({"x": [1.0, 2.5]})
        path = tmp_path / "data.csv"
        write_csv(table, path)
        content = path.read_text()
        assert "1\n" in content.replace("\r", "")
        assert "2.5" in content

    def test_adult_style_file(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(
            "39, State-gov, 77516, Bachelors, 13, <=50K\n"
            "50, ?, 83311, HS-grad, 9, >50K.\n"
        )
        table = read_csv(
            path,
            header=False,
            column_names=["age", "workclass", "fnlwgt", "edu", "edu_num", "income"],
        )
        assert table.n_rows == 2
        assert table.column("age").values.tolist() == [39.0, 50.0]
        assert "?" in table.column("workclass").to_list()


class TestIterCsvChunks:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "stream.csv"
        lines = ["g,r,y"]
        for index in range(25):
            lines.append(f"g{index % 2},r{index % 3},y{index % 2}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_chunks_cover_all_rows_in_order(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        chunks = list(iter_csv_chunks(csv_path, chunk_rows=10))
        assert [chunk.n_rows for chunk in chunks] == [10, 10, 5]
        streamed = [
            row
            for chunk in chunks
            for row in zip(*(chunk.column(n).to_list() for n in ["g", "r", "y"]))
        ]
        table = read_csv(csv_path)
        assert streamed == list(
            zip(*(table.column(n).to_list() for n in ["g", "r", "y"]))
        )

    def test_columns_projection(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        chunk = next(iter(iter_csv_chunks(csv_path, chunk_rows=5, columns=["y", "g"])))
        assert chunk.column_names == ["y", "g"]

    def test_unknown_column_rejected(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        with pytest.raises(CsvParseError):
            next(iter(iter_csv_chunks(csv_path, columns=["ghost"])))

    def test_all_columns_categorical_without_schema(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "mixed.csv"
        path.write_text("age,label\n1,a\n2,b\n")
        chunk = next(iter(iter_csv_chunks(path)))
        assert chunk.column("age").kind == "categorical"

    def test_schema_controls_kinds(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "mixed.csv"
        path.write_text("age,label\n1,a\n2,b\n")
        schema = Schema([Field("age", "numeric")])
        chunk = next(iter(iter_csv_chunks(path, schema=schema)))
        assert chunk.column("age").kind == "numeric"
        assert chunk.column("label").kind == "categorical"

    def test_empty_file_raises_after_exhaustion(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "empty.csv"
        path.write_text("g,r,y\n")
        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(path))

    def test_ragged_row_rejected(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "ragged.csv"
        path.write_text("g,y\na,1\nb\n")
        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(path))

    def test_bad_chunk_rows_rejected(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(csv_path, chunk_rows=0))


class TestCodedReaderMemory:
    def test_peak_memory_does_not_grow_on_unique_lines(self, tmp_path, monkeypatch):
        # Every line is distinct (an unprojected id column), so the reader
        # drops its dictionary at the first block and then holds a chunk;
        # keeping the dictionary would quadruple its peak with the rows.
        monkeypatch.setattr(csv_io, "_BLOCK_BYTES", 1 << 14)

        def peak(n_rows):
            path = tmp_path / f"unique{n_rows}.csv"
            with path.open("w", encoding="utf-8") as handle:
                handle.write("id,g,y\n")
                for index in range(n_rows):
                    handle.write(f"{index},g{index % 3},y{index % 2}\n")
            tracemalloc.start()
            try:
                for _ in iter_csv_chunks(path, 256, columns=["g", "y"]):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(3000)
        assert peak(4 * 3000) <= 1.25 * one
