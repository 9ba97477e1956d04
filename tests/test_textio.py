import hashlib
import os
import pathlib

import numpy as np
import pytest

from metaembed import textio
from metaembed.errors import FileFormatError, ValidationError
from metaembed.textio import Lines, file_digest, fmt, fmt_row, read_rows, replace_file, write_lines

GOLDEN = pathlib.Path(__file__).parent / "golden"


def all_lines(path) -> list[str]:
    """Every line of *path*, read through :class:`Lines`."""
    with Lines(path) as lines:
        return list(iter(lines.line, None))


def golden_table_values() -> np.ndarray:
    """Every value in the golden vector and sequence tables (headers, ids and block lines skipped)."""
    vec = [line.split()[1:] for line in all_lines(GOLDEN / "table.vec")[1:]]
    seq = [line.split() for line in all_lines(GOLDEN / "table.seq")[1:] if not line.startswith("#")]
    return np.array([float(t) for row in vec + seq for t in row])


class TestDigests:
    @pytest.mark.parametrize("size", [0, 1, textio._CHUNK_CHARS, 3 * textio._CHUNK_CHARS + 5])
    def test_file_digest_is_the_sha256_of_the_bytes(self, tmp_path, size):
        path = tmp_path / "f.bin"
        path.write_bytes(os.urandom(size))
        assert file_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_lines_hash_what_they_read(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"".join(b"row %d\r\n" % i for i in range(30000)) + b"no final newline")
        with Lines(path) as lines:
            assert lines.line() == "row 0"
            assert lines.digest() != file_digest(path)  # one chunk of several read so far
            assert list(iter(lines.line, None))[-1] == "no final newline"
        assert lines.digest() == file_digest(path)

    def test_replace_file_gives_the_mode_asked_less_the_umask(self, tmp_path):
        path = tmp_path / "f.bin"
        replace_file(path, lambda f: f.write(b"x"), 0o600)
        assert path.read_bytes() == b"x" and path.stat().st_mode & 0o777 == 0o600
        assert os.listdir(tmp_path) == ["f.bin"]


class TestLines:
    def test_splits_on_lf_only(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a b\fc\x1cd\x85e\u2028g\nf\n".encode("utf-8"))
        assert all_lines(path) == ["a b\fc\x1cd\x85e\u2028g", "f"]

    def test_crlf_and_missing_final_newline(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a b\r\n\r\nc")
        assert all_lines(path) == ["a b", "", "c"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"")
        with Lines(path) as lines:
            assert (lines.line(), list(lines.take(5)), lines.count) == (None, [], 0)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\nok\ncaf\xe9\n")
        with pytest.raises(FileFormatError, match=r"t.txt:3: invalid UTF-8 byte 0xe9") as exc:
            all_lines(path)
        assert exc.value.line == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="cannot read file") as exc:
            all_lines(tmp_path / "nope.txt")
        assert exc.value.line == 1


class TestWriteLines:
    def test_lf_terminated_utf8(self, tmp_path):
        path = tmp_path / "out.txt"
        write_lines(path, ["a", "é"])
        assert path.read_bytes() == b"a\n\xc3\xa9\n"

    @pytest.mark.parametrize("fail_at", ["lines", "replace"])
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")

        def lines():
            yield "new"
            if fail_at == "lines":
                raise RuntimeError("disk full")
            yield "more"

        def broken_replace(src, dst):
            raise OSError("disk full")

        if fail_at == "replace":
            monkeypatch.setattr(textio.os, "replace", broken_replace)
        with pytest.raises((RuntimeError, ValidationError), match="disk full"):
            write_lines(path, lines())
        assert path.read_bytes() == b"old contents\n"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_lines_that_fail_after_a_written_chunk_keep_the_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")
        seen = []

        per_chunk = -(-textio._CHUNK_CHARS // 100)  # lines of 99 characters and an LF fill a chunk

        def lines():
            yield from ["n" * 99] * (2 * per_chunk + 1)
            seen.extend(os.path.getsize(tmp_path / name) for name in os.listdir(tmp_path)
                        if name.endswith(".tmp"))
            raise RuntimeError("formatter failed")

        with pytest.raises(RuntimeError, match="formatter failed"):
            write_lines(path, lines())
        assert seen == [200 * per_chunk]  # two chunks reached the temporary file
        assert path.read_bytes() == b"old contents\n"
        assert sorted(os.listdir(tmp_path)) == ["out.txt"]

    def test_chunks_join_into_one_file(self, tmp_path):
        path = tmp_path / "out.txt"
        # several chunks' worth of short lines, with one line longer than a chunk among them
        lines = [str(i) for i in range(textio._CHUNK_CHARS // 2)]
        lines.insert(1000, "x" * (textio._CHUNK_CHARS + 3))
        write_lines(path, iter(lines))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_unwritable_destination_is_named(self, tmp_path):
        path = tmp_path / "missing" / "out.txt"
        with pytest.raises(ValidationError, match=f"{path}: cannot write file: No such file"):
            write_lines(path, ["x"])

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            write_lines(tmp_path / "out.txt", ["x"])
            with open(tmp_path / "plain.txt", "w") as f:
                f.write("x\n")
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "out.txt").st_mode & 0o777
        assert mode == 0o666 & ~umask
        assert mode == os.stat(tmp_path / "plain.txt").st_mode & 0o777


class TestValues:
    def test_fmt_round_trips_every_bit(self):
        values = [0.1, -1e-310, 1.7976931348623157e308, 2.0 / 3.0, 5e-324]
        assert [float(fmt(v)) for v in values] == values
        assert fmt_row([1.0, 0.5]) == "1 0.5"

    def test_fmt_row_is_fmt_of_each_value(self):
        golden = golden_table_values()
        assert {-0.0, 5e-324, 1.7976931348623157e308, 0.1} <= set(golden.tolist())
        assert any(np.signbit(golden) & (golden == 0))
        bits = np.random.default_rng(7).integers(0, 2**64, size=100_000, dtype=np.uint64)
        special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0])
        for values in (golden, bits.view(np.float64), special):
            expected = " ".join(fmt(v) for v in values)
            assert fmt_row(values) == expected
            assert fmt_row(values.tolist()) == expected
        assert fmt_row([3, 10**20, 0.5]) == "3 1e+20 0.5"
        assert fmt_row([]) == ""

    def test_read_rows_reports_truncation(self, tmp_path):
        path = tmp_path / "f"
        path.write_text("hdr\n1 2\n3 4\n")
        with Lines(path) as lines:
            lines.line()
            assert np.array_equal(read_rows(lines, 2, 2, path, "w"), [[1, 2], [3, 4]])
        with pytest.raises(FileFormatError, match=r"f:3: expected 3 rows in block 'w'; file ends after line 3"):
            with Lines(path) as lines:
                lines.line()
                read_rows(lines, 3, 2, path, "w")
        path.write_text("1 2\n3 x\n")
        with pytest.raises(FileFormatError, match=r"f:2: could not parse value 'x'"):
            with Lines(path) as lines:
                lines.line()
                read_rows(lines, 1, 2, path, "w")
