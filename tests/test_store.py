import pathlib
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_opens, empty_table_cache, make_sequence_table, make_vector_table, traced_peak
from metaembed import store, textio
from metaembed.errors import FileFormatError, ValidationError
from metaembed.modelio import read_model, sniff_model_kind, write_model
from metaembed.store import (
    EmbeddingTable,
    SequenceTable,
    align_by_id,
    intersect_ids,
    load_sequence_table,
    load_table,
    load_vector_table,
    save_sequence_table,
    save_vector_table,
    sequence_views,
    sniff_table_kind,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestEmbeddingTable:
    def test_basic_lookup(self):
        t = EmbeddingTable(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert len(t) == 2 and t.dim == 2
        assert "a" in t and "c" not in t
        assert np.array_equal(t.row("b"), [3.0, 4.0])
        assert np.array_equal(t.lookup(["b", "a"]), [[3.0, 4.0], [1.0, 2.0]])

    def test_lookup_names_missing_ids(self):
        t = EmbeddingTable(["a"], [[1.0]])
        with pytest.raises(ValidationError, match="'x'"):
            t.lookup(["a", "x"])

    def test_lookup_counts_many_missing(self):
        t = EmbeddingTable(["a"], [[1.0]])
        with pytest.raises(ValidationError, match="and 2 more"):
            t.lookup([f"m{i}" for i in range(7)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate id"):
            EmbeddingTable(["a", "a"], [[1.0], [2.0]])

    def test_whitespace_id_rejected(self):
        with pytest.raises(ValidationError, match="whitespace"):
            EmbeddingTable(["a b"], [[1.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="ids for"):
            EmbeddingTable(["a", "b", "c"], [[1.0], [2.0]])

    def test_lookup_returns_copy(self):
        t = EmbeddingTable(["a"], [[1.0, 2.0]])
        got = t.lookup(["a"])
        got[0, 0] = 99.0
        assert t.row("a")[0] == 1.0

    def test_describe(self):
        t = EmbeddingTable(["a", "b", "c"], np.zeros((3, 2)))
        assert (t.KIND, t.describe()) == ("vector-table", ["rows 3", "dim 2"])

    def test_constructor_adopts_a_conforming_array(self):
        given = np.arange(4.0).reshape(2, 2)
        assert EmbeddingTable(["a", "b"], given).vectors is given
        # anything that is not a C-ordered float64 matrix is converted
        assert EmbeddingTable(["a", "b"], given.T).vectors.flags.c_contiguous
        assert EmbeddingTable(["a"], [[1, 2]]).vectors.dtype == np.float64
        with pytest.raises(ValidationError, match="non-finite"):
            EmbeddingTable(["a"], np.array([[np.nan]]))

    def test_loaded_table_holds_the_parsed_array(self, tmp_path, rng):
        path = tmp_path / "t.vec"
        save_vector_table(path, make_vector_table(rng, 5, 3))
        made = []
        real = store.as_matrix

        def recording(a, name="matrix"):
            made.append(real(a, name) is a)
            return a

        with mock.patch.object(store, "as_matrix", recording), empty_table_cache():
            load_vector_table(path)  # parsed
            load_vector_table(path)  # read from the cache
        assert made == [True, True]

    def test_indices(self):
        t = EmbeddingTable(["a", "b", "c"], np.zeros((3, 1)))
        assert t.indices(iter(["c", "a", "c"])).tolist() == [2, 0, 2]
        assert t.indices([]).dtype == np.intp
        with pytest.raises(ValidationError, match=r"unknown embedding id\(s\): 'x'$"):
            t.indices(["a", "x"])


class TestVectorTableFormat:
    def test_round_trip_is_bitwise_exact(self, rng, tmp_path):
        table = make_vector_table(rng, 17, 5)
        path = tmp_path / "t.tbl"
        save_vector_table(path, table)
        back = load_vector_table(path)
        assert back.ids == table.ids
        assert back.vectors.tobytes() == table.vectors.tobytes()

    def test_peak_memory_stays_below_the_text_written(self, rng, tmp_path):
        # rows are formatted as they are written; holding the lines, their join and its
        # encoding would take about three times the text
        table = make_vector_table(rng, 2000, 64)
        path = tmp_path / "t.tbl"
        tracemalloc.start()
        try:
            save_vector_table(path, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        assert load_vector_table(path).vectors.tobytes() == table.vectors.tobytes()

    def test_awkward_values_round_trip(self, tmp_path):
        vals = np.array([[0.1, -0.0, 1e-300], [np.pi, 1e300, -2.5000000000000004]])
        table = EmbeddingTable(["p", "q"], vals)
        path = tmp_path / "t.tbl"
        save_vector_table(path, table)
        assert load_vector_table(path).vectors.tobytes() == vals.tobytes()

    def test_file_layout(self, tmp_path):
        path = tmp_path / "t.tbl"
        save_vector_table(path, EmbeddingTable(["a"], [[1.5, -2.0]]))
        assert path.read_text() == "1 2\na 1.5 -2\n"

    def test_header_errors_at_line_1(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("not a header\n")
        with pytest.raises(FileFormatError, match=f"{path}:1"):
            load_vector_table(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tbl"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty file"):
            load_vector_table(path)

    def test_wrong_value_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("2 3\na 1 2 3\nb 1 2\n")
        with pytest.raises(FileFormatError, match=f"{path}:3.*expected 3 values, got 2"):
            load_vector_table(path)

    def test_truncated_file_names_last_line(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("2 3\na 1 2 3\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*file ends after line 2"):
            load_vector_table(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("1 2\na 1 x\n")
        with pytest.raises(FileFormatError, match="could not parse value 'x'"):
            load_vector_table(path)

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("2 1\na 1\na 2\n")
        with pytest.raises(FileFormatError, match=f"{path}:3.*duplicate id"):
            load_vector_table(path)

    def test_trailing_content_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("1 1\na 1\nb 2\n")
        with pytest.raises(FileFormatError, match=f"{path}:3.*unexpected content"):
            load_vector_table(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("1 2\na nan 1\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*non-finite"):
            load_vector_table(path)

    def test_zero_row_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_text("0 3\n")
        with pytest.raises(FileFormatError, match="positive"):
            load_vector_table(path)

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "bad.tbl"
        path.write_bytes(b"2 1\na 1\n\xffb 2\n")
        with pytest.raises(FileFormatError, match=f"{path}:3.*invalid UTF-8 byte 0xff"):
            load_vector_table(path)

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_bytes(b"2 1\r\na 1.5\r\nb -2\r\n")
        table = load_vector_table(path)
        assert table.ids == ("a", "b") and table.vectors.tolist() == [[1.5], [-2.0]]


def read_model_blocks(path):
    return read_model(path, ("SVDMETA", "GCCA"))


def loaded(obj):
    """What a loader returned: its ids or block labels, then each array's shape and bytes."""
    if isinstance(obj, EmbeddingTable):
        return obj.ids, [(obj.vectors.shape, obj.vectors.tobytes())]
    names, arrays = (obj.ids, obj.matrices) if isinstance(obj, SequenceTable) else zip(*obj.blocks.items())
    return tuple(names), [(a.shape, a.tobytes()) for a in arrays]


def load_both_ways(path, load=load_vector_table):
    """``load(path)`` with and without the bulk parser, and whether the bulk parser took any rows.

    Each outcome is ("ok", names, arrays) or (error type, message).  Each load starts from an empty
    cache of parsed tables, so that both parse the text.
    """
    taken = []

    def spy(lines, cols, keyed):
        got = real(lines, cols, keyed)
        taken.append(got is not None)
        return got

    real = textio._bulk_rows
    outcomes = []
    for patched in (spy, lambda lines, cols, keyed: None):
        with mock.patch.object(textio, "_bulk_rows", patched), empty_table_cache():
            try:
                outcomes.append(("ok", *loaded(load(path))))
            except (FileFormatError, ValidationError) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
    return outcomes[0], outcomes[1], any(taken)


def block_texts(text):
    """Vector table *text* as a sequence table and as a model file, each holding its rows in one block.

    Each row's id becomes the value 0, so the block is one column wider and
    every row keeps its spacing and line end.
    """
    header, _, body = text.partition("\n")
    n, d = header.split()
    rows = "\n".join(re.sub(r"^(\s*)\S+", r"\g<1>0", line) for line in body.split("\n"))
    return f"1 {int(d) + 1}\n#s {n}\n{rows}", f"SVDMETA v1\ndims 1\nmean {n} {int(d) + 1}\n{rows}"


def all_ways(path, text):
    """``load_both_ways`` of vector table *text*, then of its :func:`block_texts`, each written to *path*."""
    seq, model = block_texts(text)
    out = []
    for body, load in [(text, load_vector_table), (seq, load_sequence_table), (model, read_model_blocks)]:
        path.write_bytes(body.encode("utf-8"))
        out.append(load_both_ways(path, load))
    return out


# rows the bulk parser must hand to the per-line parser, and the per-line result
ODD_ROWS = {
    "tab": ("1 2\na\t1 2\n", "ok"),
    "double space": ("1 2\na  1 2\n", "ok"),
    "leading space": ("1 2\n a 1 2\n", "ok"),
    "trailing space": ("1 2\na 1 2 \n", "ok"),
    "tab in id": ("1 2\na\tb 1 2\n", "expected 2 values, got 3"),
    "tab in id, short row": ("1 2\na\tb 1\n", "could not parse value 'b'"),
    "no-break space": ("1 2\na 1\u00a02\n", "ok"),
    "space, then tab": ("1 2\na 1 \t2\n", "ok"),
    "space, then no-break space": ("1 2\na 1 \u00a02\n", "ok"),
    "underscore": ("1 2\na 1_0 2\n", "ok"),
    "arabic-indic digit": ("1 2\na \u0661 2\n", "ok"),
    "fullwidth digit": ("1 2\na \uff11 2\n", "ok"),
    "-nan": ("1 2\na -nan 2\n", "non-finite value"),
    "overflow": ("1 2\na 1e400 2\n", "non-finite value"),
    "extra column": ("1 2\na 1 2 3\n", "expected 2 values, got 3"),
    "missing column": ("1 2\na 1\n", "expected 2 values, got 1"),
    "id only": ("1 1\na\n", "expected 1 values, got 0"),
    "duplicate id": ("2 1\na 1\na 2\n", "duplicate id 'a'"),
    "blank row": ("2 1\na 1\n\nb 2\n", "unexpected blank line"),
    "missing row": ("2 1\na 1\n", "file ends after line 2"),
    "NUL": ("1 2\na 1\x002\n", "expected 2 values, got 1"),
}


class TestBulkParse:
    def test_plain_rows_take_the_bulk_path(self, tmp_path):
        for name, text in [("d1.tbl", "2 1\na 1.5\nb -2\n"), ("crlf.tbl", "1 2\r\né 1 2\r\n\r\n \n"),
                           ("wide.tbl", "1 3\nx 0.1 -0 5e-324\n")]:
            path = tmp_path / name
            path.write_bytes(text.encode("utf-8"))
            bulk, per_line, taken = load_both_ways(path)
            assert taken and bulk == per_line and bulk[0] == "ok", name

    def test_trailing_content_after_plain_rows(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("1 1\na 1\n\nb 2\n")
        bulk, per_line, _ = load_both_ways(path)
        assert bulk == per_line == ("FileFormatError", f"{path}:4: unexpected content after the declared rows")

    @pytest.mark.parametrize("case", sorted(ODD_ROWS))
    def test_odd_rows_fall_back_to_the_per_line_parser(self, case, tmp_path):
        text, expected = ODD_ROWS[case]
        (bulk, per_line, taken), *blocks = all_ways(tmp_path / "t.tbl", text)
        assert not taken and bulk == per_line
        assert (bulk[0] == "ok") if expected == "ok" else (expected in bulk[1])
        # the same rows as a sequence block and as a model block: one result either way
        assert all(bulk == per_line for bulk, per_line, _ in blocks)

    def test_golden_table_takes_the_bulk_path(self):
        for name, load in [("table.vec", load_vector_table), ("table.seq", load_sequence_table),
                           ("svdmeta.model", read_model_blocks), ("gcca.model", read_model_blocks)]:
            bulk, per_line, taken = load_both_ways(GOLDEN / name, load)
            assert taken and bulk == per_line, name


_TOKENS = ["1", "-0", "0.1", "5e-324", "1.7976931348623157e308", "2.5E-3", "+.5", "1.", "1e400", "nan",
           "-nan", "inf", "Infinity", "1_0", "\u0661", "\uff11", "0x10", "x", "", "1,5", "\x00"]
_IDS = ["a", "é", "a\tb", "#a", "", "a\u00a0b", "1"]
_SEPS = [" "] * 30 + ["  ", "\t", " \t", "\u00a0", "\r"]


@st.composite
def vector_table_texts(draw):
    """Vector table files, most of them plain, the rest with one or more odd rows or lines."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    header = draw(st.sampled_from([f"{n} {d}"] * 8 + [f"{n + 1} {d}", f"{n} {d + 1}"]))
    number = st.floats(width=64).map(lambda v: f"{v:.17g}")
    value = st.one_of(number, number, number, st.sampled_from(_TOKENS))
    rows = []
    for i in range(n):
        ident = draw(st.sampled_from([f"w{i}"] * 12 + _IDS))
        count = draw(st.sampled_from([d] * 12 + [d - 1, d + 1]))
        tokens = [ident] + [draw(value) for _ in range(count)]
        seps = [draw(st.sampled_from(_SEPS)) for _ in tokens[1:]]
        edges = st.sampled_from([""] * 12 + [" ", "\t"])
        rows.append(draw(edges) + tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:])) + draw(edges))
    trailing = draw(st.lists(st.sampled_from(["", " ", "junk"]), max_size=2))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join([header, *rows, *trailing]) + newline


@settings(max_examples=300, deadline=None)
@given(vector_table_texts())
@example("1 2\na\tb 1 2\n")
@example("2 1\na 1\r\nb 2\r\n\r\n")
@example("1 1\na -nan\n")
def test_bulk_and_per_line_parsers_agree(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "t.tbl"
    for bulk, per_line, _ in all_ways(path, text):
        assert bulk == per_line


def chunked_text(rows=1200, cols=8, edits=(), header=None):
    """A vector table of *rows* rows, about 3.3 read chunks of text, with ``{row: line}`` *edits*."""
    rng = np.random.default_rng(5)
    lines = [f"w{i} " + " ".join(f"{v:.17g}" for v in rng.normal(size=cols)) for i in range(rows)]
    for row, line in dict(edits).items():
        lines[row] = line
    return "\n".join([header or f"{rows} {cols}", *lines]) + "\n"


class TestChunkBoundaries:
    # the first row of a vector table is line 2; as a sequence block line 3, as a model block line 4
    OFFSETS = (2, 3, 4)

    @pytest.mark.parametrize("row, line, error", [
        (1, "w1 1 2 x 4 5 6 7 8", "could not parse value 'x'"),
        (600, "w600 1 2 nan 4 5 6 7 8", "non-finite value"),
        (1199, "w1199 1 2 3 4 5 6 7", "values, got"),
    ])
    def test_fault_in_first_middle_and_last_chunk(self, tmp_path, row, line, error):
        # rows before the fault fill whole chunks that take the bulk path
        for (bulk, per_line, taken), offset in zip(all_ways(tmp_path / "t", chunked_text(edits={row: line})),
                                                   self.OFFSETS):
            assert bulk == per_line and (taken or row == 1)
            assert bulk[0] == "FileFormatError" and f":{row + offset}: " in bulk[1] and error in bulk[1], bulk

    def test_duplicate_id_in_a_later_chunk(self, tmp_path):
        path = tmp_path / "t.vec"
        path.write_text(chunked_text(edits={1000: "w3 1 2 3 4 5 6 7 8"}))
        bulk, per_line, taken = load_both_ways(path)
        assert taken and bulk == per_line == ("FileFormatError", f"{path}:1002: duplicate id 'w3'")

    def test_file_that_ends_chunks_early(self, tmp_path):
        for (bulk, per_line, _), offset in zip(all_ways(tmp_path / "t", chunked_text(header="1201 8")),
                                               self.OFFSETS):
            assert bulk == per_line and f":{1199 + offset}: " in bulk[1] and "file ends after" in bulk[1]

    def test_crlf_file_loads_as_its_lf_twin(self, tmp_path):
        text = chunked_text()
        lf, crlf = all_ways(tmp_path / "t", text), all_ways(tmp_path / "t", text.replace("\n", "\r\n"))
        assert all(a[0] == b[0] == b[1] and a[0][0] == "ok" and b[2] for a, b in zip(lf, crlf))

    @pytest.mark.parametrize("edits, header, line, error", [
        ({1: "w1 1 2 x 4 5 6 7 8"}, None, 4, "could not parse value 'x'"),
        ({600: "w600 1 2 nan 4 5 6 7 8"}, None, 603, "non-finite value in block 's'"),
        ({1199: "w1199 1 2 3 4 5 6 7"}, None, 1202, "expected 9 values, got 8"),
        ({}, "1201 8", 1202, "expected 1201 rows in block 's'; file ends after line 1202"),
        ({1: "w1 1 2 x 4 5 6 7 8", 900: "w900 1 2 \u00e9 4 5 6 7 8"}, None, 903, "invalid UTF-8 byte 0xff"),
    ])
    def test_failing_sequence_table_is_read_once(self, tmp_path, edits, header, line, error):
        # the rows before a fault are parsed in the pass that finds it; no second read names it
        path = tmp_path / "t.seq"
        seq = block_texts(chunked_text(edits=edits, header=header))[0]
        path.write_bytes(seq.encode("utf-8").replace("\u00e9".encode("utf-8"), b"\xff"))
        with counted_opens(path) as opened, pytest.raises(FileFormatError) as exc:
            load_sequence_table(path)
        assert str(exc.value) == f"{path}:{line}: {error}" and len(opened) == 1

    def test_undecodable_byte_past_the_first_chunk_is_the_error(self, tmp_path):
        # a parse fault in the first chunk gives way to the undecodable byte, as when the whole
        # file was decoded before any row was parsed
        text = chunked_text(edits={1: "w1 1 2 x 4 5 6 7 8", 900: "w900 1 2 \u00e9 4 5 6 7 8"})
        path = tmp_path / "t"
        for body, load, offset in zip(block_texts(text), (load_sequence_table, read_model_blocks), (3, 4)):
            path.write_bytes(body.encode("utf-8").replace("\u00e9".encode("utf-8"), b"\xff"))
            bulk, per_line, _ = load_both_ways(path, load)
            assert bulk == per_line == ("FileFormatError", f"{path}:{900 + offset}: invalid UTF-8 byte 0xff")
        path.write_bytes(text.encode("utf-8").replace("\u00e9".encode("utf-8"), b"\xff"))
        assert load_both_ways(path)[:2] == (("FileFormatError", f"{path}:902: invalid UTF-8 byte 0xff"),) * 2


@pytest.mark.parametrize("rows, cols", [(100, 3000), (8000, 48)])
def test_readers_peak_near_the_array(rng, tmp_path, rows, cols):
    # a wide and a tall file of each kind.  Each reader holds the array, its ids and a chunk or
    # two of text being parsed, at most 1.49x the array on these shapes (a sequence table's
    # array grows by a quarter at a time); holding every line of the text, they peaked at 3.7-4.2x
    vec, seq, model = tmp_path / "t.vec", tmp_path / "t.seq", tmp_path / "t.model"
    save_vector_table(vec, make_vector_table(rng, rows, cols))
    save_sequence_table(seq, SequenceTable([f"s{i}" for i in range(rows // 2)],
                                           [rng.normal(size=(2, cols)) for _ in range(rows // 2)]))
    write_model(model, "SVDMETA", [[1]], [("proj", rng.normal(size=(rows, cols)))])
    for path, load in [(vec, load_vector_table), (seq, load_sequence_table), (model, read_model_blocks)]:
        with empty_table_cache():
            assert traced_peak(load, path) < 1.5 * rows * cols * 8 + 4 * textio._CHUNK_CHARS, path.name


class TestGoldenTables:
    @pytest.mark.parametrize("name, load, save", [("table.vec", load_vector_table, save_vector_table),
                                                  ("table.seq", load_sequence_table, save_sequence_table)])
    def test_load_then_save_reproduces_the_file(self, name, load, save, tmp_path):
        save(tmp_path / name, load(GOLDEN / name))
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


class TestSequenceTableFormat:
    def test_round_trip_is_bitwise_exact(self, rng, tmp_path):
        table = make_sequence_table(rng, [f"s{i}" for i in range(9)], 4)
        path = tmp_path / "t.seq"
        save_sequence_table(path, table)
        back = load_sequence_table(path)
        assert back.ids == table.ids
        for a, b in zip(back.matrices, table.matrices):
            assert a.tobytes() == b.tobytes()

    def test_file_layout(self, tmp_path):
        table = SequenceTable(["s1"], [np.array([[1.0, 2.0], [3.0, 4.0]])])
        path = tmp_path / "t.seq"
        save_sequence_table(path, table)
        assert path.read_text() == "1 2\n#s1 2\n1 2\n3 4\n"

    def test_peak_memory_stays_below_the_text_written(self, rng, tmp_path):
        # rows are formatted as they are written, as for vector tables
        table = make_sequence_table(rng, [f"s{i}" for i in range(800)], 48)
        path = tmp_path / "t.seq"
        tracemalloc.start()
        try:
            save_sequence_table(path, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        back = load_sequence_table(path)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(back.matrices, table.matrices))

    def test_block_header_required(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("1 2\ns1 2\n1 2\n3 4\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*block header"):
            load_sequence_table(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("1 2\n#s1 3\n1 2\n3 4\n")
        with pytest.raises(FileFormatError, match="file ends after line 4"):
            load_sequence_table(path)

    def test_bad_step_count(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("1 2\n#s1 zero\n")
        with pytest.raises(FileFormatError, match="integer row count"):
            load_sequence_table(path)

    def test_duplicate_block_id(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("2 1\n#a 1\n1\n#a 1\n2\n")
        with pytest.raises(FileFormatError, match=f"{path}:4.*duplicate id"):
            load_sequence_table(path)

    def test_non_finite_names_its_line_and_block(self, tmp_path):
        path = tmp_path / "bad.seq"
        path.write_text("2 2\n#a 1\n1 2\n#b 3\n1 2\nnan 4\n5 6\n")
        with pytest.raises(FileFormatError, match=f"{path}:6: non-finite value in block 'b'"):
            load_sequence_table(path)

    @pytest.mark.parametrize("text, line, error", [
        ("2 2\n#a 1\nnan 2\n#b x\n1 2\n", 3, "non-finite value in block 'a'"),
        ("2 2\n#a 1\nnan 2\n", 3, "non-finite value in block 'a'"),
        ("2 2\n#a 2\nnan 2\n1 x\n", 4, "could not parse value 'x'"),
        ("2 2\n#a 2\nnan 2\n", 3, "expected 2 rows in block 'a'; file ends after line 3"),
        ("2 2\n#a 1\n1 x\n#a 1\n", 3, "could not parse value 'x'"),
    ])
    def test_faults_are_named_as_if_each_block_were_read_on_its_own(self, tmp_path, text, line, error):
        # a non-finite value is named when its block ends: after a later fault in its own rows or a
        # missing row, before a fault in a later block header
        path = tmp_path / "bad.seq"
        path.write_text(text)
        with pytest.raises(FileFormatError) as exc:
            load_sequence_table(path)
        assert str(exc.value) == f"{path}:{line}: {error}"

    def test_from_vector_table(self, rng):
        vt = make_vector_table(rng, 5, 3)
        st = SequenceTable.from_vector_table(vt)
        assert st.ids == vt.ids and st.dim == 3
        assert all(m.shape == (1, 3) for m in st.matrices)
        assert np.array_equal(st.lookup("w2")[0], vt.row("w2"))
        assert all(np.shares_memory(m, vt.vectors) for m in st.matrices)

    def test_loaded_blocks_are_views_of_one_array(self, tmp_path):
        path = tmp_path / "t.seq"
        path.write_text("2 2\n#a 1\n1 2\n#b 2\n3 4\n5 6\n")
        a, b = load_sequence_table(path).matrices
        assert a.base is not None and a.base is b.base

    @pytest.mark.parametrize("ids, count, error", [(["a"], 2, "1 ids for 2 sequences"),
                                                   (["a", "b"], 1, "2 ids for 1 sequences")])
    def test_id_and_matrix_counts_must_agree(self, ids, count, error):
        with pytest.raises(ValidationError, match=error):
            SequenceTable(ids, [np.ones((1, 2))] * count)

    def test_mixed_widths_rejected(self):
        with pytest.raises(ValidationError, match="mixed widths"):
            SequenceTable(["a", "b"], [np.ones((2, 3)), np.ones((1, 4))])

    def test_describe(self):
        t = SequenceTable(["a", "b"], [np.ones((2, 3)), np.ones((4, 3))])
        assert (t.KIND, t.describe()) == ("sequence-table", ["rows 2", "dim 3", "total_steps 6"])


class TestSniff:
    def test_kinds(self, rng, tmp_path):
        vpath = tmp_path / "v.tbl"
        save_vector_table(vpath, make_vector_table(rng, 3, 2))
        spath = tmp_path / "s.seq"
        save_sequence_table(spath, make_sequence_table(rng, ["a", "b"], 2))
        assert sniff_table_kind(vpath) == "vector"
        assert sniff_table_kind(spath) == "sequence"

    @pytest.mark.parametrize("name, text, line", [("v.tbl", b"2 1\na 1\n\xff 2\n", 3),
                                                  ("s.seq", b"1 1\n#a 1\n\xff\n", 3),
                                                  ("m.model", b"GCCA v1\n\xff\n", 2)])
    def test_sniffers_name_an_undecodable_byte(self, tmp_path, name, text, line):
        # a sniffer reads its first lines through Lines, which decodes the bytes around them too
        path = tmp_path / name
        path.write_bytes(text)
        with pytest.raises(FileFormatError) as exc:
            (sniff_model_kind if name.endswith(".model") else sniff_table_kind)(path)
        assert str(exc.value) == f"{path}:{line}: invalid UTF-8 byte 0xff"

    @pytest.mark.parametrize("d", [1, 3])
    def test_first_id_starting_with_hash_is_a_vector_row(self, rng, tmp_path, d):
        # sorted output puts '#' before letters and digits, so combine and apply can write this
        table = EmbeddingTable(["#a", "b"], rng.normal(size=(2, d)))
        path = tmp_path / "t.vec"
        save_vector_table(path, table)
        back = load_table(path)
        assert sniff_table_kind(path) == "vector" and isinstance(back, EmbeddingTable)
        assert back.ids == table.ids and back.vectors.tobytes() == table.vectors.tobytes()

    @pytest.mark.parametrize("row, kind", [("#a 2", "sequence"), ("#a 2.5", "vector"), ("#a -2", "vector"),
                                           ("a 2", "vector")])
    def test_width_one_row_is_a_header_only_with_a_digit_count(self, tmp_path, row, kind):
        path = tmp_path / "t.tbl"
        path.write_text(f"1 1\n{row}\n")
        assert sniff_table_kind(path) == kind

    @pytest.mark.parametrize("text, fault", [(b"x y z\na 1\n\xff 2\n", "3: invalid UTF-8 byte 0xff"),
                                             (b"0 1\na 1\n\xff 2\n", "3: invalid UTF-8 byte 0xff"),
                                             (b"1 2\n", "1: expected at least one data row; file ends after line 1")])
    def test_load_table_reports_an_undecodable_byte_before_what_the_sniff_finds(self, tmp_path, text, fault):
        path = tmp_path / "h.vec"
        path.write_bytes(text)
        with pytest.raises(FileFormatError) as sniffed:
            sniff_table_kind(path)
        with pytest.raises(FileFormatError) as loaded:
            load_table(path)
        assert str(loaded.value) == str(sniffed.value) == f"{path}:{fault}"

    def test_load_table_picks_the_loader(self, rng, tmp_path):
        vpath = tmp_path / "v.tbl"
        save_vector_table(vpath, make_vector_table(rng, 3, 2))
        spath = tmp_path / "s.seq"
        save_sequence_table(spath, make_sequence_table(rng, ["a", "b"], 2))
        vt, st = load_table(vpath), load_table(spath)
        assert isinstance(vt, EmbeddingTable) and np.array_equal(vt.vectors, load_vector_table(vpath).vectors)
        assert isinstance(st, SequenceTable) and st.ids == load_sequence_table(spath).ids
        assert all(np.array_equal(a, b) for a, b in zip(st.matrices, load_sequence_table(spath).matrices))


class TestAlignment:
    def test_intersection_is_sorted(self, rng):
        t1 = EmbeddingTable(["c", "a", "b"], rng.normal(size=(3, 2)))
        t2 = EmbeddingTable(["b", "c", "x"], rng.normal(size=(3, 3)))
        assert intersect_ids([t1, t2]) == ["b", "c"]

    def test_align_rows_match(self, rng):
        t1 = EmbeddingTable(["a", "b", "c"], rng.normal(size=(3, 2)))
        t2 = EmbeddingTable(["b", "a"], rng.normal(size=(2, 3)))
        ids, mats = align_by_id([t1, t2])
        assert ids == ["a", "b"]
        assert np.array_equal(mats[0], t1.lookup(ids))
        assert np.array_equal(mats[1], t2.lookup(ids))

    def test_align_is_order_insensitive(self, rng):
        perm = ["d", "b", "a", "c"]
        vals = rng.normal(size=(4, 2))
        t1 = EmbeddingTable(sorted(perm), vals)
        t2 = EmbeddingTable(perm, vals[[3, 1, 0, 2]])
        first_ids, first_views = align_by_id([t1, t2])
        second_ids, second_views = align_by_id([t2, t1])
        assert first_ids == second_ids
        assert np.array_equal(first_views[0], second_views[1])

    def test_empty_intersection_lists_sizes(self, rng):
        t1 = EmbeddingTable(["a"], [[1.0]])
        t2 = EmbeddingTable(["b", "c"], [[1.0], [2.0]])
        with pytest.raises(ValidationError, match=r"no shared ids.*sizes: 1, 2"):
            align_by_id([t1, t2])

    def test_intersect_ids_refuses_disjoint_tables(self, rng):
        t1 = EmbeddingTable(["a", "b"], rng.normal(size=(2, 2)))
        t2 = EmbeddingTable(["c", "d", "e"], rng.normal(size=(3, 1)))
        t3 = EmbeddingTable(["a", "c"], rng.normal(size=(2, 1)))
        message = re.escape("no shared ids across the 3 table(s) (sizes: 2, 3, 2)")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            intersect_ids([t1, t2, t3])

    def test_sequence_views_checks_lengths(self):
        t1 = SequenceTable(["s"], [np.ones((2, 3))])
        t2 = SequenceTable(["s"], [np.ones((3, 4))])
        with pytest.raises(ValidationError, match="mismatched lengths"):
            sequence_views([t1, t2], "s")

    def test_sequence_views_ok(self):
        t1 = SequenceTable(["s"], [np.ones((2, 3))])
        t2 = SequenceTable(["s"], [np.zeros((2, 4))])
        views = sequence_views([t1, t2], "s")
        assert views[0].shape == (2, 3) and views[1].shape == (2, 4)
