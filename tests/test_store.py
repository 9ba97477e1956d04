import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_sequence_table, make_vector_table
from metaembed import store
from metaembed.errors import FileFormatError, ValidationError
from metaembed.modelio import sniff_model_kind
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

    def test_constructor_copies_and_copy_false_adopts(self):
        given = np.arange(4.0).reshape(2, 2)
        copied = EmbeddingTable(["a", "b"], given)
        given[0, 0] = 99.0
        assert copied.row("a")[0] == 0.0
        adopted = EmbeddingTable(["a", "b"], given, copy=False)
        assert adopted.vectors is given
        # anything that is not a C-ordered float64 matrix is still converted
        assert EmbeddingTable(["a", "b"], given.T, copy=False).vectors.flags.c_contiguous
        assert EmbeddingTable(["a"], [[1, 2]], copy=False).vectors.dtype == np.float64
        with pytest.raises(ValidationError, match="non-finite"):
            EmbeddingTable(["a"], np.array([[np.nan]]), copy=False)

    def test_loaded_table_holds_the_parsed_array(self, tmp_path, rng):
        path = tmp_path / "t.vec"
        save_vector_table(path, make_vector_table(rng, 5, 3))
        made = []
        real = store.as_matrix

        def recording(a, name="matrix", copy=True):
            made.append(copy)
            return real(a, name, copy)

        with mock.patch.object(store, "as_matrix", recording):
            load_vector_table(path)
        assert made == [False]

    def test_indices(self):
        t = EmbeddingTable(["a", "b", "c"], np.zeros((3, 1)))
        assert t.indices(iter(["c", "a", "c"])).tolist() == [2, 0, 2]
        assert t.indices([]).dtype == np.intp
        with pytest.raises(ValidationError, match="unknown embedding id 'x'"):
            t.indices(["a", "x"])


class TestVectorTableFormat:
    def test_round_trip_is_bitwise_exact(self, rng, tmp_path):
        table = make_vector_table(rng, 17, 5)
        path = tmp_path / "t.tbl"
        save_vector_table(path, table)
        back = load_vector_table(path)
        assert back.ids == table.ids
        assert back.vectors.tobytes() == table.vectors.tobytes()

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


def load_both_ways(path):
    """``load_vector_table(path)`` with and without the bulk parser, and whether the bulk parser took it.

    Each outcome is ("ok", ids, array bytes) or (error type, message).
    """
    taken = []

    def spy(lines, n, d):
        got = real(lines, n, d)
        taken.append(got is not None)
        return got

    real = store._bulk_rows
    outcomes = []
    for patched in (spy, lambda lines, n, d: None):
        with mock.patch.object(store, "_bulk_rows", patched):
            try:
                table = load_vector_table(path)
                outcomes.append(("ok", table.ids, table.vectors.tobytes()))
            except (FileFormatError, ValidationError) as exc:
                outcomes.append((type(exc).__name__, str(exc)))
    return outcomes[0], outcomes[1], any(taken)


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
        path = tmp_path / "t.tbl"
        path.write_bytes(text.encode("utf-8"))
        bulk, per_line, taken = load_both_ways(path)
        assert not taken and bulk == per_line
        assert (bulk[0] == "ok") if expected == "ok" else (expected in bulk[1])

    def test_golden_table_takes_the_bulk_path(self):
        bulk, per_line, taken = load_both_ways(GOLDEN / "table.vec")
        assert taken and bulk == per_line


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
    path.write_bytes(text.encode("utf-8"))
    bulk, per_line, _ = load_both_ways(path)
    assert bulk == per_line


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

    def test_from_vector_table(self, rng):
        vt = make_vector_table(rng, 5, 3)
        st = SequenceTable.from_vector_table(vt)
        assert st.ids == vt.ids and st.dim == 3
        assert all(m.shape == (1, 3) for m in st.matrices)
        assert np.array_equal(st.lookup("w2")[0], vt.row("w2"))

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

    def test_sniffers_read_only_the_first_lines(self, tmp_path):
        vpath = tmp_path / "v.tbl"
        vpath.write_bytes(b"2 1\na 1\n\xff 2\n")
        spath = tmp_path / "s.seq"
        spath.write_bytes(b"1 1\n#a 1\n\xff\n")
        mpath = tmp_path / "m.model"
        mpath.write_bytes(b"GCCA v1\n\xff\n")
        assert sniff_table_kind(vpath) == "vector"
        assert sniff_table_kind(spath) == "sequence"
        assert sniff_model_kind(mpath) == "GCCA"

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
        first = align_by_id([t1, t2])
        second = align_by_id([t2, t1])
        assert first.ids == second.ids
        assert np.array_equal(first.views[0], second.views[1])

    def test_align_reports_dropped_counts(self, rng):
        t1 = EmbeddingTable(["a", "b", "c"], rng.normal(size=(3, 2)))
        t2 = EmbeddingTable(["b", "a"], rng.normal(size=(2, 3)))
        aligned = align_by_id([t1, t2])
        assert aligned.dropped == (1, 0)

    def test_empty_intersection_lists_sizes(self, rng):
        t1 = EmbeddingTable(["a"], [[1.0]])
        t2 = EmbeddingTable(["b", "c"], [[1.0], [2.0]])
        with pytest.raises(ValidationError, match=r"no shared ids.*sizes: 1, 2"):
            align_by_id([t1, t2])

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
