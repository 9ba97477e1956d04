import numpy as np
import pytest

from metaembed.datasets import (
    Pair,
    PairDataset,
    Splits,
    TASK_CLASSES,
    class_dataset,
    load_class_dataset_tsv,
    load_pair_dataset_tsv,
    load_sick_official,
    make_pair_examples,
    random_splits,
    save_pair_dataset_tsv,
    score_dataset,
)
from metaembed.errors import FileFormatError, ValidationError
from metaembed.store import SequenceTable


def canonical_lines(*rows):
    return "\n".join("\t".join(r) for r in rows) + "\n"


class TestConstructors:
    def test_score_dataset_basics(self):
        ds = score_dataset("toy", [Pair("a", "b", 3.0), Pair("b", "c", 0.5)], 0.0, 5.0)
        assert ds.kind == "score" and ds.name == "toy"
        assert ds.lo == 0.0 and ds.hi == 5.0 and ds.classes is None
        assert len(ds.pairs) == 2 and ds.pairs[0].label == 3.0
        assert ds.sentences == (("-", "-"), ("-", "-"))

    def test_score_out_of_range(self):
        with pytest.raises(ValidationError, match=r"outside \[1.0, 5.0\]"):
            score_dataset("toy", [Pair("a", "b", 0.5)], 1.0, 5.0)

    def test_score_bad_range(self):
        with pytest.raises(ValidationError, match="hi > lo"):
            score_dataset("toy", [Pair("a", "b", 1.0)], 5.0, 0.0)

    def test_class_dataset_basics(self):
        ds = class_dataset("toy", [Pair("a", "b", "yes")], ("no", "yes"))
        assert ds.kind == "classes" and ds.classes == ("no", "yes")
        assert ds.lo is None and ds.hi is None

    def test_unknown_class_rejected(self):
        with pytest.raises(ValidationError, match="'maybe' is not in"):
            class_dataset("toy", [Pair("a", "b", "maybe")], ("no", "yes"))

    def test_needs_two_distinct_classes(self):
        with pytest.raises(ValidationError, match="two distinct classes"):
            class_dataset("toy", [Pair("a", "b", "x")], ("x", "x"))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no pairs"):
            score_dataset("toy", [], 0.0, 5.0)

    def test_bad_id_rejected(self):
        with pytest.raises(ValidationError, match="bad id"):
            score_dataset("toy", [Pair("a b", "c", 1.0)], 0.0, 5.0)

    def test_splits_checked_for_overlap(self):
        pairs = [Pair("a", "b", 1.0), Pair("b", "c", 2.0)]
        with pytest.raises(ValidationError, match="more than one split"):
            score_dataset("toy", pairs, 0.0, 5.0, splits=Splits((0,), (0,), (1,)))

    def test_splits_checked_for_range(self):
        pairs = [Pair("a", "b", 1.0)]
        with pytest.raises(ValidationError, match="out of range"):
            score_dataset("toy", pairs, 0.0, 5.0, splits=Splits((0,), (), (5,)))

    def test_split_pairs(self):
        pairs = [Pair("a", "b", 1.0), Pair("b", "c", 2.0), Pair("c", "d", 3.0)]
        ds = score_dataset("toy", pairs, 0.0, 5.0, splits=Splits((2, 0), (), (1,)))
        assert [p.label for p in ds.split_pairs("train")] == [3.0, 1.0]
        assert ds.split_pairs("dev") == []

    def test_split_pairs_without_splits(self):
        ds = score_dataset("toy", [Pair("a", "b", 1.0)], 0.0, 5.0)
        with pytest.raises(ValidationError, match="has no splits"):
            ds.split_pairs("train")


class TestCanonicalFormat:
    def test_score_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        ds = score_dataset(
            "toy",
            [Pair("s1", "s2", 4.25), Pair("s3", "s4", 0.0)],
            0.0, 5.0,
            sentences=[("a cat sits", "a cat sat"), ("left", "right")],
        )
        save_pair_dataset_tsv(path, ds)
        back = load_pair_dataset_tsv(path, score_range=(0.0, 5.0), name="toy")
        assert back.pairs == ds.pairs
        assert back.sentences == ds.sentences
        assert back.splits is None

    def test_class_round_trip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        ds = class_dataset("toy", [Pair("s1", "s2", "yes"), Pair("s2", "s3", "no")], ("no", "yes"))
        save_pair_dataset_tsv(path, ds)
        back = load_pair_dataset_tsv(path, classes=("no", "yes"))
        assert back.pairs == ds.pairs
        assert back.classes == ("no", "yes")

    def test_file_layout_is_headerless_five_columns(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        ds = score_dataset("toy", [Pair("s1", "s2", 2.5)], 0.0, 5.0,
                           sentences=[("hello there", "general greeting")])
        save_pair_dataset_tsv(path, ds)
        assert path.read_text() == "s1\ts2\t2.5\thello there\tgeneral greeting\n"

    def test_exactly_one_kind_argument(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t1\t-\t-\n")
        with pytest.raises(ValidationError, match="exactly one of"):
            load_pair_dataset_tsv(path)
        with pytest.raises(ValidationError, match="exactly one of"):
            load_pair_dataset_tsv(path, score_range=(0, 5), classes=("x", "y"))

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\t-\t-\na\tb\t1\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*expected 5 tab-separated columns, got 4"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    def test_unparseable_score_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\t-\t-\nc\td\thigh\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*could not parse score 'high'"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    def test_out_of_range_score_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t6.1\t-\t-\n")
        with pytest.raises(FileFormatError, match=r"bad.tsv:1.*score 6.1 outside \[0, 5\]"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    def test_unknown_class_names_line_and_inventory(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tyes\t-\t-\nc\td\tmaybe\t-\t-\n")
        with pytest.raises(FileFormatError,
                           match=f"{path}:2.*unknown class 'maybe'; expected one of no, yes"):
            load_pair_dataset_tsv(path, classes=("no", "yes"))

    def test_bad_id_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\tb\t1\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:1.*bad id_a"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\f", "\x1c", "\x1e", "\v"])
    def test_sentence_with_unicode_line_separator(self, tmp_path, sep):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"a\tb\t1\tone{sep}two\t-\nc\td\t2\t-\t-\n", encoding="utf-8")
        ds = load_pair_dataset_tsv(path, score_range=(0, 5))
        assert ds.sentences[0] == (f"one{sep}two", "-") and len(ds.pairs) == 2

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"a\tb\t1\t-\t-\r\nc\td\t2\t-\tlast\r\n")
        ds = load_pair_dataset_tsv(path, score_range=(0, 5))
        assert [p.label for p in ds.pairs] == [1.0, 2.0] and ds.sentences[1] == ("-", "last")

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"a\tb\t1\t-\t-\nc\td\t2\tcaf\xe9\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*invalid UTF-8 byte 0xe9"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t1\t-\t-\n\nc\td\t2\t-\t-\n")
        ds = load_pair_dataset_tsv(path, score_range=(0, 5))
        assert len(ds.pairs) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="no pair rows"):
            load_pair_dataset_tsv(path, score_range=(0, 5))

    def test_class_dataset_infers_its_classes(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(
            ("a", "b", "yes", "sa", "sb"),
            ("c", "d", "no", "-", "-"),
            ("e", "f", "yes", "-", "-"),
        ))
        ds = load_class_dataset_tsv(path)
        assert ds.classes == ("no", "yes")
        assert ds == load_pair_dataset_tsv(path, classes=("no", "yes"))

    def test_class_dataset_reports_malformed_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(("a", "b", "yes", "-", "-"), ("c", "d", "no", "-")))
        with pytest.raises(FileFormatError, match=r":2: expected 5 tab-separated columns, got 4"):
            load_class_dataset_tsv(path)

    def test_class_dataset_classes_are_sorted_distinct_labels(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(
            ("a", "b", "yes", "-", "-"),
            ("c", "d", "no", "-", "-"),
            ("e", "f", "yes", "-", "-"),
            ("g", "h", "maybe", "-", "-"),
        ))
        assert load_class_dataset_tsv(path).classes == ("maybe", "no", "yes")


OFFICIAL_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\tSemEval_set"


def official_file(tmp_path, rows, header=OFFICIAL_HEADER):
    path = tmp_path / "official.txt"
    path.write_text("\n".join([header] + ["\t".join(r) for r in rows]) + "\n")
    return path


class TestOfficialFormat:
    def rows(self):
        return [
            ("1", "A man is walking", "A person walks", "4.5", "ENTAILMENT", "TRAIN"),
            ("2", "A dog runs", "A cat sleeps", "1.2", "CONTRADICTION", "TRIAL"),
            ("3", "Kids play", "Children are playing", "4.9", "ENTAILMENT", "TEST"),
            ("4", "It rains", "The sun shines", "2.0", "NEUTRAL", "TRAIN"),
        ]

    def test_yields_score_and_class_datasets(self, tmp_path):
        scores, classes = load_sick_official(official_file(tmp_path, self.rows()))
        assert scores.kind == "score" and (scores.lo, scores.hi) == (1.0, 5.0)
        assert classes.kind == "classes" and classes.classes == TASK_CLASSES["sick-e"]
        assert [p.label for p in scores.pairs] == [4.5, 1.2, 4.9, 2.0]
        assert [p.label for p in classes.pairs][:2] == ["ENTAILMENT", "CONTRADICTION"]
        # the two datasets describe the same pairs
        assert [(p.id_a, p.id_b) for p in scores.pairs] == [(p.id_a, p.id_b) for p in classes.pairs]
        assert scores.sentences == classes.sentences
        assert scores.sentences[0] == ("A man is walking", "A person walks")

    def test_ids_derive_from_pair_id(self, tmp_path):
        scores, _ = load_sick_official(official_file(tmp_path, self.rows()))
        assert scores.pairs[0].id_a == "1_A" and scores.pairs[0].id_b == "1_B"

    def test_semeval_set_maps_to_splits(self, tmp_path):
        scores, classes = load_sick_official(official_file(tmp_path, self.rows()))
        assert scores.splits == Splits((0, 3), (1,), (2,))
        assert classes.splits == scores.splits

    def test_splits_optional(self, tmp_path):
        header = OFFICIAL_HEADER.rsplit("\t", 1)[0]
        rows = [r[:-1] for r in self.rows()]
        scores, _ = load_sick_official(official_file(tmp_path, rows, header))
        assert scores.splits is None

    def test_missing_column_named(self, tmp_path):
        header = "pair_ID\tsentence_A\tsentence_B\trelatedness_score"
        rows = [r[:4] for r in self.rows()]
        with pytest.raises(FileFormatError, match="missing column.*entailment_judgment"):
            load_sick_official(official_file(tmp_path, rows, header))

    def test_unknown_split_value_names_line(self, tmp_path):
        rows = self.rows()
        rows[1] = rows[1][:-1] + ("DEV",)
        with pytest.raises(FileFormatError, match=r"official.txt:3.*unknown SemEval_set value 'DEV'"):
            load_sick_official(official_file(tmp_path, rows))

    def test_score_outside_official_range(self, tmp_path):
        rows = self.rows()
        rows[0] = ("1", "a", "b", "0.5", "ENTAILMENT", "TRAIN")
        with pytest.raises(FileFormatError, match=r"score 0.5 outside \[1, 5\]"):
            load_sick_official(official_file(tmp_path, rows))

    def test_unknown_entailment_class(self, tmp_path):
        rows = self.rows()
        rows[2] = ("3", "a", "b", "3.0", "MAYBE", "TEST")
        with pytest.raises(FileFormatError, match=r"official.txt:4.*unknown entailment class 'MAYBE'"):
            load_sick_official(official_file(tmp_path, rows))

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "official.txt"
        path.write_text(OFFICIAL_HEADER + "\n1\ta\tb\t3.0\tENTAILMENT\n")
        with pytest.raises(FileFormatError, match="expected 6 fields, got 5"):
            load_sick_official(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_sentence_with_unicode_line_separator(self, tmp_path, newline):
        rows = self.rows()
        rows[1] = ("2", "A dog\u2028runs", "A cat\fsleeps", "1.2", "CONTRADICTION", "TRIAL")
        path = tmp_path / "official.txt"
        path.write_bytes(newline.join([OFFICIAL_HEADER] + ["\t".join(r) for r in rows]).encode() + b"\n")
        scores, _ = load_sick_official(path)
        assert len(scores.pairs) == 4
        assert scores.sentences[1] == ("A dog\u2028runs", "A cat\fsleeps")

    def test_not_official_header(self, tmp_path):
        path = tmp_path / "official.txt"
        path.write_text("id\tstuff\n")
        with pytest.raises(FileFormatError, match="expected a header starting with 'pair_ID'"):
            load_sick_official(path)


class TestRandomSplits:
    def test_partitions_everything(self):
        s = random_splits(100, seed=3)
        combined = sorted(s.train + s.dev + s.test)
        assert combined == list(range(100))
        assert len(s.train) == 70 and len(s.dev) == 10 and len(s.test) == 20

    def test_deterministic_in_seed(self):
        assert random_splits(50, seed=9) == random_splits(50, seed=9)
        assert random_splits(50, seed=9) != random_splits(50, seed=10)

    def test_permutation_comes_from_the_seed_sequence(self):
        order = np.random.default_rng(np.random.SeedSequence(4)).permutation(10)
        s = random_splits(10, seed=4)
        assert s.train + s.dev + s.test == tuple(int(i) for i in order)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
            random_splits(10, seed=-1)

    def test_custom_ratios(self):
        s = random_splits(10, seed=0, ratios=(0.9, 0.1, 0.0))
        assert len(s.train) == 9 and len(s.dev) == 1 and len(s.test) == 0

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one pair"):
            random_splits(0)
        with pytest.raises(ValidationError, match="summing to 1"):
            random_splits(10, ratios=(0.5, 0.5, 0.5))


class TestMakePairExamples:
    def tables(self):
        ids = ["a", "b", "c"]
        rng = np.random.default_rng(0)
        return [
            SequenceTable(ids, [rng.normal(size=(2, 3)) for _ in ids]),
            SequenceTable(ids, [rng.normal(size=(2, 2)) for _ in ids]),
        ]

    def test_triples_line_up(self):
        ds = class_dataset("toy", [Pair("a", "b", "y"), Pair("b", "c", "x")], ("x", "y"))
        examples = make_pair_examples(ds, self.tables())
        assert len(examples) == 2
        views_a, views_b, label = examples[0]
        assert label == 1  # "y" is class index 1
        assert views_a[0].shape == (2, 3) and views_b[1].shape == (2, 2)
        assert examples[1][2] == 0

    def test_indices_select_a_subset(self):
        ds = class_dataset("toy", [Pair("a", "b", "y"), Pair("b", "c", "x")], ("x", "y"))
        examples = make_pair_examples(ds, self.tables(), indices=[1])
        assert len(examples) == 1 and examples[0][2] == 0

    def test_score_dataset_rejected(self):
        ds = score_dataset("toy", [Pair("a", "b", 1.0)], 0.0, 5.0)
        with pytest.raises(ValidationError, match="score-labeled, need classes"):
            make_pair_examples(ds, self.tables())
