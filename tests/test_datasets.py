import re
import tracemalloc

import numpy as np
import pytest

from conftest import traced_peak
from metaembed.datasets import (
    Pair,
    PairDataset,
    Splits,
    TASK_CLASSES,
    TASK_RANGES,
    TASKS,
    load_dataset,
    make_pair_examples,
    random_splits,
)
from metaembed.errors import FileFormatError, ValidationError
from metaembed.store import SequenceTable


def canonical_lines(*rows):
    return "\n".join("\t".join(r) for r in rows) + "\n"


def canonical_file(tmp_path, *rows):
    path = tmp_path / "pairs.tsv"
    path.write_text(canonical_lines(*rows))
    return path


class TestConstructors:
    def test_score_dataset_basics(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "3", "-", "-"), ("b", "c", "0.5", "-", "-"))
        ds = load_dataset(path, "sts")
        assert ds.kind == "score" and ds.name == str(path)
        assert ds.lo == 0.0 and ds.hi == 5.0 and ds.classes is None
        assert len(ds.pairs) == 2 and ds.pairs[0].label == 3.0
        assert ds.splits is None

    def test_score_out_of_range(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "0.5", "-", "-"))
        with pytest.raises(FileFormatError, match=r"pairs.tsv:1: score 0.5 outside \[1, 5\]"):
            load_dataset(path, "sick-r")

    def test_class_dataset_basics(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "paraphrase", "-", "-"))
        ds = load_dataset(path, "paraphrase")
        assert ds.kind == "classes" and ds.classes == ("paraphrase", "not_paraphrase")
        assert ds.lo is None and ds.hi is None
        assert ds.pairs == (Pair("a", "b", "paraphrase"),)

    def test_unknown_class_rejected(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "maybe", "-", "-"))
        with pytest.raises(FileFormatError,
                           match=":1: unknown class 'maybe'; expected one of paraphrase, not_paraphrase"):
            load_dataset(path, "paraphrase")

    def test_needs_two_distinct_classes(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "x", "-", "-"))
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: need at least two distinct classes, got ['x']")):
            load_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "blank.tsv"
        path.write_text("\n\n")
        with pytest.raises(FileFormatError, match="blank.tsv:2: no pair rows"):
            load_dataset(path, "sts")

    def test_bad_id_rejected(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "1", "-", "-"), ("c", "d e", "1", "-", "-"))
        with pytest.raises(FileFormatError, match=":2: bad id_b value 'd e'"):
            load_dataset(path, "sts")

    def test_split_pairs(self, tmp_path):
        rows = [("1", "a", "b", "1.0", "NEUTRAL", "TEST"),
                ("2", "a", "b", "2.0", "NEUTRAL", "TRAIN"),
                ("3", "a", "b", "3.0", "NEUTRAL", "TRAIN")]
        ds = load_dataset(official_file(tmp_path, rows), "sick-r")
        assert [p.label for p in ds.split_pairs("train")] == [2.0, 3.0]
        assert ds.split_pairs("dev") == []
        assert ds.split_pairs("test") == [Pair("1_A", "1_B", 1.0)]

    def test_split_pairs_without_splits(self, tmp_path):
        ds = load_dataset(canonical_file(tmp_path, ("a", "b", "1", "-", "-")), "sts")
        with pytest.raises(ValidationError, match="has no splits"):
            ds.split_pairs("train")


class TestCanonicalFormat:
    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\t-\t-\na\tb\t1\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*expected 5 tab-separated columns, got 4"):
            load_dataset(path, "sts")

    def test_unparseable_score_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\t-\t-\nc\td\thigh\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*could not parse score 'high'"):
            load_dataset(path, "sts")

    def test_out_of_range_score_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t6.1\t-\t-\n")
        with pytest.raises(FileFormatError, match=r"bad.tsv:1.*score 6.1 outside \[0, 5\]"):
            load_dataset(path, "sts")

    def test_unknown_class_names_line_and_inventory(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tparaphrase\t-\t-\nc\td\tmaybe\t-\t-\n")
        with pytest.raises(FileFormatError,
                           match=f"{path}:2.*unknown class 'maybe'; expected one of paraphrase, not_paraphrase"):
            load_dataset(path, "paraphrase")

    def test_bad_id_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("\tb\t1\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:1.*bad id_a"):
            load_dataset(path, "sts")

    def test_each_id_and_label_is_stored_once(self, tmp_path):
        for task, x, y in ((None, "x", "y"), ("nli", "neutral", "entailment")):
            path = canonical_file(tmp_path, ("a", "b", x, "-", "-"), ("b", "a", y, "-", "-"),
                                  ("a", "c", x, "-", "-"))
            pairs = load_dataset(path, task).pairs
            assert pairs[0].id_a is pairs[1].id_b is pairs[2].id_a
            assert pairs[0].id_b is pairs[1].id_a
            assert pairs[0].label is pairs[2].label
        assert pairs[1].label is TASK_CLASSES["nli"][0]
        _, classes = official_datasets(official_file(tmp_path, [
            ("1", "a", "b", "4.5", "NEUTRAL", "TRAIN"), ("2", "a", "c", "1.2", "NEUTRAL", "TEST")]))
        assert classes.pairs[0].label is classes.pairs[1].label is TASK_CLASSES["sick-e"][1]

    def test_a_bad_id_is_reported_at_its_first_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t1\t-\t-\nc\td e\t1\t-\t-\nd e\ta\t1\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2: bad id_b value 'd e'"):
            load_dataset(path, "sts")

    @pytest.mark.parametrize("line, task, message", [
        ("a\tb\t1\t-", "sts", "expected 5 tab-separated columns, got 4"),
        ("a\tb\thigh\t-\t-", "sts", "could not parse score 'high'"),
        ("b\ta\t6.1\t-\t-", "sts", r"score 6.1 outside \[0, 5\]"),
        ("a\tb\tmaybe\t-\t-", "paraphrase", "unknown class 'maybe'"),
        ("a\t\tparaphrase\t-\t-", "paraphrase", "bad id_b value ''"),
    ])
    def test_faults_after_seen_ids_name_their_own_line(self, tmp_path, line, task, message):
        label = "1" if task == "sts" else "paraphrase"
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t{label}\t-\t-\nb\ta\t{label}\t-\t-\n{line}\na\tb\t{label}\t-\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:3: {message}"):
            load_dataset(path, task)

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x85", "\f", "\x1c", "\x1e", "\v"])
    def test_sentence_with_unicode_line_separator(self, tmp_path, sep):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"a\tb\t1\tone{sep}two\t-\nc\td\t2\t-\t-\n", encoding="utf-8")
        ds = load_dataset(path, "sts")
        assert ds.pairs == (Pair("a", "b", 1.0), Pair("c", "d", 2.0))

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"a\tb\t1\t-\t-\r\nc\td\t2\t-\tlast\r\n")
        ds = load_dataset(path, "sts")
        assert [p.label for p in ds.pairs] == [1.0, 2.0]

    def test_undecodable_byte_names_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"a\tb\t1\t-\t-\nc\td\t2\tcaf\xe9\t-\n")
        with pytest.raises(FileFormatError, match=f"{path}:2.*invalid UTF-8 byte 0xe9"):
            load_dataset(path, "sts")

    @pytest.mark.parametrize("official", [False, True])
    def test_faults_past_the_first_chunk_name_their_line(self, tmp_path, official):
        # the file is read about 64 KiB at a time; line numbers run on across the chunks
        sentences = "sentence a number {0}\tsentence b number {0}"
        rows = [f"{i}\t2.5\tNEUTRAL\tTRAIN\t" if official else f"a{i}\tb{i}\t2.5\t" for i in range(6000)]
        rows = [row + sentences.format(i) for i, row in enumerate(rows)]
        rows[4999] = rows[4999].replace("2.5", "9.5")
        path = tmp_path / "pairs.tsv"
        header = "pair_ID\trelatedness_score\tentailment_judgment\tSemEval_set\tsentence_A\tsentence_B\n"
        path.write_text((header if official else "") + "\n".join(rows) + "\n")
        assert path.stat().st_size > 2 * 65536
        with pytest.raises(FileFormatError, match=rf"{path}:{5000 + official}: score 9.5 outside"):
            load_dataset(path, "sick-r")
        path.write_bytes(path.read_bytes().replace(b"9.5", b"2.5") + b"\xff\n")
        with pytest.raises(FileFormatError, match=rf"{path}:{6001 + official}: invalid UTF-8 byte 0xff"):
            load_dataset(path, "sick-r")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t1\t-\t-\n\nc\td\t2\t-\t-\n")
        ds = load_dataset(path, "sts")
        assert len(ds.pairs) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="no pair rows"):
            load_dataset(path, "sts")

    def test_class_dataset_infers_its_classes(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(
            ("a", "b", "yes", "sa", "sb"),
            ("c", "d", "no", "-", "-"),
            ("e", "f", "yes", "-", "-"),
        ))
        ds = load_dataset(path)
        assert ds.classes == ("no", "yes")
        assert ds.pairs == (Pair("a", "b", "yes"), Pair("c", "d", "no"), Pair("e", "f", "yes"))

    def test_class_dataset_reports_malformed_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(("a", "b", "yes", "-", "-"), ("c", "d", "no", "-")))
        with pytest.raises(FileFormatError, match=r":2: expected 5 tab-separated columns, got 4"):
            load_dataset(path)

    def test_class_dataset_classes_are_sorted_distinct_labels(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(canonical_lines(
            ("a", "b", "yes", "-", "-"),
            ("c", "d", "no", "-", "-"),
            ("e", "f", "yes", "-", "-"),
            ("g", "h", "maybe", "-", "-"),
        ))
        assert load_dataset(path).classes == ("maybe", "no", "yes")


OFFICIAL_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\tSemEval_set"


def official_datasets(path):
    """The (scores, classes) datasets of an official export."""
    return load_dataset(path, "sick-r"), load_dataset(path, "sick-e")


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
        scores, classes = official_datasets(official_file(tmp_path, self.rows()))
        assert scores.kind == "score" and (scores.lo, scores.hi) == (1.0, 5.0)
        assert classes.kind == "classes" and classes.classes == TASK_CLASSES["sick-e"]
        assert [p.label for p in scores.pairs] == [4.5, 1.2, 4.9, 2.0]
        assert [p.label for p in classes.pairs][:2] == ["ENTAILMENT", "CONTRADICTION"]
        # the two datasets describe the same pairs
        assert [(p.id_a, p.id_b) for p in scores.pairs] == [(p.id_a, p.id_b) for p in classes.pairs]

    def test_ids_derive_from_pair_id(self, tmp_path):
        scores, _ = official_datasets(official_file(tmp_path, self.rows()))
        assert scores.pairs[0].id_a == "1_A" and scores.pairs[0].id_b == "1_B"

    def test_semeval_set_maps_to_splits(self, tmp_path):
        scores, classes = official_datasets(official_file(tmp_path, self.rows()))
        assert [s.tolist() for s in scores.splits] == [[0, 3], [1], [2]]
        assert {s.dtype for s in scores.splits} == {np.dtype(np.int64)}
        assert [s.tolist() for s in classes.splits] == [[0, 3], [1], [2]]

    def test_splits_optional(self, tmp_path):
        header = OFFICIAL_HEADER.rsplit("\t", 1)[0]
        rows = [r[:-1] for r in self.rows()]
        scores, _ = official_datasets(official_file(tmp_path, rows, header))
        assert scores.splits is None

    def test_missing_column_named(self, tmp_path):
        header = "pair_ID\tsentence_A\tsentence_B\trelatedness_score"
        rows = [r[:4] for r in self.rows()]
        with pytest.raises(FileFormatError, match="missing column.*entailment_judgment"):
            official_datasets(official_file(tmp_path, rows, header))

    def test_unknown_split_value_names_line(self, tmp_path):
        rows = self.rows()
        rows[1] = rows[1][:-1] + ("DEV",)
        with pytest.raises(FileFormatError, match=r"official.txt:3.*unknown SemEval_set value 'DEV'"):
            official_datasets(official_file(tmp_path, rows))

    def test_score_outside_official_range(self, tmp_path):
        rows = self.rows()
        rows[0] = ("1", "a", "b", "0.5", "ENTAILMENT", "TRAIN")
        with pytest.raises(FileFormatError, match=r"score 0.5 outside \[1, 5\]"):
            official_datasets(official_file(tmp_path, rows))

    def test_unknown_entailment_class(self, tmp_path):
        rows = self.rows()
        rows[2] = ("3", "a", "b", "3.0", "MAYBE", "TEST")
        with pytest.raises(FileFormatError, match=r"official.txt:4.*unknown entailment class 'MAYBE'"):
            official_datasets(official_file(tmp_path, rows))

    def test_field_count_checked(self, tmp_path):
        path = tmp_path / "official.txt"
        path.write_text(OFFICIAL_HEADER + "\n1\ta\tb\t3.0\tENTAILMENT\n")
        with pytest.raises(FileFormatError, match="expected 6 fields, got 5"):
            official_datasets(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_sentence_with_unicode_line_separator(self, tmp_path, newline):
        rows = self.rows()
        rows[1] = ("2", "A dog\u2028runs", "A cat\fsleeps", "1.2", "CONTRADICTION", "TRIAL")
        path = tmp_path / "official.txt"
        path.write_bytes(newline.join([OFFICIAL_HEADER] + ["\t".join(r) for r in rows]).encode() + b"\n")
        scores, _ = official_datasets(path)
        assert len(scores.pairs) == 4
        assert scores.pairs[1] == Pair("2_A", "2_B", 1.2)


class TestLoadDataset:
    OFFICIAL_ROWS = [
        ("1", "a", "b", "4.5", "ENTAILMENT", "TRAIN"),
        ("2", "a", "b", "1.2", "CONTRADICTION", "TRIAL"),
        ("3", "a", "b", "3.0", "NEUTRAL", "TEST"),
    ]

    def test_tasks_are_the_ranges_then_the_classes(self):
        assert TASKS == ("sts", "sick-r", "sick-e", "nli", "paraphrase")
        assert set(TASK_RANGES).isdisjoint(TASK_CLASSES)

    @pytest.mark.parametrize("task", TASKS)
    def test_canonical_file_for_every_task(self, tmp_path, task):
        if task in TASK_RANGES:
            labels = ["2.5", "1"]
        else:
            labels = list(TASK_CLASSES[task][:2])
        path = canonical_file(tmp_path, ("a", "b", labels[0], "-", "-"), ("c", "d", labels[1], "-", "-"))
        ds = load_dataset(path, task)
        if task in TASK_RANGES:
            assert (ds.kind, ds.lo, ds.hi) == ("score", *TASK_RANGES[task])
            labels = [float(label) for label in labels]
        else:
            assert (ds.kind, ds.classes) == ("classes", TASK_CLASSES[task])
        assert ds.pairs == (Pair("a", "b", labels[0]), Pair("c", "d", labels[1]))

    def test_canonical_file_without_task_uses_its_own_labels(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "yes", "-", "-"), ("c", "d", "no", "-", "-"))
        ds = load_dataset(path)
        assert (ds.kind, ds.classes) == ("classes", ("no", "yes"))

    def test_canonical_file_checked_against_the_task(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "yes", "-", "-"), ("c", "d", "no", "-", "-"))
        with pytest.raises(FileFormatError, match=":1: could not parse score 'yes'"):
            load_dataset(path, "sts")
        with pytest.raises(FileFormatError, match=":1: unknown class 'yes'; expected one of entailment"):
            load_dataset(path, "nli")

    @pytest.mark.parametrize("task", [None, "sts", "sick-r", "sick-e"])
    def test_official_export(self, tmp_path, task):
        ds = load_dataset(official_file(tmp_path, self.OFFICIAL_ROWS), task)
        if task in TASK_RANGES:
            assert (ds.kind, [p.label for p in ds.pairs]) == ("score", [4.5, 1.2, 3.0])
        else:
            assert (ds.kind, [p.label for p in ds.pairs]) == ("classes", ["ENTAILMENT", "CONTRADICTION", "NEUTRAL"])
        assert ds.splits == Splits((0,), (1,), (2,))

    @pytest.mark.parametrize("task", ["nli", "paraphrase"])
    def test_official_export_refused_for_other_class_tasks(self, tmp_path, task):
        path = official_file(tmp_path, self.OFFICIAL_ROWS)
        with pytest.raises(ValidationError, match=f"task '{task}' needs a canonical file"):
            load_dataset(path, task)

    def test_header_field_must_be_exactly_pair_id(self, tmp_path):
        path = official_file(tmp_path, self.OFFICIAL_ROWS, header=OFFICIAL_HEADER.replace("pair_ID", "pair_ID "))
        with pytest.raises(FileFormatError, match=":1: expected 5 tab-separated columns, got 6"):
            load_dataset(path, "sick-e")

    def test_unknown_task(self, tmp_path):
        path = canonical_file(tmp_path, ("a", "b", "1", "-", "-"))
        with pytest.raises(ValidationError, match="task must be one of"):
            load_dataset(path, "sick")


class TestRandomSplits:
    def test_partitions_everything(self):
        s = random_splits(100, seed=3)
        assert {part.dtype for part in s} == {np.dtype(np.int64)}
        combined = sorted(np.concatenate(s).tolist())
        assert combined == list(range(100))
        assert len(s.train) == 70 and len(s.dev) == 10 and len(s.test) == 20

    def test_deterministic_in_seed(self):
        def drawn(seed):
            return [part.tolist() for part in random_splits(50, seed=seed)]

        assert drawn(9) == drawn(9)
        assert drawn(9) != drawn(10)

    def test_permutation_comes_from_the_seed_sequence(self):
        order = np.random.default_rng(np.random.SeedSequence(4)).permutation(10)
        s = random_splits(10, seed=4)
        assert np.concatenate(s).tolist() == order.tolist()

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

    def dataset(self):
        pairs = (Pair("a", "b", "y"), Pair("b", "c", "x"))
        return PairDataset("toy", "classes", pairs, None, None, ("x", "y"), None)

    def test_triples_line_up(self):
        ds = self.dataset()
        examples = make_pair_examples(ds, self.tables())
        assert len(examples) == 2
        views_a, views_b, label = examples[0]
        assert label == 1  # "y" is class index 1
        assert views_a[0].shape == (2, 3) and views_b[1].shape == (2, 2)
        assert examples[1][2] == 0

    def test_indices_select_a_subset(self):
        ds = self.dataset()
        examples = make_pair_examples(ds, self.tables(), indices=[1])
        assert len(examples) == 1 and examples[0][2] == 0

    def test_score_dataset_rejected(self):
        ds = PairDataset("toy", "score", (Pair("a", "b", 1.0),), 0.0, 5.0, None, None)
        with pytest.raises(ValidationError, match="score-labeled, need classes"):
            make_pair_examples(ds, self.tables())


def test_pair_file_is_parsed_as_it_is_read(tmp_path):
    # a load holds the dataset it builds and a chunk of the file's text, never every line
    path = tmp_path / "pairs.tsv"
    path.write_text("".join(f"s{2 * i}\ts{2 * i + 1}\t{i % 11 / 2:g}\tsentence a number {i}\tsentence b number {i}\n"
                            for i in range(10_000)))
    tracemalloc.start()
    try:
        dataset = load_dataset(path, "sts")
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dataset.pairs) == 10_000
    assert traced_peak(load_dataset, path, "sts") < 1.6 * size
