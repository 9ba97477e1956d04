"""Every reader's outcome on a seeded corpus of damaged files, against the checked-in outcome file.

A change that moves an outcome on purpose rewrites ``reader_outcomes.jsonl`` with
``python tests/reader_oracle.py``; see :mod:`reader_oracle`.  ``-m large_corpus`` also runs ten rounds of
damage, whose outcomes are checked for the readers' shared rules rather than against a file.
"""

import pytest

import reader_oracle
from conftest import empty_table_cache


def test_outcomes_match_the_checked_in_file(tmp_path):
    with empty_table_cache():
        found = reader_oracle.outcomes(tmp_path, reader_oracle.write_corpus(tmp_path))
    expected = reader_oracle.read_outcomes()
    assert len(found) == len(expected)
    moved = [(e, f) for e, f in zip(expected, found) if e != f]
    assert moved == [], f"{len(moved)} outcomes moved, the first: {moved[:1]}"


@pytest.mark.large_corpus
def test_a_larger_corpus_keeps_the_readers_rules(tmp_path):
    with empty_table_cache():
        names = reader_oracle.write_corpus(tmp_path, rounds=10)
        found = reader_oracle.outcomes(tmp_path, names)
    by_file = {}
    for o in found:
        by_file.setdefault(o[0], {})[o[1]] = o
    first = {tuple(o[:2]): o for o in reader_oracle.read_outcomes()}
    for name, read in by_file.items():
        for reader, o in read.items():
            _, _, outcome, line, message = o
            assert first.get((name, reader), o) == o  # the first round is the checked-in corpus
            if reader != "info":
                assert outcome in ("ok", "FileFormatError", "ValidationError"), o
            if outcome == "FileFormatError":
                assert message.startswith(f"{name}:{line}: "), o
                assert 1 <= line <= (tmp_path / name).read_bytes().count(b"\n") + 1, o
        # info describes the file as one of the two loaders, or names that loader's error
        loaders = [read["load_table"], read["_load_model"]]
        info = read["info"]
        if info[2] == "exit 0":
            assert any(o[2] == "ok" for o in loaders), info
        else:
            assert info[4] in [f"error: {o[4]}" for o in loaders], info
