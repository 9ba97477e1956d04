"""The cache of parsed vector tables: a hit reads the same table a parse does, a bad entry is a miss,
and no command's outputs, manifests or messages depend on the cache.  Every command reads each input
once, a pipe included, and its manifest names the bytes that read parsed."""

import builtins
import contextlib
import hashlib
import io
import json
import os
import shutil
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import empty_table_cache
from metaembed import cli, store
from metaembed.cli import main
from metaembed.errors import FileFormatError
from metaembed.modelio import sniff_model_kind
from metaembed.store import (EmbeddingTable, SequenceTable, load_table, load_vector_table, save_sequence_table,
                             save_vector_table, sniff_table_kind)

AWKWARD = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5000000000000004]


def entries(cache) -> list:
    return sorted(p.name for p in cache.iterdir()) if cache.exists() else []


def entry_name(path) -> str:
    return f"{hashlib.sha256(path.read_bytes()).hexdigest()}.vector-table-1.npy"


def same(a: EmbeddingTable, b: EmbeddingTable) -> bool:
    """Same ids in the same order and bitwise-equal values."""
    return a.ids == b.ids and a.vectors.shape == b.vectors.shape and a.vectors.tobytes() == b.vectors.tobytes()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory of the test's own, not yet made."""
    path = tmp_path / "cache"
    monkeypatch.setenv("METAEMBED_CACHE", str(path))
    return path


def refuse_parsing(monkeypatch):
    """Make parsing a vector table an error, so that only a cache hit loads one."""
    def refuse(*args, **kwargs):
        raise AssertionError("the text was parsed")

    monkeypatch.setattr(store, "read_rows", refuse)


def awkward_table():
    ids = ["zeta", "été", "#1", "a", "中文", "m" * 40]
    return EmbeddingTable(ids, np.array([AWKWARD[i:] + AWKWARD[:i] for i in range(len(ids))]))


class TestHits:
    def test_a_hit_is_bitwise_equal_to_a_parse(self, tmp_path, cache, monkeypatch):
        path = tmp_path / "t.vec"
        save_vector_table(path, awkward_table())
        first = load_vector_table(path)
        assert same(first, awkward_table())
        assert entries(cache) == [entry_name(path)]
        refuse_parsing(monkeypatch)
        hit = load_vector_table(path)
        assert same(hit, first)
        assert np.signbit(hit.vectors[0, 0]) and hit.vectors.flags.c_contiguous
        assert same(load_table(path), first)

    def test_the_cache_directory_is_private_and_made_on_first_write(self, tmp_path, cache):
        path = tmp_path / "t.vec"
        save_vector_table(path, awkward_table())
        assert not cache.exists()
        load_vector_table(path)
        assert cache.stat().st_mode & 0o777 == 0o700
        assert [p.stat().st_mode & 0o777 for p in cache.iterdir()] == [0o600]

    def test_an_entry_is_the_values_then_the_ids_joined_by_lf(self, tmp_path, cache):
        path = tmp_path / "t.vec"
        save_vector_table(path, awkward_table())
        load_vector_table(path)
        with open(cache / entry_name(path), "rb") as f:
            values, ids = np.load(f), np.load(f)
            assert f.read() == b""
        assert values.tobytes() == awkward_table().vectors.tobytes()
        assert ids.dtype == np.uint8 and ids.tobytes() == "\n".join(awkward_table().ids).encode("utf-8")

    def test_same_bytes_share_an_entry_and_other_bytes_do_not(self, tmp_path, cache, monkeypatch):
        a, b, c = tmp_path / "a.vec", tmp_path / "b.vec", tmp_path / "c.vec"
        a.write_bytes(b"2 1\nx 1\ny 2\n")
        c.write_bytes(b"2 1\nx 1\ny 2\n\n")  # the same table in other bytes
        load_vector_table(a)
        b.write_bytes(a.read_bytes())
        load_vector_table(c)
        assert entries(cache) == sorted([entry_name(a), entry_name(c)])
        refuse_parsing(monkeypatch)
        assert same(load_vector_table(b), load_vector_table(c))

    def test_a_pipe_is_left_to_the_parse(self, tmp_path, cache):
        # hashing a pipe would consume it, and the parse would then wait for a writer that is gone
        text = b"2 1\nx 1\ny 2\n"
        (tmp_path / "t.vec").write_bytes(text)
        expected = load_vector_table(tmp_path / "t.vec")  # a cached table with the pipe's bytes
        pipe = tmp_path / "pipe.vec"
        os.mkfifo(pipe)
        outcome = []

        def read():
            try:
                outcome.append(load_vector_table(pipe))
            except FileFormatError as exc:
                outcome.append(str(exc))

        threads = [threading.Thread(target=pipe.write_bytes, args=(text,), daemon=True),
                   threading.Thread(target=read, daemon=True)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        # the parse reads the pipe once, growing its array as rows arrive, and hashes what it read
        assert len(outcome) == 1 and same(outcome[0], expected)
        assert outcome[0].digest == hashlib.sha256(text).hexdigest()

    def test_default_location_follows_xdg_cache_home_then_home(self, tmp_path, monkeypatch):
        monkeypatch.delenv("METAEMBED_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        path = tmp_path / "t.vec"
        path.write_bytes(b"1 1\na 1\n")
        load_vector_table(path)
        assert entries(tmp_path / "xdg" / "metaembed") == [entry_name(path)]
        monkeypatch.setenv("XDG_CACHE_HOME", "")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        load_vector_table(path)
        assert entries(tmp_path / "home" / ".cache" / "metaembed") == [entry_name(path)]

    def test_a_relative_xdg_cache_home_means_no_caching(self, tmp_path, monkeypatch):
        monkeypatch.delenv("METAEMBED_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "t.vec"
        path.write_bytes(b"1 1\na 1\n")
        assert load_vector_table(path).ids == ("a",)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.vec"]


finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
id_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(finite, min_size=3, max_size=3), min_size=1, max_size=6),
       names=st.lists(id_text.filter(lambda s: s.split() == [s]), min_size=6, max_size=6, unique=True))
def test_hits_read_back_every_parse(tmp_path_factory, rows, names):
    path = tmp_path_factory.mktemp("hit") / "t.vec"
    table = EmbeddingTable(names[: len(rows)], rows)
    save_vector_table(path, table)
    with empty_table_cache() as cache:
        first = load_vector_table(path)
        assert entries(cache) == [entry_name(path)]
        assert same(load_vector_table(path), first)
    assert same(first, table)


def saved(*arrays, allow_pickle=False) -> bytes:
    out = io.BytesIO()
    for a in arrays:
        np.save(out, a, allow_pickle=allow_pickle)
    return out.getvalue()


def id_bytes(ids) -> np.ndarray:
    return np.frombuffer("\n".join(ids).encode("utf-8"), dtype=np.uint8)


def with_inf(values):
    out = values.copy()
    out[1, 1] = np.inf
    return out


# each makes a damaged entry from the good entry's bytes and its table
DAMAGED = {
    "empty": lambda good, t: b"",
    "truncated header": lambda good, t: good[:40],
    "truncated values": lambda good, t: good[: len(good) // 2],
    "truncated ids": lambda good, t: good[:-3],
    "no ids": lambda good, t: saved(t.vectors),
    "trailing bytes": lambda good, t: good + b"\0",
    "garbage": lambda good, t: b"\x93NUMPY garbage " * 20,
    "pickled ids": lambda good, t: saved(t.vectors, np.array(list(t.ids), dtype=object), allow_pickle=True),
    "one row short": lambda good, t: saved(t.vectors[:-1], id_bytes(t.ids)),
    "one id short": lambda good, t: saved(t.vectors, id_bytes(t.ids[:-1])),
    "no rows": lambda good, t: saved(t.vectors[:0], id_bytes([])),
    "one-dimensional values": lambda good, t: saved(t.vectors.ravel(), id_bytes(t.ids)),
    "float32 values": lambda good, t: saved(np.zeros(t.vectors.shape, np.float32), id_bytes(t.ids)),
    "big-endian values": lambda good, t: saved(t.vectors.astype(">f8"), id_bytes(t.ids)),
    "infinite value": lambda good, t: saved(with_inf(t.vectors), id_bytes(t.ids)),
    "nan values": lambda good, t: saved(np.full_like(t.vectors, np.nan), id_bytes(t.ids)),
    "ids as a <U array": lambda good, t: saved(t.vectors, np.array(t.ids)),
    "duplicate ids": lambda good, t: saved(t.vectors, id_bytes([t.ids[0]] * len(t.ids))),
    "id with a space": lambda good, t: saved(t.vectors, id_bytes(["a b", *t.ids[1:]])),
    "undecodable ids": lambda good, t: saved(t.vectors, np.frombuffer(b"\xff" + id_bytes(t.ids).tobytes()[1:],
                                                                      dtype=np.uint8)),
    "a directory": None,
}


@pytest.mark.parametrize("damage", sorted(DAMAGED))
def test_a_bad_entry_is_a_miss_and_is_rewritten(tmp_path, cache, damage):
    path = tmp_path / "t.vec"
    table = awkward_table()
    save_vector_table(path, table)
    load_vector_table(path)
    entry = cache / entry_name(path)
    good = entry.read_bytes()
    entry.unlink()
    if DAMAGED[damage] is None:
        entry.mkdir()
        assert same(load_vector_table(path), table)  # the directory stays, and the table is not cached
        return
    entry.write_bytes(DAMAGED[damage](good, table))
    assert same(load_vector_table(path), table)
    assert entries(cache) == [entry.name] and entry.read_bytes() == good


@pytest.mark.parametrize("text, message", [
    (b"3 2\na 1 2\nb 3 4\n", "3: expected 3 data rows; file ends after line 3"),
    (b"2 2\na 1 2\nb 3 x\n", "3: could not parse value 'x'"),
    (b"2 2\na 1 2\nb 3 4 5\n", "3: expected 2 values, got 3"),
    (b"2 2\na 1 2\na 3 4\n", "3: duplicate id 'a'"),
    (b"2 2\na 1 2\nb 3 nan\n", "3: non-finite value"),
    (b"2 2\na 1 2\nb\xff 3 4\n", "3: invalid UTF-8 byte 0xff"),
    (b"2 2\na 1 2\nb 3 4\nc 5 6\n", "4: unexpected content after the declared rows"),
    (b"2 x\n", "1: expected header 'N D', got '2 x'"),
])
def test_a_damaged_table_fails_the_same_with_an_empty_or_a_warm_cache(tmp_path, cache, text, message):
    good, path = tmp_path / "good.vec", tmp_path / "t.vec"
    good.write_bytes(b"2 2\na 1 2\nb 3 4\n")
    path.write_bytes(text)
    errors = []
    for _ in range(2):  # with an empty cache, then one that holds the undamaged table
        with pytest.raises(FileFormatError) as exc:
            load_vector_table(path)
        errors.append(str(exc.value))
        assert entries(cache) == ([entry_name(good)] if errors[1:] else [])
        load_vector_table(good)
    assert errors == [f"{path}:{message}"] * 2


def test_an_entry_is_keyed_by_the_bytes_parsed_not_those_looked_up(tmp_path, cache, monkeypatch):
    path, other = tmp_path / "t.vec", tmp_path / "other.vec"
    path.write_bytes(b"1 1\na 1\n")
    looked_up = entry_name(path)
    swapped = b"1 1\nb 2\n"
    real = store.Lines

    def swapping(p, **kwargs):
        # the file is replaced after the lookup hashed it, before the parse opens it
        path.write_bytes(swapped)
        return real(p, **kwargs)

    monkeypatch.setattr(store, "Lines", swapping)
    assert load_vector_table(path).ids == ("b",)
    monkeypatch.setattr(store, "Lines", real)
    other.write_bytes(swapped)
    assert entries(cache) == [entry_name(other)] != [looked_up]
    other.write_bytes(b"1 1\na 1\n")  # the bytes looked up are parsed, not taken for the swapped ones
    assert load_vector_table(other).ids == ("a",)


# every command, each reading vector tables and writing what it can
def pipeline():
    t0, t1 = "t0.vec", "t1.vec"
    return [
        ["combine", "--method", "con", "--inputs", t0, t1, "--out", "con.vec"],
        ["fit", "--method", "svd", "--inputs", t0, t1, "--d", "2", "--out", "svd.model"],
        ["fit", "--method", "gcca", "--inputs", t0, t1, "--d", "2", "--out", "gcca.model"],
        ["apply", "svd.model", "--inputs", t0, t1, "--out", "svd.vec"],
        ["apply", "gcca.model", "--inputs", t0, t1, "--out", "gcca.vec"],
        ["train", "--mode", "dme", "--inputs", t0, t1, "--dataset", "cls.tsv", "--d-prime", "3",
         "--m-enc", "2", "--epochs", "1", "--out", "dme.model"],
        ["apply", "dme.model", "--inputs", t0, t1, "--out", "dme.vec"],
        ["eval", "sts", "--inputs", "svd.vec", "--dataset", "sts.tsv", "--out", "sts.tsv.out"],
        ["eval", "sts", "gcca.model", "--inputs", t0, t1, "--dataset", "sts.tsv", "--out", "gcca.sts"],
        ["eval", "sick-r", "--inputs", "con.vec", "--dataset", "sts.tsv", "--epoch-size", "1",
         "--tenacity", "1", "--out", "probe.tsv"],
        ["eval", "paraphrase", "dme.model", "--inputs", t0, t1, "--dataset", "cls.tsv", "--out", "head.tsv"],
        ["info", "con.vec"],
        ["info", "svd.model"],
    ]


def write_pipeline_inputs(directory):
    rng = np.random.default_rng(7)
    ids = [f"s{i}" for i in range(30)]
    for k, width in enumerate((4, 3)):
        save_vector_table(directory / f"t{k}.vec", EmbeddingTable(ids[k:], rng.normal(size=(30 - k, width))))
    labels = ("paraphrase", "not_paraphrase")
    cls = [f"s{i}\ts{i + 1}\t{labels[i % 2]}\t-\t-" for i in range(1, 29)]
    sts = [f"s{i}\ts{(i * 7) % 29 + 1}\t{1 + (i % 9) / 2}\t-\t-" for i in range(1, 29)]
    (directory / "cls.tsv").write_text("\n".join(cls) + "\n", encoding="utf-8")
    (directory / "sts.tsv").write_text("\n".join(sts) + "\n", encoding="utf-8")


def run_pipeline(directory, capsys) -> dict:
    """Every file in *directory* and each command's stdout and stderr, after running the pipeline."""
    streams = []
    for argv in pipeline():
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        streams.append((captured.out, captured.err))
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()}
    return {"files": files, "streams": streams}


@pytest.fixture
def work(tmp_path, monkeypatch):
    """The pipeline's inputs, in a working directory of the test's own."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    write_pipeline_inputs(work)
    return work


class TestCommands:
    def test_outputs_do_not_depend_on_the_cache(self, work, cache, capsys, monkeypatch):
        cold = run_pipeline(work, capsys)
        assert cold["streams"][-2][0].startswith("kind vector-table\nrows 29\n")
        # the two sources, and the two outputs that later commands read
        assert entries(cache) == sorted(entry_name(work / n) for n in ("t0.vec", "t1.vec", "svd.vec", "con.vec"))
        assert all(err == "" for _, err in cold["streams"])
        parse = store.read_rows
        refuse_parsing(monkeypatch)  # every vector table a command reads is now a hit
        assert run_pipeline(work, capsys) == cold
        monkeypatch.setattr(store, "read_rows", parse)
        written = {p: p.read_bytes() for p in cache.iterdir()}
        for entry, good in written.items():  # every entry damaged: each is a miss, and is rewritten
            entry.write_bytes(good[:100])
        assert run_pipeline(work, capsys) == cold
        assert {p: p.read_bytes() for p in cache.iterdir()} == written

    def test_an_unwritable_cache_changes_nothing(self, work, tmp_path, capsys, monkeypatch):
        with empty_table_cache():
            expected = run_pipeline(work, capsys)
        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        monkeypatch.setenv("METAEMBED_CACHE", str(blocker / "cache"))
        assert run_pipeline(work, capsys) == expected
        read_only = tmp_path / "read-only"
        read_only.mkdir(mode=0o500)
        monkeypatch.setenv("METAEMBED_CACHE", str(read_only))
        assert run_pipeline(work, capsys) == expected
        if os.geteuid() != 0:  # root writes into a read-only directory
            assert entries(read_only) == []


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_inputs(argv) -> dict:
    """The ``inputs`` of the manifest the command *argv* wrote."""
    with open(f"{argv[argv.index('--out') + 1]}.manifest.json", encoding="utf-8") as f:
        return json.load(f)["inputs"]


@contextlib.contextmanager
def counting_opens(directory):
    """A dict that counts, by name, each open of a file in *directory* inside the ``with``."""
    real, opened = builtins.open, {}

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.path.dirname(os.path.abspath(file)) == str(directory):
            name = os.path.basename(file)
            opened[name] = opened.get(name, 0) + 1
        return real(file, *args, **kwargs)

    with mock.patch("builtins.open", counting):
        yield opened


def finishes(fn, *args, timeout=30):
    """``fn(*args)``, run in a thread that must end within *timeout* seconds, which one left waiting
    to open a pipe that no one writes to does not."""
    outcome = []

    def call():
        try:
            outcome.append((fn(*args), None))
        except Exception as exc:
            outcome.append((None, exc))

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    assert outcome, "still waiting on a pipe"
    result, error = outcome[0]
    if error is not None:
        raise error
    return result


def feed(pipe, data: bytes) -> None:
    """Write *data* into the FIFO *pipe* from a thread of its own."""
    threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True).start()


# the pipeline and a model applied to sequence tables, then, per command, the opens of each input with a
# warm cache: a vector table's lookup hashes it, a table read through load_table is sniffed in an open of
# its own before it is read, and so is a model that info describes; apply and eval read a model once
def pipeline_with_sequences():
    return pipeline() + [["apply", "dme.model", "--inputs", "t0.seq", "t1.seq", "--out", "seq.vec"]]


WARM_OPENS = [
    {"t0.vec": 1, "t1.vec": 1},
    {"t0.vec": 1, "t1.vec": 1},
    {"t0.vec": 1, "t1.vec": 1},
    {"svd.model": 1, "t0.vec": 1, "t1.vec": 1},
    {"gcca.model": 1, "t0.vec": 1, "t1.vec": 1},
    {"t0.vec": 2, "t1.vec": 2, "cls.tsv": 1},
    {"dme.model": 1, "t0.vec": 2, "t1.vec": 2},
    {"svd.vec": 1, "sts.tsv": 1},
    {"gcca.model": 1, "t0.vec": 1, "t1.vec": 1, "sts.tsv": 1},
    {"con.vec": 1, "sts.tsv": 1},
    {"dme.model": 1, "t0.vec": 2, "t1.vec": 2, "cls.tsv": 1},
    {"con.vec": 3},  # info: the model sniff, the table sniff, then the lookup
    {"svd.model": 2},  # info: the model sniff, then the read
    {"dme.model": 1, "t0.seq": 2, "t1.seq": 2},
]
PIPE_REFUSED = "x.pipe:1: a pipe cannot be read twice, to find its kind and then to load it"


class TestInputs:
    def test_each_manifest_names_its_inputs_bytes_and_each_input_is_read_once(self, work, cache, capsys):
        for k in range(2):
            table = SequenceTable.from_vector_table(load_vector_table(work / f"t{k}.vec"))
            save_sequence_table(work / f"t{k}.seq", table)
        shutil.rmtree(cache)
        for warm in (False, True):
            for argv, expected in zip(pipeline_with_sequences(), WARM_OPENS):
                with counting_opens(work) as opened:
                    code = main(argv)
                assert code == 0, capsys.readouterr().err
                if warm:
                    assert opened == expected, argv
                if "--out" in argv:
                    assert manifest_inputs(argv) == {name: sha256(work / name) for name in expected}, argv
        capsys.readouterr()

    @pytest.mark.parametrize("loader, command, swapped", [
        ("load_vector_table", 0, "t0.vec"),
        ("_load_model", 3, "svd.model"),
        ("load_table", 5, "t1.vec"),
        ("load_dataset", 5, "cls.tsv"),
        ("load_dataset", 9, "sts.tsv"),
    ])
    def test_a_manifest_names_the_bytes_parsed_not_those_found_later(self, work, capsys, monkeypatch,
                                                                     loader, command, swapped):
        assert main(pipeline()[1]) == 0 and main(pipeline()[0]) == 0  # svd.model and con.vec, read below
        parsed = sha256(work / swapped)
        real = getattr(cli, loader)

        def swapping(path, *args):
            out = real(path, *args)
            if str(path) == swapped:  # new bytes, once the loader has returned
                (work / swapped).write_bytes((work / swapped).read_bytes() + b"\n")
            return out

        monkeypatch.setattr(cli, loader, swapping)
        argv = pipeline()[command]
        assert main(argv) == 0, capsys.readouterr().err
        assert sha256(work / swapped) != parsed
        assert manifest_inputs(argv)[swapped] == parsed
        capsys.readouterr()

    def test_tables_and_pair_files_load_from_a_pipe(self, work, capsys):
        assert main(pipeline()[0]) == 0 and main(pipeline()[9]) == 0
        os.mkfifo("t0.pipe")
        os.mkfifo("sts.pipe")
        feed(work / "t0.pipe", (work / "t0.vec").read_bytes())
        combine = ["combine", "--method", "con", "--inputs", "t0.pipe", "t1.vec", "--out", "piped.vec"]
        assert finishes(main, combine) == 0
        assert (work / "piped.vec").read_bytes() == (work / "con.vec").read_bytes()
        assert manifest_inputs(combine)["t0.pipe"] == sha256(work / "t0.vec")
        feed(work / "sts.pipe", (work / "sts.tsv").read_bytes())
        probe = [{"sts.tsv": "sts.pipe", "probe.tsv": "piped.tsv"}.get(a, a) for a in pipeline()[9]]
        assert finishes(main, probe) == 0
        assert (work / "piped.tsv").read_bytes() == (work / "probe.tsv").read_bytes()
        assert manifest_inputs(probe)["sts.pipe"] == sha256(work / "sts.tsv")
        capsys.readouterr()

    def test_apply_and_eval_read_a_model_from_a_pipe(self, work, capsys):
        for k in (1, 2, 3, 8):  # fit svd and gcca, apply svd.model, and eval sts with gcca.model
            assert main(pipeline()[k]) == 0
        os.mkfifo("svd.pipe")
        os.mkfifo("gcca.pipe")
        feed(work / "svd.pipe", (work / "svd.model").read_bytes())
        apply = [{"svd.model": "svd.pipe", "svd.vec": "piped.vec"}.get(a, a) for a in pipeline()[3]]
        assert finishes(main, apply) == 0
        assert (work / "piped.vec").read_bytes() == (work / "svd.vec").read_bytes()
        assert manifest_inputs(apply)["svd.pipe"] == sha256(work / "svd.model")
        feed(work / "gcca.pipe", (work / "gcca.model").read_bytes())
        evaluate = [{"gcca.model": "gcca.pipe", "gcca.sts": "piped.sts"}.get(a, a) for a in pipeline()[8]]
        assert finishes(main, evaluate) == 0
        assert (work / "piped.sts").read_bytes() == (work / "gcca.sts").read_bytes()
        assert manifest_inputs(evaluate)["gcca.pipe"] == sha256(work / "gcca.model")
        capsys.readouterr()

    def test_a_sniffer_refuses_a_pipe_before_it_opens_it(self, work, capsys):
        os.mkfifo("x.pipe")  # no one writes to it, so an open to read it would wait
        for sniff in (sniff_table_kind, sniff_model_kind):
            with pytest.raises(FileFormatError) as exc:
                finishes(sniff, "x.pipe")
            assert str(exc.value) == PIPE_REFUSED
        assert finishes(main, ["info", "x.pipe"]) == 2
        assert capsys.readouterr().err == f"error: {PIPE_REFUSED}\n"
