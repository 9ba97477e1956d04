"""A differential oracle for the readers' errors: a seeded corpus of damaged files, and what every reader
makes of each one.

The corpus starts from the golden models and tables, a vector table over 64 KiB, canonical score and
class pair files, an official export, a model of an unknown kind, and a sequence table and a canonical
score pair file over 64 KiB, and damages each of them in fixed
ways: 1-3 byte edits; line faults in the first, a middle and the last 64 KiB chunk; a non-finite value
with a fault near it; lines repeated past the end, or copied over a later line; a label cut short; a
count, shape or field value changed, dropped or given twice; a file cut after its first lines; and an
undecodable byte in and after the header.  The seed and the sizes are
fixed, so the same files come out on every machine.  Each file goes through ``load_table``,
``cli._load_model``, ``load_dataset`` (task ``sts``, ``nli`` and none) and ``info``, and each outcome
is the exception's type, its message with the folder left out, and its line, or a summary of what was
read.

Run ``python tests/reader_oracle.py`` (with the package importable) to rewrite ``reader_outcomes.jsonl``
after a change that moves an outcome on purpose, and name the moved outcomes where the change is
recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import sys

from metaembed import cli
from metaembed.datasets import load_dataset
from metaembed.store import load_table

TESTS = pathlib.Path(__file__).parent
OUTCOMES = TESTS / "reader_outcomes.jsonl"
SEED = 29
CHUNK = 1 << 16  # the readers' chunk of text
EDITS = 16  # byte-edited copies of each source per round
FAULTS = 3  # line faults in each of three chunks, and non-finite values, per source and round
ROUNDS = 1  # rounds of damage in the corpus the tier-1 test reads; the large corpus runs more

_VALUE_TOKENS = ["nan", "-nan", "inf", "-inf", "1e400", "-1e999"]
_EDIT_BYTES = b"0123456789 \t\n\r#-.eEnx\xff"
_BAD_BYTES = [b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"]


def _rows(rng: random.Random, rows: int, cols: int) -> list[str]:
    return [" ".join("%.17g" % rng.gauss(0, 1) for _ in range(cols)) for _ in range(rows)]


def sources() -> dict[str, bytes]:
    """The undamaged files, by name."""
    rng = random.Random(f"{SEED}:sources")
    out = {path.name: path.read_bytes() for path in sorted((TESTS / "golden").iterdir())}
    # 1200 rows of 6 values: about 150 KB, so a first, a middle and a last chunk
    big = ["1200 6"] + [f"w{i} {row}" for i, row in enumerate(_rows(rng, 1200, 6))]
    out["big.vec"] = ("\n".join(big) + "\n").encode()
    words = ["A", "man", "dog", "runs", "is", "café", "日本", "the"]

    def sentence():
        return " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))

    score = [f"s{2 * i}\ts{2 * i + 1}\t{rng.uniform(0, 5):.3f}\t{sentence()}\t{sentence()}" for i in range(40)]
    out["score.tsv"] = ("\n".join(score) + "\n").encode()
    labels = ["entailment", "neutral", "contradiction"]
    classes = [f"s{i}\ts{i + 1}\t{rng.choice(labels)}\t{sentence()}\t{sentence()}" for i in range(40)]
    out["classes.tsv"] = ("\n".join(classes) + "\n").encode()
    header = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\tSemEval_set"
    official = [header] + [
        f"{i + 1}\t{sentence()}\t{sentence()}\t{rng.uniform(1, 5):.1f}\t"
        f"{rng.choice(['ENTAILMENT', 'NEUTRAL', 'CONTRADICTION'])}\t{['TRAIN', 'TRIAL', 'TEST'][i % 3]}"
        for i in range(30)]
    out["official.txt"] = ("\n".join(official) + "\n").encode()
    # an SVD model's layout under an unknown magic, past one chunk, so a bad byte can follow the first
    foo = ["FOO v1", "dims 6", "mean 1 6", *_rows(rng, 1, 6), "proj 600 6", *_rows(rng, 600, 6),
           "sing 1 6", *_rows(rng, 1, 6)]
    out["foo.model"] = ("\n".join(foo) + "\n").encode()
    # 700 blocks of 1-3 rows of 5 values, and 1600 pairs of longer sentences: each about 140 KB, so a
    # first, a middle and a last chunk
    seq = ["700 5"]
    for i in range(700):
        steps = rng.randint(1, 3)
        seq += [f"#q{i} {steps}", *_rows(rng, steps, 5)]
    out["big.seq"] = ("\n".join(seq) + "\n").encode()

    def long_sentence():
        return " ".join(rng.choice(words) for _ in range(rng.randint(4, 12)))

    pairs = [f"s{2 * i}\ts{2 * i + 1}\t{rng.uniform(0, 5):.3f}\t{long_sentence()}\t{long_sentence()}"
             for i in range(1600)]
    out["big.tsv"] = ("\n".join(pairs) + "\n").encode()
    return out


def _lines(data: bytes) -> list[tuple[int, int, bytes]]:
    """(start, end, bytes) of each line of *data*, its LF excluded."""
    lines, start = [], 0
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        lines.append((start, end, data[start:end]))
        start = end + 1
    return lines


def _labeled(lines) -> list[int]:
    """The indices of *lines* past the first whose first field is not a number: block and sequence headers,
    the hyperparameter line, the rows of a vector table or a pair file."""
    return [i for i in range(1, len(lines)) if _value_positions(lines[i][2])[:1] != [0]]


def _edited(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(out))
        edit = rng.choice(["insert", "replace", "delete"])
        if edit == "delete":
            del out[pos]
        else:
            out[pos : pos + (edit == "replace")] = bytes([rng.choice(_EDIT_BYTES)])
    return bytes(out)


def _fields(line: bytes) -> tuple[bytes, list[bytes]]:
    """The separator of *line*, a tab in a pair file and a space elsewhere, and its fields."""
    sep = b"\t" if b"\t" in line else b" "
    return sep, line.split(sep)


def _line_fault(rng: random.Random, data: bytes, index: int) -> tuple[str, bytes]:
    """(name, *data* with one fault on its line *index*)."""
    start, end, line = _lines(data)[index]
    sep, tokens = _fields(line)
    kind = rng.choice(["drop-token", "extra-token", "garbage", "blank", "delete", "duplicate", "truncate"])
    if kind == "drop-token":
        new = sep.join(tokens[:-1])
    elif kind == "extra-token":
        new = line + sep + b"0"
    elif kind == "garbage":
        tokens[rng.randrange(len(tokens))] = rng.choice([b"x", b"", b"1,5", b"0x10", b"#"])
        new = sep.join(tokens)
    elif kind == "blank":
        new = b"\n" + line
    elif kind == "delete":
        return kind, data[:start] + data[end + 1 :]
    elif kind == "duplicate":
        new = line + b"\n" + line
    else:
        return kind, data[:end]
    return kind, data[:start] + new + data[end:]


def _chunk_line(rng: random.Random, data: bytes, chunk: str) -> int:
    """The index of a random line in the first, a middle or the last 64 KiB of *data*."""
    lines = _lines(data)
    chunks = max(1, -(-len(data) // CHUNK))
    c = {"first": 0, "middle": chunks // 2, "last": chunks - 1}[chunk]
    inside = [i for i, (s, _, _) in enumerate(lines) if c * CHUNK <= s < (c + 1) * CHUNK] or [len(lines) - 1]
    return rng.choice(inside)


def _non_finite(rng: random.Random, data: bytes) -> bytes:
    """*data* with one value made non-finite and a fault within three lines of it."""
    lines = _lines(data)
    numeric = [i for i, (_, _, line) in enumerate(lines) if _value_positions(line)]
    if not numeric:
        return data
    index = rng.choice(numeric)
    start, end, line = lines[index]
    sep, tokens = _fields(line)
    tokens[rng.choice(_value_positions(line))] = rng.choice(_VALUE_TOKENS).encode()
    data = data[:start] + sep.join(tokens) + data[end:]
    near = min(max(index + rng.randint(-3, 3), 0), len(_lines(data)) - 1)
    return _line_fault(rng, data, near)[1]


def _value_positions(line: bytes) -> list[int]:
    """The indices of the fields of *line* that read as numbers."""
    found = []
    for i, token in enumerate(_fields(line)[1]):
        try:
            float(token)
        except ValueError:
            continue
        found.append(i)
    return found


def _repeated(rng: random.Random, data: bytes) -> bytes:
    """*data* with 1-4 of its lines from the third on appended again: rows past a table's declared count,
    a model's first block header a second time, or pairs listed twice."""
    again = [line for _, _, line in _lines(data)[2:][: rng.randint(1, 4)]]
    return data + (b"" if data.endswith(b"\n") else b"\n") + b"".join(line + b"\n" for line in again)


def _copied(rng: random.Random, data: bytes) -> bytes:
    """*data* with its second or third line written over a later line of as many fields: an id, a block
    label or a pair given twice."""
    lines = _lines(data)
    if len(lines) < 4:
        return data
    src = lines[rng.choice([1, 2])]
    later = lines[lines.index(src) + 1 :]
    start, end, _ = rng.choice([t for t in later if len(_fields(t[2])[1]) == len(_fields(src[2])[1])] or later)
    return data[:start] + src[2] + data[end:]


def _cut_label(rng: random.Random, data: bytes) -> bytes:
    """*data* with the first field of a line past the first, one that is not a number, cut to its first byte:
    ``#s1 3`` becomes ``# 3``, a block label or a field name loses its tail."""
    lines = _lines(data)
    labels = _labeled(lines)
    if not labels:
        return data
    start, end, line = lines[rng.choice(labels)]
    sep, tokens = _fields(line)
    tokens[0] = tokens[0][:1]
    return data[:start] + sep.join(tokens) + data[end:]


_NUMBERS = [b"0", b"-1", b"1", b"2", b"1.5", b"x", b"99999"]


def _number_edit(rng: random.Random, data: bytes) -> bytes:
    """*data* with a count, shape or field value in a header line (one of the first three, or one that
    starts with a label) changed, dropped or given twice."""
    lines = _lines(data)
    heads = sorted({*range(min(3, len(lines))), *_labeled(lines)})
    start, end, line = lines[rng.choice(heads)]
    sep, tokens = _fields(line)
    at = rng.choice(_value_positions(line) or range(len(tokens)))
    edit = rng.choice(["change", "change", "drop", "twice"])
    if edit == "change":
        tokens[at] = rng.choice(_NUMBERS)
    elif edit == "drop":
        del tokens[at]
    else:
        tokens.insert(at, tokens[at])
    return data[:start] + sep.join(tokens) + data[end:]


def _head(rng: random.Random, data: bytes) -> bytes:
    """The first one to three lines of *data* only."""
    lines = _lines(data)
    return data[: lines[min(rng.randint(0, 2), len(lines) - 1)][1] + 1]


def _bad_byte(rng: random.Random, data: bytes, where: str) -> bytes:
    """*data* with an undecodable byte in its first line, its second, somewhere after, or in its last chunk."""
    lines = _lines(data)
    if where == "header":
        lo, hi, _ = lines[0]
    elif where == "second":
        lo, hi, _ = lines[min(1, len(lines) - 1)]
    elif where == "after":
        lo, hi = lines[min(1, len(lines) - 1)][1], len(data)
    else:  # past the first chunk when there is more than one
        lo, hi = max(0, len(data) - CHUNK // 4, min(CHUNK + 1, len(data) - 1)), len(data)
    pos = rng.randint(lo, max(lo, hi))
    return data[:pos] + rng.choice(_BAD_BYTES) + data[pos:]


def damaged(rounds: int = ROUNDS) -> dict[str, bytes]:
    """The corpus, by file name: each source as it is, then its damaged copies, *rounds* times over."""
    out = {}
    for name, data in sources().items():
        stem, dot, suffix = name.partition(".")
        out[name] = data
        for r in range(rounds):
            rng = random.Random(f"{SEED}:{r}:{name}")
            variants = [(f"edit{k}", _edited(rng, data)) for k in range(EDITS)]
            for chunk in ("first", "middle", "last"):
                for k in range(FAULTS):
                    kind, bad = _line_fault(rng, data, _chunk_line(rng, data, chunk))
                    variants.append((f"{chunk}{k}-{kind}", bad))
            variants += [(f"nonfinite{k}", _non_finite(rng, data)) for k in range(FAULTS)]
            for damage, count in ((_repeated, 2), (_copied, 2), (_cut_label, 2), (_number_edit, 4), (_head, 1)):
                variants += [(f"{damage.__name__[1:]}{k}", damage(rng, data)) for k in range(count)]
            variants += [(f"byte-{where}", _bad_byte(rng, data, where)) for where in ("header", "second", "after",
                                                                                    "end")]
            for variant, bad in variants:
                out[f"{stem}-r{r}-{variant}{dot}{suffix}"] = bad
    return out


def _summary(result) -> str:
    if hasattr(result, "pairs"):
        return f"{result.kind} {len(result.pairs)} pairs"
    if hasattr(result, "ids"):
        return f"{type(result).__name__} {len(result)}x{result.dim}"
    return f"{type(result).__name__} dim {result.dim}"


def _info(path) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["info", str(path)])
    return f"exit {code}", (err.getvalue() or out.getvalue().partition("\n")[0]).rstrip("\n")


READERS = {
    "load_table": load_table,
    "_load_model": lambda path: cli._load_model(path)[1],  # (kind, model)
    "load_dataset": load_dataset,
    "load_dataset:sts": lambda path: load_dataset(path, "sts"),
    "load_dataset:nli": lambda path: load_dataset(path, "nli"),
    "info": _info,
}


def outcomes(folder: pathlib.Path, names) -> list[list]:
    """What each reader makes of each file *names* in *folder*, in order: ``[file, reader, outcome, line,
    message]``, the outcome an exception's type or ``ok``, and for ``info`` its exit status."""
    prefix = f"{folder}{os.sep}"
    found = []
    for name in names:
        for reader, read in READERS.items():
            line = None
            try:
                result = read(folder / name)
                outcome, message = result if reader == "info" else ("ok", _summary(result))
            except Exception as exc:  # any type at all is an outcome to compare
                outcome, message, line = type(exc).__name__, str(exc), getattr(exc, "line", None)
            found.append([name, reader, outcome, line, message.replace(prefix, "")])
    return found


def write_corpus(folder: pathlib.Path, rounds: int = ROUNDS) -> list[str]:
    """Write the corpus into *folder*; the file names, in order."""
    corpus = damaged(rounds)
    for name, data in corpus.items():
        (folder / name).write_bytes(data)
    return list(corpus)


def read_outcomes(path=OUTCOMES) -> list[list]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as folder, tempfile.TemporaryDirectory() as cache:
        os.environ["METAEMBED_CACHE"] = cache
        folder = pathlib.Path(folder)
        found = outcomes(folder, write_corpus(folder))
    with open(OUTCOMES, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(o, ensure_ascii=False) + "\n" for o in found)
    print(f"wrote {len(found)} outcomes to {OUTCOMES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
