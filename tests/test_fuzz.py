"""Damaged input files: every reader refuses them with a MetaEmbedError, within a memory cap."""

import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

TESTS = pathlib.Path(__file__).parent
SOURCES = {path.name: path.read_bytes() for path in sorted((TESTS / "golden").iterdir())}
SOURCES["pairs.tsv"] = b"a\tb\t2.5\tone\ttwo\nc\td\t4\tthree\tfour\n"
SOURCES["official.txt"] = (b"pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\tSemEval_set\n"
                           b"1\tA man walks\tA person walks\t4.5\tENTAILMENT\tTRAIN\n"
                           b"2\tA dog runs\tA cat sleeps\t1.2\tCONTRADICTION\tTEST\n")

# reads each path given on stdin with every reader under a 1 GiB address-space
# cap, and answers with the tracebacks of anything but a MetaEmbedError
READER = """
import json, resource, sys, traceback
from metaembed import cli
from metaembed.datasets import load_dataset
from metaembed.errors import MetaEmbedError
from metaembed.store import load_table
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for path in sys.stdin:
    escaped = []
    for read in (load_table, cli._load_model, load_dataset):
        try:
            read(path.rstrip("\\n"))
        except MetaEmbedError:
            pass
        except BaseException:
            escaped.append(traceback.format_exc())
    print(json.dumps(escaped), flush=True)
"""


@pytest.fixture(scope="module")
def capped_reader():
    threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(TESTS.parent / "src")
    env = {**os.environ, **threads, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.Popen([sys.executable, "-c", READER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, env=env)
    yield child
    child.stdin.close()
    child.wait()


_BYTES = st.one_of(st.sampled_from(b"0123456789 \t\n\r#-.eEnx"), st.integers(0, 255))


@st.composite
def edited(draw, data: bytes) -> bytes:
    """*data* after 1-3 byte insertions, replacements or deletions."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(out) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "delete":
            del out[pos]
        else:
            out[pos : pos + (edit == "replace")] = bytes([draw(_BYTES)])
    return bytes(out)


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries({name: edited(data) for name, data in SOURCES.items()}))
def test_damaged_files_raise_only_metaembed_errors(capped_reader, tmp_path_factory, files):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (folder / name).write_bytes(data)
        capped_reader.stdin.write(f"{folder / name}\n")
    capped_reader.stdin.flush()
    answers = {name: capped_reader.stdout.readline() for name in files}
    for name, line in answers.items():
        assert line, f"reader died on {name}"
        assert json.loads(line) == [], f"{name}: {files[name]!r}"
