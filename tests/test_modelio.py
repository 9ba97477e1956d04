"""Model files: every kind reports the path and the faulty field or block of a malformed file, and
writes stream."""

import pathlib
import tracemalloc

import numpy as np
import pytest

from metaembed.dynamic import DynamicModel
from metaembed.ensembles import GccaModel, SvdMetaModel
from metaembed.errors import ValidationError
from metaembed.modelio import read_model, write_model

GOLDEN = pathlib.Path(__file__).parent / "golden"

LOADERS = {
    "svdmeta": SvdMetaModel.load,
    "gcca": GccaModel.load,
    "dme": DynamicModel.load,
    "cdme": DynamicModel.load,
}


def replace(old, new):
    def mutate(text):
        assert old in text
        return text.replace(old, new, 1)
    return mutate


def drop_block(label):
    def mutate(text):
        lines = text.splitlines(keepends=True)
        start = next(i for i, line in enumerate(lines) if line.split()[:1] == [label] and len(line.split()) == 3)
        rows = int(lines[start].split()[1])
        return "".join(lines[:start] + lines[start + 1 + rows :])
    return mutate


def replace_block(label, shape, rows):
    """Swap the block *label* for one of *shape* ("<rows> <cols>") holding *rows*."""
    def mutate(text):
        return drop_block(label)(text) + f"{label} {shape}\n" + "".join(row + "\n" for row in rows)
    return mutate


def append(extra):
    return lambda text: text + extra


# (kind, case, mutation of the kind's golden file, fragments the error names)
CASES = [
    ("svdmeta", "wrong magic", replace("SVDMETA v1", "GLUE v1"), ["GLUE"]),
    ("svdmeta", "missing field", replace("dims 2 1\n", "2 1\n"), ["'dims'"]),
    ("svdmeta", "non-integer width", replace("dims 2 1\n", "dims 2 x\n"), ["non-integer"]),
    ("svdmeta", "missing block", drop_block("sing"), ["missing block", "sing"]),
    ("svdmeta", "unexpected block", append("extra 1 1\n0\n"), ["unexpected block", "extra"]),
    ("svdmeta", "wrong block shape", replace_block("mean", "1 2", ["1 2"]), ["mean", "shape"]),
    ("svdmeta", "1-d block with two rows", replace_block("mean", "2 3", ["1 2 3", "1 2 3"]), ["mean", "one row"]),
    ("svdmeta", "nan in a block", replace("mean 1 3\n1 2 3\n", "mean 1 3\nnan 2 3\n"),
     [":4: non-finite value in block 'mean'"]),
    ("gcca", "wrong magic", replace("GCCA v1", "GLUE v1"), ["GLUE"]),
    ("gcca", "missing field", replace(" tau 0\n", "\n"), ["'tau'"]),
    ("gcca", "fields out of order", replace("dims 1 1 tau 0\n", "tau 0 dims 1 1\n"), ["'dims'"]),
    ("gcca", "non-integer width", replace("dims 1 1 ", "dims 1 x "), ["non-integer"]),
    ("gcca", "two values after tau", replace(" tau 0\n", " tau 0 0\n"), ["exactly one value", "'tau'"]),
    ("gcca", "missing block", drop_block("eigs"), ["missing block", "eigs"]),
    ("gcca", "unexpected block", append("extra 1 1\n0\n"), ["unexpected block", "extra"]),
    ("gcca", "wrong block shape", replace_block("mean1", "1 2", ["-1 1"]), ["mean", "shape"]),
    ("gcca", "wrong eigenvalue count", replace_block("eigs", "1 2", ["1 1"]), ["eigenvalues", "shape"]),
    ("gcca", "inf in a block", replace("proj0 1 1\n0.5\n", "proj0 1 1\ninf\n"),
     [":6: non-finite value in block 'proj0'"]),
    ("dme", "wrong magic", replace("DME v1", "GLUE v1"), ["GLUE"]),
    ("dme", "missing field", replace(" seed 5 ", " "), ["'seed'"]),
    ("dme", "fields out of order", replace(" proj 2 att 0 ", " att 0 proj 2 "), ["out of order"]),
    ("dme", "non-integer width", replace("dims 3 4 ", "dims 3 x "), ["non-integer"]),
    ("dme", "two values after seed", replace(" seed 5 ", " seed 5 6 "), ["exactly one value", "'seed'"]),
    ("dme", "missing block", drop_block("head_b"), ["missing block", "head_b"]),
    ("dme", "unexpected block", append("extra 1 1\n0\n"), ["unexpected block", "extra"]),
    ("dme", "wrong block shape", replace_block("head_b", "1 2", ["0 0"]), ["head_b", "shape"]),
    ("dme", "nan in a block's second row", replace(" 0.13239287735506242\n", " nan\n"),
     [":5: non-finite value in block 'p0'"]),
    ("cdme", "wrong magic", replace("CDME v1", "GLUE v1"), ["GLUE"]),
    ("cdme", "missing field", replace(" enc 2 ", " "), ["'enc'"]),
    ("cdme", "fields out of order", replace(" att 2 enc 2 ", " enc 2 att 2 "), ["out of order"]),
    ("cdme", "non-integer width", replace("dims 3 4 ", "dims 3 4.5 "), ["non-integer"]),
    ("cdme", "two values after seed", replace(" seed 5 ", " seed 5 5 "), ["exactly one value", "'seed'"]),
    ("cdme", "missing block", drop_block("att_b_bw"), ["missing block", "att_b_bw"]),
    ("cdme", "unexpected block", append("extra 1 1\n0\n"), ["unexpected block", "extra"]),
    ("cdme", "wrong block shape", replace_block("att_a", "2 2", ["0 0", "0 0"]), ["att_a", "shape"]),
]


@pytest.mark.parametrize(
    "kind, mutate, fragments",
    [pytest.param(kind, mutate, fragments, id=f"{kind}-{case}") for kind, case, mutate, fragments in CASES],
)
def test_malformed_model_file_names_path_and_field(kind, mutate, fragments, tmp_path):
    path = tmp_path / f"{kind}.model"
    path.write_text(mutate((GOLDEN / f"{kind}.model").read_text()))
    with pytest.raises(ValidationError) as info:
        LOADERS[kind](path)
    message = str(info.value)
    assert str(path) in message
    for fragment in fragments:
        assert fragment in message


def test_write_peak_memory_stays_below_the_text_written(tmp_path):
    rng = np.random.default_rng(0)
    # GCCA blocks of three views (600 + 400 + 200 wide, 100 components), rows formatted as written
    gcca = [(f"proj{j}", rng.normal(size=(d, 100))) for j, d in enumerate((600, 400, 200))]
    gcca.append(("eigenvalues", rng.uniform(size=100)))
    # one 300 x 3000 block: 256 of its 60 KB rows are most of the file, so chunks of a fixed
    # number of lines held 2.5 times the text
    wide = [("proj", rng.normal(size=(300, 3000)))]
    cases = [("GCCA", [("dims", [600, 400, 200]), ("tau", 10.0)], gcca,
              {"dims": ["600", "400", "200"], "tau": ["10"]}),
             ("SVDMETA", [("dims", [3000])], wide, {"dims": ["3000"]})]
    for magic, fields, blocks, expected in cases:
        path = tmp_path / f"{magic}.model"
        tracemalloc.start()
        try:
            write_model(path, magic, fields, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size
        back = read_model(path, (magic,), list(expected))
        assert back.fields == expected
        for label, arr in blocks:
            assert back.blocks[label].tobytes() == np.atleast_2d(arr).tobytes()
