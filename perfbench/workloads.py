"""Seeded synthetic inputs and command pipelines for the four workloads.

Each workload is a list of ``metaembed`` command lines run one after another
over files this module generates.  The generator writes its own text files
(it never imports the package), so a change to the package's codec cannot
change the inputs.  The same seed always gives byte-identical files.

Why each workload exists, with the shares traced runs measured at these
sizes on a two-core machine (layer self time over the traced in-process
time, and over the commands' process wall time; start-up and CLI glue over
the process wall time):

* ``ensemble-io``: ``store`` parse and 17-digit formatting are about 85% of
  the layer time and 30% of the wall time; the pipeline both reads and
  writes, and ``combine`` writes a table wider than any input.  Start-up
  and glue of its seven processes are about 65% of the wall time.
  ``linalg`` runs with many more rows than columns (n >> k), the regime a
  Gram-matrix SVD shortcut targets.
* ``wide-fit``: 300 rows against a total width of 1200 (n < k).  ``linalg``
  (the GCCA eigensolve and the Cholesky factorisation) is the largest layer,
  about 40% of the layer time and 16% of the wall time, ahead of
  ``modelio`` and ``store``; the Gram shortcut must not apply here.  Glue is
  about 60% of the wall time.
* ``dynamic-train``: the Python loops of ``lstm`` (about 75% of the layer
  time and 45% of the wall time), ``dynamic`` and ``optim`` dominate and
  ``linalg`` is idle; ``store`` reads sequence tables.  Glue is about 40% of
  the wall time.
* ``probe-eval``: probe minibatch loops (about 48% of the layer time and 27%
  of the wall time), then the table read, Adam steps, similarity scoring and
  the pair TSV parse; ``store`` only reads.  Glue is about 45% of the wall
  time.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

NLI_CLASSES = ("entailment", "neutral", "contradiction")


class Command(NamedTuple):
    """One CLI invocation: its metric group and its argv after ``metaembed``."""

    group: str  # combine, fit, apply, train, eval or info
    argv: tuple


class Workload(NamedTuple):
    name: str
    why: str
    sizes: dict
    generate: object  # (directory, rng, sizes) -> Expected
    commands: tuple
    rss_table: str  # the largest table the pipeline reads


class Expected(NamedTuple):
    """What the generated inputs imply about the outputs.

    ``tables`` maps an output vector table to its (rows, width);
    ``info`` maps the argv index of an ``info`` command to (rows, width);
    ``sts`` maps the argv index of an ``eval sts`` command to the
    (vector table, pair TSV) whose Pearson the benchmark recomputes.
    """

    tables: dict
    info: dict
    sts: dict


# --- text writers -----------------------------------------------------------

def write_vector_table(path, ids, vectors, digits: int = 9) -> None:
    """Vector table text: header ``N D`` then ``id v1 ... vD`` rows."""
    vectors = np.asarray(vectors, dtype=np.float64)
    fmt = "%s " + " ".join([f"%.{digits}g"] * vectors.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(ids)} {vectors.shape[1]}\n")
        for ident, row in zip(ids, vectors.tolist()):
            f.write(fmt % (ident, *row))


def write_sequence_table(path, ids, matrices, digits: int = 9) -> None:
    """Sequence table text: header ``N D`` then ``#id S`` blocks of S rows."""
    width = matrices[0].shape[1]
    fmt = " ".join([f"%.{digits}g"] * width) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{len(ids)} {width}\n")
        for ident, mat in zip(ids, matrices):
            f.write(f"#{ident} {mat.shape[0]}\n")
            for row in mat.tolist():
                f.write(fmt % tuple(row))


def write_pairs(path, rows) -> None:
    """Canonical five-column pair TSV from (id_a, id_b, label) rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for id_a, id_b, label in rows:
            f.write(f"{id_a}\t{id_b}\t{label}\tsentence {id_a}\tsentence {id_b}\n")


# --- generators -------------------------------------------------------------

def _ids(rng, n: int, prefix: str) -> list:
    return [f"{prefix}{k:06d}" for k in rng.permutation(n)]


def _planted_views(rng, n: int, widths, rank: int, noise: float) -> list:
    """Views sharing one latent factor: view_i = z A_i + noise."""
    z = rng.normal(size=(n, rank))
    return [z @ rng.normal(size=(rank, w)) / np.sqrt(rank) + noise * rng.normal(size=(n, w))
            for w in widths]


def _score_pairs(rng, ids, vectors, n_pairs: int, lo: float, hi: float) -> list:
    """Pairs labelled with a noisy score that rises with the cosine."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    a = rng.integers(0, len(ids), size=n_pairs)
    b = rng.integers(0, len(ids), size=n_pairs)
    b = np.where(a == b, (b + 1) % len(ids), b)
    cos = np.einsum("ij,ij->i", unit[a], unit[b])
    score = np.clip(lo + (hi - lo) * (0.5 + 0.5 * cos) + 0.5 * rng.normal(size=n_pairs), lo, hi)
    return [(ids[i], ids[j], f"{s:.4f}") for i, j, s in zip(a, b, score)]


def gen_ensemble_io(out, rng, sizes) -> Expected:
    n, widths = sizes["rows"], sizes["widths"]
    views = _planted_views(rng, n, widths, sizes["rank"], 0.3)
    ids = _ids(rng, n, "w")
    # about 95% of ids are shared: a random 5% is split across the tables,
    # and table i lacks part i
    missing = np.array_split(rng.permutation(n)[: n // 20], len(widths))
    shared = n - sum(len(m) for m in missing)
    for k, (view, drop) in enumerate(zip(views, missing)):
        keep = np.setdiff1d(np.arange(n), drop)
        keep = keep[rng.permutation(len(keep))]
        write_vector_table(os.path.join(out, f"view{k}.vec"), [ids[i] for i in keep], view[keep])
    shared_ids = sorted(set(ids) - {ids[i] for m in missing for i in m})
    index = {ident: i for i, ident in enumerate(ids)}
    rows = np.array([index[i] for i in shared_ids])
    write_pairs(os.path.join(out, "sts.tsv"),
                _score_pairs(rng, shared_ids, views[0][rows], sizes["pairs"], 0.0, 5.0))
    d, total = sizes["d"], sum(widths)
    return Expected(
        tables={"combined.vec": (shared, total), "svd.vec": (shared, d), "gcca.vec": (shared, d)},
        info={5: (shared, total)},
        sts={6: ("svd.vec", "sts.tsv")},
    )


def gen_wide_fit(out, rng, sizes) -> Expected:
    n, widths = sizes["rows"], sizes["widths"]
    views = _planted_views(rng, n, widths, sizes["rank"], 0.5)
    ids = _ids(rng, n, "w")
    for k, view in enumerate(views):
        order = rng.permutation(n)
        write_vector_table(os.path.join(out, f"view{k}.vec"), [ids[i] for i in order], view[order])
    return Expected(
        tables={"svd.vec": (n, sizes["d"]), "gcca.vec": (n, sizes["d"])},
        info={},
        sts={},
    )


def gen_dynamic_train(out, rng, sizes) -> Expected:
    n, widths, vocab = sizes["sentences"], sizes["widths"], sizes["vocab"]
    lo, hi = sizes["steps"]
    token_views = _planted_views(rng, vocab, widths, 16, 0.2)
    sentences = [rng.integers(0, vocab, size=rng.integers(lo, hi + 1)) for _ in range(n)]
    ids = _ids(rng, n, "s")
    for k, tokens in enumerate(token_views):
        write_sequence_table(os.path.join(out, f"src{k}.seq"), ids, [tokens[s] for s in sentences])
    # labels are drawn independently of the sentences: training cost does
    # not depend on what the labels mean
    labels = rng.choice(NLI_CLASSES, size=sizes["pairs"])
    a = rng.integers(0, n, size=sizes["pairs"])
    b = rng.integers(0, n, size=sizes["pairs"])
    write_pairs(os.path.join(out, "nli.tsv"),
                [(ids[i], ids[j], lab) for i, j, lab in zip(a, b, labels)])
    return Expected(tables={"cdme.vec": (n, 2 * sizes["m_enc"])}, info={}, sts={})


def gen_probe_eval(out, rng, sizes) -> Expected:
    n, width, n_pairs = sizes["rows"], sizes["width"], sizes["pairs"]
    # sentences sit in clusters around +c or -c for random centres c; a pair
    # from one side of a cluster entails, from opposite sides contradicts,
    # and from different clusters is neutral.  The classes are far apart in
    # the probe's u*v features, so the classification probe reaches 100% dev
    # accuracy in its first rounds and stops after nearly the same number of
    # rounds on every seed; the probe's cost then hardly depends on the seed.
    centres = rng.normal(size=(sizes["clusters"], width))
    cluster = rng.integers(0, sizes["clusters"], size=n)
    sign = rng.choice((-1.0, 1.0), size=n)
    vectors = sign[:, None] * centres[cluster] + 0.5 * rng.normal(size=(n, width))
    ids = _ids(rng, n, "s")
    write_vector_table(os.path.join(out, "sent.vec"), ids, vectors)
    groups = {}
    for i, key in enumerate(zip(cluster.tolist(), sign.tolist())):
        groups.setdefault(key, []).append(i)

    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)

    def pairs():
        out = []
        for kind in rng.integers(0, 3, size=n_pairs):
            a = int(rng.integers(0, n))
            if kind == 0:
                pool = groups[(int(cluster[a]), float(sign[a]))]
            elif kind == 1:
                pool = groups.get((int(cluster[a]), -float(sign[a]))) or [a]
            else:
                pool = np.flatnonzero(cluster != cluster[a])
            b = int(pool[int(rng.integers(0, len(pool)))])
            out.append((a, b, kind if kind != 1 or b != a else 0))
        return out

    labels = ("entailment", "contradiction", "neutral")
    write_pairs(os.path.join(out, "nli.tsv"), [(ids[a], ids[b], labels[k]) for a, b, k in pairs()])
    # relatedness follows the cosine, plus noise that caps the probe's dev
    # score below 1
    scored = pairs()
    cos = np.array([unit[a] @ unit[b] for a, b, _ in scored])
    score = np.clip(3.0 + 2.0 * cos + sizes["score_noise"] * rng.normal(size=len(cos)), 1.0, 5.0)
    write_pairs(os.path.join(out, "scores.tsv"),
                [(ids[a], ids[b], f"{v:.4f}") for (a, b, _), v in zip(scored, score)])
    return Expected(tables={}, info={}, sts={2: ("sent.vec", "scores.tsv")})


def _cmd(group, *argv) -> Command:
    return Command(group, tuple(str(a) for a in argv))


ENSEMBLE_IO_SIZES = {"rows": 2400, "widths": (120, 80, 40), "rank": 24, "d": 32, "pairs": 3000}
WIDE_FIT_SIZES = {"rows": 300, "widths": (600, 400, 200), "rank": 40, "d": 100}
DYNAMIC_TRAIN_SIZES = {"sentences": 240, "widths": (50, 30), "vocab": 500, "steps": (4, 12),
                       "pairs": 200, "epochs": 1, "d_prime": 32, "m_enc": 32}
PROBE_EVAL_SIZES = {"rows": 3000, "width": 256, "clusters": 64, "score_noise": 0.5, "pairs": 10000}

_VIEWS3 = ("view0.vec", "view1.vec", "view2.vec")
_SEQS = ("src0.seq", "src1.seq")

WORKLOADS = {
    "ensemble-io": Workload(
        "ensemble-io",
        "store parse and format are most of the layer time; start-up is most of the wall time",
        ENSEMBLE_IO_SIZES,
        gen_ensemble_io,
        (
            _cmd("combine", "combine", "--method", "con", "--inputs", *_VIEWS3, "--out", "combined.vec"),
            _cmd("fit", "fit", "--method", "svd", "--d", ENSEMBLE_IO_SIZES["d"], "--inputs", *_VIEWS3,
                 "--out", "svd.model"),
            _cmd("fit", "fit", "--method", "gcca", "--d", ENSEMBLE_IO_SIZES["d"], "--inputs", *_VIEWS3,
                 "--out", "gcca.model"),
            _cmd("apply", "apply", "svd.model", "--inputs", *_VIEWS3, "--out", "svd.vec"),
            _cmd("apply", "apply", "gcca.model", "--inputs", *_VIEWS3, "--out", "gcca.vec"),
            _cmd("info", "info", "combined.vec"),
            _cmd("eval", "eval", "sts", "--inputs", "svd.vec", "--dataset", "sts.tsv", "--out", "sts.pred"),
        ),
        "combined.vec",
    ),
    "wide-fit": Workload(
        "wide-fit",
        "linalg (GCCA eigensolve, Cholesky) is the largest layer with n < k, then modelio and store",
        WIDE_FIT_SIZES,
        gen_wide_fit,
        (
            _cmd("fit", "fit", "--method", "svd", "--d", WIDE_FIT_SIZES["d"], "--inputs", *_VIEWS3,
                 "--out", "svd.model"),
            _cmd("fit", "fit", "--method", "gcca", "--d", WIDE_FIT_SIZES["d"], "--inputs", *_VIEWS3,
                 "--out", "gcca.model"),
            _cmd("apply", "apply", "svd.model", "--inputs", *_VIEWS3, "--out", "svd.vec"),
            _cmd("apply", "apply", "gcca.model", "--inputs", *_VIEWS3, "--out", "gcca.vec"),
        ),
        "view0.vec",
    ),
    "dynamic-train": Workload(
        "dynamic-train",
        "lstm, dynamic and optim Python loops dominate the layer time, linalg idle; store reads sequences",
        DYNAMIC_TRAIN_SIZES,
        gen_dynamic_train,
        tuple(
            _cmd("train", "train", "--mode", mode, "--inputs", *_SEQS, "--dataset", "nli.tsv",
                 "--epochs", DYNAMIC_TRAIN_SIZES["epochs"], "--d-prime", DYNAMIC_TRAIN_SIZES["d_prime"],
                 "--m-enc", DYNAMIC_TRAIN_SIZES["m_enc"], "--out", f"{mode}.model")
            for mode in ("dme", "cdme")
        ) + (
            _cmd("apply", "apply", "cdme.model", "--inputs", *_SEQS, "--out", "cdme.vec"),
            _cmd("eval", "eval", "nli", "cdme.model", "--inputs", *_SEQS, "--dataset", "nli.tsv",
                 "--out", "nli.pred"),
        ),
        "src0.seq",
    ),
    "probe-eval": Workload(
        "probe-eval",
        "probe minibatch loops are the largest layer, then table read, Adam and TSV parse; store only reads",
        PROBE_EVAL_SIZES,
        gen_probe_eval,
        (
            _cmd("eval", "eval", "nli", "--inputs", "sent.vec", "--dataset", "nli.tsv", "--out", "nli.pred"),
            _cmd("eval", "eval", "sick-r", "--inputs", "sent.vec", "--dataset", "scores.tsv",
                 "--out", "sick.pred"),
            _cmd("eval", "eval", "sts", "--inputs", "sent.vec", "--dataset", "scores.tsv", "--out", "sts.pred"),
        ),
        "sent.vec",
    ),
}


def generate(workload: Workload, directory, seed: int) -> Expected:
    """Write the workload's inputs for *seed* into *directory*."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, sorted(WORKLOADS).index(workload.name)]))
    return workload.generate(directory, rng, workload.sizes)
