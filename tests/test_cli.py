import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import counted_opens
from metaembed import __version__
from metaembed.cli import main
from metaembed.store import (
    EmbeddingTable,
    SequenceTable,
    load_vector_table,
    save_sequence_table,
    save_vector_table,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"


# what `info` prints for each golden model file
GOLDEN_INFO = {
    "svdmeta": "kind SVDMETA\nviews 2\nwidths 2 1\ndim 2\nsingular_values 2 1\n",
    "gcca": "kind GCCA\nviews 2\nwidths 1 1\ndim 1\ntau 0\neigenvalues 1\n",
    "dme": ("kind DME\nsources 2\nwidths 3 4\nproj_dim 2\nenc_hidden 2\nseed 5\nsentence_dim 4\n"
            "classes a b c\n"),
    "cdme": ("kind CDME\nsources 2\nwidths 3 4\nproj_dim 2\nenc_hidden 2\natt_hidden 2\nseed 5\n"
             "sentence_dim 4\nclasses a b c\n"),
}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(stdout):
    """The JSON report line an eval command prints first."""
    return json.loads(stdout.splitlines()[0])


def write_vec_tables(tmp_path, rng, n=8, dims=(3, 2)):
    paths = []
    ids = [f"s{i}" for i in range(n)]
    for k, d in enumerate(dims):
        path = tmp_path / f"t{k}.vec"
        save_vector_table(path, EmbeddingTable(ids, rng.normal(size=(n, d))))
        paths.append(path)
    return ids, paths


def write_seq_tables(tmp_path, rng, ids, dims=(3, 2), max_len=3):
    paths = []
    lengths = [int(rng.integers(1, max_len + 1)) for _ in ids]
    for k, d in enumerate(dims):
        path = tmp_path / f"q{k}.seq"
        mats = [rng.normal(size=(s, d)) for s in lengths]
        save_sequence_table(path, SequenceTable(list(ids), mats))
        paths.append(path)
    return paths


def write_canonical(path, rows):
    """rows of (id_a, id_b, label); sentences filled with placeholders."""
    lines = ["\t".join((a, b, str(label), "-", "-")) for a, b, label in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


OFFICIAL_HEADER = "pair_ID\tsentence_A\tsentence_B\trelatedness_score\tentailment_judgment\tSemEval_set"


def write_official(path, n_train=8, n_dev=1, n_test=3, seed=0):
    rng = np.random.default_rng(seed)
    classes = ("ENTAILMENT", "NEUTRAL", "CONTRADICTION")
    lines = [OFFICIAL_HEADER]
    k = 0
    for split, count in (("TRAIN", n_train), ("TRIAL", n_dev), ("TEST", n_test)):
        for _ in range(count):
            k += 1
            score = f"{rng.uniform(1.0, 5.0):.2f}"
            lines.append("\t".join((str(k), f"sentence a {k}", f"sentence b {k}",
                                    score, classes[k % 3], split)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, k


class TestCombine:
    def test_concatenates_over_sorted_intersection(self, tmp_path, rng, capsys):
        ids, paths = write_vec_tables(tmp_path, rng)
        out = tmp_path / "combined.vec"
        code, stdout, _ = run(capsys, "combine", "--method", "con",
                              "--inputs", *paths, "--out", out)
        assert code == 0
        assert f"wrote {out}: 8 rows, width 5" in stdout
        table = load_vector_table(out)
        assert list(table.ids) == sorted(ids)
        t0 = load_vector_table(paths[0])
        t1 = load_vector_table(paths[1])
        assert np.array_equal(table.row("s3"), np.concatenate([t0.row("s3"), t1.row("s3")]))

    def test_disjoint_ids_exit_2(self, tmp_path, rng, capsys):
        p1 = tmp_path / "a.vec"
        p2 = tmp_path / "b.vec"
        save_vector_table(p1, EmbeddingTable(["a"], [[1.0]]))
        save_vector_table(p2, EmbeddingTable(["b", "c"], [[1.0], [2.0]]))
        code, _, stderr = run(capsys, "combine", "--method", "con",
                              "--inputs", p1, p2, "--out", tmp_path / "o.vec")
        assert code == 2
        assert "no shared ids" in stderr and "sizes: 1, 2" in stderr

    def test_manifest_records_inputs_and_flags(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        out = tmp_path / "combined.vec"
        run(capsys, "combine", "--method", "con", "--inputs", *paths, "--out", out)
        manifest = json.loads((tmp_path / "combined.vec.manifest.json").read_text())
        assert manifest["command"] == "combine"
        assert manifest["version"] == __version__
        assert sorted(manifest["inputs"]) == sorted(str(p) for p in paths)
        for digest in manifest["inputs"].values():
            assert len(digest) == 64
        assert manifest["outputs"] == [str(out)]
        assert manifest["seed"] == 0
        assert manifest["flags"]["method"] == "con"
        assert "duration" not in json.dumps(manifest)


class TestFitApply:
    def test_svd_pipeline(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        model = tmp_path / "m.model"
        out = tmp_path / "meta.vec"
        code, stdout, _ = run(capsys, "fit", "--method", "svd", "--inputs", *paths,
                              "--d", 3, "--out", model)
        assert code == 0 and "retained_d 3" in stdout
        code, _, _ = run(capsys, "apply", model, "--inputs", *paths, "--out", out)
        assert code == 0
        table = load_vector_table(out)
        norms = np.linalg.norm(table.vectors, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_svd_default_dim_caps_at_width_and_rows(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)  # 8 rows, total width 5
        code, stdout, _ = run(capsys, "fit", "--method", "svd", "--inputs", *paths,
                              "--out", tmp_path / "m.model")
        assert code == 0 and "retained_d 5" in stdout

    def test_gcca_pipeline_prints_eigenvalues(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        model = tmp_path / "g.model"
        out = tmp_path / "gcca.vec"
        code, stdout, _ = run(capsys, "fit", "--method", "gcca", "--inputs", *paths,
                              "--d", 2, "--tau", 1.0, "--out", model)
        assert code == 0 and "retained_d 2" in stdout
        eig_line = [l for l in stdout.splitlines() if l.startswith("eigenvalues ")]
        assert len(eig_line) == 1 and len(eig_line[0].split()) == 3
        code, _, _ = run(capsys, "apply", model, "--inputs", *paths, "--out", out)
        assert code == 0
        assert load_vector_table(out).dim == 2

    @pytest.mark.parametrize("n, dims", [(60, (5, 4, 3)), (6, (5, 4))])
    def test_gcca_manifest_keeps_the_residual_ratio(self, tmp_path, rng, capsys, n, dims):
        # a tall fit (k <= n) checks its residuals from the Gram matrix, a wide one from the views
        _, paths = write_vec_tables(tmp_path, rng, n=n, dims=dims)
        runs = []
        for _ in range(2):
            code, _, _ = run(capsys, "fit", "--method", "gcca", "--inputs", *paths,
                             "--d", 3, "--out", tmp_path / "g.model")
            assert code == 0
            runs.append([(tmp_path / name).read_bytes() for name in ("g.model", "g.model.manifest.json")])
        assert runs[0] == runs[1]
        ratio = json.loads(runs[0][1])["metrics"]["residual_ratio"]
        assert np.isfinite(ratio) and 0.0 <= ratio < 1e-3

    def test_tau_rejected_for_svd(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        code, _, stderr = run(capsys, "fit", "--method", "svd", "--inputs", *paths,
                              "--d", 2, "--tau", 1.0, "--out", tmp_path / "m.model")
        assert code == 2
        assert "error: --tau only applies to gcca" in stderr

    @pytest.mark.parametrize("tau", ["nan", "inf", "-5"])
    def test_gcca_rejects_tau_that_is_not_finite_and_non_negative(self, tmp_path, rng, capsys, tau):
        _, paths = write_vec_tables(tmp_path, rng)
        code, _, stderr = run(capsys, "fit", "--method", "gcca", "--inputs", *paths,
                              "--d", 2, "--tau", tau, "--out", tmp_path / "m.model")
        assert code == 2
        assert "error: tau must be finite and non-negative" in stderr and "Traceback" not in stderr
        assert not (tmp_path / "m.model").exists()

    def test_gcca_requires_d(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        code, _, stderr = run(capsys, "fit", "--method", "gcca", "--inputs", *paths,
                              "--out", tmp_path / "m.model")
        assert code == 2 and "gcca needs --d" in stderr

    def test_zero_dim_exit_2(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        code, _, stderr = run(capsys, "fit", "--method", "svd", "--inputs", *paths,
                              "--d", 0, "--out", tmp_path / "m.model")
        assert code == 2 and "error:" in stderr

    @pytest.mark.parametrize("command", ["apply", "eval"])
    def test_model_over_disjoint_tables_exit_2(self, tmp_path, rng, capsys, command):
        _, paths = write_vec_tables(tmp_path, rng)
        model = tmp_path / "m.model"
        assert run(capsys, "fit", "--method", "svd", "--inputs", *paths, "--d", 2, "--out", model)[0] == 0
        disjoint = [tmp_path / "a.vec", tmp_path / "b.vec"]
        save_vector_table(disjoint[0], EmbeddingTable(["a"], [[1.0, 2.0, 3.0]]))
        save_vector_table(disjoint[1], EmbeddingTable(["b", "c"], [[1.0, 2.0], [2.0, 3.0]]))
        if command == "apply":
            argv = ("apply", model, "--inputs", *disjoint, "--out", tmp_path / "o.vec")
        else:
            pairs = write_canonical(tmp_path / "pairs.tsv", [("a", "b", 3.0), ("b", "c", 1.0), ("a", "c", 2.0)])
            argv = ("eval", "sts", model, "--inputs", *disjoint, "--dataset", pairs)
        code, _, stderr = run(capsys, *argv)
        assert code == 2
        assert stderr == "error: no shared ids across the 2 table(s) (sizes: 1, 2)\n"


class TestDroppedIds:
    def unequal_tables(self, tmp_path, rng):
        # 6 shared ids; table a has 2 extra ids, table b 3 others, table c none
        shared = [f"s{i}" for i in range(6)]
        specs = {"a": shared + ["a0", "a1"], "b": ["b0"] + shared + ["b1", "b2"], "c": shared}
        paths = []
        for name, ids in specs.items():
            path = tmp_path / f"{name}.vec"
            save_vector_table(path, EmbeddingTable(ids, rng.normal(size=(len(ids), 3))))
            paths.append(path)
        return paths

    @pytest.mark.parametrize("argv", [
        ("combine", "--method", "con"),
        ("fit", "--method", "svd", "--d", "2"),
        ("fit", "--method", "gcca", "--d", "2"),
    ])
    def test_manifest_records_dropped_counts_and_reruns_identically(self, tmp_path, rng, capsys, argv):
        paths = self.unequal_tables(tmp_path, rng)
        out = tmp_path / "out.file"
        outputs = []
        for _ in range(2):
            code, _, _ = run(capsys, *argv, "--inputs", *paths, "--out", out)
            assert code == 0
            outputs.append((out.read_bytes(), (tmp_path / "out.file.manifest.json").read_bytes()))
        assert outputs[0] == outputs[1]
        manifest = json.loads(outputs[0][1])
        assert manifest["metrics"]["dropped"] == [2, 3, 0]


def record_embedded_ids(monkeypatch):
    """The ids of every embed_table call; cli imports it from evaluation when it runs."""
    import metaembed.evaluation as evaluation

    calls = []
    original = evaluation.embed_table

    def recording(model, tables, ids):
        calls.append(list(ids))
        return original(model, tables, calls[-1])

    monkeypatch.setattr(evaluation, "embed_table", recording)
    return calls


class TestTrain:
    def train_fixture(self, tmp_path, rng, n=8):
        ids = [f"s{i}" for i in range(n)]
        tables = write_seq_tables(tmp_path, rng, ids)
        rows = []
        for i in range(0, n, 2):
            label = "yes" if i % 4 == 0 else "no"
            rows.append((f"s{i}", f"s{i + 1}", label))
        pairs = write_canonical(tmp_path / "pairs.tsv", rows)
        return tables, pairs

    def test_train_writes_model_and_loss_csv(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        out = tmp_path / "dme.model"
        code, stdout, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", pairs, "--d-prime", 4, "--m-enc", 3,
                              "--epochs", 3, "--out", out)
        assert code == 0
        assert "train_accuracy " in stdout
        assert f"wrote {out}: dme model, 3 training pairs, classes no yes" in stdout
        losses = (tmp_path / "dme.model.loss.csv").read_text().splitlines()
        assert losses[0] == "epoch,mean_loss"
        assert len(losses) == 4
        assert losses[1].startswith("1,") and losses[3].startswith("3,")
        manifest = json.loads((tmp_path / "dme.model.manifest.json").read_text())
        assert len(manifest["metrics"]["epoch_losses"]) == 3
        assert manifest["seed"] == 0
        assert str(out) in manifest["outputs"]
        assert f"{out}.loss.csv" in manifest["outputs"]

    def test_train_is_deterministic(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        outs = [tmp_path / "a.model", tmp_path / "b.model"]
        for out in outs:
            code, _, _ = run(capsys, "train", "--mode", "cdme", "--inputs", *tables,
                             "--dataset", pairs, "--d-prime", 4, "--m", 2, "--m-enc", 3,
                             "--epochs", 2, "--seed", 5, "--out", out)
            assert code == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert (tmp_path / "a.model.loss.csv").read_bytes() == (tmp_path / "b.model.loss.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_lr_exits_3(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        code, _, stderr = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", pairs, "--d-prime", 4, "--m-enc", 3,
                              "--epochs", 2, "--lr", "inf", "--out", tmp_path / "x.model")
        assert code == 3
        assert "non-finite" in stderr

    def test_negative_seed_exits_2(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        code, _, stderr = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", pairs, "--epochs", 1, "--seed", -1,
                              "--out", tmp_path / "x.model")
        assert code == 2
        assert "error: seed must be a non-negative integer, got -1" in stderr
        assert "Traceback" not in stderr

    def test_m_rejected_for_dme(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        code, _, stderr = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", pairs, "--m", 2, "--epochs", 1,
                              "--out", tmp_path / "x.model")
        assert code == 2
        assert "--m only applies to cdme" in stderr

    def test_dataset_is_read_once(self, tmp_path, rng, capsys):
        # opened once, to parse it; the manifest's digest comes from that parse
        tables, pairs = self.train_fixture(tmp_path, rng)
        with counted_opens(pairs) as opened:
            code, _, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                             "--dataset", pairs, "--d-prime", 4, "--m-enc", 3,
                             "--epochs", 1, "--out", tmp_path / "m.model")
        assert code == 0
        assert len(opened) == 1

    def test_sentences_shared_by_train_and_dev_are_embedded_once(self, tmp_path, rng, capsys, monkeypatch):
        # every pair mentions s0, so the one dev pair of the 9/1 draw shares it with train
        ids = [f"s{i}" for i in range(11)]
        tables = write_seq_tables(tmp_path, rng, ids)
        pairs = write_canonical(tmp_path / "p.tsv",
                                [("s0", f"s{i}", "yes" if i % 2 else "no") for i in range(1, 11)])
        calls = record_embedded_ids(monkeypatch)
        code, stdout, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", pairs, "--d-prime", 4, "--m-enc", 3,
                              "--epochs", 1, "--out", tmp_path / "m.model")
        assert code == 0
        assert "train_accuracy " in stdout and "dev_accuracy " in stdout
        embedded = [i for call in calls for i in call]
        assert sorted(embedded) == sorted(ids)

    def test_malformed_row_reported_once_with_its_line(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        lines = pairs.read_text().splitlines()
        lines[2] = "\t".join(lines[2].split("\t")[:4])
        pairs.write_text("\n".join(lines) + "\n")
        code, stdout, stderr = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                                   "--dataset", pairs, "--epochs", 1, "--out", tmp_path / "m.model")
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [f"error: {pairs}:3: expected 5 tab-separated columns, got 4"]

    def test_one_class_dataset_names_the_file(self, tmp_path, rng, capsys):
        tables, _ = self.train_fixture(tmp_path, rng)
        pairs = write_canonical(tmp_path / "one.tsv", [("s0", "s1", "x"), ("s2", "s3", "x")])
        code, stdout, stderr = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                                   "--dataset", pairs, "--epochs", 1, "--out", tmp_path / "m.model")
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [f"error: {pairs}: need at least two distinct classes, got ['x']"]

    def test_official_dataset_uses_train_split_and_classes(self, tmp_path, rng, capsys):
        official, n = write_official(tmp_path / "official.txt")
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        tables = write_seq_tables(tmp_path, rng, ids)
        out = tmp_path / "m.model"
        code, stdout, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables,
                              "--dataset", official, "--d-prime", 4, "--m-enc", 3,
                              "--epochs", 1, "--out", out)
        assert code == 0
        assert "8 training pairs" in stdout
        assert "classes ENTAILMENT NEUTRAL CONTRADICTION" in stdout
        assert "dev_accuracy " in stdout

    def test_apply_dynamic_model(self, tmp_path, rng, capsys):
        tables, pairs = self.train_fixture(tmp_path, rng)
        model = tmp_path / "dme.model"
        run(capsys, "train", "--mode", "dme", "--inputs", *tables, "--dataset", pairs,
            "--d-prime", 4, "--m-enc", 3, "--epochs", 1, "--out", model)
        out = tmp_path / "sent.vec"
        code, _, _ = run(capsys, "apply", model, "--inputs", *tables, "--out", out)
        assert code == 0
        table = load_vector_table(out)
        assert len(table) == 8 and table.dim == 6

    def test_apply_dynamic_accepts_vector_tables(self, tmp_path, rng, capsys):
        # vector tables act as length-1 sequences for a dynamic model
        ids, vec_paths = write_vec_tables(tmp_path, rng)
        seq_paths = write_seq_tables(tmp_path, rng, ids)
        pairs = write_canonical(tmp_path / "p.tsv", [("s0", "s1", "yes"), ("s2", "s3", "no")])
        model = tmp_path / "m.model"
        run(capsys, "train", "--mode", "dme", "--inputs", *seq_paths, "--dataset", pairs,
            "--d-prime", 4, "--m-enc", 3, "--epochs", 1, "--out", model)
        out = tmp_path / "sent.vec"
        code, _, _ = run(capsys, "apply", model, "--inputs", *vec_paths, "--out", out)
        assert code == 0
        assert len(load_vector_table(out)) == 8


class TestEval:
    def embeddings_fixture(self, tmp_path, rng, n_pairs=12):
        ids = []
        rows = []
        vectors = []
        for k in range(n_pairs):
            a, b = f"p{k}_A", f"p{k}_B"
            u = rng.normal(size=4)
            angle = k / (n_pairs - 1.0)
            v = (1.0 - angle) * u + angle * rng.normal(size=4)
            score = f"{5.0 - 4.0 * angle:.3f}"
            ids.extend([a, b])
            vectors.extend([u, v])
            rows.append((a, b, score))
        table_path = tmp_path / "sent.vec"
        save_vector_table(table_path, EmbeddingTable(ids, np.array(vectors)))
        pairs_path = write_canonical(tmp_path / "pairs.tsv", rows)
        return table_path, pairs_path

    def test_sts_prints_json_line_then_table(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng)
        out = tmp_path / "preds.tsv"
        code, stdout, _ = run(capsys, "eval", "sts", "--inputs", table_path,
                              "--dataset", pairs_path, "--out", out)
        assert code == 0
        report = report_of(stdout)
        assert report["task"] == "sts" and report["metric"] == "pearson"
        assert report["n"] == 12
        assert report["value"] > 0.5
        assert len(report["fingerprint"]) == 64
        table_lines = stdout.splitlines()[1:]
        assert table_lines[0].split() == ["task", "metric", "value", "n", "fingerprint"]
        assert table_lines[1].startswith("sts")
        body = out.read_text().splitlines()
        assert body[0] == "id_a\tid_b\tgold\tpredicted"
        assert len(body) == 13
        first = body[1].split("\t")
        assert first[0] == "p0_A" and 0.0 <= float(first[3]) <= 5.0

    def test_default_manifest_name(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng)
        code, stdout, _ = run(capsys, "eval", "sts", "--inputs", table_path,
                              "--dataset", pairs_path)
        assert code == 0
        manifest = json.loads((tmp_path / "metaembed-eval.manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert manifest["outputs"] == []
        assert manifest["metrics"]["value"] == report_of(stdout)["value"]
        assert manifest["metrics"]["fingerprint"] == report_of(stdout)["fingerprint"]

    def test_repeat_runs_are_byte_identical(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng)
        outs = [tmp_path / "p1.tsv", tmp_path / "p2.tsv"]
        reports = []
        for out in outs:
            code, stdout, _ = run(capsys, "eval", "sts", "--inputs", table_path,
                                  "--dataset", pairs_path, "--out", out)
            assert code == 0
            reports.append(report_of(stdout))
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert reports[0] == reports[1]

    def test_sick_r_probe(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng, n_pairs=40)
        # sick-r scores live in [1, 5]; the fixture stays inside that
        code, stdout, _ = run(capsys, "eval", "sick-r", "--inputs", table_path,
                              "--dataset", pairs_path, "--seed", 0)
        assert code == 0
        report = report_of(stdout)
        assert report["task"] == "sick-r" and report["metric"] == "pearson"
        assert report["n"] == 8  # test share of the seeded 70/10/20 draw
        assert -1.0 <= report["value"] <= 1.0
        manifest = json.loads((tmp_path / "metaembed-eval.manifest.json").read_text())
        assert manifest["metrics"]["rounds"] >= 1

    @pytest.mark.parametrize("tenacity", [1, 2, 200])
    def test_probe_manifest_keeps_the_dev_curve(self, tmp_path, rng, capsys, monkeypatch, tenacity):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng, n_pairs=40)
        manifests = []
        for _ in range(2):
            code, _, _ = run(capsys, "eval", "sick-r", "--inputs", table_path, "--dataset", pairs_path,
                             "--epoch-size", 1, "--tenacity", tenacity)
            assert code == 0
            manifests.append((tmp_path / "metaembed-eval.manifest.json").read_text())
        assert manifests[0] == manifests[1]
        metrics = json.loads(manifests[0])["metrics"]
        curve, best = metrics["dev_curve"], metrics["best_round"]
        assert len(curve) == metrics["rounds"]
        assert curve[best] == metrics["dev"]
        # best_round is the first round to reach the best dev score, counted from 0
        assert all(c < curve[best] for c in curve[:best]) and max(curve) == curve[best]
        # training stops once tenacity rounds in a row fail to beat the best, or at 200 rounds
        assert metrics["stopped_early"] == (metrics["rounds"] - 1 - best == tenacity)
        assert metrics["stopped_early"] or metrics["rounds"] == 200

    def test_probe_negative_seed_exits_2(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng, n_pairs=40)
        code, _, stderr = run(capsys, "eval", "sick-r", "--inputs", table_path,
                              "--dataset", pairs_path, "--seed", -1)
        assert code == 2
        assert "error: seed must be a non-negative integer, got -1" in stderr
        assert "Traceback" not in stderr

    def test_probe_seed_changes_split(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng, n_pairs=40)
        prints = []
        for seed in (0, 1):
            code, stdout, _ = run(capsys, "eval", "sick-r", "--inputs", table_path,
                                  "--dataset", pairs_path, "--seed", seed)
            assert code == 0
            prints.append(report_of(stdout)["fingerprint"])
        assert prints[0] != prints[1]

    def test_classification_probe(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        n = 30
        ids = [f"s{i}" for i in range(2 * n)]
        base = rng.normal(size=(2 * n, 4))
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, base))
        rows = [(f"s{2 * k}", f"s{2 * k + 1}",
                 "paraphrase" if k % 2 == 0 else "not_paraphrase") for k in range(n)]
        pairs = write_canonical(tmp_path / "pairs.tsv", rows)
        code, stdout, _ = run(capsys, "eval", "paraphrase", "--inputs", tmp_path / "sent.vec",
                              "--dataset", pairs, "--seed", 2)
        assert code == 0
        report = report_of(stdout)
        assert report["metric"] == "accuracy"
        assert 0.0 <= report["value"] <= 100.0
        assert report["n"] == 6

    def probe_inputs(self, tmp_path, rng, task):
        """A 200 x 256 table and 3000 pairs over it, drawn 2100/300/600 by eval's seeded split."""
        n_ids, dim, n_pairs = 200, 256, 3000
        ids = [f"s{i}" for i in range(n_ids)]
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, rng.normal(size=(n_ids, dim))))
        labels = ("entailment", "neutral", "contradiction") if task == "nli" else ("1.0", "3.0", "5.0")
        picks = rng.integers(0, n_ids, size=(n_pairs, 2))
        rows = [(ids[i], ids[j], labels[(i + j) % 3]) for i, j in picks]
        return tmp_path / "sent.vec", write_canonical(tmp_path / "pairs.tsv", rows), dim

    def traced_probe_peak(self, capsys, task, table, pairs):
        tracemalloc.start()
        try:
            code, stdout, _ = run(capsys, "eval", task, "--inputs", table,
                                  "--dataset", pairs, "--epoch-size", 1, "--tenacity", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and report_of(stdout)["n"] == 600
        return peak

    def test_probe_peak_memory_stays_below_the_train_feature_matrix(self, tmp_path, rng, capsys,
                                                                     monkeypatch):
        # 3000 pairs of 256-wide vectors: the 2100 x 1024 train feature matrix (17 MB) is
        # the largest array a probe could build, forty times the table
        monkeypatch.chdir(tmp_path)
        table, pairs, dim = self.probe_inputs(tmp_path, rng, "nli")
        assert self.traced_probe_peak(capsys, "nli", table, pairs) < 2100 * 4 * dim * 8

    @pytest.mark.parametrize("task", ["nli", "sick-r"])
    def test_probe_peak_memory_stays_below_the_dev_and_test_feature_matrices(
            self, tmp_path, rng, capsys, monkeypatch, task):
        # dev and test are scored a block of rows at a time from the loaded table: the
        # 300 x 1024 dev and 600 x 1024 test feature matrices (7.0 MiB together) are never built
        monkeypatch.chdir(tmp_path)
        table, pairs, dim = self.probe_inputs(tmp_path, rng, task)
        assert self.traced_probe_peak(capsys, task, table, pairs) < (300 + 600) * 4 * dim * 8

    @pytest.mark.parametrize("task", ["sick-r", "sick-e"])
    def test_probe_manifest_n_is_the_test_split_size(self, tmp_path, rng, capsys, monkeypatch, task):
        # 257 test pairs: one full scoring block and one that overlaps it
        monkeypatch.chdir(tmp_path)
        official, n = write_official(tmp_path / "official.txt", n_train=40, n_dev=10, n_test=257)
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, rng.normal(size=(len(ids), 4))))
        out = tmp_path / "preds.tsv"
        code, stdout, _ = run(capsys, "eval", task, "--inputs", tmp_path / "sent.vec",
                              "--dataset", official, "--out", out)
        assert code == 0
        manifest = json.loads((tmp_path / "preds.tsv.manifest.json").read_text())
        assert manifest["metrics"]["n"] == report_of(stdout)["n"] == 257
        assert len(out.read_text().splitlines()) == 1 + 257

    def test_dynamic_model_scores_official_test_split(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        official, n = write_official(tmp_path / "official.txt")
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        tables = write_seq_tables(tmp_path, rng, ids)
        model = tmp_path / "m.model"
        code, _, _ = run(capsys, "train", "--mode", "cdme", "--inputs", *tables,
                         "--dataset", official, "--d-prime", 4, "--m", 2, "--m-enc", 3,
                         "--epochs", 2, "--out", model)
        assert code == 0
        code, stdout, _ = run(capsys, "eval", "sick-e", model, "--inputs", *tables,
                              "--dataset", official)
        assert code == 0
        report = report_of(stdout)
        assert report["task"] == "sick-e" and report["metric"] == "accuracy"
        assert report["n"] == 3  # official TEST rows only
        assert 0.0 <= report["value"] <= 100.0

    def test_dynamic_model_embeds_only_the_eval_pairs(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ids = [f"s{i}" for i in range(10)]
        tables = write_seq_tables(tmp_path, rng, ids)
        train = write_canonical(tmp_path / "train.tsv", [
            ("s0", "s1", "entailment"), ("s2", "s3", "neutral"), ("s4", "s5", "contradiction")])
        model = tmp_path / "m.model"
        code, _, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables, "--dataset", train,
                         "--d-prime", 4, "--m-enc", 3, "--epochs", 1, "--out", model)
        assert code == 0
        test = write_canonical(tmp_path / "test.tsv", [
            ("s7", "s2", "neutral"), ("s2", "s9", "entailment"), ("s9", "s7", "contradiction")])
        calls = record_embedded_ids(monkeypatch)
        code, stdout, _ = run(capsys, "eval", "nli", model, "--inputs", *tables, "--dataset", test)
        assert code == 0
        assert report_of(stdout)["n"] == 3
        assert calls == [["s7", "s2", "s9"]]

    def test_sts_accepts_official_scores(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        official, n = write_official(tmp_path / "official.txt")
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        save_vector_table(tmp_path / "sent.vec",
                          EmbeddingTable(ids, rng.normal(size=(len(ids), 4))))
        code, stdout, _ = run(capsys, "eval", "sts", "--inputs", tmp_path / "sent.vec",
                              "--dataset", official)
        assert code == 0
        assert report_of(stdout)["n"] == n

    def test_sts_with_a_model_reports_as_on_the_applied_table(self, tmp_path, rng, capsys, monkeypatch):
        # the fingerprint hashes the pair ids' vectors, however the table was built
        monkeypatch.chdir(tmp_path)
        ids, paths = write_vec_tables(tmp_path, rng, n=12)
        pairs = write_canonical(tmp_path / "pairs.tsv",
                                [(ids[k], ids[(5 * k + 3) % 12], f"{1 + k % 5}.0") for k in range(12)])
        model, applied = tmp_path / "m.model", tmp_path / "meta.vec"
        assert run(capsys, "fit", "--method", "svd", "--inputs", *paths, "--d", 3, "--out", model)[0] == 0
        assert run(capsys, "apply", model, "--inputs", *paths, "--out", applied)[0] == 0
        reports = [run(capsys, "eval", "sts", *args, "--dataset", pairs)[1]
                   for args in ([model, "--inputs", *paths], ["--inputs", applied])]
        assert report_of(reports[0]) == report_of(reports[1])

    def test_official_export_is_named_by_its_path(self, tmp_path, rng, capsys):
        official, n = write_official(tmp_path / "official.txt", n_train=4, n_dev=0, n_test=0)
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, rng.normal(size=(len(ids), 4))))
        code, stdout, stderr = run(capsys, "eval", "sick-r", "--inputs", tmp_path / "sent.vec",
                                   "--dataset", official)
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [
            f"error: dataset {str(official)!r}: empty dev split; probes need train, dev and test pairs"
        ]

    def test_official_export_refused_for_nli(self, tmp_path, rng, capsys):
        official, n = write_official(tmp_path / "official.txt")
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, rng.normal(size=(len(ids), 4))))
        code, stdout, stderr = run(capsys, "eval", "nli", "--inputs", tmp_path / "sent.vec",
                                   "--dataset", official)
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [
            "error: an official export carries relatedness scores and entailment classes; "
            "task 'nli' needs a canonical file"
        ]

    def test_model_classes_must_cover_the_task(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        official, n = write_official(tmp_path / "official.txt")
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        tables = write_seq_tables(tmp_path, rng, ids)
        train = write_canonical(tmp_path / "train.tsv", [("1_A", "1_B", "yes"), ("2_A", "2_B", "no")])
        model = tmp_path / "m.model"
        code, _, _ = run(capsys, "train", "--mode", "dme", "--inputs", *tables, "--dataset", train,
                         "--d-prime", 4, "--m-enc", 3, "--epochs", 1, "--out", model)
        assert code == 0
        code, stdout, stderr = run(capsys, "eval", "sick-e", model, "--inputs", *tables,
                                   "--dataset", official)
        assert code == 2
        assert stdout == ""
        assert stderr.splitlines() == [
            "error: model classes ['no', 'yes'] do not cover task classes "
            "['ENTAILMENT', 'NEUTRAL', 'CONTRADICTION']"
        ]

    def test_pair_id_header_with_a_trailing_space_is_not_official(self, tmp_path, rng, capsys):
        official, n = write_official(tmp_path / "official.txt")
        official.write_text(official.read_text().replace("pair_ID", "pair_ID ", 1))
        ids = [f"{k}_{side}" for k in range(1, n + 1) for side in ("A", "B")]
        save_vector_table(tmp_path / "sent.vec", EmbeddingTable(ids, rng.normal(size=(len(ids), 4))))
        code, _, stderr = run(capsys, "eval", "sick-e", "--inputs", tmp_path / "sent.vec",
                              "--dataset", official)
        assert code == 2
        assert stderr.splitlines() == [f"error: {official}:1: expected 5 tab-separated columns, got 6"]

    def test_without_model_exactly_one_input(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        pairs = write_canonical(tmp_path / "p.tsv", [("s0", "s1", "2.0")])
        code, _, stderr = run(capsys, "eval", "sts", "--inputs", *paths, "--dataset", pairs)
        assert code == 2
        assert "exactly one vector table" in stderr

    def test_undecodable_dataset_reports_line(self, tmp_path, rng, capsys):
        table_path, pairs_path = self.embeddings_fixture(tmp_path, rng)
        pairs_path.write_bytes(pairs_path.read_bytes().replace(b"-\n", b"caf\xe9\n", 2))
        code, _, stderr = run(capsys, "eval", "sts", "--inputs", table_path, "--dataset", pairs_path)
        assert code == 2
        assert f"error: {pairs_path}:1: invalid UTF-8 byte 0xe9" in stderr and "Traceback" not in stderr

    def test_missing_vector_reported(self, tmp_path, rng, capsys):
        table_path, _ = self.embeddings_fixture(tmp_path, rng)
        extra = write_canonical(tmp_path / "extra.tsv", [("zz_A", "zz_B", "3")])
        code, _, stderr = run(capsys, "eval", "sts", "--inputs", table_path,
                              "--dataset", extra)
        assert code == 2
        assert "missing vector" in stderr and "zz_A" in stderr


class TestInfo:
    def test_vector_table(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        code, stdout, _ = run(capsys, "info", paths[0])
        assert code == 0
        assert "kind vector-table\nrows 8\ndim 3\n" == stdout

    def test_combined_table_whose_first_id_starts_with_hash(self, tmp_path, rng, capsys):
        paths = []
        for k in range(2):
            paths.append(tmp_path / f"t{k}.vec")
            save_vector_table(paths[-1], EmbeddingTable(["b", "#a"], rng.normal(size=(2, 3))))
        assert run(capsys, "combine", "--method", "con", "--inputs", *paths, "--out", tmp_path / "c.vec")[0] == 0
        assert (tmp_path / "c.vec").read_text().splitlines()[1].startswith("#a ")
        code, stdout, _ = run(capsys, "info", tmp_path / "c.vec")
        assert (code, stdout) == (0, "kind vector-table\nrows 2\ndim 6\n")

    def test_sequence_table(self, tmp_path, rng, capsys):
        paths = write_seq_tables(tmp_path, rng, ["a", "b"], dims=(2,), max_len=2)
        code, stdout, _ = run(capsys, "info", paths[0])
        assert code == 0
        assert stdout.startswith("kind sequence-table\nrows 2\ndim 2\ntotal_steps ")

    def test_svd_model(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        model = tmp_path / "m.model"
        run(capsys, "fit", "--method", "svd", "--inputs", *paths, "--d", 2, "--out", model)
        code, stdout, _ = run(capsys, "info", model)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "kind SVDMETA"
        assert "views 2" in lines and "dim 2" in lines and "widths 3 2" in lines

    def test_dynamic_model(self, tmp_path, rng, capsys):
        ids = [f"s{i}" for i in range(4)]
        tables = write_seq_tables(tmp_path, rng, ids)
        pairs = write_canonical(tmp_path / "p.tsv", [("s0", "s1", "yes"), ("s2", "s3", "no")])
        model = tmp_path / "m.model"
        run(capsys, "train", "--mode", "cdme", "--inputs", *tables, "--dataset", pairs,
            "--d-prime", 4, "--m", 2, "--m-enc", 3, "--epochs", 1, "--seed", 4, "--out", model)
        code, stdout, _ = run(capsys, "info", model)
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "kind CDME"
        assert "att_hidden 2" in lines
        assert "seed 4" in lines
        assert "classes no yes" in lines

    @pytest.mark.parametrize("kind", sorted(GOLDEN_INFO))
    def test_golden_model_output_is_pinned(self, capsys, kind):
        code, stdout, _ = run(capsys, "info", GOLDEN / f"{kind}.model")
        assert code == 0
        assert stdout == GOLDEN_INFO[kind]

    def test_non_finite_model_block_exits_2(self, tmp_path, capsys):
        path = tmp_path / "svdmeta.model"
        path.write_text((GOLDEN / "svdmeta.model").read_text().replace("mean 1 3\n1 2 3\n", "mean 1 3\nnan 2 3\n"))
        code, stdout, stderr = run(capsys, "info", path)
        assert code == 2 and stdout == ""
        assert stderr.splitlines() == [f"error: {path}:4: non-finite value in block 'mean'"]

    @pytest.mark.parametrize("kind", ["dme", "cdme"])
    def test_dynamic_model_with_negative_seed(self, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.model"
        path.write_text((GOLDEN / f"{kind}.model").read_text().replace(" seed 5 ", " seed -1 ", 1))
        code, stdout, stderr = run(capsys, "info", path)
        assert code == 2 and stdout == ""
        assert f"error: {path}: seed must be a non-negative integer, got -1" in stderr
        assert "Traceback" not in stderr

    def test_gcca_model_with_bad_tau(self, tmp_path, capsys):
        path = tmp_path / "gcca.model"
        path.write_text((GOLDEN / "gcca.model").read_text().replace("tau 0\n", "tau nan\n", 1))
        code, _, stderr = run(capsys, "info", path)
        assert code == 2
        assert f"error: {path}: tau must be finite and non-negative, got nan" in stderr

    def test_missing_file(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "info", tmp_path / "nope.vec")
        assert code == 2 and "error:" in stderr

    @pytest.mark.parametrize("name, text, error", [
        ("huge.vec", "1000000000000 1000000000\na 1 2\n", "2: expected 1000000000 values, got 2"),
        ("huge.model", (GOLDEN / "svdmeta.model").read_text().replace("mean 1 3\n", "mean 1000000000000 1000000000\n"),
         "4: expected 1000000000 values, got 3"),
        ("huge.seq", "1 2\n#a 100000000000000000\n1 2\n",
         "3: expected 100000000000000000 rows in block 'a'; file ends after line 3"),
    ], ids=["vector", "model", "sequence"])
    def test_declared_counts_beyond_the_file_exit_2(self, tmp_path, capsys, name, text, error):
        path = tmp_path / name
        path.write_text(text)
        code, stdout, stderr = run(capsys, "info", path)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == [f"error: {path}:{error}"]

    def test_declared_rows_beyond_the_file_exit_2_under_a_memory_limit(self, tmp_path):
        # 134217728 rows of width 2 would take 2 GiB; the child may map 1 GiB
        path = tmp_path / "big.seq"
        path.write_text("1 2\n#a 134217728\n1 2\n")
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from metaembed.cli import main\n"
                "sys.exit(main(['info', sys.argv[1]]))\n")
        threads = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env = {**os.environ, **threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, env=env)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.splitlines() == [
            f"error: {path}:3: expected 134217728 rows in block 'a'; file ends after line 3"]

    def test_undecodable_byte_is_reported_before_a_header_fault(self, tmp_path, rng, capsys):
        # info and combine read a table through the same loader, so they name the same fault
        path = tmp_path / "h.vec"
        path.write_bytes(b"x y z\na 1\n\xff 2\n")
        _, other = write_vec_tables(tmp_path, rng)
        for argv in (["info", path], ["combine", "--method", "con", "--inputs", path, other[0],
                                      "--out", tmp_path / "o.vec"]):
            code, stdout, stderr = run(capsys, *argv)
            assert (code, stdout, stderr.splitlines()) == (2, "", [f"error: {path}:3: invalid UTF-8 byte 0xff"])

    def test_undecodable_byte_is_reported_before_an_unknown_model_kind(self, tmp_path, rng, capsys):
        # info, apply and eval sniff a model's kind through the same reader, so they name the same fault
        path = tmp_path / "foo.model"
        path.write_bytes(b"FOO v1\n\xff\n")
        ids, tables = write_vec_tables(tmp_path, rng)
        pairs = write_canonical(tmp_path / "p.tsv", [(ids[0], ids[1], 1.0), (ids[2], ids[3], 2.0)])
        for argv in (["info", path], ["apply", path, "--inputs", *tables, "--out", tmp_path / "o.vec"],
                     ["eval", "sts", path, "--inputs", *tables, "--dataset", pairs]):
            code, stdout, stderr = run(capsys, *argv)
            assert (code, stdout, stderr.splitlines()) == (2, "", [f"error: {path}:2: invalid UTF-8 byte 0xff"])

    def test_info_opens_a_model_file_twice(self, tmp_path, capsys):
        # once to sniff its kind and once to load it
        path = tmp_path / "m.model"
        path.write_bytes((GOLDEN / "svdmeta.model").read_bytes())
        with counted_opens(path) as opened:
            code, stdout, _ = run(capsys, "info", path)
        assert code == 0 and stdout.startswith("kind SVDMETA\n") and len(opened) == 2

    def test_undecodable_table_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.vec"
        path.write_bytes(b"2 1\na 1\nb\xff 2\n")
        code, _, stderr = run(capsys, "info", path)
        assert code == 2
        assert f"error: {path}:3: invalid UTF-8 byte 0xff" in stderr and "Traceback" not in stderr


class TestUsage:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        for argv in (["combine", "--out", "x.vec"], ["eval", "sts", "--dataset", "d.tsv"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "required:" in capsys.readouterr().err.splitlines()[-1]

    def test_unwritable_output_reported(self, tmp_path, rng, capsys):
        _, paths = write_vec_tables(tmp_path, rng)
        out = tmp_path / "missing" / "o.vec"
        code, _, stderr = run(capsys, "combine", "--method", "con", "--inputs", *paths, "--out", out)
        assert code == 2
        assert f"error: {out}: cannot write file" in stderr and "Traceback" not in stderr

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "combine", "--method", "con",
                              "--inputs", tmp_path / "nope.vec",
                              "--out", tmp_path / "o.vec")
        assert code == 2
        assert "error:" in stderr and "nope.vec" in stderr
