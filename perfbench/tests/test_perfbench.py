"""Tests of the benchmark's own parts: generator, metric report, span arithmetic."""

import hashlib
import json
import os
import re
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "ensemble-io": {"rows": 60, "widths": (6, 4, 2), "rank": 3, "d": 2, "pairs": 40},
    "wide-fit": {"rows": 12, "widths": (10, 8, 6), "rank": 3, "d": 4},
    "dynamic-train": {"sentences": 20, "widths": (5, 3), "vocab": 30, "steps": (2, 4),
                      "pairs": 15, "epochs": 1, "d_prime": 4, "m_enc": 4},
    "probe-eval": {"rows": 40, "width": 8, "clusters": 4, "score_noise": 0.5, "pairs": 50},
}


def digest(directory) -> dict:
    return {name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_a_function_of_the_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]._replace(sizes=SMALL[name])
    first = workloads.generate(workload, tmp_path / "a", 7)
    again = workloads.generate(workload, tmp_path / "b", 7)
    other = workloads.generate(workload, tmp_path / "c", 8)
    assert digest(tmp_path / "a") == digest(tmp_path / "b")
    assert first == again
    changed = digest(tmp_path / "c")
    assert set(changed) == set(digest(tmp_path / "a"))
    assert all(changed[f] != h for f, h in digest(tmp_path / "a").items())
    assert other == first


def test_small_sizes_cover_every_size_key():
    for name, workload in workloads.WORKLOADS.items():
        assert set(SMALL[name]) == set(workload.sizes)


def test_generated_vector_table_matches_its_expected_shape(tmp_path):
    workload = workloads.WORKLOADS["ensemble-io"]._replace(sizes=SMALL["ensemble-io"])
    expected = workloads.generate(workload, tmp_path, 1)
    shared = None
    for k in range(3):
        ids, values = bench.read_vector_table(tmp_path / f"view{k}.vec")
        assert values.shape == (len(ids), SMALL["ensemble-io"]["widths"][k])
        shared = set(ids) if shared is None else shared & set(ids)
    assert (len(shared), 12) == expected.tables["combined.vec"]


def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_workloads_and_bounds():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(workloads.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum()
    for m in s["end_to_end"] + s["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
        assert m["better"] in ("higher", "lower")


class FakeRun:
    def __init__(self, wall_s, rss_mb):
        self.wall_s = wall_s
        self.rss_mb = rss_mb


def test_every_end_to_end_metric_is_printed_with_its_unit():
    declared = bench.declared_metrics()["end_to_end"]
    for name, workload in workloads.WORKLOADS.items():
        commands = workload.commands
        # pass p runs command i in 1 + i + p seconds, except one slow spell
        passes = [[FakeRun(1.0 + i + p, 50.0 + i) for i in range(len(commands))] for p in range(3)]
        passes[0][0].wall_s = 100.0
        summary = bench.pass_samples(commands, passes, [0.6, 0.7, 0.8])
        for key in summary:
            assert NAME.fullmatch(key)
        # the slow spell moves command 0's median from 2 to 3 seconds, no more
        assert summary["pipeline_s"]["value"] == pytest.approx(1.0 + sum(2.0 + i for i in range(len(commands))))
        groups = {c.group for c in commands}
        assert sum(summary[f"cmd.{g}_s"]["value"] for g in groups) == pytest.approx(summary["pipeline_s"]["value"])
        assert summary["setup_s"] == {"value": 0.7, "n": 3}
        values = {k: v["value"] for k, v in summary.items()}
        line = json.loads(bench.result_line(declared, values, bench.Check()))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def span(name, layer, start, end, parent=-1, count=None):
    return tracing.Span(name, layer, start, end, parent, "w/seed0/replay0/cmd0", count)


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        span("cli.main", "cli", 0.0, 10.0),
        span("store.load_vector_table", "store", 1.0, 4.0, 0),
        span("ensembles.fit_gcca", "ensembles", 5.0, 9.0, 0),
        span("linalg.gen_sym_eig", "linalg", 6.0, 8.0, 2),
        span("linalg.cholesky", "linalg", 6.5, 7.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.5, 0.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("a", "store", 0.0, 10.0),
        span("b", "store", 1.0, 4.0, 0),
        span("c", "store", 3.0, 6.0, 0),
        span("d", "store", 9.0, 12.0, 0),  # runs past its parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_replay_metrics_cover_every_per_layer_metric():
    spans = [
        span("cli.main", "cli", 0.0, 10.0),
        span("store.load_vector_table", "store", 1.0, 3.0, 0, 2_000_000),
        span("ensembles.fit_gcca", "ensembles", 3.0, 9.0, 0),
        span("linalg.gen_sym_eig", "linalg", 4.0, 8.0, 2),
        span("linalg.cholesky", "linalg", 4.0, 5.0, 3),
        span("cli.main", "cli", 10.0, 12.0),
        span("optim.Adam.step", "optim", 10.5, 11.0, 5),
    ]
    for s in spans[5:]:
        s.run = "w/seed0/replay0/cmd1"
    selfs = tracing.self_times(spans)
    m = tracing.replay_metrics(spans, selfs, range(len(spans)), [11.0, 3.0])
    measured = set(m) | {"store.load_rss_ratio", "trace.overhead_s"}
    declared = bench.declared_metrics()["per_layer"]
    assert set(declared) == measured
    assert {name: tracing.unit_of(name) for name in declared} == declared
    for name in measured:
        assert NAME.fullmatch(name) and tracing.unit_of(name)
    assert m["store.parse_mb_per_s"] == pytest.approx(1.0)
    assert m["linalg.gen_sym_eig_s"] == pytest.approx(4.0)
    assert m["linalg.self_s"] == pytest.approx(4.0)
    assert m["ensembles.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(2.0 + 1.5)
    assert m["linalg.self_pct"] == pytest.approx(100.0 * 4.0 / 12.0)
    assert sum(m[f"{layer}.self_pct"] for layer in tracing.LAYERS) == pytest.approx(100.0)
    assert m["optim.adam_steps"] == 1
    # layer self times plus glue make up the commands' wall time
    layer = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "cli.self_s")
    assert layer + m["cli.glue_s"] == pytest.approx(14.0)
    assert m["cli.glue_pct"] == pytest.approx(100.0 * m["cli.glue_s"] / 14.0)
    # per command: store 2 + ensembles 2 + linalg 4 in command 0, optim 0.5 in command 1
    assert tracing.command_layer_times(spans, selfs, range(len(spans))) == pytest.approx([8.0, 0.5])


def test_tracer_nests_spans_and_restores_the_package():
    ensembles = pytest.importorskip("metaembed.ensembles")
    original = ensembles.thin_svd
    tracer = tracing.Tracer()
    tracer.install()
    try:
        views = [np.random.default_rng(0).normal(size=(20, 3)) for _ in range(2)]
        model = ensembles.fit_svd_meta(views, 2)
        model.apply(views)
    finally:
        tracer.uninstall()
    assert ensembles.thin_svd is original
    names = [s.name for s in tracer.spans]
    fit = names.index("ensembles.fit_svd_meta")
    svd = names.index("linalg.thin_svd")
    assert tracer.spans[svd].parent == fit
    assert "ensembles.SvdMetaModel.apply" in names
    assert "linalg.as_matrix" not in names
    count = len(tracer.spans)
    ensembles.fit_svd_meta(views, 2)
    assert len(tracer.spans) == count
