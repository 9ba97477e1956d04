#!/usr/bin/env python3
"""Benchmark of the metaembed command-line toolkit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run writes the workload's inputs for the seed under ``.perfbench/`` and
runs the workload's ``metaembed`` commands from ``src/`` as a closed loop
with one client: each command is its own process, started only after the
previous one exited.  BLAS threads are capped at the number of usable cores.

``--trace 0`` repeats passes over the command sequence until the next pass
would end after ``--seconds``, each pass preceded by a ``metaembed
--version`` start-up probe, fills the time left with more probes (at least
five in all), and reports the end-to-end metrics as medians.  ``--trace 1``
times a pass of processes, then replays the same commands in this process
through ``cli.main``, alternating traced and untraced replays and taking a
second pass of processes if it fits, and reports per-layer metrics from the
spans (see ``tracing.py``).

Every run checks the outputs: exit codes, byte-identical outputs and
manifests on every repeat, row and width counts, and the ``eval sts``
Pearson recomputed here with plain numpy.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and the declared metrics
of ``BENCHMARK.json``; the full record, with the machine, per-command
times, sample counts and ``fail_rate``, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter
from typing import NamedTuple

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

COMMAND_TIMEOUT_S = 60.0
MIN_PASSES = 2
SETUP_SAMPLES = 5  # fewest start-up probes in an end-to-end run
TRACE_PROCESS_PASSES = 2  # process passes of a traced run, when they fit in its time


class Run(NamedTuple):
    """One finished process."""

    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Check:
    """Attempted and failed command invocations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"{what}: {p}" for p in problems)


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def result_line(declared: dict, values: dict, check: Check) -> str:
    """The final stdout line: every declared metric, by name, with its unit."""
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()}
    return json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                       "failed": check.failed, "metrics": metrics})


# --- processes ----------------------------------------------------------------

def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONNOUSERSITE="1", OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads))
    return env


class Launcher:
    """The small process that forks every command; see ``launcher.py``."""

    def __init__(self, env: dict):
        self.env = env
        self.proc = subprocess.Popen([sys.executable, "-S", os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd, timeout: float = COMMAND_TIMEOUT_S) -> Run:
        """Run *argv* to completion; its peak RSS is its own, from ``wait4``.

        ``RUSAGE_CHILDREN`` is a running maximum over every child ever
        reaped, so it cannot give one command's peak.
        """
        out, err = os.path.join(WORK, "command.out"), os.path.join(WORK, "command.err")
        request = {"argv": list(argv), "cwd": cwd, "env": self.env, "stdout": out, "stderr": err,
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        reply = json.loads(line)
        with open(out, encoding="utf-8", errors="replace") as f_out, \
                open(err, encoding="utf-8", errors="replace") as f_err:
            return Run(reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["code"],
                       f_out.read(), f_err.read())

    def metaembed(self, argv, cwd) -> Run:
        return self.run([sys.executable, "-m", "metaembed", *argv], cwd)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        self.proc.stdout.close()


# --- output checks --------------------------------------------------------------

def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def outputs_of(argv) -> list[str]:
    """The ``--out`` paths of a command line."""
    return [argv[i + 1] for i, a in enumerate(argv) if a == "--out"]


def output_digests(directory, argv) -> dict:
    """sha256 of each output and of every file named after it (manifest, loss curve)."""
    digests = {}
    for out in outputs_of(argv):
        for name in sorted(os.listdir(directory)):
            if name == out or name.startswith(out + "."):
                digests[name] = sha256(os.path.join(directory, name))
    return digests


def read_vector_table(path):
    """Ids and (N, D) values of a vector table, parsed with plain numpy."""
    with open(path, encoding="utf-8") as f:
        n, d = (int(t) for t in f.readline().split())
        ids = []
        rows = []
        for line in f:
            ident, rest = line.split(" ", 1)
            ids.append(ident)
            rows.append(rest)
    values = np.array(" ".join(rows).split(), dtype=np.float64).reshape(n, d)
    return ids, values


def sts_pearson(table_path, pairs_path, lo=0.0, hi=5.0) -> float:
    """Pearson of the scaled cosine against gold, as ``eval sts`` defines it."""
    ids, values = read_vector_table(table_path)
    index = {ident: i for i, ident in enumerate(ids)}
    a, b, gold = [], [], []
    with open(pairs_path, encoding="utf-8") as f:
        for line in f:
            cols = line.rstrip("\n").split("\t")
            a.append(index[cols[0]])
            b.append(index[cols[1]])
            gold.append(float(cols[2]))
    u, v = values[a], values[b]
    cos = np.einsum("ij,ij->i", u, v) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
    pred = lo + np.maximum(0.0, np.clip(cos, -1.0, 1.0)) * (hi - lo)
    pc = pred - pred.mean()
    gc = np.asarray(gold) - np.mean(gold)
    return float(pc @ gc / (np.linalg.norm(pc) * np.linalg.norm(gc)))


def check_command(index, cmd, code, stdout, directory, expected, baseline) -> list[str]:
    """Problems with one command's outputs; *baseline* holds the first pass's digests."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    digests = output_digests(directory, cmd.argv)
    if index in baseline:
        changed = sorted(k for k in set(digests) | set(baseline[index])
                         if digests.get(k) != baseline[index].get(k))
        if changed:
            problems.append(f"rerun changed {', '.join(changed)}")
    else:
        baseline[index] = digests
        for out in outputs_of(cmd.argv):
            if out in expected.tables:
                with open(os.path.join(directory, out), encoding="utf-8") as f:
                    shape = tuple(int(t) for t in f.readline().split())
                if shape != expected.tables[out]:
                    problems.append(f"{out} is {shape}, expected {expected.tables[out]}")
    if index in expected.info:
        fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
        got = (int(fields.get("rows", -1)), int(fields.get("dim", -1)))
        if got != expected.info[index]:
            problems.append(f"info reports rows, dim {got}, expected {expected.info[index]}")
    if index in expected.sts:
        table, pairs = expected.sts[index]
        value = json.loads(stdout.splitlines()[0])["value"]
        ours = sts_pearson(os.path.join(directory, table), os.path.join(directory, pairs))
        if abs(value - ours) > 1e-9:
            problems.append(f"eval sts Pearson {value!r}, recomputed {ours!r}")
    return problems


# --- the two kinds of run -----------------------------------------------------------

def probe_setup(launcher, check: Check, samples: list) -> None:
    run = launcher.metaembed(["--version"], WORK)
    problems = [] if run.code == 0 and run.stdout.startswith("metaembed ") else [f"exit code {run.code}"]
    check.record(problems, "--version")
    samples.append(run.wall_s)


def run_pass(workload, directory, launcher, expected, baseline, check: Check) -> list:
    runs = []
    for i, cmd in enumerate(workload.commands):
        run = launcher.metaembed(cmd.argv, directory)
        problems = check_command(i, cmd, run.code, run.stdout, directory, expected, baseline)
        if run.code != 0:
            problems.append(run.stderr.strip()[-300:])
        check.record(problems, " ".join(cmd.argv[:3]))
        runs.append(run)
        if problems:
            break  # later commands read this one's outputs
    return runs


def end_to_end(workload, directory, launcher, expected, seconds, check: Check) -> tuple:
    deadline = perf_counter() + seconds
    setup, passes = [], []
    baseline: dict = {}
    probe_setup(launcher, check, [])  # warm-up: byte-compiles the package, fills the page cache
    while True:
        began = perf_counter()
        probe_setup(launcher, check, setup)
        passes.append(run_pass(workload, directory, launcher, expected, baseline, check))
        took = perf_counter() - began
        if check.failed or (len(passes) >= MIN_PASSES and perf_counter() + took > deadline):
            break
    # the time left, too short for another pass, takes more start-up probes
    while not check.failed and (len(setup) < SETUP_SAMPLES or perf_counter() + max(setup) <= deadline):
        probe_setup(launcher, check, setup)
    record = {"setup_s": setup, "passes": [[{"wall_s": r.wall_s, "rss_mb": r.rss_mb} for r in p]
                                          for p in passes]}
    complete = [p for p in passes if len(p) == len(workload.commands)]
    return record, pass_samples(workload.commands, complete, setup) if complete and setup else {}


def pass_samples(commands, passes, setup) -> dict:
    """End-to-end metrics from the finished processes of every pass.

    Returns ``{name: {"value", "n"}}``.  A command sequence's time is the
    sum of each command's median wall time over the passes: a slow spell on
    the machine then costs one sample of the commands it hit, not a whole
    pass.
    """
    walls = [statistics.median(p[i].wall_s for p in passes) for i in range(len(commands))]
    n = len(passes)
    out = {
        "setup_s": {"value": statistics.median(setup), "n": len(setup)},
        "pipeline_s": {"value": sum(walls), "n": n},
        "peak_rss_mb": {"value": statistics.median(max(r.rss_mb for r in p) for p in passes), "n": n},
    }
    for group in sorted({c.group for c in commands}):
        out[f"cmd.{group}_s"] = {"value": sum(w for c, w in zip(commands, walls) if c.group == group),
                                 "n": n}
    return out


def traced(workload, directory, launcher, expected, seconds, seed, check: Check, spans_path) -> dict:
    deadline = perf_counter() + seconds
    baseline: dict = {}
    probe_setup(launcher, check, [])
    passes = [run_pass(workload, directory, launcher, expected, baseline, check)]
    if check.failed:
        return {}
    pass_s = sum(r.wall_s for r in passes[0])
    rss_ratio = load_rss_ratio(launcher, os.path.join(directory, workload.rss_table), check)
    sys.path.insert(0, SRC)
    import metaembed.cli

    if not os.path.abspath(metaembed.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported metaembed from {metaembed.cli.__file__}, not from {SRC}")
    tracer = tracing.Tracer()
    replays, plain = [], []

    def replay(traced_replay: bool) -> float:
        """Run every command through ``cli.main`` in this process; returns the time taken."""
        if traced_replay:
            tracer.install()
        first = len(tracer.spans)
        began = perf_counter()
        try:
            for i, cmd in enumerate(workload.commands):
                tracer.run = f"{workload.name}/seed{seed}/replay{len(replays)}/cmd{i}"
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink):
                    if traced_replay:
                        code = tracer.root(metaembed.cli.main, list(cmd.argv))
                    else:
                        code = metaembed.cli.main(list(cmd.argv))
                problems = check_command(i, cmd, code, sink.getvalue(), directory, expected, baseline)
                check.record(problems, "replay " + " ".join(cmd.argv[:3]))
        finally:
            tracer.uninstall()
        took = perf_counter() - began
        if traced_replay:
            replays.append((range(first, len(tracer.spans)), took))
        return took

    here = os.getcwd()
    os.chdir(directory)
    try:
        replay(False)  # warm-up: the first in-process run pays one-time costs
        while not check.failed:
            # alternate which of the pair runs first, so drift does not bias the overhead
            order = (True, False) if len(plain) % 2 == 0 else (False, True)
            took = [replay(t) for t in order]
            plain.append(took[order.index(False)])
            # more process passes, so that cli.glue_s rests on a median wall time
            if len(passes) < TRACE_PROCESS_PASSES and perf_counter() + pass_s <= deadline:
                passes.append(run_pass(workload, directory, launcher, expected, baseline, check))
            if perf_counter() + sum(took) > deadline:
                break
    finally:
        os.chdir(here)
    with open(spans_path, "w", encoding="utf-8") as f:
        for i, span in enumerate(tracer.spans):
            f.write(json.dumps(span.as_dict(i)) + "\n")
    if check.failed or not replays:
        return {}
    walls = [statistics.median(p[i].wall_s for p in passes) for i in range(len(workload.commands))]
    selfs = tracing.self_times(tracer.spans)
    per_replay = [tracing.replay_metrics(tracer.spans, selfs, idx, walls) for idx, _ in replays]
    for key in ("optim.adam_steps", "probes.rounds", *(f"{layer}.calls" for layer in tracing.LAYERS[:-1])):
        if len({r[key] for r in per_replay}) != 1:
            check.record([f"{key} differs between replays"], "trace counts")
    metrics = tracing.median_metrics(per_replay)
    metrics["trace.overhead_s"] = statistics.median(t for _, t in replays) - statistics.median(plain)
    metrics["store.load_rss_ratio"] = rss_ratio
    layer_s = [statistics.median(v) for v in zip(*(tracing.command_layer_times(tracer.spans, selfs, idx)
                                                   for idx, _ in replays))]
    return {"metrics": metrics, "process_passes": len(passes), "replays": len(replays),
            "accounting": [{"argv": list(cmd.argv), "wall_s": w, "layer_self_s": s, "glue_s": w - s}
                           for cmd, w, s in zip(workload.commands, walls, layer_s)]}


def load_rss_ratio(launcher, path, check: Check) -> float:
    """Peak RSS growth of one table load in a fresh process, over the array's bytes."""
    run = launcher.run([sys.executable, os.path.join(HERE, "load_rss.py"), path], WORK)
    check.record([] if run.code == 0 else [f"exit code {run.code}: {run.stderr.strip()[-300:]}"],
                 "load_rss.py")
    return json.loads(run.stdout)["ratio"] if run.code == 0 else 0.0


# --- reporting ---------------------------------------------------------------

def machine(threads: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": blas.get("name", "unknown"), "blas_version": blas.get("version", "unknown"),
            "blas_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "metaembed", "__init__.py")):
        print(f"error: no metaembed package under {SRC}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.makedirs(WORK, exist_ok=True)
    launcher = Launcher(child_env(threads))
    try:
        return measure(args, parser, launcher, threads)
    finally:
        launcher.close()


def measure(args, parser, launcher, threads) -> int:
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    declared = declared_metrics()
    directory = os.path.join(WORK, args.workload)
    results = os.path.join(WORK, "results")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(results, exist_ok=True)
    expected = workloads.generate(workload, directory, args.seed)
    check = Check()
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": machine(threads),
              "sizes": workload.sizes}
    if args.trace:
        detail = traced(workload, directory, launcher, expected, args.seconds, args.seed, check,
                        stem + "-spans.jsonl")
        values = detail.get("metrics", {})
        record.update(detail)
        kind = "per_layer"
    else:
        samples, summary = end_to_end(workload, directory, launcher, expected, args.seconds, check)
        values = {name: entry["value"] for name, entry in summary.items()}
        record["samples"] = samples
        record["summary"] = summary
        kind = "end_to_end"
    missing = [name for name in declared[kind] if name not in values]
    if missing and not check.failed:  # after a failure, missing metrics are its consequence
        check.record([f"not measured: {', '.join(missing)}"], "report")
    values.update(dict.fromkeys(missing, 0.0))
    record["fail_rate"] = check.failed / max(1, check.attempted)
    record["failures"] = check.reasons
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    m = record["machine"]
    print(f"machine: {m['nproc']} cpus, {m['cpu']}, {m['blas']} {m['blas_version']} "
          f"({m['blas_threads']} threads), python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"workload {workload.name}: {workload.why}")
    if args.trace:
        for name in sorted(values):
            print(f"  {name:40s} {values[name]:.6g} {tracing.unit_of(name)}")
        if "accounting" in record:
            # cli.glue_s is defined as this remainder, so the columns add up by construction
            print(f"  per command: process wall time (median, n={record['process_passes']} process passes)"
                  f" = layer self time (median, n={record['replays']} traced replays) + cli glue")
            for row in record["accounting"]:
                print(f"    {row['wall_s']:8.4f} s = {row['layer_self_s']:8.4f} s + {row['glue_s']:7.4f} s"
                      f"  {' '.join(row['argv'][:3])}")
    else:
        for name, entry in record["summary"].items():
            unit = declared["end_to_end"].get(name, "s")
            print(f"  {name:16s} {entry['value']:.6g} {unit} (n={entry['n']})")
    print(f"  fail_rate {record['fail_rate']:.6g} ({check.failed} of {check.attempted})")
    for reason in check.reasons[:20]:
        print(f"  FAILED {reason}")
    print(result_line(declared[kind], values, check))
    return 0


if __name__ == "__main__":
    sys.exit(main())
