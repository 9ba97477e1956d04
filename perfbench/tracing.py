"""Spans around the calls into each metaembed layer, and what they add up to.

The traced run replays a workload in one process by calling ``cli.main``
with each command's argv.  Before a traced replay, :meth:`Tracer.install`
replaces every public function and public method of the layer modules, in
every ``metaembed`` module namespace that refers to it, with a wrapper that
records a span.  Calls between layers therefore nest: a ``linalg.thin_svd``
span is a child of the ``ensembles.fit_svd_meta`` span that called it.
:meth:`Tracer.uninstall` restores the originals, so untraced replays run the
unmodified package.  Nothing in the package itself changes.

Spans stay in memory as :class:`Span` objects and are written out once, when
the run ends.  A span's self time is its duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
from time import perf_counter

# the package modules, one layer each; cli is the root of every command
LAYERS = ("store", "modelio", "datasets", "ensembles", "linalg", "lstm", "dynamic",
          "optim", "evaluation", "probes", "cli")

# Helpers called once per row, pair or token.  A span costs about as much as
# their work, so their time stays in the caller's self time.
UNTRACED = frozenset({
    "linalg.as_matrix",
    "evaluation.cosine",
    "evaluation.scale_similarity",
    "store.EmbeddingTable.row",
    "store.EmbeddingTable.index",
    "store.SequenceTable.lookup",
    "store.sequence_views",
})

ROOT = "cli.main"


def _path_size(fn, args, kwargs, result):
    return os.path.getsize(args[0])


def _probe_rounds(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    rounds = result.history.rounds
    return (rounds, rounds * bound.arguments["config"].epoch_size)


# span name -> count(fn, args, kwargs, result); the count is stored on the
# span so rates are measured where the work happens
COUNTS = {
    "store.load_vector_table": _path_size,
    "store.load_sequence_table": _path_size,
    "store.save_vector_table": _path_size,
    "lstm.BiLstm.forward": lambda fn, args, kwargs, result: len(args[1]),
    "dynamic.train_dynamic": lambda fn, args, kwargs, result: len(args[1]) * len(result),
    "evaluation.evaluate_similarity": lambda fn, args, kwargs, result: len(args[1]),
    "evaluation.evaluate_classification": lambda fn, args, kwargs, result: len(args[2]),
    "probes.probe_classification": _probe_rounds,
    "probes.probe_relatedness": _probe_rounds,
}


class Span:
    """One call: name, layer, start, end, parent index, run id and a count."""

    __slots__ = ("name", "layer", "start", "end", "parent", "run", "count")

    def __init__(self, name, layer, start, end=0.0, parent=-1, run="", count=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.count = count

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "layer": self.layer, "start": self.start,
                "end": self.end, "parent": self.parent, "run": self.run, "count": self.count}


class Tracer:
    """Records spans; :meth:`install` and :meth:`uninstall` patch the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, 0.0, parent=self._stack[-1] if self._stack else -1, run=self.run)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def root(self, func, *args):
        """Call *func* under a root span named :data:`ROOT`."""
        span = self._open(ROOT, "cli")
        try:
            return func(*args)
        finally:
            self._close(span)

    def wrap(self, fn, name: str, layer: str):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.count = count(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "metaembed" or key.startswith("metaembed."))]
        for layer in LAYERS[:-1]:
            mod = sys.modules.get(f"metaembed.{layer}")
            if mod is None:
                continue
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public, None)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{public}" not in UNTRACED:
                    wrapped = self.wrap(obj, f"{layer}.{public}", layer)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._patches.append((m, attr, value))
                                setattr(m, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, tuple):
                    self._wrap_methods(obj, layer)

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(value, (classmethod, staticmethod)):
                wrapped = type(value)(self.wrap(value.__func__, name, layer))
            elif inspect.isfunction(value):
                wrapped = self.wrap(value, name, layer)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()


# --- arithmetic over recorded spans -------------------------------------------

def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(max(0.0, (s.end - s.start) - covered))
    return out


def _outermost(spans, indices, names) -> list[int]:
    """Indices whose span name is in *names* and has no ancestor also in *names*."""
    keep = []
    for i in indices:
        if spans[i].name not in names:
            continue
        p = spans[i].parent
        while p >= 0 and spans[p].name not in names:
            p = spans[p].parent
        if p < 0:
            keep.append(i)
    return keep


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def replay_metrics(spans, selfs, indices, command_walls) -> dict:
    """Per-layer metrics of one traced replay.

    *indices* are the replay's span indices in call order; *command_walls*
    holds the wall time of each command run as its own process, in the same
    order as the replay's root spans.
    """
    indices = list(indices)

    def total(*names):
        return sum(spans[i].end - spans[i].start for i in _outermost(spans, indices, set(names)))

    def counts(*names):
        return [spans[i].count for i in indices if spans[i].name in names]

    def calls(name):
        return sum(1 for i in indices if spans[i].name == name)

    m = {}
    traced_s = sum(spans[i].end - spans[i].start for i in indices if spans[i].name == ROOT)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in indices if spans[i].layer == layer)
        m[f"{layer}.self_pct"] = 100.0 * _ratio(m[f"{layer}.self_s"], traced_s)
    for layer in LAYERS[:-1]:
        m[f"{layer}.calls"] = sum(1 for i in indices if spans[i].layer == layer)

    m["store.load_vector_s"] = total("store.load_vector_table")
    m["store.save_vector_s"] = total("store.save_vector_table")
    m["store.load_sequence_s"] = total("store.load_sequence_table")
    m["store.align_s"] = total("store.align_by_id", "store.intersect_ids")
    m["store.bytes_read"] = sum(counts("store.load_vector_table", "store.load_sequence_table"))
    m["store.bytes_written"] = sum(counts("store.save_vector_table"))
    m["store.parse_mb_per_s"] = _ratio(m["store.bytes_read"] / 1e6,
                                       m["store.load_vector_s"] + m["store.load_sequence_s"])
    m["store.format_mb_per_s"] = _ratio(m["store.bytes_written"] / 1e6, m["store.save_vector_s"])
    m["modelio.write_model_s"] = total("modelio.write_model")
    m["modelio.read_model_s"] = total("modelio.read_model")
    m["ensembles.fit_svd_s"] = total("ensembles.fit_svd_meta")
    m["ensembles.fit_gcca_s"] = total("ensembles.fit_gcca")
    m["ensembles.apply_s"] = total("ensembles.SvdMetaModel.apply", "ensembles.GccaModel.apply")
    m["linalg.thin_svd_s"] = total("linalg.thin_svd")
    m["linalg.gen_sym_eig_s"] = total("linalg.gen_sym_eig")
    m["linalg.cholesky_s"] = total("linalg.cholesky")
    m["lstm.forward_s"] = total("lstm.BiLstm.forward")
    m["lstm.backward_s"] = total("lstm.BiLstm.backward")
    m["lstm.steps_per_s"] = _ratio(sum(counts("lstm.BiLstm.forward")), m["lstm.forward_s"])
    m["dynamic.train_pairs_per_s"] = _ratio(sum(counts("dynamic.train_dynamic")),
                                            total("dynamic.train_dynamic"))
    m["dynamic.loss_and_grads_s"] = total("dynamic.DynamicModel.loss_and_grads")
    m["dynamic.embed_sentences_per_s"] = _ratio(calls("dynamic.DynamicModel.embed"),
                                                total("dynamic.DynamicModel.embed"))
    m["optim.adam_steps"] = calls("optim.Adam.step")
    m["optim.adam_step_s"] = total("optim.Adam.step")
    m["evaluation.similarity_pairs_per_s"] = _ratio(sum(counts("evaluation.evaluate_similarity")),
                                                    total("evaluation.evaluate_similarity"))
    m["evaluation.classification_pairs_per_s"] = _ratio(
        sum(counts("evaluation.evaluate_classification")), total("evaluation.evaluate_classification"))
    probe_names = ("probes.probe_classification", "probes.probe_relatedness")
    m["probes.features_s"] = total("probes.pair_feature_matrix")
    m["probes.train_s"] = total(*probe_names)
    m["probes.epochs_per_s"] = _ratio(sum(c[1] for c in counts(*probe_names)), m["probes.train_s"])
    m["probes.rounds"] = sum(c[0] for c in counts(*probe_names))
    m["datasets.load_pairs_s"] = total("datasets.load_pair_dataset_tsv", "datasets.load_sick_official")
    m["datasets.examples_s"] = total("datasets.make_pair_examples")

    roots = [i for i in indices if spans[i].name == ROOT]
    if len(roots) != len(command_walls):
        raise ValueError(f"{len(roots)} commands replayed, {len(command_walls)} timed")
    layer_time = sum(selfs[i] for i in indices if spans[i].layer != "cli")
    m["cli.glue_s"] = sum(command_walls) - layer_time
    m["cli.glue_pct"] = 100.0 * _ratio(m["cli.glue_s"], sum(command_walls))
    return m


def command_layer_times(spans, selfs, indices) -> list[float]:
    """Per command of one replay, in order: the self time of every layer but ``cli``."""
    per_command: dict[str, float] = {}
    for i in indices:
        extra = selfs[i] if spans[i].layer != "cli" else 0.0
        per_command[spans[i].run] = per_command.get(spans[i].run, 0.0) + extra
    return list(per_command.values())


_UNITS = (("_pct", "%"), (".calls", "count"), ("adam_steps", "count"), ("rounds", "count"),
          ("bytes_read", "B"), ("bytes_written", "B"), ("_ratio", "ratio"), ("mb_per_s", "MB/s"),
          ("steps_per_s", "steps/s"), ("pairs_per_s", "pairs/s"), ("sentences_per_s", "sentences/s"),
          ("epochs_per_s", "epochs/s"), ("_s", "s"))


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name's suffix."""
    return next(unit for suffix, unit in _UNITS if name.endswith(suffix))


def median_metrics(per_replay: list) -> dict:
    return {key: statistics.median(r[key] for r in per_replay) for key in per_replay[0]}
