"""Batch command-line interface.

Subcommands:

* combine: concatenate vector tables over their shared ids.
* fit:     fit an SVD or GCCA ensemble model on vector tables.
* apply:   run any fitted model over tables, writing a vector table.
* train:   train a DME or CDME combiner on labeled sentence pairs.
* eval:    evaluate embeddings or a model on a sentence-pair task.
* info:    describe a model or table file.

Input tables are always aligned over the sorted intersection of their ids.
Every command that writes an output also writes ``<output>.manifest.json``
recording the command line, resolved flag values, the package version,
sha256 digests of the inputs, the seed, and any headline metrics, so a
result file can always be traced back to what produced it.  Manifests hold
nothing run-dependent beyond that: rerunning a command with the same flags,
seeds and inputs rewrites every output file, manifest included, byte for
byte.  ``eval`` without ``--out`` writes ``metaembed-eval.manifest.json`` in
the working directory.  ``eval`` prints its result as one JSON line
``{task, metric, value, n, fingerprint}`` followed by the same report as an
aligned table.

Exit codes: 0 on success, 3 when training aborts on a non-finite loss, 2 for
everything else (bad usage, bad files, bad math).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback

from . import __version__
from .datasets import TASKS, load_dataset, make_pair_examples, random_splits
from .dynamic import DynamicModel, TrainConfig, new_dynamic_model, train_dynamic
from .ensembles import DEFAULT_TAU, GccaModel, SvdMetaModel, concat_views, fit_gcca, fit_svd_meta
from .errors import MetaEmbedError, NonFiniteLossError, ValidationError
from .evaluation import (
    EvalReport,
    config_fingerprint,
    embed_table,
    evaluate_classification,
    evaluate_similarity,
    format_report_table,
)
from .modelio import sniff_model_kind
from .probes import ProbeConfig, pair_feature_matrix, pair_rows, probe_classification, probe_relatedness
from .store import (
    EmbeddingTable,
    SequenceTable,
    align_by_id,
    intersect_ids,
    load_table,
    load_vector_table,
    save_vector_table,
)
from .textio import fmt, fmt_row, write_lines

__all__ = ["main", "build_parser"]

_MODEL_CLASSES = {"SVDMETA": SvdMetaModel, "GCCA": GccaModel, "DME": DynamicModel, "CDME": DynamicModel}
_SVD_DEFAULT_CAP = 3072


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _flag_values(args) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in vars(args).items():
        if key.startswith("_") or key in skip:
            continue
        out[key] = value
    return out


def _write_manifest(out_paths, manifest_path, args, digests, metrics=None):
    record = {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "flags": _flag_values(args),
        "version": __version__,
        "inputs": digests,
        "outputs": [str(p) for p in out_paths],
        "seed": getattr(args, "seed", None),
        "metrics": metrics or {},
    }
    write_lines(manifest_path, [json.dumps(record, indent=2, sort_keys=True)])


def _digests(paths) -> dict:
    return {str(p): _sha256(p) for p in paths}


def _load_sequence_like(paths) -> list[SequenceTable]:
    """Load each path as a sequence table, viewing vector tables as length-1 sequences."""
    tables = [load_table(p) for p in paths]
    return [t if isinstance(t, SequenceTable) else SequenceTable.from_vector_table(t) for t in tables]


def _pair_ids(pairs) -> list[str]:
    """Every id the pairs mention, once each, in order of first mention."""
    return list(dict.fromkeys(ident for p in pairs for ident in (p.id_a, p.id_b)))


def _load_model(path):
    kind = sniff_model_kind(path)
    if kind not in _MODEL_CLASSES:
        raise ValidationError(
            f"{path}: unknown model kind {kind!r}; expected one of {tuple(_MODEL_CLASSES)}"
        )
    return _MODEL_CLASSES[kind].load(path)


def _sentence_vectors(model, paths, ids=None) -> EmbeddingTable:
    """*model*'s vectors for *ids* (default: every shared id) from the tables at *paths*.

    With no model, *paths* holds one table of sentence vectors that must cover *ids*.
    """
    if model is None:
        table = load_vector_table(paths[0])
        missing = [i for i in ids if i not in table]
        if missing:
            raise ValidationError(
                f"{paths[0]}: missing vector(s) for {len(missing)} pair id(s), e.g. {missing[0]!r}"
            )
        return EmbeddingTable(ids, table.lookup(ids), copy=False)
    dynamic = isinstance(model, DynamicModel)
    tables = _load_sequence_like(paths) if dynamic else [load_vector_table(p) for p in paths]
    if ids is None:
        ids = intersect_ids(tables)
        if not ids:
            sizes = ", ".join(str(len(t)) for t in tables)
            raise ValidationError(f"no shared ids across the {len(tables)} table(s) (sizes: {sizes})")
    if dynamic:
        return embed_table(model, tables, ids)
    return EmbeddingTable(ids, model.apply([t.lookup(ids) for t in tables]), copy=False)


def cmd_combine(args) -> int:
    tables = [load_vector_table(p) for p in args.inputs]
    aligned = align_by_id(tables)
    ids, mats = aligned
    save_vector_table(args.out, EmbeddingTable(ids, concat_views(mats), copy=False))
    _write_manifest([args.out], f"{args.out}.manifest.json", args, _digests(args.inputs),
                    metrics={"dropped": list(aligned.dropped)})
    print(f"wrote {args.out}: {len(ids)} rows, width {sum(t.dim for t in tables)}")
    return 0


def cmd_fit(args) -> int:
    if args.method != "gcca" and args.tau is not None:
        raise ValidationError("--tau only applies to gcca")
    tables = [load_vector_table(p) for p in args.inputs]
    aligned = align_by_id(tables)
    ids, mats = aligned
    if args.method == "svd":
        d = args.d
        if d is None:
            d = min(_SVD_DEFAULT_CAP, sum(m.shape[1] for m in mats), len(ids))
        model = fit_svd_meta(mats, d)
    else:
        if args.d is None:
            raise ValidationError("gcca needs --d (the number of retained components)")
        model = fit_gcca(mats, args.d, DEFAULT_TAU if args.tau is None else args.tau)
    model.save(args.out)
    _write_manifest([args.out], f"{args.out}.manifest.json", args, _digests(args.inputs),
                    metrics={"dropped": list(aligned.dropped)})
    print(f"wrote {args.out}: {args.method} model over {len(ids)} rows")
    print(f"retained_d {model.dim}")
    if args.method == "gcca":
        print("eigenvalues " + fmt_row(model.eigenvalues))
    return 0


def cmd_apply(args) -> int:
    out_table = _sentence_vectors(_load_model(args.model), args.inputs)
    save_vector_table(args.out, out_table)
    _write_manifest([args.out], f"{args.out}.manifest.json", args,
                    _digests([args.model] + args.inputs))
    print(f"wrote {args.out}: {len(out_table)} rows, width {out_table.dim}")
    return 0


def cmd_train(args) -> int:
    if args.mode == "dme" and args.m is not None:
        raise ValidationError("--m only applies to cdme (the attention recurrence width)")
    tables = _load_sequence_like(args.inputs)
    dataset = load_dataset(args.dataset)
    if dataset.splits is not None:
        train_idx = dataset.splits.train
        dev_idx = dataset.splits.dev
        if not train_idx:
            raise ValidationError(f"{args.dataset}: no pairs in the train split")
    else:
        drawn = random_splits(len(dataset.pairs), seed=args.seed, ratios=(0.9, 0.1, 0.0))
        train_idx, dev_idx = drawn.train, drawn.dev
    examples = make_pair_examples(dataset, tables, train_idx)
    model = new_dynamic_model(args.mode, [t.dim for t in tables], dataset.classes,
                              args.d_prime, args.m_enc, args.m, seed=args.seed)
    config = TrainConfig(epochs=args.epochs, lr=args.lr, batch_size=args.batch, seed=args.seed)
    history = train_dynamic(model, examples, config)
    model.save(args.out)
    loss_csv = f"{args.out}.loss.csv"
    write_lines(loss_csv, ["epoch,mean_loss"]
                + [f"{i},{fmt(loss)}" for i, loss in enumerate(history, start=1)])
    metrics: dict = {"epoch_losses": history}
    parts = [(part, [dataset.pairs[i] for i in indices])
             for part, indices in (("train", train_idx), ("dev", dev_idx)) if indices]
    table = embed_table(model, tables, _pair_ids(p for _, pairs in parts for p in pairs))
    for part, pairs in parts:
        report, _ = evaluate_classification(model, table, pairs, task=part)
        metrics[f"{part}_accuracy"] = report.value
        print(f"{part}_accuracy {report.value:.6f}")
    _write_manifest([args.out, loss_csv], f"{args.out}.manifest.json", args,
                    _digests(args.inputs + [args.dataset]), metrics=metrics)
    print(f"wrote {args.out}: {args.mode} model, {len(examples)} training pairs, "
          f"classes {' '.join(dataset.classes)}")
    return 0


def _splits_or_drawn(dataset, seed: int):
    """The dataset's own splits, or a seeded 70/10/20 draw when it has none."""
    drawn = dataset.splits is None
    splits = random_splits(len(dataset.pairs), seed=seed) if drawn else dataset.splits
    for name, part in zip(("train", "dev", "test"), splits):
        if not part:
            raise ValidationError(
                f"dataset {dataset.name!r}: empty {name} split; probes need train, dev and test pairs"
            )
    return splits, drawn


def _emit_report(report: EvalReport) -> None:
    print(json.dumps({"task": report.task, "metric": report.metric, "value": report.value,
                      "n": report.n, "fingerprint": report.fingerprint}))
    print(format_report_table([report]))


def cmd_eval(args) -> int:
    if not args.inputs:
        raise ValidationError("--inputs is required")
    if args.model is None and len(args.inputs) != 1:
        raise ValidationError("without a model, give exactly one vector table of sentence vectors")
    dataset = load_dataset(args.dataset, args.task)
    probe_config = ProbeConfig(batch_size=args.batch, tenacity=args.tenacity,
                               epoch_size=args.epoch_size, seed=args.seed)
    inputs = [args.dataset] + args.inputs + ([args.model] if args.model else [])
    digests = _digests(inputs)
    model = None if args.model is None else _load_model(args.model)
    metrics: dict = {}

    # a dynamic model scores a class task with its own pair head, on the test split if there is one
    head = isinstance(model, DynamicModel) and dataset.kind == "classes"
    eval_pairs = dataset.pairs
    if head:
        unknown = [c for c in dataset.classes if c not in model.classes]
        if unknown:
            raise ValidationError(
                f"model classes {list(model.classes)} do not cover task classes {list(dataset.classes)}"
            )
        if dataset.splits is not None:
            eval_pairs = dataset.split_pairs("test")
            if not eval_pairs:
                raise ValidationError(f"{args.dataset}: no pairs in the test split")
    table = _sentence_vectors(model, args.inputs, _pair_ids(eval_pairs))
    if head:
        report, rows = evaluate_classification(model, table, eval_pairs, task=args.task)
    elif args.task == "sts":
        report, rows = evaluate_similarity(table, dataset.pairs, dataset.lo, dataset.hi, task=args.task)
    else:
        splits, drawn = _splits_or_drawn(dataset, args.seed)
        parts = [[dataset.pairs[i] for i in part] for part in splits]
        data = []
        # the probe gathers train features per minibatch; dev and test are scored whole
        for features, part in zip((pair_rows, pair_feature_matrix, pair_feature_matrix), parts):
            data += [features(table, part), [p.label for p in part]]
        if dataset.kind == "score":
            probe = probe_relatedness(*data, probe_config)
        else:
            probe = probe_classification(*data, dataset.classes, probe_config)
        fingerprint = config_fingerprint(args.task, probe.metric, [digests[str(p)] for p in inputs],
                                         list(probe_config), drawn, list(splits))
        report = EvalReport(args.task, probe.metric, probe.test, probe.n_test, fingerprint)
        metrics.update(dev=probe.dev, rounds=probe.history.rounds)
        rows = [(p.id_a, p.id_b, p.label, pred) for p, pred in zip(parts[2], probe.test_predictions)]

    _emit_report(report)
    metrics.update(metric=report.metric, value=report.value, n=report.n,
                   fingerprint=report.fingerprint)
    if args.out:
        lines = ["id_a\tid_b\tgold\tpredicted"]
        lines += ["\t".join(fmt(c) if isinstance(c, float) else str(c) for c in row) for row in rows]
        write_lines(args.out, lines)
        out_paths = [args.out]
        manifest_path = f"{args.out}.manifest.json"
    else:
        out_paths = []
        manifest_path = "metaembed-eval.manifest.json"
    _write_manifest(out_paths, manifest_path, args, digests, metrics=metrics)
    return 0


def cmd_info(args) -> int:
    try:
        kind = sniff_model_kind(args.path)
    except MetaEmbedError:
        kind = None
    if kind in _MODEL_CLASSES:
        described = _MODEL_CLASSES[kind].load(args.path)
    else:
        described = load_table(args.path)
        kind = described.KIND
    print("\n".join([f"kind {kind}"] + described.describe()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaembed",
        description="combine embedding tables and evaluate the results on sentence-pair tasks",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p, what):
        p.add_argument("--inputs", nargs="+", action="extend", required=True,
                       metavar="PATH", help=what)

    p = sub.add_parser("combine", help="concatenate vector tables over shared ids")
    p.add_argument("--method", choices=("con",), required=True)
    add_inputs(p, "input vector tables")
    p.add_argument("--out", required=True, help="output vector table")
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest (default 0)")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("fit", help="fit an ensemble model on vector tables")
    p.add_argument("--method", choices=("svd", "gcca"), required=True)
    add_inputs(p, "input vector tables")
    p.add_argument("--d", type=int, default=None,
                   help="output dimensionality (svd default: min(3072, total width, rows))")
    p.add_argument("--tau", type=float, default=None,
                   help=f"gcca covariance regularizer (default {DEFAULT_TAU:g})")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest (default 0)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("apply", help="apply a fitted model, writing a vector table")
    p.add_argument("model", help="fitted model file")
    add_inputs(p, "input tables, one per source (vector, or sequence for dme/cdme)")
    p.add_argument("--out", required=True, help="output vector table")
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest (default 0)")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("train", help="train a dynamic combiner on labeled pairs")
    p.add_argument("--mode", choices=("dme", "cdme"), required=True)
    add_inputs(p, "sequence tables, one per source")
    p.add_argument("--dataset", required=True, help="labeled pair TSV (canonical or official)")
    p.add_argument("--d-prime", type=int, default=64, help="shared projection width (default 64)")
    p.add_argument("--m", type=int, default=None,
                   help="cdme attention recurrence width (default 2)")
    p.add_argument("--m-enc", type=int, default=64, help="encoder hidden size (default 64)")
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output model file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate on a sentence-pair task")
    p.add_argument("task", choices=TASKS)
    p.add_argument("model", nargs="?", default=None,
                   help="fitted model producing sentence vectors (omit to evaluate --inputs directly)")
    add_inputs(p, "one vector table of sentence vectors, or the model's source tables")
    p.add_argument("--dataset", required=True, help="pair TSV (canonical or official)")
    p.add_argument("--batch", type=int, default=64, help="probe batch size (default 64)")
    p.add_argument("--tenacity", type=int, default=5, help="probe early-stop patience (default 5)")
    p.add_argument("--epoch-size", type=int, default=4, help="probe epochs per round (default 4)")
    p.add_argument("--seed", type=int, default=0, help="split and probe seed")
    p.add_argument("--out", help="write per-pair predictions to this TSV")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("info", help="describe a model or table file")
    p.add_argument("path")
    p.set_defaults(func=cmd_info)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MetaEmbedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
