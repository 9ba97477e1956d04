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
the sha256 of each input's bytes as its loader parsed them (each input is
read once), the seed, and any headline metrics, so a result file can always
be traced back to what produced it.  Manifests hold nothing run-dependent
beyond that: rerunning a command with the same flags, seeds and inputs
rewrites every output file, manifest included, byte for byte.  ``eval``
without ``--out`` writes ``metaembed-eval.manifest.json`` in the working
directory.  ``eval`` prints its result as one JSON line ``{task, metric,
value, n, fingerprint}`` followed by the same report as an aligned table.

Exit codes: 0 on success, 3 when training aborts on a non-finite loss, 2 for
everything else (bad usage, bad files, bad math).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .datasets import TASKS, load_dataset, make_pair_examples, random_splits
from .ensembles import DEFAULT_TAU, GccaModel, SvdMetaModel, concat_views, fit_gcca, fit_svd_meta
from .errors import MetaEmbedError, NonFiniteLossError, ValidationError
from .modelio import read_model, sniff_model_kind
from .store import (
    EmbeddingTable,
    SequenceTable,
    intersect_ids,
    load_table,
    load_vector_table,
    save_vector_table,
)
from .textio import fmt, fmt_row, write_lines

__all__ = ["main", "build_parser"]

# the dynamic layer (and lstm, probes and evaluation) is imported only by the commands that run it
_ENSEMBLE_MODELS = {"SVDMETA": SvdMetaModel, "GCCA": GccaModel}
_DYNAMIC_KINDS = ("DME", "CDME")
_MODEL_KINDS = (*_ENSEMBLE_MODELS, *_DYNAMIC_KINDS)
_SVD_DEFAULT_CAP = 3072


def _flag_values(args) -> dict:
    return {key: value for key, value in vars(args).items()
            if not key.startswith("_") and key not in ("func", "command")}


def _write_manifest(args, inputs, digests, outputs, metrics=None):
    record = {
        "command": args.command,
        "argv": list(getattr(args, "_argv", [])),
        "flags": _flag_values(args),
        "version": __version__,
        "inputs": dict(zip(map(str, inputs), digests)),
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "metrics": metrics or {},
    }
    path = f"{outputs[0]}.manifest.json" if outputs else "metaembed-eval.manifest.json"
    write_lines(path, [json.dumps(record, indent=2, sort_keys=True)])


def _load_sequence_like(paths) -> list[SequenceTable]:
    """Load each path as a sequence table, viewing vector tables as length-1 sequences."""
    tables = [load_table(p) for p in paths]
    return [t if isinstance(t, SequenceTable) else SequenceTable.from_vector_table(t) for t in tables]


def _load_model(path):
    """``(kind, model)`` of the model file at *path*, of any kind, read once (so a pipe will do)."""
    mf = read_model(path, _MODEL_KINDS)
    if mf.magic in _DYNAMIC_KINDS:
        from .dynamic import DynamicModel
        return mf.magic, DynamicModel.from_file(mf)
    return mf.magic, _ENSEMBLE_MODELS[mf.magic].from_file(mf)


def _sentence_vectors(kind, model, paths, ids=None) -> tuple[EmbeddingTable, list]:
    """*model*'s vectors for *ids* (default: every shared id) from the tables at *paths*, and their digests.

    With no model, *paths* holds one table of sentence vectors that must cover *ids*; it is returned.
    """
    if model is None:
        table = load_vector_table(paths[0])
        missing = [i for i in ids if i not in table]
        if missing:
            raise ValidationError(
                f"{paths[0]}: missing vector(s) for {len(missing)} pair id(s), e.g. {missing[0]!r}"
            )
        return table, [table.digest]
    if kind in _DYNAMIC_KINDS:
        tables = _load_sequence_like(paths)
        shared = intersect_ids(tables)  # disjoint tables are refused even when *ids* is given
        from .evaluation import embed_table
        return embed_table(model, tables, shared if ids is None else ids), [t.digest for t in tables]
    ids, views, _, digests = _aligned_inputs(paths, ids)  # the tables are not held through the model's apply
    return EmbeddingTable(ids, model.apply(views)), digests


def _aligned_inputs(paths, ids=None):
    """``(ids, views, dropped, digests)`` of the vector tables at *paths*: each one's rows for *ids*
    (default: every id they share), the count of its ids that are not shared, and its digest."""
    tables = [load_vector_table(p) for p in paths]
    shared = intersect_ids(tables)  # disjoint tables are refused even when *ids* is given
    ids = shared if ids is None else ids
    return ids, [t.lookup(ids) for t in tables], [len(t) - len(shared) for t in tables], [t.digest for t in tables]


def cmd_combine(args) -> int:
    ids, views, dropped, digests = _aligned_inputs(args.inputs)
    table = EmbeddingTable(ids, concat_views(views))
    save_vector_table(args.out, table)
    _write_manifest(args, args.inputs, digests, [args.out], {"dropped": dropped})
    print(f"wrote {args.out}: {len(ids)} rows, width {table.dim}")
    return 0


def cmd_fit(args) -> int:
    if args.method != "gcca" and args.tau is not None:
        raise ValidationError("--tau only applies to gcca")
    ids, views, dropped, digests = _aligned_inputs(args.inputs)
    if args.method == "svd":
        d = args.d
        if d is None:
            d = min(_SVD_DEFAULT_CAP, sum(v.shape[1] for v in views), len(ids))
        model = fit_svd_meta(views, d)
    else:
        if args.d is None:
            raise ValidationError("gcca needs --d (the number of retained components)")
        model = fit_gcca(views, args.d, DEFAULT_TAU if args.tau is None else args.tau)
    model.save(args.out)
    metrics = {"dropped": dropped}
    if args.method == "gcca":
        metrics["residual_ratio"] = model.residual_ratio
    _write_manifest(args, args.inputs, digests, [args.out], metrics)
    print(f"wrote {args.out}: {args.method} model over {len(ids)} rows")
    print(f"retained_d {model.dim}")
    if args.method == "gcca":
        print("eigenvalues " + fmt_row(model.eigenvalues))
    return 0


def cmd_apply(args) -> int:
    kind, model = _load_model(args.model)
    out_table, digests = _sentence_vectors(kind, model, args.inputs)
    save_vector_table(args.out, out_table)
    _write_manifest(args, [args.model] + args.inputs, [model.digest] + digests, [args.out])
    print(f"wrote {args.out}: {len(out_table)} rows, width {out_table.dim}")
    return 0


def cmd_train(args) -> int:
    from .dynamic import TrainConfig, new_dynamic_model, train_dynamic
    from .evaluation import embed_table, evaluate_classification, pair_ids

    if args.mode == "dme" and args.m is not None:
        raise ValidationError("--m only applies to cdme (the attention recurrence width)")
    tables = _load_sequence_like(args.inputs)
    dataset = load_dataset(args.dataset)
    if dataset.splits is not None:
        train_idx = dataset.splits.train
        dev_idx = dataset.splits.dev
        if not len(train_idx):
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
             for part, indices in (("train", train_idx), ("dev", dev_idx)) if len(indices)]
    table = embed_table(model, tables, pair_ids(p for _, pairs in parts for p in pairs))
    for part, pairs in parts:
        report, _ = evaluate_classification(model, table, pairs, task=part)
        metrics[f"{part}_accuracy"] = report.value
        print(f"{part}_accuracy {report.value:.6f}")
    _write_manifest(args, args.inputs + [args.dataset], [t.digest for t in tables] + [dataset.digest],
                    [args.out, loss_csv], metrics)
    print(f"wrote {args.out}: {args.mode} model, {len(examples)} training pairs, "
          f"classes {' '.join(dataset.classes)}")
    return 0


def _splits_or_drawn(dataset, seed: int):
    """The dataset's own splits, or a seeded 70/10/20 draw when it has none."""
    drawn = dataset.splits is None
    splits = random_splits(len(dataset.pairs), seed=seed) if drawn else dataset.splits
    for name, part in zip(("train", "dev", "test"), splits):
        if not len(part):
            raise ValidationError(
                f"dataset {dataset.name!r}: empty {name} split; probes need train, dev and test pairs"
            )
    return splits, drawn


def cmd_eval(args) -> int:
    from .evaluation import (EvalReport, config_fingerprint, evaluate_classification, evaluate_similarity,
                             format_report_table, pair_ids)

    if args.model is None and len(args.inputs) != 1:
        raise ValidationError("without a model, give exactly one vector table of sentence vectors")
    dataset = load_dataset(args.dataset, args.task)
    kind, model = (None, None) if args.model is None else _load_model(args.model)
    metrics: dict = {}

    # a dynamic model scores a class task with its own pair head, on the test split if there is one
    head = kind in _DYNAMIC_KINDS and dataset.kind == "classes"
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
    table, digests = _sentence_vectors(kind, model, args.inputs, pair_ids(eval_pairs))
    inputs = [args.dataset] + args.inputs + ([args.model] if args.model else [])
    digests = [dataset.digest] + digests + ([model.digest] if args.model else [])
    if head:
        report, rows = evaluate_classification(model, table, eval_pairs, task=args.task)
    elif args.task == "sts":
        report, rows = evaluate_similarity(table, dataset.pairs, dataset.lo, dataset.hi, task=args.task)
    else:
        from .probes import ProbeConfig, pair_rows, probe_classification, probe_relatedness

        probe_config = ProbeConfig(batch_size=args.batch, tenacity=args.tenacity,
                                   epoch_size=args.epoch_size, seed=args.seed)
        splits, drawn = _splits_or_drawn(dataset, args.seed)
        parts = [[dataset.pairs[i] for i in part] for part in splits]
        data = []
        # the probe gathers every split's features from the table a block of rows at a time
        for part in parts:
            data += [pair_rows(table, part), [p.label for p in part]]
        if dataset.kind == "score":
            probe = probe_relatedness(*data, probe_config)
        else:
            probe = probe_classification(*data, dataset.classes, probe_config)
        fingerprint = config_fingerprint(args.task, probe.metric, digests, list(probe_config), drawn,
                                         [s.tolist() for s in splits])
        report = EvalReport(args.task, probe.metric, probe.test, probe.n_test, fingerprint)
        # rounds, best_round (an index into dev_curve), stopped_early and dev_curve
        metrics.update(dev=probe.dev, **probe.history._asdict())
        rows = [(p.id_a, p.id_b, p.label, pred) for p, pred in zip(parts[2], probe.test_predictions)]

    print(json.dumps(report._asdict()))
    print(format_report_table([report]))
    metrics.update((field, value) for field, value in report._asdict().items() if field != "task")
    if args.out:
        lines = ["id_a\tid_b\tgold\tpredicted"]
        lines += ["\t".join(fmt(c) if isinstance(c, float) else str(c) for c in row) for row in rows]
        write_lines(args.out, lines)
    _write_manifest(args, inputs, digests, [args.out] if args.out else [], metrics)
    return 0


def cmd_info(args) -> int:
    try:
        kind = sniff_model_kind(args.path)  # one chunk, so a table is not decoded whole to learn it is no model
    except MetaEmbedError:
        kind = None
    if kind in _MODEL_KINDS:
        described = _load_model(args.path)[1]
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
        import traceback
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
