"""Command-line interface.

Thin composition over the library: every subcommand parses flags, resolves
them against an optional JSON config file (flag beats config beats default),
calls the library, and writes artifacts that embed the resolved config (and,
for ``train``, the seed).  JSONL artifacts get a ``<out>.meta.json`` sidecar
instead, because their line format is fixed.  Artifacts carry no timestamps,
so rerunning an embedded config reproduces them byte for byte.

Exit codes: 0 success, 1 internal failure or training divergence, 2 usage, 3 a
file that cannot be read, parsed or written (a directory, bytes that are not
UTF-8, a corrupt archive), 4 schema/data mismatches (strict encode conflicts too,
and an eval corpus with no sentence to score).
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import codec, decoding, evaluate
from .core import InvalidInput, PairLinkError, RelationSchema, Triple
from .data import (
    STANDARDS,
    AlignmentError,
    LoadResult,
    ParseError,
    dataset_stats,
    format_stats,
    load_dataset,
    load_schema,
    read_json,
    read_lines,
    relation_names,
)
from .evaluate import format_report, micro_prf, subset_report
from .model import infer_batch, init_model, load_checkpoint, save_checkpoint
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_DATA = 4


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


# the JSON types a config value may take, by its option's type: numbers must
# be numbers (a JSON boolean is not one)
_CONFIG_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


class _Options:
    """Flag values layered over a JSON config file over defaults."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config: dict = {}
        self.config_path = getattr(args, "config", None)
        if self.config_path:
            self.config = read_json(self.config_path)
            if not isinstance(self.config, dict):
                raise ParseError(f"{self.config_path}: config must be a JSON object")
        self.resolved: dict = {}

    def get(self, name: str, default, kind: type | None = None):
        """The option's flag, else its config value, else ``default``.

        A config value must have the JSON type of the option, which is
        ``kind`` or else the type of ``default``; a ``None`` default also
        admits null.  It must also be one of the ``choices`` the option's
        flag declares, if any.  Anything else raises :class:`ParseError`.
        """
        value = getattr(self.args, name, None)
        if value is None and name in self.config:
            value = self.config[name]
            types, expected = _CONFIG_TYPES[kind or type(default)]
            choices = self.args.choices.get(name)
            if choices:
                expected = "one of " + ", ".join(map(json.dumps, choices))
            if ((type(value) not in types and not (value is None and default is None))
                    or (choices and value not in choices)):
                raise ParseError(f"{self.config_path}: config key {name!r} must be "
                                 f"{expected}, got {json.dumps(value)}")
        elif value is None:
            value = default
        self.resolved[name] = value
        return value

    def check_all_read(self) -> None:
        """Raise :class:`ParseError` for a config key no ``get`` has read; call before any work."""
        unread = [key for key in self.config if key not in self.resolved]
        if unread:
            raise ParseError(f"{self.config_path}: config key {unread[0]!r} is not "
                             f"an option of {self.args.command}")

    def provenance(self, command: str) -> dict:
        return {"command": command, "config": dict(sorted(self.resolved.items()))}


def _triple_obj(t: Triple, schema: RelationSchema) -> dict:
    return {
        "subject": [t.subject.head, t.subject.tail],
        "relation": schema.name_of(t.relation),
        "object": [t.object.head, t.object.tail],
    }


def _load_corpus(opts: _Options, path, schema, default_mode: str = "lenient") -> LoadResult:
    standard = opts.get("standard", "whole-span")
    mode = opts.get("mode", default_mode)
    result = load_dataset(path, schema, standard=standard, mode=mode)
    if result.skipped:
        print(
            f"warning: skipped {len(result.skipped)} record(s) from {path} "
            f"(first: line {result.skipped[0].line_no}: {result.skipped[0].reason})",
            file=sys.stderr,
        )
    return result


def cmd_encode(opts: _Options) -> int:
    args = opts.args
    schema = load_schema(args.schema)
    mode = opts.get("mode", "strict")
    result = _load_corpus(opts, args.data, schema, mode)
    opts.check_all_read()
    lines = []
    conflict_rows = []
    phantom_total = 0
    self_relating = 0
    for idx, ann in enumerate(result.annotations):
        tagging = codec.encode(ann, schema, mode=mode)
        conflicts = codec.detect_conflicts(ann, schema)
        for c in sorted(conflicts, key=lambda c: (c.kind, c.relation, c.pair)):
            conflict_rows.append(
                {
                    "sentence": idx,
                    "kind": c.kind,
                    "relation": schema.name_of(c.relation),
                    "pair": list(c.pair),
                    "tags": [c.existing_tag, c.incoming_tag],
                }
            )
        phantom_total += len(codec.phantom_triples(ann, schema))
        self_relating += len(codec.self_relating_triples(ann))
        lines.append(codec.dump_tagging_line(tagging, schema))
    _write(args.out, "\n".join(lines) + ("\n" if lines else ""))
    meta = opts.provenance("encode")
    meta["report"] = {
        "sentences": len(result.annotations),
        "skipped_records": [
            {"line": s.line_no, "reason": s.reason} for s in result.skipped
        ],
        "conflicts": conflict_rows,
        "phantom_triples": phantom_total,
        "self_relating_triples": self_relating,
    }
    _write(str(args.out) + ".meta.json", _dump_json(meta))
    print(
        f"encoded {len(result.annotations)} sentence(s) -> {args.out} "
        f"({len(conflict_rows)} conflict(s), {phantom_total} phantom triple(s))"
    )
    return EXIT_OK


def cmd_decode(opts: _Options) -> int:
    args = opts.args
    mode = opts.get("mode", "strict")
    opts.check_all_read()

    def decoded(line):  # one output line per tagging line, so no tagging is kept
        try:
            tagging, schema = codec.parse_tagging_line(line)
            triples = sorted(decoding.decode(tagging, schema, mode=mode))
        except InvalidInput as exc:  # a malformed line is a bad input file, whatever its fault
            raise ParseError(str(exc)) from None
        return json.dumps({"n": tagging.n, "triples": [_triple_obj(t, schema) for t in triples]},
                          separators=(",", ":"))

    out_lines = read_lines(args.data, decoded)[0]
    _write(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    _write(str(args.out) + ".meta.json", _dump_json(opts.provenance("decode")))
    print(f"decoded {len(out_lines)} tagging(s) -> {args.out}")
    return EXIT_OK


def cmd_stats(opts: _Options) -> int:
    args = opts.args
    paths = {}
    if args.data:
        paths["train"] = args.data
    if args.valid:
        paths["valid"] = args.valid
    if args.test:
        paths["test"] = args.test
    if not paths:
        raise InvalidInput("stats needs at least one of --data/--valid/--test")
    if args.schema:
        schema = load_schema(args.schema)
    else:
        names: set[str] = set()
        for path in paths.values():
            names.update(relation_names(path))
        if not names:
            raise InvalidInput("no relations found; supply --schema")
        schema = RelationSchema(tuple(sorted(names)))
    splits = {name: _load_corpus(opts, path, schema).annotations for name, path in paths.items()}
    opts.check_all_read()
    report = dataset_stats(splits, schema)
    print(format_stats(report))
    if args.out:
        payload = opts.provenance("stats")
        payload["stats"] = asdict(report)
        _write(args.out, _dump_json(payload))
    return EXIT_OK


def cmd_train(opts: _Options) -> int:
    args = opts.args
    schema = load_schema(args.schema)
    train_set = _load_corpus(opts, args.data, schema).annotations
    valid_set = _load_corpus(opts, args.valid, schema).annotations if args.valid else None
    default = TrainConfig()
    config = TrainConfig(
        learning_rate=float(opts.get("lr", default.learning_rate)),
        epochs=opts.get("epochs", default.epochs),
        batch_size=opts.get("batch_size", default.batch_size),
        seed=opts.get("seed", default.seed),
        optimizer=opts.get("optimizer", default.optimizer),
        early_stop_f1=opts.get("early_stop_f1", default.early_stop_f1, kind=float),
    )
    sizes = inspect.signature(init_model).parameters
    dims = {name: opts.get(name, sizes[name].default)
            for name in ("d_embed", "d_state", "d_pair")}
    opts.check_all_read()
    folder = Path(args.ckpt).parent  # checked now, so a long run cannot end unwritable
    if not (folder.is_dir() and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"{args.ckpt}: {folder} is not a writable directory")
    result = train(train_set, schema, config, valid=valid_set, **dims)
    extra = opts.provenance("train")
    extra["seed"] = config.seed
    extra["history"] = [
        {"epoch": h.epoch, "loss": h.loss, "f1": h.f1} for h in result.history
    ]
    extra["best_epoch"] = result.best_epoch
    extra["diverged"] = result.diverged
    path = save_checkpoint(args.ckpt, result.params, schema, extra=extra)
    best = max((h.f1 for h in result.history), default=0.0)
    print(
        f"trained {len(result.history)} epoch(s); best exact-match F1 {best:.4f} "
        f"(epoch {result.best_epoch}) -> {path}"
    )
    if result.diverged:
        print(
            "error: training diverged; checkpoint holds the best-scoring parameters "
            "(the initial ones if no epoch completed)",
            file=sys.stderr,
        )
        return EXIT_FAILURE
    return EXIT_OK


def cmd_eval(opts: _Options) -> int:
    args = opts.args
    params, schema, _ = load_checkpoint(args.ckpt)
    annotations = _load_corpus(opts, args.data, schema).annotations
    match = opts.get("match", "partial")
    opts.check_all_read()
    if not annotations:  # scoring nothing would report a vacuous F1 of 1.0
        raise InvalidInput(f"{args.data}: no sentence to score")
    golds = [set(ann.triples) for ann in annotations]
    preds = infer_batch([ann.tokens for ann in annotations], params, schema)
    payload = opts.provenance("eval")
    if args.by_subset:
        report = subset_report(preds, golds, annotations, mode=match)
        print(format_report(report))
        payload["report"] = asdict(report)
    else:
        scores = micro_prf(preds, golds, mode=match)
        print(
            f"match mode: {match}\n"
            f"  precision {scores.precision:.4f}  recall {scores.recall:.4f}  "
            f"f1 {scores.f1:.4f}  (gold {scores.n_gold}, predicted {scores.n_predicted})"
        )
        payload["report"] = asdict(scores)
    if args.out:
        _write(args.out, _dump_json(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairlink",
        description="Token-pair link tagging: encode, decode, train, and score relation triples.",
        epilog="exit codes: 0 ok, 1 failure, 2 usage, 3 bad file or path, 4 schema/data mismatch",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def corpus(p: argparse.ArgumentParser) -> None:
        p.add_argument("--standard", choices=STANDARDS, default=None)
        p.add_argument("--mode", choices=codec.MODES, default=None)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        # a config value is held to the same choices as its flag
        p.set_defaults(choices={a.dest: a.choices for a in p._actions if a.choices})

    p = sub.add_parser("encode", help="dataset JSONL -> tagging JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True)
    corpus(p)
    common(p)

    p = sub.add_parser("decode", help="tagging JSONL -> triples JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=codec.MODES, default=None)
    common(p)

    p = sub.add_parser("stats", help="corpus statistics (patterns, buckets, sizes)")
    p.add_argument("--data", help="training split JSONL")
    p.add_argument("--valid", help="validation split JSONL")
    p.add_argument("--test", help="test split JSONL")
    p.add_argument("--schema", help="relation schema (derived from data when omitted)")
    p.add_argument("--out", help="write the report as JSON here")
    corpus(p)
    common(p)

    p = sub.add_parser("train", help="fit a tagger and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--valid")
    p.add_argument("--schema", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    corpus(p)
    common(p)

    p = sub.add_parser("eval", help="score a checkpoint against gold annotations")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out")
    p.add_argument("--match", choices=evaluate.MATCH_MODES, default=None)
    p.add_argument("--by-subset", dest="by_subset", action="store_true",
                   help="also break scores down by overlap pattern and triple count")
    corpus(p)
    common(p)

    return parser


_COMMANDS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "stats": cmd_stats,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](_Options(args))
    except (OSError, ParseError) as exc:  # any file that cannot be opened, read or written
        code, error = EXIT_INPUT, exc
    except (codec.EncodeConflictError, InvalidInput, AlignmentError) as exc:
        code, error = EXIT_DATA, exc
    except PairLinkError as exc:
        code, error = EXIT_FAILURE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
