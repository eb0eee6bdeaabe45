"""The four benchmark workloads: their inputs, one timed pass, and output checks.

Every workload is closed-loop and single-process: the next call starts only
after the previous one returned.  A run repeats passes over inputs that are
built once in ``setup``; each pass does the same work, so the median pass
gives the throughput.  At paper scale, sentence lengths are an evenly spaced
grid over 20-100 tokens, so every seed gets the same length mix (the property
cost depends on most) and the seed changes the tokens, triples and order.

Calls into pairlink go through module attributes (``model.infer(...)``, not a
name bound at import), so a traced run can wrap them; see ``tracing.py``.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from pairlink.core import RelationSchema

# import_module, because the package re-exports a function under the name ``train``
codec, core, data, decoding, evaluate, model, synth, train = (
    importlib.import_module(f"pairlink.{name}")
    for name in ("codec", "core", "data", "decoding", "evaluate", "model", "synth", "train")
)

PAPER_SCHEMA = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
PAPER_LENGTHS = (20, 100)
PAPER_DIMS = {"d_embed": 64, "d_state": 32, "d_pair": 64}
PAPER_WORDS = [f"w{i:04d}" for i in range(2000)]

TOY_SCHEMA = RelationSchema(("r0", "r1"))
TOY_SENTENCES = 20
TOY_DIMS = {"d_embed": 32, "d_state": 16, "d_pair": 32}
TOY_DATA_SEED = TOY_TRAIN_SEED = 0  # acceptance criterion 5

TRAIN_BATCHES = 6
TRAIN_BATCH_SIZE = 6
TRAIN_LR = 1e-2
INFER_SENTENCES = 48
INFER_BATCH_SIZE = 24
LINK_SHARE = 1e-3  # share of cells the raised tag-0 bias leaves predicting a link
CALIBRATION_SENTENCES = 4
CODEC_SENTENCES = 48
N100_REPEATS = 5


@dataclass
class PassResult:
    """One pass: time spent inside pairlink calls, per-op times and check tallies."""

    seconds: float = 0.0
    sentences: int = 0
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)  # compared across passes and with tracing
    useful: int = 0  # emitted triples that are gold
    emitted: int = 0
    epochs: int = 0
    costs: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def score(self, predicted: set, gold: set) -> None:
        self.useful += len(predicted & gold)
        self.emitted += len(predicted)


# --- inputs -------------------------------------------------------------------


def spread_lengths(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` lengths evenly spaced over [lo, hi], in an order drawn from ``rng``."""
    lengths = [lo + round(k * (hi - lo) / (count - 1)) for k in range(count)]
    rng.shuffle(lengths)
    return lengths


def paper_annotation(rng: random.Random, n: int):
    """An n-token sentence with 1-8 triples over the 24-relation schema."""
    return synth.random_annotation(
        rng, PAPER_SCHEMA, n_min=n, n_max=n, min_triples=1, max_triples=8,
        vocab=PAPER_WORDS,
    )


def write_corpus(path: Path, annotations, schema: RelationSchema) -> None:
    """The on-disk dataset format, with entities given as character offsets."""
    with open(path, "w", encoding="utf-8") as fh:
        for ann in annotations:
            starts, pos = [], 0
            for tok in ann.tokens:
                starts.append(pos)
                pos += len(tok) + 1

            def ref(span):
                return [starts[span.head], starts[span.tail] + len(ann.tokens[span.tail])]

            triples = [[ref(t.subject), schema.name_of(t.relation), ref(t.object)]
                       for t in ann.triples]
            fh.write(json.dumps({"text": " ".join(ann.tokens), "triple_list": triples}) + "\n")


def param_bytes(params) -> list[bytes]:
    return [arr.tobytes() for arr in model.named_tensors(params).values()]


# --- computed operation counts ----------------------------------------------------


def contraction_costs(n: int, batch: int, params, backward: bool) -> dict[str, float]:
    """Flops and bytes of the pair kernel and head contractions, from tensor shapes.

    One forward over ``batch`` sentences of ``n`` tokens: the kernel is
    (B*P, 2d) @ (2d, d_pair) and the heads (B*P, d_pair) x (T, 3, d_pair).
    Bytes count each operand read and the result written once, 8 bytes per
    element; copies NumPy makes on the way are not counted.  The backward adds
    two contractions of the same size per layer (weight and input gradients).
    """
    rows = batch * core.seq_length(n)
    d2 = params.kernel.weight.shape[1]
    dp = params.kernel.weight.shape[0]
    heads = params.taggers.n_taggers * 3
    kernel_flops = 2 * rows * d2 * dp
    kernel_bytes = 8 * (rows * d2 + dp * d2 + rows * dp)
    head_flops = 2 * rows * dp * heads
    head_bytes = 8 * (rows * dp + heads * dp + rows * heads)
    factor = 3 if backward else 1
    return {
        "model.pair_kernel.flops": factor * kernel_flops,
        "model.pair_kernel.bytes": factor * kernel_bytes,
        "model.heads.flops": factor * head_flops,
        "model.heads.bytes": factor * head_bytes,
        "model.x_pair.max_bytes": 8 * rows * d2,
    }


def add_costs(total: dict[str, float], part: dict[str, float], times: int = 1) -> None:
    for key, value in part.items():
        if key.endswith(".max_bytes"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + times * value


# --- workloads -------------------------------------------------------------------


class FitToy:
    """Acceptance criterion 5, replayed exactly whatever the seed.

    Its data seed and train seed are the acceptance suite's, so every pass
    repeats the same fit and epochs_to_f1 is the suite's exact count.  Seeded
    datasets do not all reach F1 = 1.0 within the 500-epoch cap, and the check
    would then fail for a reason that is not a wrong output.
    """

    name = "fit_toy"
    op = "one single-sentence infer call of the exact-match check after the fit"

    def setup(self, seed: int, workdir: Path):
        dataset = synth.synthetic_dataset(random.Random(TOY_DATA_SEED), TOY_SCHEMA,
                                          TOY_SENTENCES)
        config = train.TrainConfig(learning_rate=1e-2, epochs=500, batch_size=6,
                                   seed=TOY_TRAIN_SEED, optimizer="adam", early_stop_f1=1.0)
        return {"dataset": dataset, "config": config}

    def run_pass(self, state, index: int) -> PassResult:
        result = PassResult()
        dataset, config = state["dataset"], state["config"]
        start = perf_counter()
        fit = train.train(dataset, TOY_SCHEMA, config, **TOY_DIMS)
        result.seconds += perf_counter() - start
        result.epochs = len(fit.history)
        preds, golds = [], []
        for ann in dataset:
            start = perf_counter()
            pred = model.infer(ann.tokens, fit.params, TOY_SCHEMA)
            elapsed = perf_counter() - start
            result.seconds += elapsed
            result.op_ms.append(elapsed * 1e3)
            gold = set(ann.triples)
            result.check(pred == gold)
            result.score(pred, gold)
            preds.append(pred)
            golds.append(gold)
        start = perf_counter()
        f1 = evaluate.micro_prf(preds, golds, mode="exact").f1
        result.seconds += perf_counter() - start
        result.check(f1 == 1.0 and not fit.diverged and fit.history[-1].f1 == 1.0
                     and result.epochs <= config.epochs)
        # sentence-epochs: a training and an evaluation visit per epoch, plus the check
        result.sentences = len(dataset) * (2 * result.epochs + 1)
        result.outputs = [[(h.epoch, h.loss, h.f1) for h in fit.history],
                          param_bytes(fit.params), preds]
        for ann in dataset:
            n = ann.n
            add_costs(result.costs, contraction_costs(n, 1, fit.params, True), result.epochs)
            add_costs(result.costs, contraction_costs(n, 1, fit.params, False),
                      result.epochs + 1)
        return result

    def probe_examples(self, state):
        dataset = state["dataset"]
        vocab = model.build_vocab(ann.tokens for ann in dataset)
        params = model.init_model(TOY_SCHEMA, vocab, **TOY_DIMS)
        return params, [(a.tokens, codec.encode(a, TOY_SCHEMA, mode="lenient")) for a in dataset]


class TrainPaper:
    name = "train_paper"
    op = "one train step: gradient plus Adam.step on a batch of 6 sentences"

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        # batch b takes the b-th length of every slice of the sorted grid, so each
        # batch spans 20-100 tokens and all batches cost about the same
        grid = sorted(spread_lengths(rng, TRAIN_BATCHES * TRAIN_BATCH_SIZE, *PAPER_LENGTHS))
        anns = [[paper_annotation(rng, grid[s * TRAIN_BATCHES + b])
                 for s in range(TRAIN_BATCH_SIZE)] for b in range(TRAIN_BATCHES)]
        rng.shuffle(anns)
        vocab = model.build_vocab(a.tokens for batch in anns for a in batch)
        params = model.init_model(PAPER_SCHEMA, vocab, seed=seed, **PAPER_DIMS)
        batches = [[(a.tokens, codec.encode(a, PAPER_SCHEMA, mode="lenient")) for a in batch]
                   for batch in anns]
        return {"params": params, "batches": batches}

    def run_pass(self, state, index: int) -> PassResult:
        # every pass trains the same initial model, so passes repeat bit for bit
        result = PassResult()
        params = model.clone_params(state["params"])
        tensors = model.named_tensors(params)
        optimizer = train.Adam(TRAIN_LR)
        losses = []
        for batch in state["batches"]:
            start = perf_counter()
            loss, grads = model.gradient(batch, params)
            optimizer.step(tensors, grads)
            elapsed = perf_counter() - start
            result.seconds += elapsed
            result.op_ms.append(elapsed * 1e3)
            result.sentences += len(batch)
            losses.append(loss)
            result.check(math.isfinite(loss))
            for tokens, _ in batch:
                add_costs(result.costs, contraction_costs(len(tokens), 1, params, True))
        result.check(losses[-1] < losses[0])
        result.outputs = [losses, param_bytes(params)]
        return result

    def probe_examples(self, state):
        return state["params"], [ex for batch in state["batches"] for ex in batch]


class InferPaper:
    name = "infer_paper"
    op = "one single-sentence infer call"

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        anns = [paper_annotation(rng, n)
                for n in spread_lengths(rng, INFER_SENTENCES, *PAPER_LENGTHS)]
        vocab = model.build_vocab(a.tokens for a in anns)
        params = model.init_model(PAPER_SCHEMA, vocab, seed=seed, **PAPER_DIMS)
        by_length = sorted(anns, key=lambda a: a.n)
        step = len(by_length) // CALIBRATION_SENTENCES
        params.taggers.bias[:, 0] += link_bias_raise(params, by_length[::step])
        path = model.save_checkpoint(workdir / "infer_paper.npz", params, PAPER_SCHEMA)
        params, schema, _ = model.load_checkpoint(path)
        return {"params": params, "schema": schema, "annotations": anns}

    def run_pass(self, state, index: int) -> PassResult:
        result = PassResult()
        params, schema, anns = state["params"], state["schema"], state["annotations"]
        sentences = [a.tokens for a in anns]
        start = perf_counter()
        batched = model.infer_batch(sentences, params, schema, batch_size=INFER_BATCH_SIZE)
        result.seconds += perf_counter() - start
        for tokens, ann, from_batch in zip(sentences, anns, batched):
            start = perf_counter()
            single = model.infer(tokens, params, schema)
            elapsed = perf_counter() - start
            result.seconds += elapsed
            result.op_ms.append(elapsed * 1e3)
            result.check(single == from_batch)
            result.score(single, set(ann.triples))
        golds = [set(a.triples) for a in anns]
        start = perf_counter()
        scores = evaluate.micro_prf(batched, golds, mode="exact")
        result.seconds += perf_counter() - start
        result.sentences = 2 * len(sentences)
        result.outputs = [batched, scores]
        for n, size in batch_groups(sentences):
            add_costs(result.costs, contraction_costs(n, size, params, False))
        for tokens in sentences:
            add_costs(result.costs, contraction_costs(len(tokens), 1, params, False))
        return result

    def probe_examples(self, state):
        return state["params"], [(a.tokens, codec.encode(a, PAPER_SCHEMA, mode="lenient"))
                                 for a in state["annotations"]]


class CodecPaper:
    name = "codec_paper"
    op = "one sentence's encode, dump_tagging_line, parse_tagging_line and decode"

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        anns = [paper_annotation(rng, n)
                for n in spread_lengths(rng, CODEC_SENTENCES, *PAPER_LENGTHS)]
        path = workdir / "codec_paper.jsonl"
        write_corpus(path, anns, PAPER_SCHEMA)
        return {"path": path, "annotations": anns}

    def run_pass(self, state, index: int) -> PassResult:
        result = PassResult()
        schema = PAPER_SCHEMA
        start = perf_counter()
        loaded = data.load_dataset(state["path"], schema, mode="strict").annotations
        result.seconds += perf_counter() - start
        result.check(len(loaded) == len(state["annotations"]))
        oracle_at = index % len(loaded)  # decode_oracle checks one sentence per pass
        for k, (ann, want) in enumerate(zip(loaded, state["annotations"])):
            start = perf_counter()
            tagging = codec.encode(ann, schema)
            line = codec.dump_tagging_line(tagging, schema)
            parsed, parsed_schema = codec.parse_tagging_line(line)
            triples = decoding.decode(parsed, parsed_schema, mode="strict")
            elapsed = perf_counter() - start
            result.seconds += elapsed
            result.op_ms.append(elapsed * 1e3)
            gold = set(want.triples)
            ok = ann.tokens == want.tokens and triples == gold and parsed == tagging
            if k == oracle_at:
                ok = ok and decoding.decode_oracle(parsed, parsed_schema) == triples
            result.check(ok)
            result.score(triples, gold)
            result.outputs.append(triples)
        result.sentences = len(loaded)
        return result

    def probe_examples(self, state):
        return None, []


WORKLOADS = {w.name: w for w in (FitToy(), TrainPaper(), InferPaper(), CodecPaper())}


def link_bias_raise(params, anns) -> float:
    """Tag-0 bias raise that leaves ``LINK_SHARE`` of the cells predicting a link.

    Softmax keeps logit differences, so the margin of the best link tag over
    tag 0 is log(max(p1, p2) / p0); raising the tag-0 bias by the margin's
    (1 - LINK_SHARE) quantile flips all but that share of cells to tag 0.
    """
    margins = []
    for ann in anns:
        probs = model.forward_probs(ann.tokens, params)
        margins.append(np.log(probs[:, :, 1:].max(axis=2) / probs[:, :, 0]).ravel())
    return float(np.quantile(np.concatenate(margins), 1.0 - LINK_SHARE))


def batch_groups(sentences) -> list[tuple[int, int]]:
    """(length, group size) of each stacked forward ``infer_batch`` runs."""
    groups = []
    for start in range(0, len(sentences), INFER_BATCH_SIZE):
        sizes: dict[int, int] = {}
        for tokens in sentences[start:start + INFER_BATCH_SIZE]:
            sizes[len(tokens)] = sizes.get(len(tokens), 0) + 1
        groups += sizes.items()
    return groups


# --- traced runs ------------------------------------------------------------------


def _pairs(tracer, token_lists) -> None:
    tracer.counts["model.pairs_scored"] += sum(core.seq_length(len(t)) for t in token_lists)


def _count_pairs_sentence(tracer, args, kwargs, result) -> None:
    _pairs(tracer, [args[0]])


def _count_pairs_batch(tracer, args, kwargs, result) -> None:
    _pairs(tracer, args[0])


def _count_pairs_examples(tracer, args, kwargs, result) -> None:
    _pairs(tracer, [tokens for tokens, _ in args[0]])


def _count_predicted_tags(tracer, args, kwargs, tagging) -> None:
    for group, seqs in (("entity", (tagging.eh2et,)), ("head", tagging.sh2oh),
                        ("tail", tagging.st2ot)):
        for seq in seqs:
            tracer.counts[f"cells.{group}"] += len(seq)
            tracer.counts[f"nonzero.{group}"] += len(seq) - seq.count(0)


def _count_decoded(tracer, args, kwargs, triples) -> None:
    tracer.counts["decoding.entities"] += args[0].eh2et.count(1)
    tracer.counts["decoding.triples_emitted"] += len(triples)


def _count_line(tracer, args, kwargs, line) -> None:
    tracer.counts["codec.lines"] += 1
    tracer.counts["codec.line_bytes"] += len(line.encode("utf-8"))


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name, counter hook) for every traced call site."""
    return [
        (train, "train", "train.train", None),
        (train, "gradient", "model.gradient", _count_pairs_examples),
        (model, "gradient", "model.gradient", _count_pairs_examples),
        (train.Adam, "step", "train.adam_step", None),
        (train, "infer", "model.infer", _count_pairs_sentence),
        (model, "infer", "model.infer", _count_pairs_sentence),
        (model, "infer_batch", "model.infer_batch", _count_pairs_batch),
        (train, "micro_prf", "evaluate.micro_prf", None),
        (evaluate, "micro_prf", "evaluate.micro_prf", None),
        (train, "encode", "codec.encode", None),
        (codec, "encode", "codec.encode", None),
        (codec, "dump_tagging_line", "codec.dump_line", _count_line),
        (codec, "parse_tagging_line", "codec.parse_line", None),
        (model, "decode", "decoding.decode", _count_decoded),
        (decoding, "decode", "decoding.decode", _count_decoded),
        (data, "load_dataset", "data.load_dataset", None),
        (model, "HandshakingTagging", "core.tagging_build", _count_predicted_tags),
        (codec, "HandshakingTagging", "core.tagging_build", None),
    ]


def setup_targets() -> list[tuple]:
    return [
        (synth, "random_annotation", "synth", None),
        (synth, "synthetic_dataset", "synth", None),
    ]


def layer_split(tracer, params, examples) -> None:
    """Direct calls that split a sentence's gradient into its layers."""
    for tokens, tagging in examples:
        with tracer.span("probe.encode_tokens"):
            model.encode_tokens(tokens, params.encoder)
        with tracer.span("probe.forward_probs"):
            probs = model.forward_probs(tokens, params)
        gold = model.gold_tags(tagging)
        with tracer.span("probe.loss_from_probs"):
            model.loss_from_probs(probs, gold)
        with tracer.span("probe.gradient"):
            model.gradient([(tokens, tagging)], params)


def n100_times(params, seed: int) -> tuple[float, float]:
    """Median ms of forward_probs and of gradient on one 100-token paper-scale sentence."""
    ann = paper_annotation(random.Random(seed), PAPER_LENGTHS[1])
    example = [(ann.tokens, codec.encode(ann, PAPER_SCHEMA, mode="lenient"))]
    forward, both = [], []
    for _ in range(N100_REPEATS):
        start = perf_counter()
        model.forward_probs(ann.tokens, params)
        forward.append((perf_counter() - start) * 1e3)
        start = perf_counter()
        model.gradient(example, params)
        both.append((perf_counter() - start) * 1e3)
    return float(np.median(forward)), float(np.median(both))
