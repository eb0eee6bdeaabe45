"""Scoring predicted triples: match modes, pooled micro metrics, subset
breakdowns, and the inference timing benchmark."""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from .core import InvalidInput, RelationSchema, Triple, check_choice, check_int
from .data import BUCKETS, subset_members
from .model import INFER_BATCH_SIZE, ModelParams, infer, infer_batch, named_tensors

MATCH_MODES = ("partial", "exact")
_BENCH_PASSES_UNTIMED = 2  # passes that populate caches before bench_inference times one


def _partial_key(t: Triple) -> tuple[int, int, int]:
    """What partial mode matches on: the relation and the subject and object
    head positions; tails are ignored.  Exact mode matches whole triples."""
    return (t.relation, t.subject.head, t.object.head)


@dataclass(frozen=True)
class MicroScores:
    precision: float
    recall: float
    f1: float
    n_predicted: int
    n_gold: int
    n_correct: int
    vacuous: bool = False


def micro_prf(predictions, golds, mode: str = "exact", warn: bool = True) -> MicroScores:
    """Pooled micro precision/recall/F1 over aligned per-sentence collections.

    Duplicate predictions collapse before scoring and matching is one-to-one
    within each sentence (each gold consumed at most once).  A zero
    denominator scores 0; an entirely empty corpus on both sides scores 1.0
    by convention and is flagged ``vacuous``.
    """
    check_choice("match", mode, MATCH_MODES)
    predictions = list(predictions)
    golds = list(golds)
    if len(predictions) != len(golds):
        raise InvalidInput(
            f"prediction/gold lists are misaligned: {len(predictions)} vs {len(golds)}"
        )
    n_pred = n_gold = n_correct = 0
    for pred, gold in zip(predictions, golds):
        ps, gs = set(pred), set(gold)
        n_pred += len(ps)
        n_gold += len(gs)
        if mode == "exact":
            n_correct += len(ps & gs)
        else:
            cp = Counter(map(_partial_key, ps))
            cg = Counter(map(_partial_key, gs))
            n_correct += sum(min(count, cg[key]) for key, count in cp.items())
    if n_pred == 0 and n_gold == 0:
        if warn:
            warnings.warn(
                "scoring an empty corpus against empty gold; reporting 1.0 by convention",
                stacklevel=2,
            )
        return MicroScores(1.0, 1.0, 1.0, 0, 0, 0, vacuous=True)
    precision = n_correct / n_pred if n_pred else 0.0
    recall = n_correct / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MicroScores(precision, recall, f1, n_pred, n_gold, n_correct)


@dataclass
class EvalReport:
    mode: str
    overall: MicroScores
    by_pattern: dict[str, MicroScores | None]
    by_bucket: dict[str, MicroScores | None]


def subset_report(predictions, golds, annotations, mode: str = "exact") -> EvalReport:
    """Micro scores overall plus per overlap pattern and triple-count bucket.

    Subset membership comes from the gold annotations.  Subsets with no
    sentences are reported as ``None`` rather than zero.
    """
    predictions = list(predictions)
    golds = list(golds)
    annotations = list(annotations)
    if not (len(predictions) == len(golds) == len(annotations)):
        raise InvalidInput("predictions, golds, and annotations must align 1:1")
    overall = micro_prf(predictions, golds, mode)
    pattern_idx, bucket_idx = subset_members(annotations)

    def sub(indices):
        if not indices:
            return None
        return micro_prf(
            [predictions[i] for i in indices],
            [golds[i] for i in indices],
            mode,
            warn=False,
        )

    return EvalReport(
        mode=mode,
        overall=overall,
        by_pattern={key: sub(idx) for key, idx in pattern_idx.items()},
        by_bucket={key: sub(idx) for key, idx in bucket_idx.items()},
    )


def format_report(report: EvalReport) -> str:
    def row(label: str, scores: MicroScores | None) -> str:
        if scores is None:
            return f"  {label:<8} {'-':>9} {'-':>9} {'-':>9} {'-':>6}"
        return (
            f"  {label:<8} {scores.precision:>9.4f} {scores.recall:>9.4f} "
            f"{scores.f1:>9.4f} {scores.n_gold:>6}"
        )

    lines = [
        f"match mode: {report.mode}",
        f"  {'subset':<8} {'prec':>9} {'recall':>9} {'f1':>9} {'gold':>6}",
        row("all", report.overall),
        "by overlap pattern:",
    ]
    for key in ("normal", "seo", "epo"):
        lines.append(row(key, report.by_pattern[key]))
    lines.append("by triple count:")
    for key in BUCKETS:
        scores = report.by_bucket.get(key)
        if key == "0" and scores is None:
            continue
        lines.append(row(key, scores))
    return "\n".join(lines)


# --- model accounting and timing ------------------------------------------------


def parameter_counts(params: ModelParams) -> dict[str, float]:
    tensors = named_tensors(params)
    total = sum(arr.size for arr in tensors.values())
    encoder = sum(arr.size for name, arr in tensors.items() if name.startswith("encoder."))
    return {"total": total, "encoder": encoder, "encoder_fraction": encoder / total}


@dataclass(frozen=True)
class TimingReport:
    mean_ms_per_sample: float
    batch_size: int
    n_samples: int


@dataclass(frozen=True)
class BenchReport:
    batched: TimingReport
    single: TimingReport
    params_total: int
    encoder_fraction: float


def bench_inference(
    params: ModelParams,
    schema: RelationSchema,
    sentences,
    batch_size: int = INFER_BATCH_SIZE,
) -> BenchReport:
    """Mean wall-clock milliseconds per sentence, batched and one at a time.

    Two untimed passes over the first batch populate caches first.  Timing
    wraps the same inference calls the rest of the package uses, so measured
    outputs equal unmeasured ones.
    """
    sentences = [list(toks) for toks in sentences]
    if not sentences:
        raise InvalidInput("empty benchmark corpus")
    batch_size = check_int("batch_size", batch_size)
    warm = sentences[: min(len(sentences), batch_size)]
    for _ in range(_BENCH_PASSES_UNTIMED):
        infer_batch(warm, params, schema, batch_size=batch_size)
        for toks in warm[: min(4, len(warm))]:
            infer(toks, params, schema)

    start = perf_counter()
    infer_batch(sentences, params, schema, batch_size=batch_size)
    batched_ms = (perf_counter() - start) * 1000.0 / len(sentences)

    start = perf_counter()
    for toks in sentences:
        infer(toks, params, schema)
    single_ms = (perf_counter() - start) * 1000.0 / len(sentences)

    counts = parameter_counts(params)
    return BenchReport(
        batched=TimingReport(batched_ms, batch_size, len(sentences)),
        single=TimingReport(single_ms, 1, len(sentences)),
        params_total=int(counts["total"]),
        encoder_fraction=counts["encoder_fraction"],
    )
