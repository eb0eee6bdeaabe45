"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose test lines are
the per-criterion pass/fail report.  Each test also prints a one-line summary
with measured numbers (visible with ``-s`` or on failure).

Budgets and tolerances are pinned in the constants next to each criterion.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pairlink import (
    NumericError,
    RelationSchema,
    TokenSpan,
    Triple,
    build_vocab,
    check_gradients,
    dataset_stats,
    decode,
    decode_oracle,
    encode,
    infer,
    infer_batch,
    init_model,
    load_dataset,
    micro_prf,
    seq_length,
    train,
    TrainConfig,
)
from pairlink.data import relation_names
from pairlink.model import named_tensors
from pairlink.synth import random_annotation, random_tagging, synthetic_dataset

from conftest import annotation, match_exact, match_partial, triple


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


# --- criterion 1: bulk encode/decode roundtrip --------------------------------

ROUNDTRIP_CASES = 10_000
ROUNDTRIP_BUDGET_S = 30.0


def test_criterion_1_roundtrip_ten_thousand_annotations():
    """10^4 random annotations (n<=12, 4 relations, <=6 triples) survive
    encode->decode unchanged, overlap shapes included, within 30 s."""
    schema = RelationSchema(("r0", "r1", "r2", "r3"))
    rng = random.Random(20260817)
    failures = 0
    seo = epo = nested = 0
    start = time.perf_counter()
    for _ in range(ROUNDTRIP_CASES):
        ann = random_annotation(rng, schema, n_min=1, n_max=12, max_triples=6)
        tagging = encode(ann, schema, mode="strict")
        if decode(tagging, schema) != ann.triple_set():
            failures += 1
            continue
        pairs = [(a, b) for a in ann.triples for b in ann.triples if a is not b]
        if any(a.subject == b.subject and a.object == b.object for a, b in pairs):
            epo += 1
        if any(
            {a.subject, a.object} & {b.subject, b.object}
            and not (a.subject == b.subject and a.object == b.object)
            for a, b in pairs
        ):
            seo += 1
        spans = {t.subject for t in ann.triples} | {t.object for t in ann.triples}
        if any(
            a != b and (a.head == b.head or a.tail == b.tail)
            for a in spans
            for b in spans
        ):
            nested += 1
    elapsed = time.perf_counter() - start
    ok = (
        failures == 0
        and elapsed < ROUNDTRIP_BUDGET_S
        and min(seo, epo, nested) >= 100
    )
    report(
        "criterion 1 (roundtrip)",
        ok,
        f"{ROUNDTRIP_CASES - failures}/{ROUNDTRIP_CASES} exact, "
        f"seo={seo} epo={epo} nested={nested}, {elapsed:.1f}s (budget {ROUNDTRIP_BUDGET_S:.0f}s)",
    )


# --- criterion 2: decoder equals the brute-force oracle ------------------------

ORACLE_CASES = 10_000
ORACLE_BUDGET_S = 60.0


def test_criterion_2_decoder_matches_oracle_on_arbitrary_taggings():
    """The production decoder and the brute-force oracle agree on 10^4
    arbitrary random taggings (n<=10, 3 relations) within 60 s."""
    schema = RelationSchema(("r0", "r1", "r2"))
    rng = random.Random(4242)
    mismatches = 0
    start = time.perf_counter()
    for case in range(ORACLE_CASES):
        n = rng.randint(1, 10)
        zero_bias = 0.5 if case % 10 == 0 else 0.85  # mix dense and sparse
        tagging = random_tagging(rng, n, len(schema), zero_bias=zero_bias)
        if decode(tagging, schema) != decode_oracle(tagging, schema):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < ORACLE_BUDGET_S
    report(
        "criterion 2 (decode oracle)",
        ok,
        f"{ORACLE_CASES - mismatches}/{ORACLE_CASES} agree, "
        f"{elapsed:.1f}s (budget {ORACLE_BUDGET_S:.0f}s)",
    )


# --- criterion 3: the five-triple worked example -------------------------------


def test_criterion_3_worked_example_decodes_to_exactly_five_triples(figure_fixture):
    """The hand-built two-city example yields exactly the five expected
    triples: one forward mayor link and two reversed relations fanning out
    over both city mentions."""
    schema, _, tagging, expected = figure_fixture
    got = decode(tagging, schema)
    ok = got == expected and len(got) == 5
    report(
        "criterion 3 (worked example)",
        ok,
        f"decoded {len(got)} triple(s), expected exactly {len(expected)}",
    )


# --- criterion 4: analytic gradients vs finite differences ---------------------

GRAD_INSTANCES = 6
GRAD_REL_TOL = 1e-4
GRAD_STEP = 1e-5
GRAD_ABS_TOL = 1e-8  # central-difference roundoff floor at step 1e-5
GRAD_BUDGET_S = 60.0


def test_criterion_4_gradients_match_finite_differences_everywhere():
    """On >=5 small instances (n<=6, 2 relations, widths <=8) every parameter
    coordinate of the analytic gradient agrees with central finite
    differences to relative error < 1e-4, within 60 s.  Differences below
    the quotient's own double-precision roundoff floor count as agreement."""
    schema = RelationSchema(("r0", "r1"))
    rng = random.Random(99)
    worst = 0.0
    checked = 0
    mismatch = ""
    start = time.perf_counter()
    for instance in range(GRAD_INSTANCES):
        anns = [
            random_annotation(rng, schema, n_min=2, n_max=6, max_triples=2, min_triples=1)
            for _ in range(2)
        ]
        batch = [(a.tokens, encode(a, schema, mode="lenient")) for a in anns]
        params = init_model(
            schema,
            build_vocab(a.tokens for a in anns),
            d_embed=8,
            d_state=4,
            d_pair=8,
            seed=instance,
        )
        try:
            worst = max(worst, check_gradients(
                batch, params, step=GRAD_STEP, rel_tol=GRAD_REL_TOL, abs_tol=GRAD_ABS_TOL,
                max_coords=None,
            ))
        except NumericError as exc:
            mismatch = f"instance {instance}: {exc}; "
            break
        checked += sum(arr.size for arr in named_tensors(params).values())
    elapsed = time.perf_counter() - start
    ok = not mismatch and elapsed < GRAD_BUDGET_S
    report(
        "criterion 4 (gradient check)",
        ok,
        f"{mismatch}{checked} coordinates over {GRAD_INSTANCES} instances, worst rel err "
        f"{worst:.3e} (tol {GRAD_REL_TOL:.0e}), {elapsed:.1f}s (budget {GRAD_BUDGET_S:.0f}s)",
    )


# --- criterion 5: learnability on a synthetic corpus ---------------------------

OVERFIT_DATA_SEED = 0
OVERFIT_TRAIN_SEED = 0
OVERFIT_LR = 1e-2
OVERFIT_EPOCH_CAP = 500
OVERFIT_BUDGET_S = 300.0


def test_criterion_5_overfits_twenty_sentences_deterministically():
    """A 32-wide model fits 20 synthetic sentences (2 relations) to
    exact-match F1 = 1.0 within 500 epochs, in under 5 minutes, and the run
    is bit-reproducible for a fixed seed."""
    schema = RelationSchema(("r0", "r1"))
    data = synthetic_dataset(random.Random(OVERFIT_DATA_SEED), schema, 20)
    config = TrainConfig(
        learning_rate=OVERFIT_LR,
        epochs=OVERFIT_EPOCH_CAP,
        batch_size=6,
        seed=OVERFIT_TRAIN_SEED,
        optimizer="adam",
        early_stop_f1=1.0,
    )

    def run():
        return train(data, schema, config, d_embed=32, d_state=16, d_pair=32)

    start = time.perf_counter()
    first = run()
    elapsed = time.perf_counter() - start
    second = run()

    best = max((h.f1 for h in first.history), default=0.0)
    deterministic = [(h.epoch, h.loss, h.f1) for h in first.history] == [
        (h.epoch, h.loss, h.f1) for h in second.history
    ] and all(
        np.array_equal(arr, named_tensors(second.params)[name])
        for name, arr in named_tensors(first.params).items()
    )
    preds = [infer(ann.tokens, first.params, schema) for ann in data]
    golds = [set(ann.triples) for ann in data]
    final_f1 = micro_prf(preds, golds, mode="exact").f1

    ok = (
        best == 1.0
        and final_f1 == 1.0
        and len(first.history) <= OVERFIT_EPOCH_CAP
        and elapsed < OVERFIT_BUDGET_S
        and deterministic
        and not first.diverged
    )
    report(
        "criterion 5 (learnability)",
        ok,
        f"F1 {final_f1:.4f} after {len(first.history)} epoch(s) "
        f"(cap {OVERFIT_EPOCH_CAP}), {elapsed:.1f}s (budget {OVERFIT_BUDGET_S:.0f}s), "
        f"deterministic={deterministic}",
    )


# --- criterion 6: metric fixtures ----------------------------------------------


def test_criterion_6_metric_fixtures():
    """Pinned metric behavior: the 2-predicted/1-correct/3-gold fixture gives
    P=0.5, R=1/3, F1=0.4; exact matches always count as partial matches; and
    pooled micro scores differ from sentence-mean macro scores."""
    t_hit, t_miss = triple(0, 0, 0, 1, 1), triple(2, 2, 0, 3, 3)
    gold3 = [triple(0, 0, 0, 1, 1), triple(4, 4, 0, 5, 5), triple(1, 1, 0, 2, 2)]
    scores = micro_prf([[t_hit, t_miss]], [gold3], mode="exact")
    fixture_ok = (
        math.isclose(scores.precision, 0.5)
        and math.isclose(scores.recall, 1 / 3)
        and math.isclose(scores.f1, 0.4)
    )

    spans = [TokenSpan(h, t) for h in range(3) for t in range(h, 3)]
    pool = [Triple(s, r, o) for s in spans for r in range(2) for o in spans]
    implication_ok = all(
        match_partial(a, b) for a in pool for b in pool if match_exact(a, b)
    )

    s1_pred, s1_gold = [triple(0, 0, 0, 1, 1)], [triple(0, 0, 0, 1, 1)]
    s2_pred = [triple(0, 0, 0, 1, 1), triple(2, 2, 0, 3, 3), triple(4, 4, 0, 5, 5)]
    s2_gold = [triple(0, 0, 0, 1, 1), triple(6, 6, 0, 7, 7)]
    micro = micro_prf([s1_pred, s2_pred], [s1_gold, s2_gold], mode="exact").f1
    macro = (
        micro_prf([s1_pred], [s1_gold], mode="exact").f1
        + micro_prf([s2_pred], [s2_gold], mode="exact").f1
    ) / 2
    pooling_ok = math.isclose(micro, 4 / 7) and math.isclose(macro, 0.7)

    ok = fixture_ok and implication_ok and pooling_ok
    report(
        "criterion 6 (metric fixtures)",
        ok,
        f"P/R/F1 fixture={fixture_ok}, exact=>partial over {len(pool)}^2 pairs="
        f"{implication_ok}, micro {micro:.4f} vs macro {macro:.4f}",
    )


# --- criterion 7: corpus statistics --------------------------------------------

NYT_EXPECTED = {
    "split_sizes": {"train": 56195, "valid": 5000, "test": 5000},
    "pattern_counts": {"normal": 3266, "seo": 1297, "epo": 978},
    "bucket_counts": {"1": 3244, "2": 1045, "3": 312, "4": 291, "5+": 108},
    "n_relations": 24,
}
WEBNLG_EXPECTED = {
    "split_sizes": {"train": 5019, "valid": 500, "test": 703},
    "pattern_counts": {"normal": 246, "seo": 457, "epo": 26},
    "bucket_counts": {"1": 266, "2": 171, "3": 131, "4": 90, "5+": 45},
    "n_relations": 216,
}


def _stats_from_dir(root: Path):
    paths = {name: root / f"{name}.jsonl" for name in ("train", "valid", "test")}
    if not all(p.is_file() for p in paths.values()):
        return None
    names = set()
    for p in paths.values():
        names.update(relation_names(p))
    schema = RelationSchema(tuple(sorted(names)))
    splits = {
        name: load_dataset(p, schema, mode="lenient").annotations
        for name, p in paths.items()
    }
    return dataset_stats(splits, schema)


def _compare_stats(report_obj, expected) -> list[str]:
    problems = []
    got = asdict(report_obj)
    for key, value in expected["split_sizes"].items():
        if got["split_sizes"].get(key) != value:
            problems.append(f"{key} size {got['split_sizes'].get(key)} != {value}")
    for key, value in expected["pattern_counts"].items():
        if got["pattern_counts"].get(key) != value:
            problems.append(f"pattern {key} {got['pattern_counts'].get(key)} != {value}")
    for key, value in expected["bucket_counts"].items():
        if got["bucket_counts"].get(key) != value:
            problems.append(f"bucket {key} {got['bucket_counts'].get(key)} != {value}")
    if got["n_relations"] != expected["n_relations"]:
        problems.append(f"relations {got['n_relations']} != {expected['n_relations']}")
    return problems


def test_criterion_7_corpus_statistics():
    """With the public corpora available (PAIRLINK_NYT_DIR / PAIRLINK_WEBNLG_DIR),
    the statistics pipeline reproduces the published split/pattern/bucket
    table; otherwise a 3-sentence hand-counted fixture exercises the same
    pipeline."""
    ran_real = []
    problems: list[str] = []
    for env, expected in (
        ("PAIRLINK_NYT_DIR", NYT_EXPECTED),
        ("PAIRLINK_WEBNLG_DIR", WEBNLG_EXPECTED),
    ):
        root = os.environ.get(env)
        if not root:
            continue
        stats = _stats_from_dir(Path(root))
        if stats is None:
            problems.append(f"{env} set but train/valid/test.jsonl not all present")
            continue
        ran_real.append(env)
        problems.extend(f"{env}: {p}" for p in _compare_stats(stats, expected))

    if not ran_real and not problems:
        # hand-counted fallback fixture: 3 sentences; sentence 1 is normal
        # with 1 triple; sentence 2 holds an entity-pair overlap (2 triples);
        # sentence 3 shares one entity across 2 triples
        anns = [
            annotation(6, [triple(0, 0, 0, 2, 2)]),
            annotation(6, [triple(0, 1, 0, 3, 4), triple(0, 1, 1, 3, 4)]),
            annotation(6, [triple(0, 0, 0, 2, 2), triple(0, 0, 1, 4, 4)]),
        ]
        stats = dataset_stats(
            {"train": anns, "valid": [], "test": anns}, RelationSchema(("a", "b"))
        )
        expected = {
            "split_sizes": {"train": 3, "valid": 0, "test": 3},
            "pattern_counts": {"normal": 1, "seo": 1, "epo": 1},
            "bucket_counts": {"1": 1, "2": 2},
            "n_relations": 2,
        }
        problems = _compare_stats(stats, expected)
        source = "synthetic 3-sentence fixture (corpus dirs not set)"
    else:
        source = " and ".join(ran_real) if ran_real else "corpus dirs misconfigured"

    ok = not problems
    report(
        "criterion 7 (corpus statistics)",
        ok,
        f"{source}; " + ("all counts match" if ok else "; ".join(problems)),
    )


# --- criterion 8: batched inference equals single --------------------------------

BATCH_CORPUS = 60


def test_criterion_8_batched_inference_matches_single_and_is_benchmarked():
    """Batched inference returns exactly the per-sentence decoded triple
    sets on a mixed-length corpus.  Timing both paths is the benchmark's
    job: ``perfbench``'s ``infer_paper`` workload."""
    schema = RelationSchema(("r0", "r1"))
    rng = random.Random(31)
    anns = [
        random_annotation(rng, schema, n_min=1, n_max=9, max_triples=3)
        for _ in range(BATCH_CORPUS)
    ]
    sentences = [a.tokens for a in anns]
    params = init_model(
        schema, build_vocab(sentences), d_embed=16, d_state=8, d_pair=16, seed=8
    )
    batched = infer_batch(sentences, params, schema, batch_size=16)
    single = [infer(toks, params, schema) for toks in sentences]
    equal = batched == single
    report(
        "criterion 8 (batched inference)",
        equal,
        f"{BATCH_CORPUS} sentences, {sum(map(len, single))} triples; equal={equal}",
    )


# --- criterion 9: pair-count law ------------------------------------------------


def test_criterion_9_sequence_length_law():
    """seq_length matches direct pair enumeration for every n <= 64 and
    gives 5050 at n=100."""
    mismatches = [
        n
        for n in range(1, 65)
        if seq_length(n) != sum(1 for i in range(n) for j in range(i, n))
    ]
    pinned = seq_length(100)
    ok = not mismatches and pinned == 5050
    report(
        "criterion 9 (pair-count law)",
        ok,
        f"n<=64 mismatches={mismatches or 'none'}, seq_length(100)={pinned}",
    )
