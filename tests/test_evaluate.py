"""Tests for match modes, micro scoring and subset reports."""

from __future__ import annotations

import json
import random
import warnings
from dataclasses import asdict

import pytest

from pairlink import (
    InvalidInput,
    TokenSpan,
    Triple,
    micro_prf,
    subset_report,
)
from pairlink.evaluate import format_report

from conftest import annotation, match_exact, match_partial, triple


def all_triples(n_tokens: int, n_relations: int) -> list[Triple]:
    spans = [
        TokenSpan(h, t) for h in range(n_tokens) for t in range(h, n_tokens)
    ]
    return [
        Triple(s, r, o) for s in spans for r in range(n_relations) for o in spans
    ]


class TestMatchModes:
    def test_exact_needs_full_spans(self):
        a = triple(0, 1, 0, 3, 4)
        assert match_exact(a, triple(0, 1, 0, 3, 4))
        assert not match_exact(a, triple(0, 2, 0, 3, 4))  # subject tail differs
        assert not match_exact(a, triple(0, 1, 1, 3, 4))  # relation differs

    def test_partial_ignores_tails(self):
        a = triple(0, 1, 0, 3, 4)
        assert match_partial(a, triple(0, 2, 0, 3, 3))
        assert not match_partial(a, triple(1, 1, 0, 3, 4))  # subject head differs
        assert not match_partial(a, triple(0, 1, 1, 3, 4))  # relation differs

    def test_exact_implies_partial_exhaustively(self):
        pool = all_triples(3, 1)
        for a in pool:
            for b in pool:
                if match_exact(a, b):
                    assert match_partial(a, b)


class TestMicroPrf:
    def test_pinned_fixture(self):
        # 2 predictions, 1 correct, 3 gold: P=0.5, R=1/3, F1=0.4
        t_hit, t_miss = triple(0, 0, 0, 1, 1), triple(2, 2, 0, 3, 3)
        gold = [triple(0, 0, 0, 1, 1), triple(4, 4, 0, 5, 5), triple(1, 1, 0, 2, 2)]
        scores = micro_prf([[t_hit, t_miss]], [gold], mode="exact")
        assert scores.precision == pytest.approx(0.5)
        assert scores.recall == pytest.approx(1 / 3)
        assert scores.f1 == pytest.approx(0.4)
        assert (scores.n_predicted, scores.n_gold, scores.n_correct) == (2, 3, 1)
        assert not scores.vacuous

    def test_partial_credits_head_only_matches(self):
        pred = [triple(0, 1, 0, 3, 3)]
        gold = [triple(0, 2, 0, 3, 4)]
        assert micro_prf([pred], [gold], mode="exact").f1 == 0.0
        assert micro_prf([pred], [gold], mode="partial").f1 == 1.0

    def test_micro_differs_from_macro(self):
        # sentence 1 scores a perfect 1.0; sentence 2 scores F1 0.4;
        # the sentence-mean (macro) is 0.7 while pooling (micro) gives 4/7
        s1_pred, s1_gold = [triple(0, 0, 0, 1, 1)], [triple(0, 0, 0, 1, 1)]
        s2_pred = [triple(0, 0, 0, 1, 1), triple(2, 2, 0, 3, 3), triple(4, 4, 0, 5, 5)]
        s2_gold = [triple(0, 0, 0, 1, 1), triple(6, 6, 0, 7, 7)]
        micro = micro_prf([s1_pred, s2_pred], [s1_gold, s2_gold], mode="exact")

        def sentence_f1(pred, gold):
            return micro_prf([pred], [gold], mode="exact").f1

        macro = (sentence_f1(s1_pred, s1_gold) + sentence_f1(s2_pred, s2_gold)) / 2
        assert macro == pytest.approx(0.7)
        assert micro.f1 == pytest.approx(4 / 7)
        assert micro.f1 != pytest.approx(macro)

    def test_duplicate_predictions_collapse(self):
        t = triple(0, 0, 0, 1, 1)
        scores = micro_prf([[t, t, t]], [[t]], mode="exact")
        assert scores.n_predicted == 1
        assert scores.precision == 1.0

    def test_partial_matching_is_one_to_one(self):
        # two exact-distinct predictions share one partial key; only one
        # gold instance exists, so only one may count
        preds = [triple(0, 0, 0, 2, 2), triple(0, 1, 0, 2, 2)]
        gold = [triple(0, 0, 0, 2, 2)]
        scores = micro_prf([preds], [gold], mode="partial")
        assert scores.n_correct == 1
        assert scores.precision == pytest.approx(0.5)
        flipped = micro_prf([gold], [preds], mode="partial")
        assert flipped.n_correct == 1
        assert flipped.recall == pytest.approx(0.5)

    def test_counts_match_a_maximum_matching_oracle(self):
        # independent oracle: exhaustive search for the largest one-to-one
        # assignment between predictions and golds under the match predicate
        def max_matching(preds, golds, match):
            golds = list(golds)

            def rec(i, used):
                if i == len(preds):
                    return 0
                best = rec(i + 1, used)
                for j, g in enumerate(golds):
                    if j not in used and match(preds[i], g):
                        best = max(best, 1 + rec(i + 1, used | {j}))
                return best

            return rec(0, frozenset())

        rng = random.Random(8)
        pool = all_triples(3, 2)
        for _ in range(150):
            preds = list({rng.choice(pool) for _ in range(rng.randint(0, 4))})
            golds = list({rng.choice(pool) for _ in range(rng.randint(0, 4))})
            for mode, match in (("exact", match_exact), ("partial", match_partial)):
                scores = micro_prf([preds], [golds], mode=mode, warn=False)
                assert scores.n_correct == max_matching(preds, golds, match), (
                    preds,
                    golds,
                    mode,
                )

    def test_zero_denominators_score_zero(self):
        t = triple(0, 0, 0, 1, 1)
        empty_pred = micro_prf([[]], [[t]], mode="exact")
        assert (empty_pred.precision, empty_pred.recall, empty_pred.f1) == (0.0, 0.0, 0.0)
        empty_gold = micro_prf([[t]], [[]], mode="exact")
        assert (empty_gold.precision, empty_gold.recall, empty_gold.f1) == (0.0, 0.0, 0.0)

    def test_fully_empty_corpus_is_vacuous(self):
        with pytest.warns(UserWarning, match="convention"):
            scores = micro_prf([[], []], [[], []], mode="exact")
        assert scores.vacuous
        assert scores.f1 == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            silent = micro_prf([[]], [[]], mode="exact", warn=False)
        assert silent.vacuous

    def test_misaligned_lists_rejected(self):
        with pytest.raises(InvalidInput):
            micro_prf([[]], [[], []])

    def test_mode_is_validated(self):
        with pytest.raises(InvalidInput):
            micro_prf([[]], [[]], mode="strict")


class TestSubsetReport:
    def corpus(self):
        anns = [
            annotation(6, [triple(0, 0, 0, 1, 1)]),  # normal, bucket 1
            annotation(6, [triple(0, 0, 0, 1, 1), triple(0, 0, 1, 1, 1)]),  # epo, 2
            annotation(6, [triple(0, 0, 0, 1, 1), triple(0, 0, 0, 3, 3)]),  # seo, 2
            annotation(6, []),  # bucket 0
        ]
        golds = [list(a.triples) for a in anns]
        preds = [
            [triple(0, 0, 0, 1, 1)],  # perfect
            [triple(0, 0, 0, 1, 1)],  # half recall
            [],  # nothing
            [],  # vacuously right
        ]
        return preds, golds, anns

    def test_pattern_and_bucket_breakdown(self):
        preds, golds, anns = self.corpus()
        report = subset_report(preds, golds, anns, mode="exact")
        assert report.overall.n_gold == 5
        assert report.overall.n_correct == 2
        assert report.by_pattern["normal"].f1 == 1.0
        assert report.by_pattern["epo"].recall == pytest.approx(0.5)
        assert report.by_pattern["seo"].f1 == 0.0
        assert report.by_bucket["1"].f1 == 1.0
        assert report.by_bucket["2"].n_gold == 4
        assert report.by_bucket["0"].vacuous
        for key in ("3", "4", "5+"):
            assert report.by_bucket[key] is None

    def test_subset_scoring_never_warns(self):
        preds, golds, anns = self.corpus()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subset_report(preds, golds, anns, mode="exact")

    def test_report_serializes_and_formats(self):
        preds, golds, anns = self.corpus()
        report = subset_report(preds, golds, anns, mode="partial")
        obj = asdict(report)
        json.dumps(obj)
        assert obj["by_bucket"]["5+"] is None
        text = format_report(report)
        assert "match mode: partial" in text
        assert "normal" in text and "epo" in text
        assert "-" in text  # empty subsets render as dashes

    def test_json_object_is_unchanged(self):
        # the object the CLI writes, with None for the empty subsets, as the
        # hand-written per-report serializers produced it
        def scores(p, r, f1, n_predicted, n_gold, n_correct, vacuous=False):
            return {"precision": p, "recall": r, "f1": f1, "n_predicted": n_predicted,
                    "n_gold": n_gold, "n_correct": n_correct, "vacuous": vacuous}

        expected = {
            "mode": "partial",
            "overall": scores(1.0, 0.4, 0.5714285714285715, 2, 5, 2),
            "by_pattern": {
                "normal": scores(1.0, 1.0, 1.0, 1, 1, 1),
                "seo": scores(0.0, 0.0, 0.0, 0, 2, 0),
                "epo": scores(1.0, 0.5, 0.6666666666666666, 1, 2, 1),
            },
            "by_bucket": {
                "0": scores(1.0, 1.0, 1.0, 0, 0, 0, vacuous=True),
                "1": scores(1.0, 1.0, 1.0, 1, 1, 1),
                "2": scores(1.0, 0.25, 0.4, 1, 4, 1),
                "3": None, "4": None, "5+": None,
            },
        }
        preds, golds, anns = self.corpus()
        obj = asdict(subset_report(preds, golds, anns, mode="partial"))
        assert json.dumps(obj) == json.dumps(expected)

    def test_misalignment_rejected(self):
        preds, golds, anns = self.corpus()
        with pytest.raises(InvalidInput):
            subset_report(preds[:-1], golds, anns)
