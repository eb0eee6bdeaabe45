"""Tests for the synthetic annotation and tagging generators."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from pairlink import InvalidInput, RelationSchema, detect_conflicts, phantom_triples, seq_length
from pairlink.codec import self_relating_triples
from pairlink.data import classify_overlap
from pairlink.synth import random_annotation, random_tagging, synthetic_dataset


def digest(annotations) -> str:
    """SHA-256 over every annotation's tokens and triples, in order."""
    h = hashlib.sha256()
    for a in annotations:
        h.update(repr((a.tokens, [(t.subject.head, t.subject.tail, t.relation,
                                   t.object.head, t.object.tail) for t in a.triples])).encode())
    return h.hexdigest()


class TestGeneratedDataIsPinned:
    """The generators' output, pinned by digest: tests, benchmarks and the
    acceptance criteria all draw their data from these seeds."""

    def test_random_annotation_at_the_roundtrip_criterion_settings(self):
        rng = random.Random(20260817)
        schema = RelationSchema(("r0", "r1", "r2", "r3"))
        anns = [random_annotation(rng, schema, n_min=1, n_max=12, max_triples=6)
                for _ in range(2000)]
        assert digest(anns) == "e4c67dcd848d9d41f0fc7539d96235df1b8ef99b582a494fa3f46b04fe967e5e"

    def test_random_annotation_at_paper_scale(self):
        rng = random.Random(7)
        schema = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        words = [f"w{i:04d}" for i in range(2000)]
        anns = [random_annotation(rng, schema, n_min=n, n_max=n, min_triples=1, max_triples=8,
                                  vocab=words) for n in range(20, 101, 2)]
        assert digest(anns) == "b2da47fc6d4d01d76e64932f2c0ac6120e7272316b8830828b0ca5bf42bcf2b5"

    def test_synthetic_dataset(self, schema2):
        anns = synthetic_dataset(random.Random(0), schema2, 20)
        assert digest(anns) == "fec32dd88c91a4926c47e630530276f74d1e0d4fb2612004f9a400af3d542d0b"


class TestRandomAnnotation:
    def test_respects_bounds_and_is_encodable(self, schema2):
        rng = random.Random(5)
        for _ in range(200):
            ann = random_annotation(
                rng, schema2, n_min=2, n_max=9, max_triples=4, max_width=3
            )
            assert 2 <= ann.n <= 9
            assert len(ann.triples) <= 4
            for t in ann.triples:
                assert t.subject.tail < ann.n and t.object.tail < ann.n
                assert len(t.subject) <= 3 and len(t.object) <= 3
            assert detect_conflicts(ann, schema2) == []
            assert phantom_triples(ann, schema2) == frozenset()

    def test_min_triples_enforced(self, schema2):
        rng = random.Random(11)
        for _ in range(50):
            ann = random_annotation(rng, schema2, n_max=8, min_triples=2, max_triples=4)
            assert len(ann.triples) >= 2

    def test_generates_the_interesting_shapes(self, schema2):
        rng = random.Random(21)
        seo = epo = nested = selfrel = 0
        for _ in range(400):
            ann = random_annotation(rng, schema2, n_min=4, n_max=10, min_triples=2)
            if ann.triples:
                p = classify_overlap(ann)
                seo += p.seo
                epo += p.epo
            spans = {t.subject for t in ann.triples} | {t.object for t in ann.triples}
            if any(
                a != b and (a.head == b.head or a.tail == b.tail)
                for a in spans
                for b in spans
            ):
                nested += 1
            selfrel += bool(self_relating_triples(ann))
        assert seo > 20 and epo > 20 and nested > 20
        assert selfrel > 0

    def test_allow_self_false_suppresses_self_relations(self, schema2):
        rng = random.Random(3)
        for _ in range(300):
            ann = random_annotation(rng, schema2, n_max=6, allow_self=False)
            assert self_relating_triples(ann) == ()

    def test_distinct_tokens_mode(self, schema2):
        rng = random.Random(7)
        for _ in range(50):
            ann = random_annotation(rng, schema2, n_max=8, distinct_tokens=True)
            assert len(set(ann.tokens)) == ann.n
        with pytest.raises(InvalidInput):
            random_annotation(rng, schema2, n_max=8, vocab=["a", "b"], distinct_tokens=True)

    def test_deterministic_per_seed(self, schema2):
        a = [random_annotation(random.Random(42), schema2) for _ in range(5)]
        b = [random_annotation(random.Random(42), schema2) for _ in range(5)]
        assert a == b

    def test_bad_length_range_rejected(self, schema2):
        with pytest.raises(InvalidInput):
            random_annotation(random.Random(0), schema2, n_min=5, n_max=3)


class TestRandomTagging:
    def test_shapes_and_determinism(self):
        t1 = random_tagging(random.Random(9), 6, 3)
        t2 = random_tagging(random.Random(9), 6, 3)
        assert t1 == t2
        assert t1.n == 6
        assert t1.n_relations == 3
        assert len(t1.eh2et) == seq_length(6)

    def test_cells_take_one_draw_each_in_row_major_order(self):
        # the tuple-per-sequence generator this replaced drew the entity
        # sequence, then each head sequence, then each tail sequence
        n, n_rel, zero_bias = 7, 2, 0.6
        rng = random.Random(31)
        want = [
            [0 if rng.random() < zero_bias else rng.choice((1, 2)) for _ in range(seq_length(n))]
            for _ in range(2 * n_rel + 1)
        ]
        got = random_tagging(random.Random(31), n, n_rel, zero_bias=zero_bias)
        assert got.tags.tolist() == want

    def test_zero_bias_controls_density(self):
        rng = random.Random(1)
        dense = random_tagging(rng, 10, 2, zero_bias=0.1)
        sparse = random_tagging(rng, 10, 2, zero_bias=0.95)
        assert np.count_nonzero(dense.tags) > np.count_nonzero(sparse.tags)

    def test_entity_sequence_may_hold_reversed_tags(self):
        rng = random.Random(2)
        assert any(
            2 in random_tagging(rng, 8, 1, zero_bias=0.5).eh2et for _ in range(20)
        )


class TestSyntheticDataset:
    def test_sentences_are_distinct_and_learnable(self, schema2):
        data = synthetic_dataset(random.Random(0), schema2, 20)
        assert len(data) == 20
        assert len({ann.tokens for ann in data}) == 20
        for ann in data:
            assert len(set(ann.tokens)) == ann.n  # no repeats inside a sentence
            assert 1 <= len(ann.triples) <= 3
            assert self_relating_triples(ann) == ()

    def test_vocab_size_validated(self, schema2):
        with pytest.raises(InvalidInput):
            synthetic_dataset(random.Random(0), schema2, 5, n_max=9, vocab_size=5)

    def test_deterministic_per_seed(self, schema2):
        a = synthetic_dataset(random.Random(4), schema2, 8)
        b = synthetic_dataset(random.Random(4), schema2, 8)
        assert a == b
