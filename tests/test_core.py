"""Tests for core value types and the pair-sequence length law."""

from __future__ import annotations

import numpy as np
import pytest

from pairlink import (
    HandshakingTagging,
    InvalidInput,
    LinkTag,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    seq_length,
)

from conftest import annotation, triple


class TestSeqLength:
    def test_matches_enumeration_up_to_64(self):
        for n in range(1, 65):
            pairs = sum(1 for i in range(n) for j in range(i, n))
            assert seq_length(n) == pairs

    def test_pinned_value_n_100(self):
        assert seq_length(100) == 5050

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(InvalidInput):
            seq_length(bad)


class TestTokenSpan:
    def test_orders_and_length(self):
        s = TokenSpan(2, 5)
        assert len(s) == 4
        assert TokenSpan(0, 1) < s

    def test_single_token_span(self):
        assert len(TokenSpan(3, 3)) == 1

    @pytest.mark.parametrize("head,tail", [(-1, 0), (3, 2), (0, -1)])
    def test_rejects_bad_bounds(self, head, tail):
        with pytest.raises(InvalidInput):
            TokenSpan(head, tail)

    def test_hashable_and_frozen(self):
        s = TokenSpan(1, 2)
        assert s in {TokenSpan(1, 2)}
        with pytest.raises(AttributeError):
            s.head = 0


class TestTriple:
    def test_equality_and_hash(self):
        assert triple(0, 1, 0, 2, 3) == triple(0, 1, 0, 2, 3)
        assert len({triple(0, 1, 0, 2, 3), triple(0, 1, 0, 2, 3)}) == 1

    def test_rejects_negative_relation(self):
        with pytest.raises(InvalidInput):
            Triple(TokenSpan(0, 0), -1, TokenSpan(1, 1))


class TestRelationSchema:
    def test_lookup_round_trip(self):
        schema = RelationSchema(("a", "b", "c"))
        assert len(schema) == 3
        for rid, name in enumerate(("a", "b", "c")):
            assert schema.id_of(name) == rid
            assert schema.name_of(rid) == name
        assert "b" in schema
        assert "z" not in schema

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(InvalidInput):
            RelationSchema(("a", "a"))
        with pytest.raises(InvalidInput):
            RelationSchema(("a", ""))
        with pytest.raises(InvalidInput):
            RelationSchema(())

    def test_unknown_lookups_raise(self):
        schema = RelationSchema(("a",))
        with pytest.raises(PairLinkError):
            schema.id_of("missing")
        with pytest.raises(PairLinkError):
            schema.name_of(5)


class TestSentenceAnnotation:
    def test_basic_properties(self):
        ann = annotation(4, [triple(0, 0, 0, 2, 3)])
        assert ann.n == 4
        assert ann.triple_set() == frozenset({triple(0, 0, 0, 2, 3)})

    def test_dedups_triples_preserving_order(self):
        t1 = triple(0, 0, 0, 1, 1)
        t2 = triple(1, 1, 0, 2, 2)
        ann = annotation(3, [t1, t2, t1])
        assert ann.triples == (t1, t2)

    def test_rejects_span_out_of_range(self):
        with pytest.raises(InvalidInput):
            annotation(3, [triple(0, 0, 0, 2, 3)])

    def test_rejects_empty_tokens(self):
        with pytest.raises(InvalidInput):
            SentenceAnnotation(tokens=(), triples=())

    def test_char_spans_must_align_with_tokens(self):
        with pytest.raises(InvalidInput):
            SentenceAnnotation(
                tokens=("a", "b"),
                triples=(),
                char_spans=((0, 1),),
            )


class TestHandshakingTagging:
    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            HandshakingTagging(3, [(0,) * 5])  # seq_length(3) is 6
        with pytest.raises(InvalidInput):
            HandshakingTagging(3, (0,) * 6)  # one sequence, not a (2N+1, P) array
        with pytest.raises(InvalidInput):
            HandshakingTagging(3, [(0,) * 6, (0,) * 5, (0,) * 6])  # ragged

    def test_relation_sequences_must_pair_up(self):
        flat = (0,) * seq_length(3)
        with pytest.raises(InvalidInput):
            HandshakingTagging(3, [flat, flat])  # a head sequence without its tail

    def test_sequences_order_is_entity_subject_tail(self):
        flat = (0,) * seq_length(2)
        sh = ((1, 0, 0), (0, 1, 0))
        st = ((0, 0, 1), (1, 1, 0))
        tagging = HandshakingTagging(2, [flat, *sh, *st])
        assert tagging.n_relations == 2
        assert tagging.tags.shape == (5, 3) and tagging.tags.dtype == np.int8
        assert tagging.tags.tolist() == [list(flat), *map(list, sh), *map(list, st)]
        assert (tagging.eh2et, tagging.sh2oh, tagging.st2ot) == (flat, sh, st)

    def test_rejects_out_of_range_tags(self):
        for bad_tag in (3, -1, 255, 258):  # 258 would wrap to 2 in int8
            with pytest.raises(InvalidInput):
                HandshakingTagging(2, [(0, bad_tag, 0)])
            with pytest.raises(InvalidInput):
                HandshakingTagging(2, np.array([[0, bad_tag, 0]], dtype=np.int64))
        # the error names the row's field, as the tagging line parser does
        rows = np.zeros((5, 3), dtype=np.int64)
        rows[3, 2] = 3
        with pytest.raises(InvalidInput, match=r"st2ot\[0\] holds tag 3 at flat index 2"):
            HandshakingTagging(2, rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_rejects_non_integer_dtypes(self, dtype):
        with pytest.raises(InvalidInput):
            HandshakingTagging(2, np.array([[0, 1, 0]], dtype=dtype))

    def test_array_is_a_read_only_copy(self):
        source = np.array([[0, 1, 0], [1, 0, 2], [0, 0, 1]], dtype=np.int8)
        tagging = HandshakingTagging(2, source)
        assert not tagging.tags.flags.writeable
        with pytest.raises(ValueError):
            tagging.tags[0, 0] = 1
        source[0, 0] = 2  # the caller's array stays its own
        assert tagging.tags[0, 0] == 0
        with pytest.raises(AttributeError):
            tagging.n = 3

    def test_equality_compares_n_and_contents(self):
        rows = [[0, 1, 0], [1, 0, 2], [0, 0, 1]]
        tagging = HandshakingTagging(2, rows)
        same = HandshakingTagging(2, np.array(rows, dtype=np.uint8))
        assert tagging == same and hash(tagging) == hash(same)
        assert tagging != HandshakingTagging(2, [[0, 1, 0], [1, 0, 2], [0, 0, 2]])
        assert tagging != HandshakingTagging(1, [[0], [1], [0]])

    def test_link_tag_values(self):
        assert LinkTag.NONE == 0
        assert LinkTag.FORWARD == 1
        assert LinkTag.REVERSED == 2
