"""Tests for triple decoding: fixtures, oracle equivalence, and cost bounds."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from pairlink import (
    HandshakingTagging,
    InvalidInput,
    RelationSchema,
    TokenSpan,
    Triple,
    decode,
    decode_oracle,
    encode,
    seq_length,
)
from pairlink import codec, decoding
from pairlink.codec import IndexMap
from pairlink.synth import random_annotation, random_tagging

from conftest import sequences_with, triple


def make_tagging(n, eh_cells, sh_cells_per_rel, st_cells_per_rel):
    cells = [eh_cells, *sh_cells_per_rel, *st_cells_per_rel]
    return HandshakingTagging(n, [sequences_with(n, c) for c in cells])


def self_links(n, eh_cells):
    """A one-relation tagging whose head and tail rows link every token to
    itself, so it decodes to one self-relating triple per entity span."""
    diagonal = {(i, i): 1 for i in range(n)}
    return make_tagging(n, eh_cells, [diagonal], [diagonal])


class TestOracleEntities:
    def test_spans_come_from_the_entity_row(self):
        tagging = self_links(4, {(0, 1): 1, (0, 2): 1, (3, 3): 1})
        spans = {TokenSpan(0, 1), TokenSpan(0, 2), TokenSpan(3, 3)}
        got = decode_oracle(tagging, RelationSchema(("r",)))
        assert {t.subject for t in got} == spans
        assert got == {Triple(s, 0, s) for s in spans}

    def test_reversed_tag_lenient_vs_strict(self):
        tagging = self_links(3, {(0, 1): 2, (2, 2): 1})
        schema = RelationSchema(("r",))
        got = decode_oracle(tagging, schema, mode="lenient")
        assert {t.subject for t in got} == {TokenSpan(2, 2)}
        with pytest.raises(InvalidInput):
            decode_oracle(tagging, schema, mode="strict")


def test_oracle_shares_no_index_map_with_decode(figure_fixture, monkeypatch):
    # a pair map that sends every flat index to the wrong cell: decode reads
    # through it, the oracle must not
    def wrong_index_map(n):
        imap = IndexMap(n)
        imap.rows, imap.cols = imap.rows[::-1], imap.cols[::-1]
        return imap

    schema, _, tagging, expected = figure_fixture
    for module in (codec, decoding):
        monkeypatch.setattr(module, "index_map", wrong_index_map)
    assert decode(tagging, schema) != expected
    assert decode_oracle(tagging, schema) == expected
    assert decode_oracle(tagging, schema, mode="strict") == expected


class TestDecode:
    def test_figure_fixture_decodes_to_five_triples(self, figure_fixture):
        schema, _, tagging, expected = figure_fixture
        assert decode(tagging, schema) == expected
        assert decode_oracle(tagging, schema) == expected

    def test_forward_link(self, schema2):
        tagging = make_tagging(
            4,
            {(0, 0): 1, (2, 3): 1},
            [{(0, 2): 1}, {}],
            [{(0, 3): 1}, {}],
        )
        assert decode(tagging, schema2) == {triple(0, 0, 0, 2, 3)}

    def test_reversed_link_swaps_subject_and_object(self, schema2):
        tagging = make_tagging(
            4,
            {(0, 0): 1, (2, 3): 1},
            [{(0, 2): 2}, {}],
            [{(0, 3): 2}, {}],
        )
        assert decode(tagging, schema2) == {triple(2, 3, 0, 0, 0)}

    def test_diagonal_reversed_tag_equals_forward(self, schema2):
        base_eh = {(0, 1): 1, (0, 2): 1}
        tails = [{(1, 2): 1}, {}]
        with_one = make_tagging(3, base_eh, [{(0, 0): 1}, {}], tails)
        with_two = make_tagging(3, base_eh, [{(0, 0): 2}, {}], tails)
        expected = {triple(0, 1, 0, 0, 2)}
        assert decode(with_one, schema2) == expected
        assert decode(with_two, schema2) == expected

    def test_head_link_without_matching_tail_pair_yields_nothing(self, schema2):
        tagging = make_tagging(
            4,
            {(0, 0): 1, (2, 3): 1},
            [{(0, 2): 1}, {}],
            [{}, {(0, 3): 1}],  # tail pair under the wrong relation
        )
        assert decode(tagging, schema2) == set()

    def test_tail_pair_without_entities_yields_nothing(self, schema2):
        tagging = make_tagging(4, {}, [{(0, 2): 1}, {}], [{(1, 3): 1}, {}])
        assert decode(tagging, schema2) == set()

    def test_one_head_cell_fans_out_over_span_candidates(self, schema2):
        # two subject spans share head 0; both tail pairs are present
        tagging = make_tagging(
            5,
            {(0, 1): 1, (0, 2): 1, (4, 4): 1},
            [{(0, 4): 1}, {}],
            [{(1, 4): 1, (2, 4): 1}, {}],
        )
        assert decode(tagging, schema2) == {
            triple(0, 1, 0, 4, 4),
            triple(0, 2, 0, 4, 4),
        }

    def test_schema_size_must_match(self, figure_fixture, schema2):
        _, _, tagging, _ = figure_fixture
        with pytest.raises(InvalidInput):
            decode(tagging, schema2)

    def test_strict_mode_rejects_reversed_entity_tag(self, schema2):
        tagging = make_tagging(3, {(0, 1): 2}, [{}, {}], [{}, {}])
        with pytest.raises(InvalidInput):
            decode(tagging, schema2, mode="strict")
        assert decode(tagging, schema2, mode="lenient") == set()


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_taggings_agree(self, seed):
        rng = random.Random(seed)
        schema = RelationSchema(("r0", "r1", "r2"))
        for _ in range(400):
            n = rng.randint(1, 10)
            tagging = random_tagging(rng, n, len(schema))
            assert decode(tagging, schema) == decode_oracle(tagging, schema)

    def test_dense_taggings_agree(self):
        rng = random.Random(7)
        schema = RelationSchema(("r0",))
        for _ in range(100):
            n = rng.randint(1, 6)
            tagging = random_tagging(rng, n, 1, zero_bias=0.3)
            assert decode(tagging, schema) == decode_oracle(tagging, schema)


    def test_paper_scale_sparse_taggings_agree(self):
        # n=100 and 24 relations, as in NYT: an encoded annotation with
        # nested and shared spans, and an arbitrary tagging with ~0.2% links
        rng = random.Random(2020)
        schema = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        ann = random_annotation(rng, schema, n_min=100, n_max=100, min_triples=6,
                                max_triples=8, max_width=6)
        encoded = encode(ann, schema)
        assert decode(encoded, schema) == decode_oracle(encoded, schema) == ann.triple_set()
        tagging = random_tagging(rng, 100, len(schema), zero_bias=0.998)
        assert decode(tagging, schema) == decode_oracle(tagging, schema)


class TestDecodeCost:
    def test_each_sequence_is_swept_exactly_once(self, figure_fixture, monkeypatch):
        # decode first finds the rows that hold a tag (a 1-D scan of a row
        # mask); one np.nonzero then reads the cells of those rows and no
        # others, and the tuple views are never built.  The figure's rows sit
        # among empty relation rows, as under entity-first inference.
        figure_schema, _, figure, expected = figure_fixture
        n_rel = len(figure_schema)
        schema = RelationSchema(figure_schema.relations + ("empty0", "empty1"))
        empty = np.zeros((2, figure.tags.shape[1]), dtype=np.int8)
        tagging = HandshakingTagging(figure.n, np.concatenate(
            [figure.tags[:1 + n_rel], empty, figure.tags[1 + n_rel:], empty]))
        tagged_rows = [0, 1, 2, 3, 6, 7, 8]
        scanned = []
        real_nonzero = np.nonzero

        def counting_nonzero(a):
            scanned.append(a)
            return real_nonzero(a)

        def no_tuple_views(self):
            raise AssertionError("decode converted a tag row to Python ints")

        monkeypatch.setattr(np, "nonzero", counting_nonzero)
        for view in ("eh2et", "sh2oh", "st2ot"):
            monkeypatch.setattr(HandshakingTagging, view, property(no_tuple_views))
        assert decode(tagging, schema) == expected
        cell_scans = [a for a in scanned if np.ndim(a) == 2]
        assert len(cell_scans) == 1
        assert np.array_equal(cell_scans[0], tagging.tags[tagged_rows])
        assert all(np.shape(a) == (len(tagging.tags),) for a in scanned if np.ndim(a) != 2)


def decode_outcome(decoder, tagging, schema, mode):
    """The decoded triples, or the exception class when decoding raises."""
    try:
        return decoder(tagging, schema, mode=mode)
    except InvalidInput:
        return InvalidInput


class TestRowSkipEdges:
    # decode skips the rows that hold no tag; it must still agree with the
    # oracle, in both modes, when the tagged rows are the first, the last,
    # or none
    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    @pytest.mark.parametrize(
        "cells, want",
        [
            pytest.param([{}, {}, {}, {}, {}], set(), id="all-zero"),
            pytest.param([{(0, 1): 1, (3, 3): 1}, {}, {}, {}, {}], set(), id="entity-row-only"),
            pytest.param([{(0, 1): 1, (3, 3): 1}, {}, {}, {}, {(1, 3): 1, (0, 0): 2}], set(),
                         id="last-tail-row-only"),
            pytest.param([{(0, 0): 1, (2, 3): 2}, {(0, 0): 1}, {}, {(0, 0): 1}, {}],
                         {triple(0, 0, 0, 0, 0)}, id="reversed-entity-tag"),
        ],
    )
    def test_decode_equals_oracle(self, schema2, mode, cells, want):
        tagging = HandshakingTagging(4, [sequences_with(4, c) for c in cells])
        got = decode_outcome(decode, tagging, schema2, mode)
        assert got == decode_outcome(decode_oracle, tagging, schema2, mode)
        reversed_entity = 2 in tagging.tags[0]
        assert got == (InvalidInput if reversed_entity and mode == "strict" else want)


class TestDecodeBudget:
    # spans at heads 0 and 3, and one diagonal head and tail link per token:
    # the head links cost 3 x 3, 0, 0 and 1 x 1 candidates in sweep order
    SPANS = {(0, 0): 1, (0, 1): 1, (0, 2): 1, (3, 3): 1}

    def test_each_head_link_costs_its_subject_spans_times_its_object_spans(self, monkeypatch):
        tagging, schema = self_links(4, self.SPANS), RelationSchema(("r",))
        every = decode_oracle(tagging, schema)
        monkeypatch.setattr(decoding, "DECODE_BUDGET", 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decode(tagging, schema) == decode(tagging, schema, mode="strict") == every
        monkeypatch.setattr(decoding, "DECODE_BUDGET", 9)
        with pytest.warns(UserWarning, match="^decode stopped at 9 candidate pairs; "
                                             "kept 3 triples$") as record:
            kept = decode(tagging, schema)
        assert record[0].filename == __file__
        assert kept == {t for t in every if t.subject.head == 0} and len(every) == 4
        with pytest.raises(InvalidInput, match="^tagging needs more than 9 candidate pairs$"):
            decode(tagging, schema, mode="strict")

    def test_the_budget_is_shared_by_every_relation_of_the_tagging(self, monkeypatch):
        # each relation alone costs 10; the second one's first head link
        # brings the tagging to 19
        diagonal = {(i, i): 1 for i in range(4)}
        tagging = make_tagging(4, self.SPANS, [diagonal, diagonal], [diagonal, diagonal])
        schema = RelationSchema(("r", "s"))
        every = decode_oracle(tagging, schema)
        monkeypatch.setattr(decoding, "DECODE_BUDGET", 15)
        with pytest.warns(UserWarning, match="^decode stopped at 15 candidate pairs; "
                                             "kept 4 triples$"):
            kept = decode(tagging, schema)
        assert kept == {t for t in every if t.relation == 0} and len(every) == 8
        with pytest.raises(InvalidInput, match="^tagging needs more than 15 candidate pairs$"):
            decode(tagging, schema, mode="strict")
        monkeypatch.setattr(decoding, "DECODE_BUDGET", 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert decode(tagging, schema) == decode(tagging, schema, mode="strict") == every

    def test_a_dense_tagging_is_cut_at_the_same_triples_every_time(self, monkeypatch):
        # every cell holds tag 1: 205,905 candidates at n=35 with one relation
        n, schema = 35, RelationSchema(("r",))
        dense = HandshakingTagging(n, np.ones((3, seq_length(n)), dtype=np.int8))
        with pytest.warns(UserWarning, match="decode stopped") as record:
            first, second = decode(dense, schema), decode(dense, schema)
        assert len(record) == 2 and first == second
        assert f"kept {len(first):,} triples" in str(record[0].message)
        with pytest.raises(InvalidInput, match="candidate pairs"):
            decode(dense, schema, mode="strict")
        monkeypatch.setattr(decoding, "DECODE_BUDGET", 205_905)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = decode(dense, schema)
        assert first and first < whole
