"""Tests for triple decoding: fixtures, oracle equivalence, and cost bounds."""

from __future__ import annotations

import random
import tracemalloc
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
    tagging_from_dense,
)
from pairlink import codec, decoding
from pairlink.codec import IndexMap
from pairlink.synth import random_annotation, random_tagging

from conftest import sequences_with, triple


def make_tagging(n, eh_cells, sh_cells_per_rel, st_cells_per_rel):
    cells = [eh_cells, *sh_cells_per_rel, *st_cells_per_rel]
    return tagging_from_dense(n, [sequences_with(n, c) for c in cells])


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
        # decode reads the tagging's cells and nothing else: no np.nonzero
        # scan, no tag array and no tuple view.  The figure's rows sit among
        # empty relation rows, which hold no cell.
        figure_schema, _, figure, expected = figure_fixture
        n_rel = len(figure_schema)
        schema = RelationSchema(figure_schema.relations + ("empty0", "empty1"))
        empty = np.zeros((2, figure.tags.shape[1]), dtype=np.int8)
        tagging = tagging_from_dense(figure.n, np.concatenate(
            [figure.tags[:1 + n_rel], empty, figure.tags[1 + n_rel:], empty]))
        tagged_rows = [0, 1, 2, 3, 6, 7, 8]
        assert np.unique(tagging.index // seq_length(figure.n)).tolist() == tagged_rows
        scanned = []
        real_nonzero = np.nonzero

        def counting_nonzero(a):
            scanned.append(a)
            return real_nonzero(a)

        def no_dense_rows(self):
            raise AssertionError("decode built a tag array or a tuple view")

        monkeypatch.setattr(np, "nonzero", counting_nonzero)
        for view in ("tags", "eh2et", "sh2oh", "st2ot"):
            monkeypatch.setattr(HandshakingTagging, view, property(no_dense_rows))
        assert decode(tagging, schema) == expected
        assert scanned == []


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
        tagging = tagging_from_dense(4, [sequences_with(4, c) for c in cells])
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
        dense = tagging_from_dense(n, np.ones((3, seq_length(n)), dtype=np.int8))
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


def cells_of(tagging):
    """The ascending (flat index, tag) arrays of the nonzero cells of a tagging's tag array."""
    flat = tagging.tags.ravel()
    index = np.flatnonzero(flat)
    return index, flat[index]


def outcome_and_warnings(decoder, tagging, schema, mode):
    """The decoded triples or the error's (class, message), and every warning's (message, file)."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            outcome = decoder(tagging, schema, mode)
        except InvalidInput as error:
            outcome = (InvalidInput, str(error))
    return outcome, [(str(w.message), w.filename) for w in record]


class TestDecodeCells:
    # decode reads a tagging's cells, whether the dense reader or entity-first
    # inference built it
    @staticmethod
    def seeded_taggings():
        """The seeded random taggings that tests/test_codec.py checks against the oracle."""
        rng = random.Random(77)
        cases = []
        for _ in range(60):
            schema = RelationSchema(tuple(f"r{r}" for r in range(rng.randint(1, 3))))
            cases.append((schema, random_tagging(rng, rng.randint(1, 12), len(schema),
                                                 zero_bias=rng.random())))
        cases.append((RelationSchema(tuple(f"rel{r:02d}" for r in range(24))),
                      random_tagging(rng, 100, 24, zero_bias=0.99)))
        cases.append((RelationSchema(("a", "b", "c")), random_tagging(rng, 5, 3, zero_bias=0.5)))
        return cases

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    def test_the_cells_decode_every_tagging_as_the_oracle_does(self, figure_fixture, schema2,
                                                               mode):
        figure_schema, _, figure, _ = figure_fixture
        cases = [(figure_schema, figure), *self.seeded_taggings()]
        reversed_entity = sum(2 in tagging.tags[0] for _, tagging in cases)
        # an entity row of reversed tags only, beside relation links that
        # would decode if those tags were forward
        cases.append((schema2, make_tagging(3, {(0, 1): 2, (2, 2): 2}, [{(0, 2): 1}, {}],
                                            [{(1, 2): 1}, {}])))
        # all-ones taggings past the budget, which the oracle does not cut:
        # 205,905 candidates at n=35 with one relation, and 24 relations at
        # n=30, cut in their first relation
        for n, n_rel in ((35, 1), (30, 24)):
            cases.append((RelationSchema(tuple(f"r{r}" for r in range(n_rel))),
                          tagging_from_dense(n, np.ones((2 * n_rel + 1, seq_length(n)),
                                                        dtype=np.int8))))
        raised = cut = decoded = 0
        for k, (schema, tagging) in enumerate(cases):
            # the tagging that inference would build from the same cells
            scored = HandshakingTagging(tagging.n, len(schema), *cells_of(tagging))
            got, got_warnings = outcome_and_warnings(decode, scored, schema, mode)
            assert (got, got_warnings) == outcome_and_warnings(decode, tagging, schema, mode)
            if k < len(cases) - 2:
                assert (got, got_warnings) == outcome_and_warnings(decode_oracle, tagging,
                                                                   schema, mode)
            assert len(got_warnings) <= 1
            assert all(filename == __file__ for _, filename in got_warnings)
            raised += isinstance(got, tuple)
            cut += len(got_warnings)
            decoded += isinstance(got, set) and len(got) > 0
        # strict: every reversed entity row raises, and so do the two past
        # the budget; of the rest only the figure decodes to triples
        assert (reversed_entity, raised, cut, decoded) == (
            (52, 55, 0, 1) if mode == "strict" else (52, 0, 2, 45))

    def test_strict_decode_raises_on_an_entity_row_of_reversed_tags_only(self, schema2):
        # decode returns no triples when the entity row holds no span, but
        # only after the strict check has seen the reversed tags
        tagging = make_tagging(3, {(0, 1): 2, (2, 2): 2}, [{(0, 2): 1}, {}], [{(1, 2): 1}, {}])
        for decoder in (decode, decode_oracle):
            with pytest.raises(InvalidInput, match="^reversed tag in entity sequence at flat "
                                                   "index 1$"):
                decoder(tagging, schema2, mode="strict")
            assert decoder(tagging, schema2, mode="lenient") == set()
        forward = make_tagging(3, {(0, 1): 1, (2, 2): 1}, [{(0, 2): 1}, {}], [{(1, 2): 1}, {}])
        assert decode(forward, schema2, mode="strict") == {triple(0, 1, 0, 2, 2)}

    @staticmethod
    def dense_decode(n):
        """An all-ones 24-relation tagging at n, its lenient decode, and decode's traced peak."""
        schema = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        dense = tagging_from_dense(n, np.ones((49, seq_length(n)), dtype=np.int8))
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="decode stopped"):
                kept = decode(dense, schema)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return dense, kept, peak

    def test_a_dense_tagging_sets_up_only_the_relations_its_sweep_reaches(self):
        # the budget cuts the sweep inside relation 0's head links, so only
        # that relation's head and tail links are read: 5.8 MB traced, most
        # of it the 50,335 triples kept, against 8.7 MB when every relation's
        # head links were listed up front; the bound is 5.8 MB plus 1.2 MB slack
        dense, kept, peak = self.dense_decode(100)
        assert kept and {t.relation for t in kept} == {0} and len(kept) == 50_335
        assert peak < 7 * 2 ** 20
        # the tagging holds a flat index (intp) and a tag (int8) per nonzero cell
        assert dense.index.nbytes + dense.tag.nbytes == 9 * 49 * seq_length(100)

    def test_a_dense_tagging_at_n200_reads_one_relation_at_a_time(self):
        # 9.0 MB traced, against 24.6 MB when every relation's head links
        # were listed up front; the bound is 9.0 MB plus 3 MB slack
        dense, kept, peak = self.dense_decode(200)
        assert kept and {t.relation for t in kept} == {0} and len(kept) == 40_199
        assert peak < 12 * 2 ** 20
        assert dense.index.nbytes + dense.tag.nbytes == 9 * 49 * seq_length(200)
