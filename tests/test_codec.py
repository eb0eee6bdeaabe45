"""Tests for pair indexing, tagging encode, conflicts, and serialization."""

from __future__ import annotations

import json
import random
import re
import warnings

import numpy as np
import pytest

from pairlink import (
    EncodeConflict,
    EncodeConflictError,
    InvalidIndex,
    InvalidInput,
    RelationSchema,
    TokenSpan,
    Triple,
    decode,
    decode_oracle,
    detect_conflicts,
    dump_tagging_line,
    encode,
    index_map,
    parse_tagging_line,
    phantom_triples,
    seq_index,
    seq_length,
)
from pairlink.codec import self_relating_triples, tagging_to_obj
from pairlink.synth import random_annotation, random_tagging

from conftest import annotation, triple


class TestPairIndexing:
    @pytest.mark.parametrize(
        "i,j,n,k",
        [(0, 0, 3, 0), (1, 2, 3, 4), (2, 2, 3, 5), (0, 4, 5, 4), (99, 99, 100, 5049)],
    )
    def test_seq_index_pinned(self, i, j, n, k):
        assert seq_index(i, j, n) == k

    def test_round_trip_all_cells(self):
        for n in range(1, 41):
            m = index_map(n)
            k = 0
            for i in range(n):
                for j in range(i, n):
                    assert seq_index(i, j, n) == k
                    assert (m.rows[k], m.cols[k]) == (i, j)
                    k += 1
            assert k == seq_length(n) == m.length

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidIndex):
            seq_index(1, 0, 3)  # lower triangle
        with pytest.raises(InvalidIndex):
            seq_index(0, 3, 3)

    def test_index_map_matches_functions_and_caches(self):
        m = index_map(9)
        assert m is index_map(9)
        assert m.length == seq_length(9)
        assert len(m.rows) == len(m.cols) == m.length
        # independent oracle: walk the flattened sequence cell by cell
        flat = [(i, j) for i in range(9) for j in range(i, 9)]
        assert list(zip(m.rows.tolist(), m.cols.tolist())) == flat
        for k, (i, j) in enumerate(flat):
            assert m.row_start[i] + (j - i) == seq_index(i, j, 9) == k
        assert m.rows.dtype == m.cols.dtype == np.int64
        assert not m.rows.flags.writeable and not m.cols.flags.writeable


class TestEncode:
    def test_figure_annotation_produces_pinned_cells(self, figure_fixture):
        schema, tokens, expected_tagging, expected_triples = figure_fixture
        ann = annotation(len(tokens), sorted(expected_triples), tokens=tokens)
        tagging = encode(ann, schema)
        assert tagging == expected_tagging
        n = len(tokens)
        # spot-check the hand-derived cells
        assert tagging.eh2et[seq_index(0, 1, n)] == 1
        assert tagging.eh2et[seq_index(0, 2, n)] == 1
        assert tagging.eh2et[seq_index(3, 4, n)] == 1
        assert tagging.sh2oh[0][seq_index(0, 3, n)] == 1
        assert tagging.st2ot[0][seq_index(1, 4, n)] == 1
        assert tagging.sh2oh[1][seq_index(0, 3, n)] == 2
        assert tagging.st2ot[1][seq_index(1, 4, n)] == 2
        assert tagging.st2ot[1][seq_index(2, 4, n)] == 2

    def test_single_triple_minimal_cells(self, schema2):
        ann = annotation(5, [triple(0, 1, 1, 3, 4)])
        tagging = encode(ann, schema2)
        assert sum(tagging.eh2et) == 2  # two entity spans
        assert sum(tagging.sh2oh[0]) == 0 and sum(tagging.st2ot[0]) == 0
        assert sum(tagging.sh2oh[1]) == 1 and sum(tagging.st2ot[1]) == 1

    def test_rejects_relation_id_outside_schema(self, schema2):
        ann = annotation(3, [triple(0, 0, 5, 1, 1)])
        with pytest.raises(InvalidInput):
            encode(ann, schema2)

    def test_opposite_links_conflict(self, schema2):
        # A->B and B->A under the same relation demand tag 1 and tag 2
        # in the same head cell and the same tail cell.
        ann = annotation(4, [triple(0, 1, 0, 2, 3), triple(2, 3, 0, 0, 1)])
        conflicts = detect_conflicts(ann, schema2)
        assert {(c.kind, c.relation, c.pair) for c in conflicts} == {
            ("sh2oh", 0, (0, 2)),
            ("st2ot", 0, (1, 3)),
        }
        with pytest.raises(EncodeConflictError) as exc_info:
            encode(ann, schema2, mode="strict")
        assert len(exc_info.value.conflicts) == 2

    def test_lenient_conflict_keeps_forward_tag(self, schema2):
        ann = annotation(4, [triple(2, 3, 0, 0, 1), triple(0, 1, 0, 2, 3)])
        tagging = encode(ann, schema2, mode="lenient")
        assert len(detect_conflicts(ann, schema2)) == 2
        # regardless of triple order, the forward tag wins the cell
        assert tagging.sh2oh[0][seq_index(0, 2, 4)] == 1
        assert tagging.st2ot[0][seq_index(1, 3, 4)] == 1
        swapped = annotation(4, [triple(0, 1, 0, 2, 3), triple(2, 3, 0, 0, 1)])
        assert encode(swapped, schema2, mode="lenient") == tagging

    def test_same_relation_opposite_links_in_distinct_cells_coexist(self, schema2):
        # reversal is only a conflict when it lands in the same cell
        ann = annotation(6, [triple(0, 0, 0, 2, 2), triple(4, 4, 0, 1, 1)])
        assert detect_conflicts(ann, schema2) == []
        tagging = encode(ann, schema2)
        assert tagging.sh2oh[0][seq_index(0, 2, 6)] == 1
        assert tagging.sh2oh[0][seq_index(1, 4, 6)] == 2

    def test_conflicts_are_listed_in_triple_order_and_repeat(self):
        # the second triple clashes in both link cells; the third clashes
        # again with the forward tag the head cell was left holding
        schema = RelationSchema(("a", "b"))
        ann = annotation(4, [triple(2, 3, 0, 0, 1), triple(0, 1, 0, 2, 3),
                             triple(2, 3, 0, 0, 0)])
        assert detect_conflicts(ann, schema) == [
            EncodeConflict("sh2oh", 0, (0, 2), 2, 1),
            EncodeConflict("st2ot", 0, (1, 3), 2, 1),
            EncodeConflict("sh2oh", 0, (0, 2), 1, 2),
        ]
        with pytest.raises(EncodeConflictError) as exc_info:
            encode(ann, schema)
        assert str(exc_info.value) == (
            "3 tag conflict(s); first: sh2oh cell (0, 2) of relation 0 "
            "wants both tag 2 and tag 1"
        )
        assert encode(ann, schema, mode="lenient").tags.tolist() == [
            [1, 1, 0, 0, 0, 0, 0, 0, 1, 0],
            [0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
            [0] * 10,
            [0, 0, 0, 2, 0, 0, 1, 0, 0, 0],
            [0] * 10,
        ]

    def test_seeded_sweep_matches_a_cell_by_cell_tagging(self):
        # reference: each cell collects the tags its triples demand, and
        # holds 1 when both directions are demanded (forward wins)
        rng = random.Random(30)
        clashing = 0
        for _ in range(300):
            n, n_rel = rng.randint(1, 30), rng.randint(1, 4)
            schema = RelationSchema(tuple(f"r{k}" for k in range(n_rel)))

            def span():
                head = rng.randrange(n)
                return TokenSpan(head, min(n - 1, head + rng.randrange(3)))

            triples = []
            for _ in range(rng.randint(0, 6)):
                t = Triple(span(), rng.randrange(n_rel), span())
                triples.append(t)
                if rng.random() < 0.3:  # force a reversed duplicate
                    triples.append(Triple(t.object, t.relation, t.subject))
            rng.shuffle(triples)
            ann = annotation(n, triples)
            demanded: dict[tuple[int, int], set[int]] = {}
            for t in triples:
                for s in (t.subject, t.object):
                    demanded.setdefault((0, seq_index(s.head, s.tail, n)), set()).add(1)
                for row, a, b in ((1 + t.relation, t.subject.head, t.object.head),
                                  (1 + n_rel + t.relation, t.subject.tail, t.object.tail)):
                    cell = (row, seq_index(min(a, b), max(a, b), n))
                    demanded.setdefault(cell, set()).add(1 if a <= b else 2)
            expected = np.zeros((2 * n_rel + 1, seq_length(n)), dtype=np.int8)
            for cell, tags in demanded.items():
                expected[cell] = min(tags)
            assert np.array_equal(encode(ann, schema, mode="lenient").tags, expected)
            conflicts = detect_conflicts(ann, schema)
            assert bool(conflicts) == any(len(tags) == 2 for tags in demanded.values())
            if conflicts:
                clashing += 1
                with pytest.raises(EncodeConflictError) as exc_info:
                    encode(ann, schema)
                assert exc_info.value.conflicts == conflicts
            else:
                assert np.array_equal(encode(ann, schema).tags, expected)
        assert 50 < clashing < 250  # both branches are exercised

    def test_self_relating_triple_round_trips(self, schema2):
        t = triple(1, 2, 0, 1, 2)
        ann = annotation(4, [t])
        assert self_relating_triples(ann) == (t,)
        tagging = encode(ann, schema2)
        # diagonal-ish cells: head link (1,1), tail link (2,2)
        assert tagging.sh2oh[0][seq_index(1, 1, 4)] == 1
        assert decode(tagging, schema2) == frozenset({t})

    def test_mode_is_validated(self, schema2):
        ann = annotation(2, [])
        with pytest.raises(InvalidInput):
            encode(ann, schema2, mode="forgiving")


class TestRoundTrip:
    def test_seeded_annotations_round_trip(self, schema2):
        rng = random.Random(1234)
        for _ in range(300):
            ann = random_annotation(rng, schema2, n_max=12, max_triples=6)
            tagging = encode(ann, schema2)
            assert decode(tagging, schema2) == ann.triple_set()

    @pytest.mark.parametrize("n", [101, 250, 500])
    def test_sentences_past_100_tokens_round_trip(self, schema2, n):
        # lengths past the cap sentences used to be cut to: one annotation
        # whose spans reach the last token, then seeded ones of length n
        reaching = annotation(n, [triple(0, 1, 0, n - 3, n - 1), triple(n - 1, n - 1, 1, 99, 100)])
        rng = random.Random(n)
        seeded = [random_annotation(rng, schema2, n_min=n, n_max=n, max_triples=6, min_triples=1)
                  for _ in range(10)]
        for ann in [reaching, *seeded]:
            tagging = encode(ann, schema2)
            assert decode(tagging, schema2, mode="strict") == ann.triple_set()
            assert decode_oracle(tagging, schema2) == ann.triple_set()
            parsed, _ = parse_tagging_line(dump_tagging_line(tagging, schema2))
            assert parsed == tagging

    def test_phantom_counterexample_is_closed_not_lost(self):
        # Head links and tail pairs recombine across triples of one relation:
        # the gold set below is cell-conflict-free yet not losslessly
        # encodable, and the decoder must surface the recombined triple.
        schema = RelationSchema(("r",))
        gold = (
            triple(0, 1, 0, 5, 6),
            triple(0, 2, 0, 5, 7),
            triple(1, 1, 0, 6, 7),
        )
        phantom = triple(0, 1, 0, 5, 7)
        ann = annotation(8, gold)
        assert detect_conflicts(ann, schema) == []
        assert phantom_triples(ann, schema) == frozenset({phantom})
        decoded = decode(encode(ann, schema), schema)
        assert decoded == ann.triple_set() | {phantom}

    def test_generator_output_is_phantom_free(self, schema2):
        rng = random.Random(99)
        for _ in range(200):
            ann = random_annotation(rng, schema2, n_max=10, max_triples=5)
            assert phantom_triples(ann, schema2) == frozenset()


class TestSerialization:
    def test_line_round_trip_is_byte_stable(self, figure_fixture):
        schema, _, figure, _ = figure_fixture
        rng = random.Random(77)
        cases = [(schema, figure)]
        for _ in range(60):
            rel_schema = RelationSchema(tuple(f"r{r}" for r in range(rng.randint(1, 3))))
            cases.append((rel_schema, random_tagging(rng, rng.randint(1, 12), len(rel_schema),
                                                     zero_bias=rng.random())))
        paper = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        cases.append((paper, random_tagging(rng, 100, 24, zero_bias=0.99)))
        # names json.dumps escapes: non-ASCII, a quote, a backslash, a control character
        odd = RelationSchema(("née_à", 'say "true"', "back\\slash\t"))
        cases.append((odd, random_tagging(rng, 5, 3, zero_bias=0.5)))
        # the figure is strict decoding's control for valid reversed head and tail tags
        assert figure.tags[0].max() == 1 and figure.tags[1:].max() == 2
        compared = 0
        for rel_schema, tagging in cases:
            # decode equals the oracle on every tagging its budget does not cut
            with warnings.catch_warnings(record=True) as cut:
                warnings.simplefilter("always")
                decoded = decode(tagging, rel_schema)
            if not cut:
                assert decoded == decode_oracle(tagging, rel_schema)
                compared += 1
            line = dump_tagging_line(tagging, rel_schema)
            assert line == json.dumps(tagging_to_obj(tagging, rel_schema), separators=(",", ":"))
            parsed_tagging, parsed_schema = parse_tagging_line(line)
            # random taggings may hold reversed entity tags, which only lenient decoding reads
            if tagging.tags[0].max() == 2:
                with pytest.raises(InvalidInput, match="reversed tag in entity sequence"):
                    decode(parsed_tagging, parsed_schema, mode="strict")
            assert parsed_tagging == tagging
            assert parsed_schema == rel_schema
            assert dump_tagging_line(parsed_tagging, parsed_schema) == line
            assert "\n" not in line
        assert compared == len(cases) == 63  # no tagging here comes near the budget

    def test_obj_shape(self, schema2):
        tagging = encode(annotation(3, [triple(0, 0, 0, 1, 2)]), schema2)
        obj = tagging_to_obj(tagging, schema2)
        assert sorted(obj) == ["eh2et", "n", "relations", "sh2oh", "st2ot"]
        assert obj["n"] == 3
        assert obj["relations"] == ["works_for", "lives_in"]
        assert len(obj["sh2oh"]) == len(obj["st2ot"]) == 2

    def test_schema_size_must_match(self, figure_fixture, schema2):
        _, _, tagging, _ = figure_fixture
        with pytest.raises(InvalidInput):
            tagging_to_obj(tagging, schema2)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("eh2et"),
            lambda o: o.__setitem__("n", "3"),
            lambda o: o.__setitem__("sh2oh", o["sh2oh"][:-1]),
            lambda o: o["st2ot"][0].__setitem__(0, 7),
            # well formed, but a reversed tag in the entity sequence: strict decoding rejects it
            lambda o: o["eh2et"].__setitem__(0, 2),
            lambda o: o.__setitem__("eh2et", None),
            lambda o: o.__setitem__("sh2oh", 5),
            lambda o: o["sh2oh"].__setitem__(1, 5),
            lambda o: o["st2ot"].__setitem__(2, "0" * 15),  # right length, not a list
            lambda o: o.__setitem__("relations", "abc"),  # three letters, three relations
            lambda o: o.__setitem__("relations", ["mayor", 1, "live_in"]),
            # n = 1 with one-cell sequences is well formed, except that n is a bool
            lambda o: o.update(n=True, eh2et=[0], sh2oh=[[0]] * 3, st2ot=[[0]] * 3),
            lambda o: o["sh2oh"][0].__setitem__(3, 1.0),  # the mayor head link, as a float
            lambda o: o["st2ot"][0].__setitem__(8, True),  # the mayor tail link, as a bool
            lambda o: o["eh2et"].__setitem__(1, False),
            lambda o: o["st2ot"][1].__setitem__(0, 300),
            lambda o: o["st2ot"][1].__setitem__(0, -1),
            lambda o: o["sh2oh"][2].pop(),
        ],
    )
    def test_strict_parse_rejects_corrupt_lines(self, figure_fixture, mutate):
        # read as `pairlink decode --mode strict` reads a line: parse, then strict decode
        schema, _, tagging, _ = figure_fixture
        obj = tagging_to_obj(tagging, schema)
        mutate(obj)
        with pytest.raises(InvalidInput):
            decode(*parse_tagging_line(json.dumps(obj)), mode="strict")

    @pytest.mark.parametrize("relations, problem", [
        (["mayor", 1, "live_in"], "relation names must be non-empty strings, got 1"),
        (["mayor", None, "live_in"], "relation names must be non-empty strings, got None"),
        (["mayor", "", "live_in"], "relation names must be non-empty strings, got ''"),
        (["mayor", "mayor", "live_in"], "duplicate relation name: 'mayor'"),
    ])
    def test_parse_holds_relation_names_to_the_schema_rule(self, figure_fixture,
                                                           relations, problem):
        schema, _, tagging, _ = figure_fixture
        obj = tagging_to_obj(tagging, schema)
        obj["relations"] = relations
        with pytest.raises(InvalidInput, match=f"^{re.escape(problem)}$"):
            parse_tagging_line(json.dumps(obj))

    @pytest.mark.parametrize("separators", [(",", ":"), (", ", ": ")])
    @pytest.mark.parametrize("tag", [True, False])
    def test_parse_finds_bools_when_names_hold_true_or_false(self, separators, tag):
        schema = RelationSchema(("is_true_of", "false_friend"))
        tagging = encode(annotation(3, [triple(0, 0, 0, 1, 2)]), schema)
        obj = tagging_to_obj(tagging, schema)
        obj["st2ot"][1][4] = tag
        with pytest.raises(InvalidInput, match="holds tag"):
            parse_tagging_line(json.dumps(obj, separators=separators))

    @pytest.mark.parametrize("tag", [7, 300, -1, True, 1.0])
    def test_every_bad_tag_gets_one_message_naming_its_field(self, figure_fixture, tag):
        # 7 passes bytes() and is rejected by HandshakingTagging; the others
        # are rejected while the rows are read
        schema, _, tagging, _ = figure_fixture
        obj = tagging_to_obj(tagging, schema)
        obj["st2ot"][1][4] = tag
        want = f"corrupt tagging: st2ot[1] holds tag {tag!r} at flat index 4, expected 0, 1 or 2"
        with pytest.raises(InvalidInput) as info:
            parse_tagging_line(json.dumps(obj))
        assert str(info.value) == want

    def test_lenient_parse_accepts_reversed_entity_tag(self, figure_fixture):
        schema, _, tagging, expected = figure_fixture
        obj = tagging_to_obj(tagging, schema)
        obj["eh2et"][0] = 2
        parsed, parsed_schema = parse_tagging_line(json.dumps(obj))
        assert parsed.eh2et[0] == 2
        # the rule belongs to decoding: strict mode raises, lenient mode ignores the tag
        with pytest.raises(InvalidInput, match="^reversed tag in entity sequence at flat index 0$"):
            decode(parsed, parsed_schema, mode="strict")
        assert decode(parsed, parsed_schema, mode="lenient") == expected

    def test_parse_rejects_non_json(self):
        with pytest.raises(InvalidInput):
            parse_tagging_line("not json at all")
