"""Tests for core value types and the pair-sequence length law."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from pairlink import (
    HandshakingTagging,
    InvalidIndex,
    InvalidInput,
    ModelParams,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TaggerParams,
    TokenSpan,
    TrainConfig,
    Triple,
    build_vocab,
    decode,
    decode_oracle,
    encode,
    infer,
    infer_batch,
    init_model,
    load_dataset,
    micro_prf,
    parse_tagging_line,
    seq_index,
    seq_length,
    tag_distribution,
    tagging_from_dense,
)
from pairlink import model

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

    @pytest.mark.parametrize("names", [(1, 2), (True,), ("a", None), (b"a",)])
    def test_rejects_names_that_are_not_strings(self, names):
        # (1, 2) and (True,) built, and a tagging line or checkpoint written
        # with them could not be read back
        with pytest.raises(InvalidInput, match="^relation names must be non-empty strings, got "):
            RelationSchema(names)

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

    @pytest.mark.parametrize("spans", [((5, 2),), ((2, 1),), ((0, 3),), ((0, 1), (1, 3))])
    def test_char_spans_must_fit_the_text(self, spans):
        with pytest.raises(InvalidInput, match="does not fit a text of 2 characters"):
            SentenceAnnotation(("a",) * len(spans), text="ab", char_spans=spans)

    def test_char_spans_may_be_empty_or_reach_the_end_of_the_text(self):
        ann = SentenceAnnotation(("a", "b", "c"), text="ab", char_spans=((0, 0), (0, 1), (2, 2)))
        assert ann.char_spans == ((0, 0), (0, 1), (2, 2))


# what breaks the cells index [0, 5, 7], tag [1, 2, 1] of a one-relation
# tagging at n=2 (rows 0..2 of 3 pairs, flat indices 0..8) -> the error
CELL_REJECTIONS = {
    "index in row 2N+1": ({"index": [0, 5, 9]}, "each index must lie in 0..8, got 9"),
    "negative index": ({"index": [-1, 5, 7]}, "each index must lie in 0..8, got -1"),
    "index that a cast would wrap": ({"index": np.array([0, 5, 2 ** 63], dtype=np.uint64)},
                                     f"each index must lie in 0..8, got {2 ** 63}"),
    "index past int64": ({"index": [0, 5, 2 ** 64 + 7]},
                         "index must be a 1-D integer array, got object[3]"),
    "unsorted index": ({"index": [5, 0, 7]}, "index must be strictly ascending"),
    "repeated index": ({"index": [0, 5, 5]}, "index must be strictly ascending"),
    "tag 0": ({"tag": [0, 2, 1]}, "each tag must lie in 1..2, got 0"),
    "tag 3": ({"tag": [1, 3, 1]}, "each tag must lie in 1..2, got 3"),
    "tag that int8 would wrap to 2": ({"tag": [1, 258, 1]}, "each tag must lie in 1..2, got 258"),
    "float dtype": ({"index": [0.0, 5.0, 7.0]},
                    "index must be a 1-D integer array, got float64[3]"),
    "bool dtype": ({"tag": [True, True, True]}, "tag must be a 1-D integer array, got bool[3]"),
    "2-D array": ({"index": [[0, 5, 7]]}, "index must be a 1-D integer array, got int64[1, 3]"),
    # escaped as NumPy's raw ValueError ("setting an array element with a sequence")
    "ragged index": ({"index": [[0], [5, 7]]},
                     "index must be a 1-D integer array, got a ragged sequence"),
    "ragged tag": ({"tag": [[1, 2], [1]]}, "tag must be a 1-D integer array, got a ragged sequence"),
    "short tag": ({"tag": [1, 2]}, "index and tag must have equal lengths, got 3 and 2"),
    "short index": ({"index": [0, 5]}, "index and tag must have equal lengths, got 2 and 3"),
}


class TestHandshakingTagging:
    # the dense reader: a whole (2N+1, P) tag array
    def test_shape_validation(self):
        with pytest.raises(InvalidInput):
            tagging_from_dense(3, [(0,) * 5])  # seq_length(3) is 6
        with pytest.raises(InvalidInput):
            tagging_from_dense(3, (0,) * 6)  # one sequence, not a (2N+1, P) array
        with pytest.raises(InvalidInput):
            tagging_from_dense(3, [(0,) * 6, (0,) * 5, (0,) * 6])  # ragged

    def test_relation_sequences_must_pair_up(self):
        flat = (0,) * seq_length(3)
        with pytest.raises(InvalidInput):
            tagging_from_dense(3, [flat, flat])  # a head sequence without its tail

    def test_sequences_order_is_entity_subject_tail(self):
        flat = (0,) * seq_length(2)
        sh = ((1, 0, 0), (0, 1, 0))
        st = ((0, 0, 1), (1, 1, 0))
        tagging = tagging_from_dense(2, [flat, *sh, *st])
        assert tagging.n_relations == 2
        assert tagging.tags.shape == (5, 3) and tagging.tags.dtype == np.int8
        assert tagging.tags.tolist() == [list(flat), *map(list, sh), *map(list, st)]
        assert (tagging.eh2et, tagging.sh2oh, tagging.st2ot) == (flat, sh, st)
        # rows 1, 2, 3, 4, 4 at pairs 0, 1, 2, 0, 1 of 3
        assert (tagging.index.tolist(), tagging.tag.tolist()) == ([3, 7, 11, 12, 13], [1] * 5)

    def test_rejects_out_of_range_tags(self):
        for bad_tag in (3, -1, 255, 258):  # 258 would wrap to 2 in int8
            with pytest.raises(InvalidInput):
                tagging_from_dense(2, [(0, bad_tag, 0)])
            with pytest.raises(InvalidInput):
                tagging_from_dense(2, np.array([[0, bad_tag, 0]], dtype=np.int64))
        # the error names the row's field, as the tagging line parser does
        rows = np.zeros((5, 3), dtype=np.int64)
        rows[3, 2] = 3
        with pytest.raises(InvalidInput, match=r"st2ot\[0\] holds tag 3 at flat index 2"):
            tagging_from_dense(2, rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.bool_, object])
    def test_rejects_non_integer_dtypes(self, dtype):
        with pytest.raises(InvalidInput):
            tagging_from_dense(2, np.array([[0, 1, 0]], dtype=dtype))

    @pytest.mark.parametrize("case", CELL_REJECTIONS)
    def test_the_cell_constructor_rejects(self, case):
        change, message = CELL_REJECTIONS[case]
        cells = {"index": [0, 5, 7], "tag": [1, 2, 1], **change}
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            HandshakingTagging(2, 1, **cells)

    def test_the_cell_arrays_are_read_only_copies(self):
        index, tag = np.array([0, 5, 7]), np.array([1, 2, 1], dtype=np.uint8)
        tagging = HandshakingTagging(2, 1, index, tag)
        assert tagging.__slots__ == ("n", "n_relations", "index", "tag")  # no row array
        for arr, dtype in ((tagging.index, np.intp), (tagging.tag, np.int8)):
            assert arr.dtype == dtype and not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1
        index[0], tag[0] = 1, 2  # the caller's arrays stay their own
        assert (tagging.index[0], tagging.tag[0]) == (0, 1)
        # the tag array is built on each access, and writing to it changes nothing
        tags = tagging.tags
        assert tags.tolist() == [[1, 0, 0], [0, 0, 2], [0, 1, 0]] and tags is not tagging.tags
        tags[0, 0] = 2
        assert tagging.tags[0, 0] == 1
        with pytest.raises(AttributeError):
            tagging.n = 3

    def test_no_cells_is_the_all_zero_tagging(self):
        empty = np.zeros(0, dtype=np.int64)
        tagging = HandshakingTagging(3, 2, empty, empty)
        assert tagging == tagging_from_dense(3, np.zeros((5, 6), dtype=np.int8))
        assert not tagging.tags.any() and tagging.tags.shape == (5, 6)

    def test_equality_compares_n_and_contents(self):
        rows = [[0, 1, 0], [1, 0, 2], [0, 0, 1]]
        tagging = tagging_from_dense(2, rows)
        same = tagging_from_dense(2, np.array(rows, dtype=np.uint8))
        assert tagging == same and hash(tagging) == hash(same)
        assert tagging == HandshakingTagging(2, 1, [1, 3, 5, 8], [1, 1, 2, 1])
        assert tagging != tagging_from_dense(2, [[0, 1, 0], [1, 0, 2], [0, 0, 2]])
        assert tagging != tagging_from_dense(1, [[0], [1], [0]])
        assert tagging != tagging_from_dense(2, [*rows, [0, 0, 0], [0, 0, 0]])  # more relations


SCHEMA1 = RelationSchema(("r",))


def small_model(**sizes) -> ModelParams:
    return init_model(SCHEMA1, build_vocab([("a", "b")]),
                      **{"d_embed": 4, "d_state": 3, "d_pair": 4, **sizes})


def tagging_line(n) -> str:
    return json.dumps({"n": n, "relations": ["r"], "eh2et": [0], "sh2oh": [[0]], "st2ot": [[0]]})


def batch_size_passed_on(value, monkeypatch):
    """The batch size ``infer_batch`` hands to the inference body."""
    seen, body = [], model._infer
    monkeypatch.setattr(model, "_infer", lambda *args: seen.append(args[3]) or body(*args))
    infer_batch([("a", "b")], small_model(), SCHEMA1, batch_size=value)
    return seen[0]


def seed_drawn(value, monkeypatch):
    """The seed ``init_model`` hands to its generator when given none."""
    seen, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: seen.append(s) or default_rng(s))
    small_model(seed=value)
    return seen[0]


def tagger_scored(value, _):
    """The head whose distribution ``tag_distribution`` returns, of five with distinct biases."""
    taggers = TaggerParams(np.zeros((5, 3, 2)), np.outer(np.arange(5.0), [0.0, 1.0, 0.0]))
    dists = [tag_distribution(np.zeros(2), taggers, t) for t in (value, 0, 1, 2, 3, 4)]
    return next(t for t in range(5) if np.array_equal(dists[0], dists[t + 1]))


def n_counted(value, _):
    """The n whose pairs ``seq_length`` counts (n² + n = 2·seq_length(n)), if it counts an int."""
    length = seq_length(value)
    return math.isqrt(2 * length) if type(length) is int else length


NO_CELLS = np.zeros(0, dtype=np.intp)


def dense_n(value, _):
    """The ``n`` the dense reader keeps, given tags of the shape that ``value`` asks for."""
    n = int(value)
    return tagging_from_dense(value, np.zeros((3, n * (n + 1) // 2), dtype=np.int8)).n


def pair_row(value, _):
    """The row i of the pair (i, 5) that ``seq_index`` places for n = 8, if at an int."""
    k = seq_index(value, 5, 8)
    return next(i for i in range(6) if seq_index(i, 5, 8) == k) if type(k) is int else k


def pair_columns(value, _):
    """The n that ``seq_index`` keeps: how many columns of row 0 it places, if at ints."""
    placed = []
    for j in range(10):
        try:
            placed.append(seq_index(0, j, value))
        except InvalidIndex:
            break
    return len(placed) if all(type(k) is int for k in placed) else placed


# entry point -> (argument name in the error, minimum, what the entry point keeps of a value)
INT_ARGUMENTS = {
    "TokenSpan.head": ("head", 0, lambda v, _: TokenSpan(v, 5).head),
    "TokenSpan.tail": ("tail", 0, lambda v, _: TokenSpan(0, v).tail),
    "Triple.relation": ("relation", 0, lambda v, _: Triple(
        TokenSpan(0, 0), v, TokenSpan(1, 1)).relation),
    "SentenceAnnotation.char_spans.start": ("char offset", 0, lambda v, _: SentenceAnnotation(
        ("a",), text="abcd", char_spans=((v, 4),)).char_spans[0][0]),
    "SentenceAnnotation.char_spans.end": ("char offset", 0, lambda v, _: SentenceAnnotation(
        ("a",), text="abcd", char_spans=((0, v),)).char_spans[0][1]),
    "seq_length.n": ("n", 1, n_counted),
    "seq_index.i": ("i", 0, pair_row),
    "seq_index.j": ("j", 0, lambda v, _: seq_index(0, v, 8)),  # row 0's pairs sit at j
    "seq_index.n": ("n", 1, pair_columns),
    "HandshakingTagging.n": ("n", 1, lambda v, _: HandshakingTagging(
        v, 1, NO_CELLS, NO_CELLS).n),
    "HandshakingTagging.n_relations": ("n_relations", 0, lambda v, _: HandshakingTagging(
        2, v, NO_CELLS, NO_CELLS).n_relations),
    "tagging_from_dense.n": ("n", 1, dense_n),
    "init_model.d_embed": ("d_embed", 1,
                           lambda v, _: small_model(d_embed=v).encoder.embed.shape[1]),
    "init_model.d_state": ("d_state", 1,
                           lambda v, _: small_model(d_state=v).encoder.mixer.state_dim),
    "init_model.d_pair": ("d_pair", 1, lambda v, _: small_model(d_pair=v).kernel.weight.shape[0]),
    "init_model.seed": ("seed", 0, seed_drawn),
    "infer_batch.batch_size": ("batch_size", 1, batch_size_passed_on),
    "TrainConfig.epochs": ("epochs", 1, lambda v, _: TrainConfig(epochs=v).epochs),
    "TrainConfig.batch_size": ("batch_size", 1, lambda v, _: TrainConfig(batch_size=v).batch_size),
    "TrainConfig.seed": ("seed", 0, lambda v, _: TrainConfig(seed=v).seed),
    "parse_tagging_line.n": ("field 'n'", 1, lambda v, _: parse_tagging_line(tagging_line(v))[0].n),
    "tag_distribution.tagger": ("tagger", 0, tagger_scored),
}

# entry point -> (argument name in the error, call with a value)
CHOICE_ARGUMENTS = {
    "encode.mode": ("mode", lambda v: encode(annotation(2, []), SCHEMA1, mode=v)),
    "decode.mode": ("mode", lambda v: decode(*parse_tagging_line(tagging_line(1)), mode=v)),
    "decode_oracle.mode": ("mode", lambda v: decode_oracle(
        *parse_tagging_line(tagging_line(1)), mode=v)),
    "load_dataset.standard": ("standard", lambda v: load_dataset("-", SCHEMA1, standard=v)),
    "load_dataset.mode": ("mode", lambda v: load_dataset("-", SCHEMA1, mode=v)),
    "micro_prf.match": ("match", lambda v: micro_prf([], [], mode=v)),
    "TrainConfig.optimizer": ("optimizer", lambda v: TrainConfig(optimizer=v)),
}

SPAN = TokenSpan(1, 1)

# entry point -> (its one-line error, a call that breaks the entry's type rule)
TYPE_ARGUMENTS = {
    # the triples given in the place of text were stored as text, and none kept
    "SentenceAnnotation.text": ("text must be a str, got tuple", lambda: SentenceAnnotation(
        ("a", "b"), (Triple(SPAN, 0, SPAN),))),
    # was accepted, then escaped as a raw TypeError once char_spans read len(text)
    "SentenceAnnotation.text+char_spans": ("text must be a str, got int",
                                           lambda: SentenceAnnotation(
                                               ("a",), text=5, char_spans=((0, 1),))),
    # escaped as a raw AttributeError
    "SentenceAnnotation.triples": ("triples must be Triples, got a tuple",
                                   lambda: SentenceAnnotation(("a", "b"), triples=(
                                       (SPAN, 0, SPAN),))),
    "Triple.subject": ("subject must be a TokenSpan, got tuple",
                       lambda: Triple((0, 0), 0, SPAN)),
    "Triple.object": ("object must be a TokenSpan, got list", lambda: Triple(SPAN, 0, [1, 1])),
}

# entry point -> (its one-line error, a call given a str, or an element that
# is not a non-empty str, where a sequence of tokens or names is expected)
SEQUENCE_ARGUMENTS = {
    # scored the three one-character tokens "a", " " and "b"
    "infer.tokens": ("tokens must be a sequence, not str",
                     lambda: infer("a b", small_model(), SCHEMA1)),
    "infer.token": ("tokens must be non-empty strings, got 1",
                    lambda: infer(("a", 1), small_model(), SCHEMA1)),
    # ran the two one-token sentences "a" and "b"
    "infer_batch.sentences": ("sentences must be a sequence, not str",
                              lambda: infer_batch("ab", small_model(), SCHEMA1)),
    "infer_batch.sentence": ("tokens must be a sequence, not str",
                             lambda: infer_batch([("a",), "ab"], small_model(), SCHEMA1)),
    "infer_batch.token": ("tokens must be non-empty strings, got None",
                          lambda: infer_batch([("a", None)], small_model(), SCHEMA1)),
    # gave the relations ('a', 'b')
    "RelationSchema.relations": ("relation names must be a sequence, not str",
                                 lambda: RelationSchema("ab")),
    "RelationSchema.mapping": ("relation names must be a sequence, not dict",
                               lambda: RelationSchema({"a": 0})),
    # added the tokens "a" and "b"
    "build_vocab.tokens": ("tokens must be a sequence, not str", lambda: build_vocab(["ab"])),
    "build_vocab.token": ("tokens must be non-empty strings, got 2",
                          lambda: build_vocab([("a",), (2,)])),
    # both were accepted: the characters, or the ints, became the tokens
    "SentenceAnnotation.tokens": ("tokens must be a sequence, not str",
                                  lambda: SentenceAnnotation("ab")),
    "SentenceAnnotation.token": ("tokens must be non-empty strings, got 1",
                                 lambda: SentenceAnnotation((1, 2))),
    "SentenceAnnotation.empty token": ("tokens must be non-empty strings, got ''",
                                       lambda: SentenceAnnotation(("a", ""))),
    "SentenceAnnotation.not iterable": ("tokens must be a sequence, not int",
                                        lambda: SentenceAnnotation(5)),
}


class TestArgumentRules:
    @pytest.mark.parametrize("entry", SEQUENCE_ARGUMENTS)
    def test_a_str_or_a_non_string_element_is_rejected_in_one_line(self, entry):
        message, call = SEQUENCE_ARGUMENTS[entry]
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            call()

    def test_any_iterable_of_strings_is_kept_as_a_tuple(self):
        for tokens in (["a", "b"], ("a", "b"), iter("ab"), np.array(["a", "b"])):
            assert SentenceAnnotation(tokens).tokens == ("a", "b")
        assert RelationSchema(r for r in ("x", "y")).relations == ("x", "y")
        assert infer(["a", "b"], small_model(), SCHEMA1) == infer(("a", "b"), small_model(),
                                                                   SCHEMA1)

    @pytest.mark.parametrize("entry", TYPE_ARGUMENTS)
    def test_a_value_of_the_wrong_type_is_rejected_in_one_line(self, entry):
        message, call = TYPE_ARGUMENTS[entry]
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            call()

    # JSON holds no numpy integer, so the tagging line's n is left out here
    @pytest.mark.parametrize("entry", [e for e in INT_ARGUMENTS if e != "parse_tagging_line.n"])
    def test_a_numpy_integer_is_kept_as_an_int(self, entry, monkeypatch):
        _, _, kept = INT_ARGUMENTS[entry]
        value = kept(np.int64(3), monkeypatch)
        assert type(value) is int and value == 3

    @pytest.mark.parametrize("entry", INT_ARGUMENTS)
    def test_the_minimum_is_kept(self, entry, monkeypatch):
        _, minimum, kept = INT_ARGUMENTS[entry]
        assert kept(minimum, monkeypatch) == minimum

    @pytest.mark.parametrize("entry", INT_ARGUMENTS)
    @pytest.mark.parametrize("bad", [True, 2.0, "3", "below the minimum"])
    def test_a_bool_float_string_or_small_integer_is_rejected(self, entry, bad, monkeypatch):
        name, minimum, kept = INT_ARGUMENTS[entry]
        bad = minimum - 1 if bad == "below the minimum" else bad
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer >= {minimum}, got "):
            kept(bad, monkeypatch)

    @pytest.mark.parametrize("entry", CHOICE_ARGUMENTS)
    def test_a_value_outside_the_choices_is_rejected(self, entry):
        name, call = CHOICE_ARGUMENTS[entry]
        with pytest.raises(InvalidInput, match=f"^{name} must be one of "):
            call("bogus")
