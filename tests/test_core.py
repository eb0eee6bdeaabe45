"""Tests for core value types and the pair-sequence length law."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from pairlink import (
    HandshakingTagging,
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
    infer_batch,
    init_model,
    load_dataset,
    micro_prf,
    parse_tagging_line,
    seq_length,
    tag_distribution,
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


def tagging_n(value, _):
    """The ``n`` a tagging keeps, given tags of the shape that ``value`` asks for."""
    n = int(value)
    return HandshakingTagging(value, np.zeros((3, n * (n + 1) // 2), dtype=np.int8)).n


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
    "HandshakingTagging.n": ("n", 1, tagging_n),
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


class TestArgumentRules:
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
