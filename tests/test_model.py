"""Tests for the trainable tagger: forward, gradients, inference, checkpoints."""

from __future__ import annotations

import json
import math
import random
import warnings

import numpy as np
import pytest

import pairlink.model as model
from pairlink import (
    EncoderParams,
    HandshakingTagging,
    InvalidInput,
    KernelParams,
    ModelParams,
    NumericError,
    RelationSchema,
    ShapeError,
    TaggerParams,
    build_vocab,
    decode,
    encode,
    encode_tokens,
    gradient,
    handshaking_kernel,
    index_map,
    infer,
    infer_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
    seq_index,
    seq_length,
    tag_distribution,
)
from pairlink.model import (
    UNK,
    batch_loss,
    clone_params,
    forward_probs,
    gold_tags,
    loss_from_probs,
    named_tensors,
)
from pairlink.synth import random_annotation

from conftest import annotation, triple


def tiny_model(schema, tokens_corpus, use_mixer=True, seed=0, **dims):
    vocab = build_vocab(tokens_corpus)
    defaults = dict(d_embed=4, d_state=3, d_pair=4)
    defaults.update(dims)
    return init_model(schema, vocab, use_mixer=use_mixer, seed=seed, **defaults)


class TestVocabAndInit:
    def test_build_vocab_reserves_unknown(self):
        vocab = build_vocab([("a", "b"), ("b", "c")])
        assert vocab[UNK] == 0
        assert vocab == {UNK: 0, "a": 1, "b": 2, "c": 3}

    def test_init_is_deterministic_per_seed(self, schema2):
        vocab = build_vocab([("a", "b", "c")])
        p1 = init_model(schema2, vocab, seed=5)
        p2 = init_model(schema2, vocab, seed=5)
        p3 = init_model(schema2, vocab, seed=6)
        for name, arr in named_tensors(p1).items():
            assert np.array_equal(arr, named_tensors(p2)[name])
        assert any(
            not np.array_equal(arr, named_tensors(p3)[name])
            for name, arr in named_tensors(p1).items()
        )

    def test_init_bounds_and_zero_biases(self, schema2):
        vocab = build_vocab([("a", "b")])
        p = init_model(schema2, vocab, d_embed=16, d_state=8, d_pair=16)
        assert np.all(np.abs(p.encoder.embed) <= 1 / math.sqrt(16))
        assert np.all(p.kernel.bias == 0)
        assert np.all(p.taggers.bias == 0)
        assert np.all(p.encoder.mixer.b_fwd == 0)
        assert p.encoder.out_dim == 16  # 2 * d_state
        assert p.taggers.n_taggers == 2 * len(schema2) + 1

    def test_vocab_must_map_unknown_to_zero(self, schema2):
        with pytest.raises(InvalidInput):
            init_model(schema2, {"a": 0, UNK: 1})

    def test_shape_validation(self, schema2):
        vocab = build_vocab([("a",)])
        p = init_model(schema2, vocab, d_embed=4, d_state=3, d_pair=4)
        with pytest.raises(ShapeError):
            ModelParams(
                encoder=p.encoder,
                kernel=p.kernel,
                taggers=TaggerParams(p.taggers.weight[:-1], p.taggers.bias[:-1]),
                n_relations=p.n_relations,
            )

    def test_clone_is_independent(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        q = clone_params(p)
        q.encoder.embed[0, 0] += 1.0
        assert p.encoder.embed[0, 0] != q.encoder.embed[0, 0]


class TestEncoder:
    def test_output_shape(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        h = encode_tokens(("a", "b", "c"), p.encoder)
        assert h.shape == (3, p.encoder.out_dim)

    def test_without_mixer_returns_embedding_rows(self, schema2):
        p = tiny_model(schema2, [("a", "b")], use_mixer=False)
        h = encode_tokens(("a", "b", "a"), p.encoder)
        ids = [p.encoder.vocab["a"], p.encoder.vocab["b"], p.encoder.vocab["a"]]
        assert np.array_equal(h, p.encoder.embed[ids])

    def test_unknown_tokens_share_the_unk_row(self, schema2):
        p = tiny_model(schema2, [("a",)], use_mixer=False)
        h = encode_tokens(("never-seen", "also-new"), p.encoder)
        assert np.array_equal(h[0], p.encoder.embed[0])
        assert np.array_equal(h[1], p.encoder.embed[0])

    def test_mixer_states_depend_on_context(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        h1 = encode_tokens(("a", "b"), p.encoder)
        h2 = encode_tokens(("c", "b"), p.encoder)
        assert not np.allclose(h1[1], h2[1])  # different left context for "b"

    def test_empty_sentence_rejected(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            encode_tokens((), p.encoder)


class TestPairKernel:
    def test_matches_scalar_loop(self, rng):
        d, pair = 5, 4
        np_rng = np.random.default_rng(3)
        kernel = KernelParams(
            weight=np_rng.normal(size=(pair, 2 * d)), bias=np_rng.normal(size=pair)
        )
        h_i = np_rng.normal(size=d)
        h_j = np_rng.normal(size=d)
        got = handshaking_kernel(h_i, h_j, kernel)
        cat = list(h_i) + list(h_j)
        for r in range(pair):
            acc = kernel.bias[r]
            for c, v in enumerate(cat):
                acc += kernel.weight[r, c] * v
            assert got[r] == pytest.approx(math.tanh(acc), rel=1e-12)

    def test_shape_errors(self):
        kernel = KernelParams(weight=np.zeros((2, 6)), bias=np.zeros(2))
        with pytest.raises(ShapeError):
            handshaking_kernel(np.zeros(3), np.zeros(4), kernel)
        with pytest.raises(ShapeError):
            handshaking_kernel(np.zeros(4), np.zeros(4), kernel)


class TestTagDistribution:
    def test_uniform_at_zero_parameters(self):
        taggers = TaggerParams(weight=np.zeros((3, 3, 4)), bias=np.zeros((3, 3)))
        dist = tag_distribution(np.ones(4), taggers, 0)
        assert dist == pytest.approx([1 / 3] * 3)
        assert model._argmax_tags(dist[:, None]).tolist() == [0]  # tie -> smallest

    def test_bias_tie_resolves_to_smaller_label(self):
        taggers = TaggerParams(
            weight=np.zeros((1, 3, 2)), bias=np.array([[-10.0, 3.0, 3.0]])
        )
        dist = tag_distribution(np.zeros(2), taggers, 0)
        assert dist[1] == dist[2]
        assert model._argmax_tags(dist[:, None]).tolist() == [1]

    def test_saturation_and_normalization(self):
        taggers = TaggerParams(
            weight=np.zeros((1, 3, 2)), bias=np.array([[0.0, 50.0, 0.0]])
        )
        dist = tag_distribution(np.zeros(2), taggers, 0)
        assert dist.sum() == pytest.approx(1.0)
        assert dist[1] > 0.999999
        assert model._argmax_tags(dist[:, None]).tolist() == [1]

    def test_validates_head_index_and_shape(self):
        taggers = TaggerParams(weight=np.zeros((1, 3, 2)), bias=np.zeros((1, 3)))
        with pytest.raises(InvalidInput):
            tag_distribution(np.zeros(2), taggers, 1)
        with pytest.raises(ShapeError):
            tag_distribution(np.zeros(3), taggers, 0)


class TestForwardAndLoss:
    def test_forward_probs_shape_and_rows_normalized(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c", "d")])
        probs = forward_probs(("a", "b", "c", "d"), p)
        assert probs.shape == (5, seq_length(4), 3)
        assert np.allclose(probs.sum(axis=2), 1.0)

    def test_forward_probs_match_per_pair_reference(self):
        schema = RelationSchema(("r0", "r1", "r2"))
        tokens = ("a", "b", "c", "a", "d", "e", "b")
        p = tiny_model(schema, [tokens], d_embed=5, d_state=4, d_pair=6, seed=3)
        np_rng = np.random.default_rng(8)
        for bias in (p.encoder.mixer.b_fwd, p.encoder.mixer.b_bwd, p.kernel.bias,
                     p.taggers.bias):
            bias[...] = np_rng.normal(size=bias.shape)
        probs = forward_probs(tokens, p)
        h = encode_tokens(tokens, p.encoder)
        n = len(tokens)
        for i in range(n):
            for j in range(i, n):
                pair = handshaking_kernel(h[i], h[j], p.kernel)
                for head in range(p.taggers.n_taggers):
                    want = tag_distribution(pair, p.taggers, head)
                    got = probs[head, seq_index(i, j, n)]
                    assert np.allclose(got, want, rtol=0, atol=1e-12), (i, j, head)

    def test_gold_tags_rows_are_entity_then_heads_then_tails(self):
        # a distinct cell per sequence; 3 relations put the head-pair rows at
        # 1, 2, 3 and the tail-pair rows at 4, 5, 6
        n = 4

        def one_cell(k):
            seq = [0] * seq_length(n)
            seq[k] = 1
            return tuple(seq)

        eh = one_cell(0)
        sh = tuple(map(one_cell, (1, 2, 3)))
        st = tuple(map(one_cell, (4, 5, 6)))
        tagging = HandshakingTagging(n, [eh, *sh, *st])
        gold = gold_tags(tagging)
        assert gold is tagging.tags  # training reads the tagging's own array
        assert gold[0].tolist() == list(eh)
        assert [gold[row].tolist() for row in (1, 2, 3)] == [list(s) for s in sh]
        assert [gold[row].tolist() for row in (4, 5, 6)] == [list(s) for s in st]
        assert gold.shape == (7, seq_length(n))

    def test_forward_is_deterministic(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        a = forward_probs(("a", "b"), p)
        b = forward_probs(("a", "b"), p)
        assert np.array_equal(a, b)

    def test_loss_zero_when_gold_is_certain(self):
        gold = np.array([[0, 1], [2, 0]])
        probs = np.zeros((2, 2, 3))
        for t in range(2):
            for k in range(2):
                probs[t, k, gold[t, k]] = 1.0
        assert loss_from_probs(probs, gold) == pytest.approx(0.0, abs=1e-9)

    def test_loss_is_ln3_under_uniform_predictions(self):
        probs = np.full((3, 4, 3), 1 / 3)
        gold = np.zeros((3, 4), dtype=np.int64)
        assert loss_from_probs(probs, gold) == pytest.approx(math.log(3))

    def test_loss_matches_scalar_oracle(self):
        np_rng = np.random.default_rng(11)
        raw = np_rng.uniform(0.05, 1.0, size=(2, 3, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        gold = np_rng.integers(0, 3, size=(2, 3))
        total = 0.0
        for t in range(2):
            for k in range(3):
                total += -math.log(probs[t, k, gold[t, k]])
        assert loss_from_probs(probs, gold) == pytest.approx(total / 6)

    def test_loss_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_from_probs(np.full((2, 2, 3), 1 / 3), np.zeros((2, 3), dtype=int))

    def test_batch_loss_requires_samples(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            batch_loss([], p)


def make_batch(schema, rng, count, n_max=5):
    batch = []
    for _ in range(count):
        ann = random_annotation(rng, schema, n_max=n_max, max_triples=2, min_triples=1)
        batch.append((ann.tokens, encode(ann, schema)))
    return batch


def batch_of_lengths(schema, rng, lengths):
    """One annotated example per entry of ``lengths``, with exactly that many tokens."""
    batch = []
    for n in lengths:
        ann = random_annotation(rng, schema, n_min=n, n_max=n, max_triples=2, min_triples=1)
        batch.append((ann.tokens, encode(ann, schema)))
    return batch


class TestGradient:
    def test_matches_finite_differences_everywhere(self, schema2):
        # independent oracle: central finite differences on the batch loss,
        # checked at every coordinate of a deliberately tiny model
        rng = random.Random(17)
        mixed = make_batch(schema2, rng, 2, n_max=4)
        # gradient() stacks the two 3-token sentences; batch_loss runs each alone
        stacked = batch_of_lengths(schema2, rng, (3, 4, 3))
        assert stacked[0][0] != stacked[2][0]
        for batch, use_mixer in ((mixed, True), (stacked, True), (stacked, False)):
            p = tiny_model(
                schema2, [toks for toks, _ in batch], use_mixer=use_mixer,
                d_embed=3, d_state=2, d_pair=3,
            )
            _, grads = gradient(batch, p)
            step = 1e-5
            tensors = named_tensors(p)
            for name, arr in tensors.items():
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                for idx in range(flat.size):
                    keep = flat[idx]
                    flat[idx] = keep + step
                    up = batch_loss(batch, p)
                    flat[idx] = keep - step
                    down = batch_loss(batch, p)
                    flat[idx] = keep
                    fd = (up - down) / (2 * step)
                    denom = max(abs(fd), abs(gflat[idx]), 1e-9)
                    assert abs(fd - gflat[idx]) / denom < 1e-4, f"{name}[{idx}]"

    def test_one_stacked_pass_per_length_group(self, schema2, monkeypatch):
        batch = batch_of_lengths(schema2, random.Random(4), (3, 3, 3, 4, 4))
        p = tiny_model(schema2, [toks for toks, _ in batch])
        calls = []
        original = model._forward

        def counting(token_lists, params):
            calls.append(len(token_lists))
            return original(token_lists, params)

        monkeypatch.setattr(model, "_forward", counting)
        gradient(batch, p)
        assert calls == [3, 2]  # one stacked forward per length

    def test_duplicating_the_batch_changes_nothing(self, schema2):
        rng = random.Random(23)
        batch = make_batch(schema2, rng, 3)
        p = tiny_model(schema2, [toks for toks, _ in batch])
        loss1, grads1 = gradient(batch, p)
        loss2, grads2 = gradient(batch + batch, p)
        assert loss1 == pytest.approx(loss2)
        for name in grads1:
            assert np.allclose(grads1[name], grads2[name])

    def test_empty_batch_rejected(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            gradient([], p)

    def test_gold_shape_mismatch_raises(self, schema2):
        rng = random.Random(5)
        (tokens, _), = make_batch(schema2, rng, 1, n_max=3)
        other = encode(annotation(len(tokens) + 2, []), schema2)
        p = tiny_model(schema2, [tokens])
        with pytest.raises(ShapeError):
            gradient([(tokens, other)], p)

    def test_non_finite_parameters_raise_numeric_error(self, schema2):
        rng = random.Random(5)
        batch = make_batch(schema2, rng, 1)
        p = tiny_model(schema2, [toks for toks, _ in batch])
        p.encoder.embed[:] = np.nan
        with pytest.raises(NumericError):
            gradient(batch, p)


class TestInfer:
    def test_encoder_runs_once_per_sentence(self, schema2, monkeypatch):
        p = tiny_model(schema2, [("a", "b", "c", "d", "e", "f")])
        calls = []
        original = model._encode

        def counting(ids, enc):
            calls.append(ids.shape[1])
            return original(ids, enc)

        monkeypatch.setattr(model, "_encode", counting)
        infer(("a", "b", "c", "d", "e", "f"), p, schema2)
        assert calls == [6]  # 21 pairs, but one encoder pass

    def test_returns_triples_within_bounds(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        result = infer(("a", "b", "c"), p, schema2)
        for t in result:
            assert 0 <= t.subject.head <= t.subject.tail < 3
            assert 0 <= t.object.head <= t.object.tail < 3
            assert 0 <= t.relation < 2

    def test_schema_mismatch_rejected(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            infer(("a",), p, RelationSchema(("only_one",)))

    def test_max_len_strict_vs_lenient(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")], max_len=2)
        long_sentence = ("a", "b", "c")
        with pytest.raises(InvalidInput):
            infer(long_sentence, p, schema2, mode="strict")
        with pytest.warns(UserWarning, match="truncating") as record:
            result = infer(long_sentence, p, schema2, mode="lenient")
        assert record[0].filename == __file__  # points at the caller
        for t in result:
            assert t.subject.tail < 2 and t.object.tail < 2
        with pytest.warns(UserWarning, match="truncating") as record:
            infer_batch([long_sentence], p, schema2, mode="lenient")
        assert record[0].filename == __file__

    def test_mode_is_checked_before_any_work(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")], max_len=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a truncation warning would fail the test
            with pytest.raises(InvalidInput, match="mode"):
                infer_batch([], p, schema2, mode="bogus")
            with pytest.raises(InvalidInput, match="mode"):
                infer(("a", "b", "c"), p, schema2, mode="bogus")


def full_scoring(tokens, params, schema, mode):
    """Reference inference: every head scored at every pair, argmax, decode."""
    logits = model._forward([tokens], params).logits
    return decode(HandshakingTagging(len(tokens), model._argmax_tags(logits)[0]), schema,
                  mode=mode)


def outcome(call):
    """``call()``'s result, or "raises" if it raised InvalidInput."""
    try:
        return call()
    except InvalidInput:
        return "raises"


def model_emitting(tagging: HandshakingTagging):
    """Tokens and a model whose argmax tags are exactly ``tagging``.

    Tokens are one-hot vectors; kernel unit c reads about +1 at cell c and -1
    at every other cell, so a head's logit for tag t is about +1 at the cells
    where ``tagging`` holds t and -1 elsewhere, against 0 for tag 0.
    """
    n, tags = tagging.n, tagging.tags
    tokens = tuple(f"w{i}" for i in range(n))
    imap = index_map(n)
    cells = np.arange(imap.length)
    embed = np.vstack([np.zeros(n), np.eye(n)])  # id 0 is the unknown token
    kernel = np.zeros((imap.length, 2 * n))
    kernel[cells, imap.rows] = kernel[cells, n + imap.cols] = 20.0
    heads = np.zeros((len(tags), 3, imap.length))
    for t in (1, 2):
        heads[:, t] = tags == t
    params = ModelParams(
        encoder=EncoderParams(build_vocab([tokens]), embed),
        kernel=KernelParams(kernel, np.full(imap.length, -30.0)),
        taggers=TaggerParams(heads, heads.sum(axis=2) - [0, 1, 1]),
        n_relations=tagging.n_relations,
    )
    return tokens, params


def assert_inference_equals_full_scoring(corpus, params, schema) -> int:
    """infer and infer_batch give full_scoring's triples, or raise where it does.

    Returns the number of triples full scoring emits in lenient mode.
    """
    emitted = 0
    for mode in ("lenient", "strict"):
        want = [outcome(lambda: full_scoring(tokens, params, schema, mode)) for tokens in corpus]
        got = [outcome(lambda: infer(tokens, params, schema, mode=mode)) for tokens in corpus]
        assert got == want, mode
        batched = outcome(lambda: infer_batch(corpus, params, schema, mode=mode))
        assert batched == ("raises" if "raises" in want else want), mode
        if mode == "lenient":
            emitted = sum(map(len, want))
    return emitted


class TestEntityFirstInference:
    def test_triples_equal_full_scoring(self, schema2):
        # toy: a self-relating triple, whose head and tail links sit on the
        # diagonal; a reversed triple; and relation cells off every entity
        # boundary, which full scoring tags and entity-first inference skips
        gold = {triple(1, 2, 0, 1, 2), triple(3, 4, 1, 0, 0), triple(0, 0, 0, 3, 4)}
        tags = np.array(encode(annotation(5, gold), schema2).tags)
        tags[1:, [seq_index(1, 4, 5), seq_index(2, 3, 5)]] = 1
        tokens, p = model_emitting(HandshakingTagging(5, tags))
        assert full_scoring(tokens, p, schema2, "strict") == gold
        assert assert_inference_equals_full_scoring([tokens], p, schema2) == len(gold)
        # a reversed entity tag: strict mode raises, lenient mode ignores it
        tags[0, seq_index(0, 2, 5)] = 2
        tokens, p = model_emitting(HandshakingTagging(5, tags))
        with pytest.raises(InvalidInput, match="reversed tag in entity sequence"):
            infer(tokens, p, schema2, mode="strict")
        assert assert_inference_equals_full_scoring([tokens], p, schema2) == len(gold)

        # paper scale: 24 relations, n <= 60, the tag-0 bias raised so that
        # about 0.1%, 1% and 5% of all cells predict a link
        schema = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        words = [f"w{i}" for i in range(300)]
        shares, emitted = [], 0
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            lengths = [rng.randint(20, 60) for _ in range(3)]
            # the repeated length makes infer_batch stack two sentences
            corpus = [tuple(rng.choice(words) for _ in range(n)) for n in lengths + lengths[:1]]
            p = tiny_model(schema, corpus, seed=seed, d_embed=64, d_state=32, d_pair=64)
            margins = np.concatenate([
                np.log(probs[:, :, 1:].max(axis=2) / probs[:, :, 0]).ravel()
                for probs in (forward_probs(tokens, p) for tokens in corpus)
            ])
            base = p.taggers.bias[:, 0].copy()
            for share in (0.001, 0.01, 0.05):
                p.taggers.bias[:, 0] = base + np.quantile(margins, 1.0 - share)
                shares.append(np.mean([
                    np.mean(model._argmax_tags(model._forward([tokens], p).logits) != 0)
                    for tokens in corpus
                ]))
                emitted += assert_inference_equals_full_scoring(corpus, p, schema)
        assert min(shares) < 0.002 and max(shares) > 0.04
        assert emitted > 50


class TestInferBatch:
    def test_matches_per_sentence_inference(self, schema2):
        sentences = [
            ("a", "b", "c"),
            ("d", "e"),
            ("a", "c", "b"),
            ("f",),
            ("b", "a", "d", "e", "c"),
            ("e", "d"),
        ]
        words = [f"w{i}" for i in range(30)]
        rng = random.Random(7)
        same_length = [tuple(rng.choice(words) for _ in range(20)) for _ in range(3)]
        for corpus, dims, batch_size in (
            (sentences, dict(d_embed=8, d_state=6, d_pair=8), 4),
            # one stacked group of three 20-token sentences
            (same_length, dict(d_embed=16, d_state=8, d_pair=16), 24),
        ):
            p = tiny_model(schema2, corpus, seed=2, **dims)
            batched = infer_batch(corpus, p, schema2, batch_size=batch_size)
            single = [infer(s, p, schema2) for s in corpus]
            assert batched == single
        assert all(batched)  # the untrained model links densely in the stacked group

    def test_one_stacked_pass_per_length_group(self, schema2, monkeypatch):
        sentences = [("a", "b"), ("c", "d"), ("e", "f"), ("a", "c"), ("b", "d")]
        p = tiny_model(schema2, sentences)
        calls = []
        original = model._encode_pairs

        def counting(token_lists, params):
            calls.append(len(token_lists))
            return original(token_lists, params)

        monkeypatch.setattr(model, "_encode_pairs", counting)
        infer_batch(sentences, p, schema2, batch_size=8)
        assert calls == [5]  # five sentences, one stacked encoder and pair kernel

    def test_validates_batch_size(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            infer_batch([("a",)], p, schema2, batch_size=0)

    def test_empty_corpus(self, schema2):
        p = tiny_model(schema2, [("a",)])
        assert infer_batch([], p, schema2) == []


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path, schema2):
        p = tiny_model(schema2, [("a", "b", "c")], seed=9)
        path = save_checkpoint(tmp_path / "model", p, schema2, extra={"note": "x"})
        assert path.endswith(".npz")
        loaded, schema, meta = load_checkpoint(path)
        assert schema == schema2
        assert meta["extra"] == {"note": "x"}
        assert loaded.encoder.vocab == p.encoder.vocab
        assert loaded.max_len == p.max_len
        for name, arr in named_tensors(p).items():
            assert np.array_equal(arr, named_tensors(loaded)[name]), name

    def test_round_trip_without_mixer(self, tmp_path, schema2):
        p = tiny_model(schema2, [("a", "b")], use_mixer=False)
        path = save_checkpoint(tmp_path / "flat.npz", p, schema2)
        loaded, _, meta = load_checkpoint(path)
        assert loaded.encoder.mixer is None
        assert meta["use_mixer"] is False
        probs_before = forward_probs(("a", "b"), p)
        probs_after = forward_probs(("a", "b"), loaded)
        assert np.array_equal(probs_before, probs_after)

    def test_rejects_unsupported_version(self, tmp_path, schema2):
        p = tiny_model(schema2, [("a",)])
        path = save_checkpoint(tmp_path / "model", p, schema2)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["version"] = 99
        arrays["__meta__"] = np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
        bad = tmp_path / "future.npz"
        np.savez(bad, **arrays)
        with pytest.raises(InvalidInput, match="version"):
            load_checkpoint(bad)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(InvalidInput, match="checkpoint"):
            load_checkpoint(path)
