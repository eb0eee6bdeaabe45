"""Tests for the trainable tagger: forward, gradients, inference, checkpoints."""

from __future__ import annotations

import json
import math
import random
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import pairlink.model as model
from pairlink import (
    EncoderParams,
    HandshakingTagging,
    InvalidInput,
    KernelParams,
    MixerParams,
    ModelParams,
    NumericError,
    RelationSchema,
    ShapeError,
    TaggerParams,
    build_vocab,
    check_gradients,
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
    tagging_from_dense,
)
from pairlink.cli import EXIT_OK, main
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


def tiny_model(schema, tokens_corpus, seed=0, **dims):
    vocab = build_vocab(tokens_corpus)
    defaults = dict(d_embed=4, d_state=3, d_pair=4)
    defaults.update(dims)
    return init_model(schema, vocab, seed=seed, **defaults)


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
        assert p.n_relations == len(schema2)

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
            )

    @pytest.mark.parametrize("vocab, rows, error", [
        ({UNK: 0, "a": 2}, 2, InvalidInput),  # id gap
        ({"a": 0, UNK: 1}, 2, InvalidInput),  # <unk> not at 0
        ({UNK: 0, "a": 1}, 3, ShapeError),  # embed rows != vocab size
    ])
    def test_encoder_rejects_vocab_and_embed_that_disagree(self, schema2, vocab, rows, error):
        mixer = tiny_model(schema2, [("a",)], d_embed=4).encoder.mixer
        with pytest.raises(error):
            EncoderParams(vocab, np.zeros((rows, 4)), mixer)

    def test_encoder_rejects_a_misshapen_mixer_tensor(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        mixer = clone_params(p).encoder.mixer
        mixer.u_bwd = mixer.u_bwd[:, :-1]
        with pytest.raises(ShapeError, match="encoder.mixer.u_bwd"):
            EncoderParams(p.encoder.vocab, p.encoder.embed, mixer)

    def test_model_rejects_a_float32_tensor(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        kernel = KernelParams(p.kernel.weight, p.kernel.bias.astype(np.float32))
        with pytest.raises(ShapeError, match="kernel.bias is float32"):
            ModelParams(p.encoder, kernel, p.taggers)

    @pytest.mark.parametrize("value", [0, -1, True, 2.0])
    @pytest.mark.parametrize("size", ["d_embed", "d_state", "d_pair"])
    def test_size_must_be_a_positive_int(self, schema2, size, value):
        with pytest.raises(InvalidInput, match=f"{size} must be an integer >= 1"):
            init_model(schema2, build_vocab([("a",)]), **{size: value})

    def test_clone_is_independent(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        q = clone_params(p)
        q.encoder.embed[0, 0] += 1.0
        assert p.encoder.embed[0, 0] != q.encoder.embed[0, 0]

    def test_clone_shares_no_array_and_no_vocab(self, schema2):
        p = tiny_model(schema2, [("a", "b")])
        q = clone_params(p)
        assert q.encoder.vocab == p.encoder.vocab and q.encoder.vocab is not p.encoder.vocab
        assert q.n_relations == p.n_relations
        originals, copies = named_tensors(p), named_tensors(q)
        assert list(originals) == list(copies)
        for name, arr in originals.items():
            assert np.array_equal(arr, copies[name]) and copies[name].dtype == arr.dtype
            assert not np.shares_memory(arr, copies[name]), name


class TestEncoder:
    def test_output_shape(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        h = encode_tokens(("a", "b", "c"), p.encoder)
        assert h.shape == (3, p.encoder.out_dim)

    def test_unknown_tokens_share_the_unk_row(self, schema2):
        p = tiny_model(schema2, [("a",)])
        h = encode_tokens(("never-seen", "also-new"), p.encoder)
        assert np.array_equal(h, encode_tokens((UNK, UNK), p.encoder))

    def test_mixer_states_depend_on_context(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        h1 = encode_tokens(("a", "b"), p.encoder)
        h2 = encode_tokens(("c", "b"), p.encoder)
        assert not np.allclose(h1[1], h2[1])  # different left context for "b"

    def test_empty_sentence_rejected(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            encode_tokens((), p.encoder)

    @pytest.mark.parametrize("lengths", [
        (1,), (2,), (7,), (1, 1, 1), (2, 2, 2), (7, 7, 7), (1, 2, 7), (7, 1, 2),
        (250,), (3, 250, 120),  # past the length cap sentences used to be cut to
    ])
    def test_two_direction_loop_equals_per_direction_recurrences(self, schema2, lengths):
        # one time-major loop steps both directions over a right-padded stack;
        # each sentence's rows must be bit for bit the plain recurrence over
        # that stack, the backward one over each sentence reversed from its
        # own end, and equal the sentence encoded alone
        def recurrence(x, w, u, b):
            s = x @ w.T
            s += b
            for t in range(s.shape[1]):
                if t:
                    s[:, t] += s[:, t - 1] @ u.T
                np.tanh(s[:, t], out=s[:, t])
            return s

        words = [f"w{i}" for i in range(9)]
        p = tiny_model(schema2, [words], seed=max(lengths), d_embed=6, d_state=5)
        rng = random.Random(10 * max(lengths) + len(lengths))
        stack = [tuple(rng.choice(words + ["unseen"]) for _ in range(n)) for n in lengths]
        ids = np.zeros((len(stack), max(lengths)), dtype=np.int64)
        for row, n in enumerate(lengths):
            ids[row, :n] = [p.encoder.vocab.get(t, 0) for t in stack[row]]
        m, x = p.encoder.mixer, p.encoder.embed[ids]
        f = recurrence(x, m.w_fwd, m.u_fwd, m.b_fwd)
        # the backward inputs of each sentence, reversed within its own length
        x_rev = np.zeros_like(x)
        for row, n in enumerate(lengths):
            x_rev[row, :n] = x[row, n - 1::-1]
        g_rev = recurrence(x_rev, m.w_bwd, m.u_bwd, m.b_bwd)
        h, _ = model._encode(stack, p.encoder)
        assert h.shape == (len(stack), max(lengths), 10)
        for row, n in enumerate(lengths):
            assert np.array_equal(h[row, :n, :5], f[row, :n])
            assert np.array_equal(h[row, :n, 5:], g_rev[row, n - 1::-1])
            alone = encode_tokens(stack[row], p.encoder)
            assert np.allclose(h[row, :n], alone, rtol=1e-12, atol=0)

    def test_empty_sentence_in_a_mixed_batch_rejected(self, schema2):
        p = tiny_model(schema2, [("a", "b", "c")])
        with pytest.raises(InvalidInput, match="empty sentence"):
            infer_batch([("a", "b"), (), ("c",)], p, schema2)
        tagging = encode(annotation(2, []), schema2)
        with pytest.raises(InvalidInput, match="empty sentence"):
            gradient([(("a", "b"), tagging), ((), tagging), (("c", "a"), tagging)], p)


class TestPairKernel:
    @pytest.mark.parametrize("n", [1, 2, 13])
    def test_gathered_kernel_matches_the_per_pair_reference(self, schema2, n):
        # every pair vector of each sentence in a stack of 3 is the per-pair
        # handshaking_kernel, and a random subset of cells, as inference
        # rescores in float64, is bit for bit those rows of the whole grid
        words = [f"w{i}" for i in range(20)]
        p = tiny_model(schema2, [words], seed=n, d_embed=6, d_state=5, d_pair=7)
        p.kernel.bias[:] = np.random.default_rng(n).normal(size=7)
        rng = random.Random(n)
        cells_rng = np.random.default_rng(n)
        stack = [tuple(rng.choice(words) for _ in range(n)) for _ in range(3)]
        h, _ = model._encode(stack, p.encoder)
        d, imap = h.shape[2], index_map(n)
        for row in h:
            a, b = model._projections(row, p.kernel)
            assert np.array_equal(a, row @ p.kernel.weight[:, :d].T + p.kernel.bias)
            assert np.array_equal(b, row @ p.kernel.weight[:, d:].T)
            grid = model._pair_cells(a, b, imap, slice(None))
            assert grid.shape == (imap.length, 7) and grid.dtype == np.float64
            for cell, (i, j) in enumerate(zip(imap.rows, imap.cols)):
                want = handshaking_kernel(row[i], row[j], p.kernel)
                assert np.allclose(grid[cell], want, rtol=0, atol=1e-12), (i, j)
            for size in (1, imap.length // 2, imap.length):
                cells = cells_rng.choice(imap.length, size=size, replace=False)
                assert np.array_equal(model._pair_cells(a, b, imap, cells), grid[cells])
            assert model._pair_cells(a, b, imap, np.arange(0)).shape == (0, 7)

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
        tagging = tagging_from_dense(n, [eh, *sh, *st])
        gold = gold_tags(tagging)
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


def count_calls(monkeypatch) -> dict[str, list[int]]:
    """Record each ``_encode`` call's sentence count and each ``_projections`` call's length."""
    calls = {"encode": [], "projections": []}
    encode_stack, projections = model._encode, model._projections

    def counting_encode(token_lists, enc):
        calls["encode"].append(len(token_lists))
        return encode_stack(token_lists, enc)

    def counting_projections(h, kernel):
        calls["projections"].append(len(h))
        return projections(h, kernel)

    monkeypatch.setattr(model, "_encode", counting_encode)
    monkeypatch.setattr(model, "_projections", counting_projections)
    return calls


TILE_EDGES = (511, 512, 1023, 1024)  # the flat pairs on either side of 512-pair tile bounds


def tile_edge_batch(schema, n, rng):
    """An ``n``-token and a 3-token example, the first with gold links at its ``TILE_EDGES``."""
    batch = batch_of_lengths(schema, rng, (n, 3))
    tokens, tagging = batch[0]
    tags = tagging.tags  # a new array on each access
    for m, cell in enumerate(c for c in TILE_EDGES if c < tags.shape[1]):
        tags[m % len(tags), cell] = 1 + m % 2
    batch[0] = (tokens, tagging_from_dense(n, tags))
    return batch


def whole_array_gradient(batch, params):
    """:func:`gradient` with an untiled head pass: whole-array softmax and loss_from_probs.

    The kernel backward reduces dL/dpre with np.add.at, which gives the bits
    of the row loop in :func:`model._pair_backward`.
    """
    grads = {name: np.zeros_like(arr) for name, arr in named_tensors(params).items()}
    h, cache = model._encode([tokens for tokens, _ in batch], params.encoder)
    dh = np.zeros_like(h)
    heads, bias, kernel = params.taggers.weight, params.taggers.bias, params.kernel.weight
    total, scale = 0.0, 1.0 / len(batch)
    for row, (tokens, tagging) in enumerate(batch):
        n, imap = len(tokens), index_map(len(tokens))
        h_row, d = h[row, :n], h.shape[2]
        k = model._pair_cells(*model._projections(h_row, params.kernel), imap, slice(None))
        probs = model.softmax(model._head_logits(k, heads, bias), axis=1)  # (T, 3, P)
        gold = gold_tags(tagging)
        total += loss_from_probs(probs.transpose(0, 2, 1), gold)
        dlogits = (probs - (gold[:, None, :] == np.arange(3)[:, None])) * (scale / gold.size)
        flat = dlogits.reshape(-1, imap.length)
        grads["taggers.weight"] += (flat @ k).reshape(heads.shape)
        grads["taggers.bias"] += dlogits.sum(axis=2)
        dpre = (flat.T @ heads.reshape(len(flat), -1)) * (1.0 - np.square(k))
        d_a, d_b = np.zeros((n, len(kernel))), np.zeros((n, len(kernel)))
        np.add.at(d_a, imap.rows, dpre)
        np.add.at(d_b, imap.cols, dpre)
        grads["kernel.bias"] += d_a.sum(axis=0)
        grads["kernel.weight"][:, :d] += d_a.T @ h_row
        grads["kernel.weight"][:, d:] += d_b.T @ h_row
        dh[row, :n] = d_a @ kernel[:, :d] + d_b @ kernel[:, d:]
    model._encoder_backward(cache, params.encoder, dh, grads)
    return total * scale, grads


class TestGradient:
    @pytest.mark.parametrize("n", [31, 32, 40, 45, 100])  # P = 496, 528, 820, 1,035, 5,050
    def test_every_tile_size_agrees_with_the_whole_array_pass(self, schema2, n, monkeypatch):
        batch = tile_edge_batch(schema2, n, random.Random(n))
        assert all(batch[0][1].tags[:, cell].any() for cell in TILE_EDGES if cell < seq_length(n))
        p = tiny_model(schema2, [toks for toks, _ in batch])
        ref_loss, ref = whole_array_gradient(batch, p)
        for block in (seq_length(n), 10 ** 6, 512, 7, 1):
            monkeypatch.setattr(model, "PAIR_BLOCK", block)
            loss, grads = gradient(batch, p)
            if block >= seq_length(n):  # one tile: the whole-array bits
                assert loss == ref_loss
                for name, arr in ref.items():
                    assert np.array_equal(grads[name], arr), name
                continue
            assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
            for name, arr in ref.items():
                np.testing.assert_allclose(grads[name], arr, rtol=1e-12,
                                           atol=1e-12 * np.abs(arr).max(), err_msg=name)

    def test_a_multi_tile_sentence_matches_finite_differences(self, schema2):
        batch = tile_edge_batch(schema2, 40, random.Random(40))  # 820 pairs: two tiles
        p = tiny_model(schema2, [toks for toks, _ in batch])
        assert seq_length(40) > model.PAIR_BLOCK
        assert check_gradients(batch, p, max_coords=24) < 1e-4

    def test_a_paper_scale_gradient_peaks_below_8_mb(self):
        # the whole-array head pass peaked at 14.9 MB here: its (49, 3, 5,050)
        # logits, a fancy-indexed gather and a dlogits copy
        p, _ = paper_model(3)
        batch = batch_of_lengths(PAPER_SCHEMA, random.Random(3), (100,))
        gradient(batch, p)  # fills the index map cache
        tracemalloc.start()
        try:
            gradient(batch, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_matches_finite_differences_everywhere(self, schema2):
        # independent oracle: central finite differences on the batch loss,
        # checked at every coordinate of a deliberately tiny model
        rng = random.Random(17)
        mixed = make_batch(schema2, rng, 2, n_max=4)
        # gradient() runs each batch as one padded stack; batch_loss runs each alone
        stacked = batch_of_lengths(schema2, rng, (3, 4, 3))
        assert stacked[0][0] != stacked[2][0]
        for batch in (mixed, stacked):
            p = tiny_model(schema2, [toks for toks, _ in batch], d_embed=3, d_state=2, d_pair=3)
            # abs_tol=0: every coordinate must agree to relative error < 1e-4
            check_gradients(batch, p, step=1e-5, rel_tol=1e-4, abs_tol=0.0, max_coords=None)

    def test_padded_batch_matches_finite_differences(self, schema2):
        # mixed lengths exercise the padding, each sentence's reversal and
        # the dL/dh scatter; batch_loss runs each sentence alone
        batch = batch_of_lengths(schema2, random.Random(29), (1, 4, 2, 4))
        p = tiny_model(schema2, [toks for toks, _ in batch], d_embed=3, d_state=2, d_pair=3)
        check_gradients(batch, p, step=1e-5, rel_tol=1e-4, abs_tol=0.0, max_coords=None)

    def test_a_sentence_past_100_tokens_matches_finite_differences(self, schema2):
        # the 130-token sentence's triples and the padding of the 2-token one
        # reach past the length cap sentences used to be cut to
        batch = batch_of_lengths(schema2, random.Random(31), (2, 130))
        assert max(max(t.subject.tail, t.object.tail) for t in decode(batch[1][1], schema2)) >= 100
        p = tiny_model(schema2, [toks for toks, _ in batch], d_embed=3, d_state=2, d_pair=3)
        check_gradients(batch, p, step=1e-5, rel_tol=1e-4, abs_tol=0.0, max_coords=24)

    def test_one_encoder_call_per_batch_one_kernel_per_sentence(self, schema2, monkeypatch):
        batch = batch_of_lengths(schema2, random.Random(4), (3, 3, 3, 4, 4))
        p = tiny_model(schema2, [toks for toks, _ in batch])
        calls = count_calls(monkeypatch)
        gradient(batch, p)
        assert calls == {"encode": [5], "projections": [3, 3, 3, 4, 4]}

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
        p = tiny_model(schema2, [tokens])
        for other in (encode(annotation(len(tokens) + 2, []), schema2),  # more pairs
                      encode(annotation(len(tokens), []), RelationSchema(("r",)))):  # fewer heads
            with pytest.raises(ShapeError, match="gold tags"):
                gradient([(tokens, other)], p)

    def test_non_finite_parameters_raise_numeric_error(self, schema2):
        rng = random.Random(5)
        batch = make_batch(schema2, rng, 1)
        p = tiny_model(schema2, [toks for toks, _ in batch])
        p.encoder.embed[:] = np.nan
        with pytest.raises(NumericError):
            gradient(batch, p)


# one 100-token sentence through a paper-scale model straight from init_model,
# under tracemalloc: 0.5-0.7 s and 8 MB on a 2-vCPU host (0.2 s untraced)
UNTRAINED_BOUND_S, UNTRAINED_BOUND_MB = 5.0, 64


class TestInfer:
    def test_one_encoder_call_one_kernel(self, schema2, monkeypatch):
        p = tiny_model(schema2, [("a", "b", "c", "d", "e", "f")])
        calls = count_calls(monkeypatch)
        infer(("a", "b", "c", "d", "e", "f"), p, schema2)
        assert calls == {"encode": [1], "projections": [6]}  # 21 pairs, but one encoder pass

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

    def test_a_250_token_sentence_is_scored_and_trained_whole(self, schema2, tmp_path,
                                                                capsys):
        gold = triple(120, 121, 1, 230, 232)  # past token 100
        tagging = encode(annotation(250, [gold]), schema2)
        tokens, p = model_emitting(tagging)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert infer(tokens, p, schema2) == {gold}
            assert infer_batch([tokens, tokens[:50]], p, schema2) == [{gold}, set()]
            corpus = tmp_path / "long.jsonl"
            corpus.write_text(json.dumps({"text": " ".join(tokens), "triple_list": [
                ["w120 w121", "lives_in", "w230 w231 w232"]]}) + "\n", encoding="utf-8")
            ckpt = save_checkpoint(tmp_path / "long", p, schema2)
            out = tmp_path / "eval.json"
            assert main(["eval", "--data", str(corpus), "--ckpt", ckpt, "--match", "exact",
                         "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text(encoding="utf-8"))["report"]
        assert (report["f1"], report["n_gold"], report["n_predicted"]) == (1.0, 1, 1)
        assert capsys.readouterr().err == ""
        loss, grads = gradient([(tokens, tagging)], p)
        assert math.isfinite(loss) and loss > 0
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert np.any(grads["kernel.weight"] != 0)

    def test_a_cut_decode_warns_at_the_caller(self, schema2):
        # every head holds tag 1 at every cell: 225,680 candidates at n=30
        n = 30
        dense = tagging_from_dense(n, np.ones((2 * len(schema2) + 1, seq_length(n)),
                                              dtype=np.int8))
        tokens, p = model_emitting(dense)
        with pytest.warns(UserWarning, match="decode stopped") as record:
            kept = decode(dense, schema2)
        assert record[0].filename == __file__
        assert f"kept {len(kept):,} triples" in str(record[0].message) and kept
        with pytest.warns(UserWarning, match="decode stopped") as record:
            assert infer(tokens, p, schema2) == kept
        assert len(record) == 1 and record[0].filename == __file__  # points at the caller
        with pytest.warns(UserWarning, match="decode stopped") as record:
            assert infer_batch([tokens, tokens[:5]], p, schema2)[0] == kept
        assert len(record) == 1 and record[0].filename == __file__

    def test_each_cut_sentence_of_a_batch_warns_once_at_the_caller(self, schema2):
        n = 30
        dense = tagging_from_dense(n, np.ones((2 * len(schema2) + 1, seq_length(n)),
                                              dtype=np.int8))
        tokens, p = model_emitting(dense)
        with pytest.warns(UserWarning, match="decode stopped"):
            kept = decode(dense, schema2)
        short = infer(tokens[:5], p, schema2)
        # two chunks of two: the cut sentences sit in both
        with pytest.warns(UserWarning, match="decode stopped") as record:
            got = infer_batch([tokens, tokens[:5], tokens, tokens], p, schema2, batch_size=2)
        assert got == [kept, short, kept, kept]
        assert len(record) == 3 and all(r.filename == __file__ for r in record)

    @pytest.mark.parametrize("entry", ["infer", "pairlink eval"])
    def test_an_untrained_model_decodes_within_its_bound(self, entry, tmp_path):
        # init_model's tags are dense: with no budget, one 60-token sentence
        # decodes to 1.4M triples in 3.2 s
        words = [f"w{i}" for i in range(500)]
        p = tiny_model(PAPER_SCHEMA, [words], d_embed=64, d_state=32, d_pair=64)
        rng = random.Random(0)
        tokens = tuple(rng.choice(words) for _ in range(100))
        corpus = tmp_path / "one.jsonl"
        corpus.write_text(json.dumps({"text": " ".join(tokens), "triple_list": [
            [tokens[3], "rel00", tokens[60]]]}) + "\n", encoding="utf-8")
        ckpt = save_checkpoint(tmp_path / "untrained", p, PAPER_SCHEMA)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.warns(UserWarning, match="decode stopped"):
                if entry == "infer":
                    infer(tokens, p, PAPER_SCHEMA)
                else:
                    assert main(["eval", "--data", str(corpus), "--ckpt", ckpt]) == EXIT_OK
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < UNTRAINED_BOUND_S and peak < UNTRAINED_BOUND_MB * 2 ** 20


def full_scoring(tokens, params, schema, mode="lenient"):
    """Reference inference: every head scored at every pair, argmax, decode."""
    logits = model._logits(tokens, params)
    return decode(tagging_from_dense(len(tokens), model._argmax_tags(logits)), schema,
                  mode=mode)


def model_emitting(tagging: HandshakingTagging):
    """Tokens and a model whose argmax tags are exactly ``tagging``.

    Tokens are one-hot vectors, which the mixer passes on as tanh(1) times
    themselves in its forward states (w_fwd = I, every other mixer tensor
    zero).  There is one kernel unit per cell that holds a tag in some
    head; unit u reads about +1 at its cell and -1 at every other cell, so a
    head's logit for tag t is about +1 at the cells where ``tagging`` holds
    t and -1 elsewhere, against 0 for tag 0.
    """
    n, tags = tagging.n, tagging.tags
    tokens = tuple(f"w{i}" for i in range(n))
    imap = index_map(n)
    cells = np.flatnonzero(tags.any(axis=0))
    units = np.arange(len(cells))
    embed = np.vstack([np.zeros(n), np.eye(n)])  # id 0 is the unknown token
    zero = np.zeros((n, n))
    mixer = MixerParams(np.eye(n), zero, np.zeros(n), zero, zero, np.zeros(n))
    kernel = np.zeros((len(cells), 4 * n))  # token vectors are [f; g], 2n wide
    kernel[units, imap.rows[cells]] = 20.0 / math.tanh(1.0)
    kernel[units, 2 * n + imap.cols[cells]] = 20.0 / math.tanh(1.0)
    heads = np.zeros((len(tags), 3, len(cells)))
    for t in (1, 2):
        heads[:, t] = tags[:, cells] == t
    params = ModelParams(
        encoder=EncoderParams(build_vocab([tokens]), embed, mixer),
        kernel=KernelParams(kernel, np.full(len(cells), -30.0)),
        taggers=TaggerParams(heads, heads.sum(axis=2) - [0, 1, 1]),
    )
    return tokens, params


def assert_inference_equals_full_scoring(corpus, params, schema) -> int:
    """infer and infer_batch give full_scoring's triples; returns how many it emits."""
    want = [full_scoring(tokens, params, schema) for tokens in corpus]
    assert [infer(tokens, params, schema) for tokens in corpus] == want
    assert infer_batch(corpus, params, schema) == want
    return sum(map(len, want))


class TestEntityFirstInference:
    def test_triples_equal_full_scoring(self, schema2):
        # toy: a self-relating triple, whose head and tail links sit on the
        # diagonal; a reversed triple; and relation cells off every entity
        # boundary, which full scoring tags and entity-first inference skips
        gold = {triple(1, 2, 0, 1, 2), triple(3, 4, 1, 0, 0), triple(0, 0, 0, 3, 4)}
        tags = np.array(encode(annotation(5, gold), schema2).tags)
        tags[1:, [seq_index(1, 4, 5), seq_index(2, 3, 5)]] = 1
        tokens, p = model_emitting(tagging_from_dense(5, tags))
        assert full_scoring(tokens, p, schema2, "strict") == gold
        assert assert_inference_equals_full_scoring([tokens], p, schema2) == len(gold)
        # a reversed entity tag: strict decoding raises on it, inference
        # decodes leniently and ignores it
        tags[0, seq_index(0, 2, 5)] = 2
        tokens, p = model_emitting(tagging_from_dense(5, tags))
        with pytest.raises(InvalidInput, match="reversed tag in entity sequence"):
            full_scoring(tokens, p, schema2, "strict")
        assert infer(tokens, p, schema2) == infer_batch([tokens], p, schema2)[0] == gold
        assert assert_inference_equals_full_scoring([tokens], p, schema2) == len(gold)

        # paper scale: 24 relations, n <= 60, the tag-0 bias raised so that
        # about 0.1%, 1% and 5% of all cells predict a link
        schema = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))
        words = [f"w{i}" for i in range(300)]
        shares, emitted = [], 0
        for seed in (0, 1, 2):
            rng = random.Random(seed)
            lengths = [rng.randint(20, 60) for _ in range(3)]
            # infer_batch runs all four as one padded stack, two of one length
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
                    np.mean(model._argmax_tags(model._logits(tokens, p)) != 0)
                    for tokens in corpus
                ]))
                emitted += assert_inference_equals_full_scoring(corpus, p, schema)
        assert min(shares) < 0.002 and max(shares) > 0.04
        assert emitted > 50

    def test_inference_hands_its_scored_cells_to_decode(self, monkeypatch):
        # no (2N+1, P) tag array: each sentence's HandshakingTagging holds the
        # nonzero cells that _entity_first_tags scored, row-major, each once,
        # and inference calls model.decode exactly once per sentence with it
        p, words = paper_model(seed=3)
        rng = random.Random(3)
        corpus = [tuple(rng.choice(words) for _ in range(rng.randint(20, 60))) for _ in range(4)]
        margins = np.concatenate([
            np.log(probs[:, :, 1:].max(axis=2) / probs[:, :, 0]).ravel()
            for probs in (forward_probs(tokens, p) for tokens in corpus)
        ])
        p.taggers.bias[:, 0] += np.quantile(margins, 0.95)
        want = [full_scoring(tokens, p, PAPER_SCHEMA) for tokens in corpus]

        def no_tag_array(self):
            raise AssertionError("inference built a dense tag array")

        scored, decoded = [], []
        real_scoring, real_decode = model._entity_first_tags, model.decode

        def scoring(*args):
            cells = real_scoring(*args)
            scored.append(cells)
            return cells

        def checked(tagging, schema, mode):
            assert type(tagging) is HandshakingTagging and mode == "lenient"
            assert schema is PAPER_SCHEMA and len(decoded) == len(scored) - 1
            for got, want_cells in zip((tagging.index, tagging.tag), scored[-1]):
                assert np.array_equal(got, want_cells)
            rows = tagging.index // seq_length(tagging.n)
            decoded.append(np.bincount(rows, minlength=2 * len(schema) + 1))
            return real_decode(tagging, schema, mode)

        monkeypatch.setattr(HandshakingTagging, "tags", property(no_tag_array))
        monkeypatch.setattr(model, "_entity_first_tags", scoring)
        monkeypatch.setattr(model, "decode", checked)
        assert [infer(tokens, p, PAPER_SCHEMA) for tokens in corpus] == want
        assert infer_batch(corpus, p, PAPER_SCHEMA) == want
        assert len(decoded) == len(scored) == 8 and sum(map(len, want)) > 5  # 11 here
        assert all(rows[0] > 0 and rows[1:].sum() > 0 for rows in decoded)


PAPER_SCHEMA = RelationSchema(tuple(f"rel{r:02d}" for r in range(24)))


def paper_model(seed, scale=1.0):
    """A paper-scale model (24 relations, d 64/32/64) with head and kernel weights times ``scale``."""
    words = [f"w{i}" for i in range(300)]
    p = tiny_model(PAPER_SCHEMA, [words], seed=seed, d_embed=64, d_state=32, d_pair=64)
    p.taggers.weight *= scale
    p.kernel.weight *= scale
    return p, words


def entity_reference(tokens, p):
    """(projections, index map, the float64 entity logits of every pair and their argmax)."""
    h = encode_tokens(tokens, p.encoder)
    head, bias = p.taggers.weight[0], p.taggers.bias[0]
    (a, b), imap = model._projections(h, p.kernel), index_map(len(tokens))
    logits = head @ model._pair_cells(a, b, imap, slice(None)).T + bias[:, None]
    return (a, b), imap, logits, model._argmax_tags(logits)


def spy(monkeypatch, name) -> list[tuple[str, int]]:
    """Record the dtype and row count of what each call to ``model.<name>`` returns."""
    seen, real = [], getattr(model, name)

    def counting(*args):
        out = real(*args)
        seen.append((out.dtype.name, len(out)))
        return out

    monkeypatch.setattr(model, name, counting)
    return seen


class TestFloat32Screen:
    @pytest.mark.parametrize("scale", [1.0, 3.0, 10.0])
    def test_bound_holds_and_the_entity_row_is_the_float64_argmax(self, scale):
        p, words = paper_model(seed=int(scale), scale=scale)
        screen = model._entity_screen(p)
        rng = random.Random(int(scale))
        worst = 0.0
        for n in range(1, 101):
            tokens = tuple(rng.choice(words) for _ in range(n))
            (a, b), imap, want, tags = entity_reference(tokens, p)
            eps = model._screen_bound(screen, a, b)
            got = model._screen_logits(a, b, screen, imap)
            assert got.dtype == np.float32
            worst = max(worst, float(np.abs(got.astype(np.float64) - want).max()) / eps)
            assert np.array_equal(model._entity_row(a, b, p, imap, screen), tags), n
        assert 0.0 < worst <= 1.0

    def test_tanh32_error_within_the_bound_allowance(self):
        x = np.concatenate([
            np.linspace(-20.0, 20.0, 2**22 + 1, dtype=np.float32),
            np.array([0.0, -0.0, 1e-30, -1e-30, 21.0, -21.0, 1e30, -1e30, np.inf, -np.inf],
                     dtype=np.float32),
        ])
        got = np.tanh(x)
        assert got.dtype == np.float32
        err = np.abs(got.astype(np.float64) - np.tanh(x.astype(np.float64)))
        assert err.max() <= model.TANH32_ERR * model.U32

    def test_near_ties_are_rescored_in_float64(self, monkeypatch):
        # links 1 and 2 score equal everywhere, and the tag-0 bias leaves
        # about 5% of cells linked: those cells are exact ties, which only
        # float64 breaks (toward the smaller label), the rest stay float32
        p, words = paper_model(seed=5)
        p.taggers.weight[0, 2] = p.taggers.weight[0, 1]
        tokens = tuple(random.Random(5).choice(words) for _ in range(60))
        (a, b), imap, logits, _ = entity_reference(tokens, p)
        p.taggers.bias[0, 0] += np.quantile(logits[1] - logits[0], 0.95)
        (a, b), imap, _, want = entity_reference(tokens, p)
        built = spy(monkeypatch, "_pair_cells")
        got = model._entity_row(a, b, p, imap, model._entity_screen(p))
        assert np.array_equal(got, want)
        assert 0.02 < np.mean(want == 1) < 0.1 and not (want == 2).any()
        # the screen's float32 grid, then one float64 gather of the near-ties alone
        (screen_dtype, screened), (dtype, rescored) = built
        assert (screen_dtype, screened, dtype) == ("float32", imap.length, "float64")
        assert np.sum(want == 1) <= rescored < imap.length // 4

    def test_all_ties_rebuild_the_float64_grid(self, monkeypatch):
        p, words = paper_model(seed=6)
        p.taggers.weight[0, 1:] = p.taggers.weight[0, 0]
        p.taggers.bias[0, 1:] = p.taggers.bias[0, 0]
        tokens = tuple(random.Random(6).choice(words) for _ in range(40))
        (a, b), imap, _, want = entity_reference(tokens, p)
        built = spy(monkeypatch, "_pair_cells")
        got = model._entity_row(a, b, p, imap, model._entity_screen(p))
        assert np.array_equal(got, want) and not want.any()  # ties go to tag 0
        # every cell is a near-tie: after the float32 screen, one float64 gather rescores all
        whole = [("float32", imap.length), ("float64", imap.length)]
        assert built == whole
        built.clear()
        triples = infer(tokens, p, PAPER_SCHEMA)
        assert built == whole  # no entity span, so no relation cell is built
        assert triples == full_scoring(tokens, p, PAPER_SCHEMA) == set()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kernel_weight_scores_every_cell_in_float64(self, bad, monkeypatch):
        p, words = paper_model(seed=8)
        p.kernel.weight[3, 5] = bad
        tokens = tuple(random.Random(8).choice(words) for _ in range(30))
        (a, b), imap, _, want = entity_reference(tokens, p)
        assert not math.isfinite(model._screen_bound(model._entity_screen(p), a, b))
        built, screened = spy(monkeypatch, "_pair_cells"), spy(monkeypatch, "_screen_logits")
        assert np.array_equal(model._entity_row(a, b, p, imap, model._entity_screen(p)), want)
        assert built == [("float64", imap.length)] and screened == []


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

    def test_one_encoder_call_per_batch_one_kernel_per_sentence(self, schema2, monkeypatch):
        sentences = [("a", "b"), ("c", "d"), ("e", "f"), ("a", "c"), ("b", "d")]
        p = tiny_model(schema2, sentences)
        calls = count_calls(monkeypatch)
        infer_batch(sentences, p, schema2, batch_size=8)
        # five sentences, one stacked encoder, a pair kernel each
        assert calls == {"encode": [5], "projections": [2, 2, 2, 2, 2]}
        mixed = [("a",), ("b", "c", "d"), ("e", "f"), ("a", "b", "c", "d", "e")]
        for seen in calls.values():
            seen.clear()
        infer_batch(mixed, p, schema2, batch_size=3)
        assert calls == {"encode": [3, 1], "projections": [1, 3, 2, 5]}

    def test_validates_batch_size(self, schema2):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput):
            infer_batch([("a",)], p, schema2, batch_size=0)

    @pytest.mark.parametrize("batch_size", [-1, True, 2.5, "3", None])
    def test_batch_size_must_be_a_positive_int(self, schema2, batch_size):
        p = tiny_model(schema2, [("a",)])
        with pytest.raises(InvalidInput, match="batch_size must be an integer >= 1"):
            infer_batch([("a",)], p, schema2, batch_size=batch_size)

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
        assert "max_len" not in meta
        for name, arr in named_tensors(p).items():
            assert np.array_equal(arr, named_tensors(loaded)[name]), name

    @staticmethod
    def with_meta(path, out, **updates):
        """Write the checkpoint at ``path`` to ``out`` with its metadata keys updated."""
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = {**json.loads(bytes(arrays["__meta__"]).decode("utf-8")), **updates}
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        np.savez(out, **arrays)
        return out

    def test_an_older_archive_flagging_its_mixer_loads_bit_for_bit(self, tmp_path, schema2):
        # archives of format version 1 used to carry "use_mixer": true in
        # their metadata; the key is now ignored
        p = tiny_model(schema2, [("a", "b")], seed=3)
        path = save_checkpoint(tmp_path / "model", p, schema2)
        loaded, _, _ = load_checkpoint(self.with_meta(path, tmp_path / "older.npz", use_mixer=True))
        for name, arr in named_tensors(p).items():
            assert np.array_equal(arr, named_tensors(loaded)[name]), name
        assert np.array_equal(forward_probs(("a", "b"), p), forward_probs(("a", "b"), loaded))

    @pytest.mark.parametrize("cap", [100, 2, 0, -1, True])
    def test_an_older_archive_holding_max_len_loads_bit_for_bit(self, tmp_path, schema2, cap):
        # archives used to carry the model's length cap; the key is now
        # ignored, at the same format version, and no sentence is cut; 0, -1
        # and true, which the cap's check used to refuse, are not read either
        tokens = ("a", "b", "c")
        p = tiny_model(schema2, [tokens], seed=4)
        path = save_checkpoint(tmp_path / "model", p, schema2)
        older = self.with_meta(path, tmp_path / "older.npz", max_len=cap)
        loaded, _, meta = load_checkpoint(older)
        assert meta["max_len"] == cap and meta["version"] == model.CHECKPOINT_VERSION
        for name, arr in named_tensors(p).items():
            assert np.array_equal(arr, named_tensors(loaded)[name]), name
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert infer(tokens, loaded, schema2) == infer(tokens, p, schema2)
        assert np.array_equal(forward_probs(tokens, p), forward_probs(tokens, loaded))

    def test_rejects_unsupported_version(self, tmp_path, schema2):
        p = tiny_model(schema2, [("a",)])
        path = save_checkpoint(tmp_path / "model", p, schema2)
        bad = self.with_meta(path, tmp_path / "future.npz", version=99)
        with pytest.raises(InvalidInput, match="version"):
            load_checkpoint(bad)

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(InvalidInput, match="checkpoint"):
            load_checkpoint(path)
