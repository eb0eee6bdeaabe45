"""Trainable tagger: token encoder, shared pair kernel, per-sequence softmax heads.

The forward path mirrors the tagging side of the package.  A sentence is
encoded once; every upper-triangle token pair (i, j) gets the representation

    k_ij = tanh(W [h_i; h_j] + b)

and 2N+1 independent 3-way softmax heads read the link tag off k_ij (head 0
scores the entity sequence, heads 1..N the per-relation head-pair sequences,
heads N+1..2N the tail-pair sequences).  Gradients are derived by hand and
cross-checked against central finite differences in the test suite; no
autograd library is involved.

Everything runs over a stack of same-length sentences, (B, n) token ids,
through one encoder and pair kernel (``_encode_pairs``).  :func:`gradient`
and :func:`infer_batch` group their sentences by length and run each group
as one stack; :func:`forward_probs`, :func:`infer` and :func:`batch_loss`
(the finite-difference oracle's loss) run one sentence as a stack of one.

Training and :func:`forward_probs` score every head at every pair in one
forward (``_forward``) and backward.  Inside them the head logits and
probabilities are class-major, (B, 2N+1, 3, P), so every head product is one
matrix multiply over contiguous pair rows; :func:`forward_probs` hands out
the (2N+1, P, 3) view.

Inference scores the entity head at every pair, but the 2N relation heads
only at entity-boundary pairs: the head rows at the pairs within the entity
head positions, the tail rows at the pairs within the entity tail positions.
No other relation cell can reach a triple in :func:`decode`, so the triples
equal those of scoring every head everywhere.
"""

from __future__ import annotations

import json
import math
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .codec import IndexMap, check_mode, index_map
from .core import (
    HandshakingTagging,
    InvalidInput,
    PairLinkError,
    RelationSchema,
    Triple,
)
from .data import ParseError
from .decoding import decode

UNK = "<unk>"
PROB_FLOOR = 1e-12


class ShapeError(PairLinkError, ValueError):
    """Tensor dimensions do not line up."""


class NumericError(PairLinkError, ArithmeticError):
    """A loss or gradient stopped being finite."""


@dataclass
class MixerParams:
    """Bidirectional first-order recurrence over the embedded tokens.

    Forward states f_t = tanh(w_fwd x_t + u_fwd f_{t-1} + b_fwd) with f_{-1}
    zero; the backward direction mirrors it from the sentence end; the token
    vector is the concatenation [f_t; g_t].
    """

    w_fwd: np.ndarray  # (state, embed)
    u_fwd: np.ndarray  # (state, state)
    b_fwd: np.ndarray  # (state,)
    w_bwd: np.ndarray
    u_bwd: np.ndarray
    b_bwd: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.w_fwd.shape[0]


@dataclass
class EncoderParams:
    """Embedding table plus optional context mixer; id 0 is the unknown token."""

    vocab: dict[str, int]
    embed: np.ndarray  # (V, embed_dim)
    mixer: MixerParams | None = None

    @property
    def out_dim(self) -> int:
        if self.mixer is None:
            return self.embed.shape[1]
        return 2 * self.mixer.state_dim


@dataclass
class KernelParams:
    weight: np.ndarray  # (pair_dim, 2 * encoder_out)
    bias: np.ndarray  # (pair_dim,)


@dataclass
class TaggerParams:
    """Stacked output heads: weight (2N+1, 3, pair_dim), bias (2N+1, 3)."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def n_taggers(self) -> int:
        return self.weight.shape[0]


@dataclass
class ModelParams:
    encoder: EncoderParams
    kernel: KernelParams
    taggers: TaggerParams
    n_relations: int
    max_len: int = 100

    def __post_init__(self) -> None:
        d = self.encoder.out_dim
        if self.kernel.weight.shape[1] != 2 * d:
            raise ShapeError(
                f"kernel expects input {self.kernel.weight.shape[1]}, encoder yields {2 * d}"
            )
        if self.kernel.weight.shape[0] != self.kernel.bias.shape[0]:
            raise ShapeError("kernel weight and bias disagree on pair_dim")
        expected = 2 * self.n_relations + 1
        if self.taggers.n_taggers != expected:
            raise ShapeError(
                f"need {expected} output heads for {self.n_relations} relations, "
                f"got {self.taggers.n_taggers}"
            )
        if self.taggers.weight.shape[1:] != (3, self.kernel.weight.shape[0]):
            raise ShapeError("tagger heads do not match the kernel output dimension")
        if self.taggers.bias.shape != (expected, 3):
            raise ShapeError("tagger bias must be (2N+1, 3)")


def build_vocab(token_lists) -> dict[str, int]:
    """Token -> id map over a corpus, id 0 reserved for unknown tokens."""
    vocab = {UNK: 0}
    for tokens in token_lists:
        for tok in tokens:
            vocab.setdefault(tok, len(vocab))
    return vocab


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_model(
    schema: RelationSchema,
    vocab: dict[str, int],
    d_embed: int = 32,
    d_state: int = 16,
    d_pair: int = 32,
    use_mixer: bool = True,
    max_len: int = 100,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Fresh parameters, every weight uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    if rng is None:
        rng = np.random.default_rng(seed)
    if UNK not in vocab or vocab[UNK] != 0:
        raise InvalidInput(f"vocab must map {UNK!r} to id 0")
    n_rel = len(schema)
    embed = _uniform(rng, (len(vocab), d_embed), d_embed)
    mixer = None
    if use_mixer:
        mixer = MixerParams(
            w_fwd=_uniform(rng, (d_state, d_embed), d_embed),
            u_fwd=_uniform(rng, (d_state, d_state), d_state),
            b_fwd=np.zeros(d_state),
            w_bwd=_uniform(rng, (d_state, d_embed), d_embed),
            u_bwd=_uniform(rng, (d_state, d_state), d_state),
            b_bwd=np.zeros(d_state),
        )
    encoder = EncoderParams(vocab=dict(vocab), embed=embed, mixer=mixer)
    d = encoder.out_dim
    kernel = KernelParams(
        weight=_uniform(rng, (d_pair, 2 * d), 2 * d), bias=np.zeros(d_pair)
    )
    taggers = TaggerParams(
        weight=_uniform(rng, (2 * n_rel + 1, 3, d_pair), d_pair),
        bias=np.zeros((2 * n_rel + 1, 3)),
    )
    return ModelParams(encoder, kernel, taggers, n_rel, max_len=max_len)


def named_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Every trainable array, keyed by a stable dotted name."""
    out = {
        "encoder.embed": params.encoder.embed,
        "kernel.weight": params.kernel.weight,
        "kernel.bias": params.kernel.bias,
        "taggers.weight": params.taggers.weight,
        "taggers.bias": params.taggers.bias,
    }
    m = params.encoder.mixer
    if m is not None:
        for name in ("w_fwd", "u_fwd", "b_fwd", "w_bwd", "u_bwd", "b_bwd"):
            out[f"encoder.mixer.{name}"] = getattr(m, name)
    return out


def clone_params(params: ModelParams) -> ModelParams:
    m = params.encoder.mixer
    mixer = None
    if m is not None:
        mixer = MixerParams(
            m.w_fwd.copy(), m.u_fwd.copy(), m.b_fwd.copy(),
            m.w_bwd.copy(), m.u_bwd.copy(), m.b_bwd.copy(),
        )
    return ModelParams(
        encoder=EncoderParams(dict(params.encoder.vocab), params.encoder.embed.copy(), mixer),
        kernel=KernelParams(params.kernel.weight.copy(), params.kernel.bias.copy()),
        taggers=TaggerParams(params.taggers.weight.copy(), params.taggers.bias.copy()),
        n_relations=params.n_relations,
        max_len=params.max_len,
    )


# --- forward -----------------------------------------------------------------


def _stack_ids(token_lists, vocab: dict[str, int]) -> np.ndarray:
    """Token ids (B, n) of same-length sentences; unknown tokens map to id 0."""
    ids = np.array([[vocab.get(t, 0) for t in tokens] for tokens in token_lists],
                   dtype=np.int64)
    if ids.shape[1] == 0:
        raise InvalidInput("cannot encode an empty sentence")
    return ids


def _recurrence(x: np.ndarray, w: np.ndarray, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States s_t = tanh(x_t wᵀ + s_{t-1} uᵀ + b) along axis 1 of x (B, n, e), s_{-1} = 0."""
    s = x @ w.T
    s += b
    for t in range(s.shape[1]):
        if t:
            s[:, t] += s[:, t - 1] @ u.T
        np.tanh(s[:, t], out=s[:, t])
    return s


def _encode(ids: np.ndarray, enc: EncoderParams) -> tuple[np.ndarray, dict]:
    """Context vectors (B, n, out_dim) for stacked same-length id rows (B, n)."""
    x = enc.embed[ids]
    if enc.mixer is None:
        return x, {"ids": ids, "x": x, "f": None, "g": None}
    m = enc.mixer
    f = _recurrence(x, m.w_fwd, m.u_fwd, m.b_fwd)
    g = _recurrence(x[:, ::-1], m.w_bwd, m.u_bwd, m.b_bwd)[:, ::-1]
    return np.concatenate([f, g], axis=2), {"ids": ids, "x": x, "f": f, "g": g}


def encode_tokens(tokens, encoder: EncoderParams) -> np.ndarray:
    """Context vectors for one sentence, shape (n, out_dim); runs once per sentence."""
    return _encode(_stack_ids([tokens], encoder.vocab), encoder)[0][0]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Normalise ``logits`` along ``axis`` in place and return them."""
    logits -= logits.max(axis=axis, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=axis, keepdims=True)
    return logits


def handshaking_kernel(h_i, h_j, kernel: KernelParams) -> np.ndarray:
    """Pair representation tanh(W [h_i; h_j] + b) for a single token pair."""
    h_i = np.asarray(h_i, dtype=float)
    h_j = np.asarray(h_j, dtype=float)
    if h_i.shape != h_j.shape or h_i.ndim != 1:
        raise ShapeError(f"token vectors disagree: {h_i.shape} vs {h_j.shape}")
    if 2 * h_i.shape[0] != kernel.weight.shape[1]:
        raise ShapeError(
            f"kernel expects input {kernel.weight.shape[1]}, got {2 * h_i.shape[0]}"
        )
    return np.tanh(kernel.weight @ np.concatenate([h_i, h_j]) + kernel.bias)


def tag_distribution(h_pair, taggers: TaggerParams, tagger: int) -> np.ndarray:
    """Softmax over the three link tags for one pair under one output head."""
    if not 0 <= tagger < taggers.n_taggers:
        raise InvalidInput(f"tagger index {tagger} out of range [0, {taggers.n_taggers})")
    h_pair = np.asarray(h_pair, dtype=float)
    if h_pair.shape != (taggers.weight.shape[2],):
        raise ShapeError(
            f"pair vector has shape {h_pair.shape}, heads expect ({taggers.weight.shape[2]},)"
        )
    return softmax(taggers.weight[tagger] @ h_pair + taggers.bias[tagger])


def _argmax_tags(scores: np.ndarray) -> np.ndarray:
    """Best tag over the class axis of (..., 3, P) scores; ties go to the smaller label."""
    none, forward, reverse = scores[..., 0, :], scores[..., 1, :], scores[..., 2, :]
    tags = (forward > none).astype(np.int8)
    tags[reverse > np.maximum(none, forward)] = 2
    return tags


@dataclass
class ForwardCache:
    """One stacked forward over B same-length sentences, kept for the backward."""

    h: np.ndarray  # (B, n, d)
    enc: dict
    k: np.ndarray  # (B, P, pair_dim)
    logits: np.ndarray  # (B, T, 3, P)


def _encode_pairs(token_lists, params: ModelParams) -> tuple[np.ndarray, dict, np.ndarray]:
    """Encoder and pair kernel over a stack of same-length sentences: (h, enc cache, k).

    With W = [W_l | W_r] split at the token width, W [h_i; h_j] = A_i + B_j
    for A = h W_lᵀ and B = h W_rᵀ, so each token is projected once rather
    than once per pair.  ``k`` is (B, P, pair_dim) in ``index_map`` order.
    """
    ids = _stack_ids(token_lists, params.encoder.vocab)
    h, enc_cache = _encode(ids, params.encoder)
    imap = index_map(ids.shape[1])
    weight, d = params.kernel.weight, h.shape[2]
    k = (h @ weight[:, :d].T)[:, imap.rows]
    k += (h @ weight[:, d:].T)[:, imap.cols]
    k += params.kernel.bias
    np.tanh(k, out=k)
    return h, enc_cache, k


def _forward(token_lists, params: ModelParams) -> ForwardCache:
    """The model's full forward pass over a stack of same-length sentences.

    The heads run as one (T·3, pair_dim) @ kᵀ product over every pair; the
    class axis sits before the pair axis so that every class row is
    contiguous over pairs.
    """
    h, enc_cache, k = _encode_pairs(token_lists, params)
    heads = params.taggers.weight
    logits = heads.reshape(-1, heads.shape[2]) @ k.transpose(0, 2, 1)
    logits += params.taggers.bias.reshape(-1, 1)
    return ForwardCache(h, enc_cache, k, logits.reshape(len(k), heads.shape[0], 3, -1))


def _length_groups(token_lists) -> list[list[int]]:
    """Positions in ``token_lists`` grouped by sentence length, in order of first appearance."""
    by_len: dict[int, list[int]] = {}
    for idx, tokens in enumerate(token_lists):
        by_len.setdefault(len(tokens), []).append(idx)
    return list(by_len.values())


def forward_probs(tokens, params: ModelParams) -> np.ndarray:
    """Per-head tag distributions for a sentence, shape (2N+1, P, 3)."""
    return softmax(_forward([tokens], params).logits[0], axis=1).transpose(0, 2, 1)


def gold_tags(tagging: HandshakingTagging) -> np.ndarray:
    """(2N+1, P) gold tag array in head order: entity, head pairs, tail pairs.

    This is the tagging's own read-only int8 array, not a copy.
    """
    return tagging.tags


def loss_from_probs(probs: np.ndarray, gold: np.ndarray) -> float:
    """Mean negative log-likelihood of the gold tag over all heads and pairs."""
    if probs.shape[:2] != gold.shape:
        raise ShapeError(f"probs {probs.shape} do not cover gold {gold.shape}")
    t_idx = np.arange(probs.shape[0])[:, None]
    p_idx = np.arange(probs.shape[1])[None, :]
    picked = probs[t_idx, p_idx, gold]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def batch_loss(batch, params: ModelParams) -> float:
    """Mean per-sentence loss over (tokens, gold tagging) pairs, one sentence at a time."""
    if not batch:
        raise InvalidInput("empty batch")
    total = 0.0
    for tokens, tagging in batch:
        total += loss_from_probs(forward_probs(tokens, params), gold_tags(tagging))
    return total / len(batch)


# --- backward ----------------------------------------------------------------


def _backward(gold: np.ndarray, cache: ForwardCache, params: ModelParams,
              grads: dict[str, np.ndarray], weight: float) -> None:
    """Add ``weight`` times each stacked sentence's gradients to ``grads``.

    ``gold`` is (B, T, P).  ``cache.logits`` must hold the softmax
    probabilities; it is consumed, and so is ``cache.k``.
    """
    dlogits = cache.logits  # overwritten in place
    n_sent, n_heads, n_classes, n_pairs = dlogits.shape
    for tag in range(n_classes):
        dlogits[:, :, tag] -= gold == tag
    dlogits *= weight / (n_heads * n_pairs)
    flat = dlogits.reshape(n_sent, -1, n_pairs)  # (B, T·3, P)
    heads = params.taggers.weight
    grads["taggers.weight"] += (flat @ cache.k).sum(axis=0).reshape(heads.shape)
    grads["taggers.bias"] += dlogits.sum(axis=(0, 3))
    dpre = flat.transpose(0, 2, 1) @ heads.reshape(flat.shape[1], -1)  # dL/dk, (B, P, pair_dim)
    deriv = np.square(cache.k, out=cache.k)  # k is spent; reuse it for tanh' = 1 - k²
    np.subtract(1.0, deriv, out=deriv)
    dpre *= deriv
    grads["kernel.bias"] += dpre.sum(axis=(0, 1))

    # index_map lays pairs out row by row: row i is the slice of pairs
    # (i, i), ..., (i, n-1) from row_start[i], so its sum is dA[:, i] and its
    # m-th pair adds to dB[:, i + m].  (np.add.at over the table's rows and
    # cols gives the same bits but is over ten times slower.)
    n, d = cache.h.shape[1:]
    d_a = np.empty((n_sent, n, dpre.shape[2]))
    d_b = np.zeros_like(d_a)
    for i, start in enumerate(index_map(n).row_start):
        seg = dpre[:, start:start + n - i]
        d_a[:, i] = seg.sum(axis=1)
        d_b[:, i:] += seg
    h_rows = cache.h.reshape(-1, d)  # (B·n, d)
    weight_l, weight_r = params.kernel.weight[:, :d], params.kernel.weight[:, d:]
    grads["kernel.weight"][:, :d] += d_a.reshape(len(h_rows), -1).T @ h_rows
    grads["kernel.weight"][:, d:] += d_b.reshape(len(h_rows), -1).T @ h_rows
    _encoder_backward(cache.enc, params.encoder, d_a @ weight_l + d_b @ weight_r, grads)


def _recurrence_backward(ds: np.ndarray, s: np.ndarray, x: np.ndarray,
                         w: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """(dw, du, db, dx) of :func:`_recurrence` given dL/ds (B, n, state)."""
    deriv = 1.0 - s**2
    dpre = ds * deriv
    for t in range(s.shape[1] - 2, -1, -1):
        dpre[:, t] += (dpre[:, t + 1] @ u) * deriv[:, t]
    state = s.shape[2]
    rows = dpre.reshape(-1, state)  # (B·n, state)
    dw = rows.T @ x.reshape(len(rows), -1)
    du = dpre[:, 1:].reshape(-1, state).T @ s[:, :-1].reshape(-1, state)
    return dw, du, rows.sum(axis=0), dpre @ w


def _encoder_backward(enc_cache: dict, enc: EncoderParams, dh: np.ndarray,
                      grads: dict[str, np.ndarray]) -> None:
    ids = enc_cache["ids"].ravel()  # (B·n,), row-major like the (B, n, ·) gradients
    if enc.mixer is None:
        np.add.at(grads["encoder.embed"], ids, dh.reshape(len(ids), -1))
        return
    m = enc.mixer
    x, f, g = enc_cache["x"], enc_cache["f"], enc_cache["g"]
    s = f.shape[2]
    dw, du, db, dx = _recurrence_backward(dh[:, :, :s], f, x, m.w_fwd, m.u_fwd)
    grads["encoder.mixer.w_fwd"] += dw
    grads["encoder.mixer.u_fwd"] += du
    grads["encoder.mixer.b_fwd"] += db
    # the backward direction runs from the sentence end: reverse time, then dx back
    dw, du, db, dx_bwd = _recurrence_backward(
        dh[:, ::-1, s:], g[:, ::-1], x[:, ::-1], m.w_bwd, m.u_bwd
    )
    grads["encoder.mixer.w_bwd"] += dw
    grads["encoder.mixer.u_bwd"] += du
    grads["encoder.mixer.b_bwd"] += db
    dx += dx_bwd[:, ::-1]
    np.add.at(grads["encoder.embed"], ids, dx.reshape(len(ids), -1))


def gradient(batch, params: ModelParams) -> tuple[float, dict[str, np.ndarray]]:
    """(mean batch loss, analytic gradients) for (tokens, gold tagging) pairs.

    The loss is the mean over sentences of the per-sentence mean cell loss,
    so duplicating a sample leaves the gradient unchanged.  Sentences of one
    length run as one stacked forward and backward.  Raises
    :class:`NumericError` the moment anything stops being finite.
    """
    if not batch:
        raise InvalidInput("empty batch")
    grads = {name: np.zeros_like(arr) for name, arr in named_tensors(params).items()}
    total = 0.0
    scale = 1.0 / len(batch)
    for group in _length_groups([tokens for tokens, _ in batch]):
        cache = _forward([batch[i][0] for i in group], params)
        probs = softmax(cache.logits, axis=2)
        golds = [gold_tags(batch[i][1]) for i in group]
        for row, gold in enumerate(golds):
            total += loss_from_probs(probs[row].transpose(0, 2, 1), gold)
        _backward(np.stack(golds), cache, params, grads, scale)
    loss = total * scale
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss: {loss}")
    for name, arr in grads.items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite gradient in {name}")
    return loss, grads


# --- inference ---------------------------------------------------------------


def _fit_length(tokens, max_len: int, mode: str):
    if len(tokens) <= max_len:
        return tokens
    if mode == "strict":
        raise InvalidInput(f"sentence has {len(tokens)} tokens, limit is {max_len}")
    warnings.warn(
        f"truncating a {len(tokens)}-token sentence to {max_len} tokens",
        stacklevel=4,  # _fit_length <- _infer <- infer or infer_batch <- their caller
    )
    return tokens[:max_len]


def _boundary_cells(positions: np.ndarray, imap: IndexMap) -> np.ndarray:
    """Flat indices of the upper-triangle pairs within token ``positions``, diagonal included."""
    positions = np.unique(positions)
    within = index_map(len(positions))
    i, j = positions[within.rows], positions[within.cols]
    return np.take(imap.row_start, i) + (j - i)


def _entity_first_tags(pairs: np.ndarray, entity: np.ndarray, params: ModelParams,
                       imap: IndexMap) -> np.ndarray:
    """One sentence's (2N+1, P) tags from its pair vectors (P, pair_dim) and entity row.

    :func:`decode` emits (s, r, o) only for entity spans s and o with a head
    link at (s.head, o.head) and a tail link at (s.tail, o.tail).  So the
    head rows are scored only at the pairs within the entity head positions,
    the tail rows only at the pairs within the entity tail positions, and
    every other relation cell stays 0: the triples equal those of the argmax
    over every head at every pair.
    """
    heads, bias, n_rel = params.taggers.weight, params.taggers.bias, params.n_relations
    tags = np.zeros((len(heads), imap.length), dtype=np.int8)
    tags[0] = entity
    spans = entity == 1
    if spans.any():
        for rows, ends in ((slice(1, 1 + n_rel), imap.rows[spans]),
                           (slice(1 + n_rel, None), imap.cols[spans])):
            cells = _boundary_cells(ends, imap)
            logits = heads[rows].reshape(-1, heads.shape[2]) @ pairs[cells].T
            logits += bias[rows].reshape(-1, 1)
            tags[rows, cells] = _argmax_tags(logits.reshape(n_rel, 3, -1))
    return tags


def _infer(sentences, params: ModelParams, schema: RelationSchema, batch_size: int,
           mode: str) -> list[set[Triple]]:
    """Shared body of :func:`infer` and :func:`infer_batch`."""
    check_mode(mode)
    if params.n_relations != len(schema):
        raise InvalidInput(
            f"model has {params.n_relations} relations, schema has {len(schema)}"
        )
    fitted = []
    for tokens in sentences:  # a comprehension would add a frame under the warning
        fitted.append(_fit_length(tokens, params.max_len, mode))
    entity_head, entity_bias = params.taggers.weight[0], params.taggers.bias[0]
    results: list[set[Triple] | None] = [None] * len(fitted)
    for start in range(0, len(fitted), batch_size):
        for group in _length_groups(fitted[start:start + batch_size]):
            idxs = [start + i for i in group]
            n = len(fitted[idxs[0]])
            _, _, k = _encode_pairs([fitted[i] for i in idxs], params)
            entity = _argmax_tags(entity_head @ k.transpose(0, 2, 1) + entity_bias[:, None])
            for idx, pairs, row in zip(idxs, k, entity):
                tags = _entity_first_tags(pairs, row, params, index_map(n))
                results[idx] = decode(HandshakingTagging(n, tags), schema, mode=mode)
    return results  # type: ignore[return-value]


def infer(tokens, params: ModelParams, schema: RelationSchema,
          mode: str = "lenient") -> set[Triple]:
    """Encode, score the heads, argmax tags (ties toward the smaller label), decode.

    The entity head is scored at every token pair; the 2N relation heads only
    at the entity-boundary pairs that can reach a triple (pairs of entity
    head positions for the head rows, of entity tail positions for the tail
    rows), which gives the same triples as scoring every head everywhere.
    Softmax is monotone, so the argmax is taken on the logits directly.  The
    result equals ``infer_batch([tokens], ...)[0]``: both run one body.
    """
    return _infer([tokens], params, schema, 1, mode)[0]


def infer_batch(sentences, params: ModelParams, schema: RelationSchema,
                batch_size: int = 24, mode: str = "lenient") -> list[set[Triple]]:
    """Inference over many sentences; output order matches input order.

    Each batch is grouped by sentence length so a group runs as one stacked
    encoder and pair kernel; decoded triple sets equal per-sentence :func:`infer`.
    """
    if batch_size < 1:
        raise InvalidInput(f"batch size must be >= 1, got {batch_size}")
    return _infer(sentences, params, schema, batch_size, mode)


# --- checkpoints ---------------------------------------------------------------

CHECKPOINT_FORMAT = "pairlink-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, schema: RelationSchema,
                    extra: dict | None = None) -> str:
    """Write a self-describing .npz checkpoint; returns the actual path used."""
    vocab_tokens = [None] * len(params.encoder.vocab)
    for tok, idx in params.encoder.vocab.items():
        vocab_tokens[idx] = tok
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "relations": list(schema.relations),
        "vocab": vocab_tokens,
        "use_mixer": params.encoder.mixer is not None,
        "max_len": params.max_len,
        "extra": extra or {},
    }
    arrays = {
        name.replace(".", "__"): arr for name, arr in named_tensors(params).items()
    }
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    path = str(path)
    if not path.endswith(".npz"):
        path += ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(raw, dtype=np.uint8), **arrays)
    return path


def _read_archive(path) -> dict[str, np.ndarray]:
    """Every array stored in an .npz file."""
    try:
        data = np.load(str(path))
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                return {key: data[key] for key in data.files}
        problem = "holds a single array, not an .npz archive"
    except (IsADirectoryError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        problem = f"{type(exc).__name__}: {exc}".splitlines()[0]
    raise ParseError(f"{path}: not a readable checkpoint archive ({problem})")


def _read_meta(path, raw: np.ndarray | None) -> dict:
    if raw is None:
        raise ParseError(f"{path}: not a model checkpoint (no metadata entry)")
    try:
        meta = json.loads(raw.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path}: checkpoint metadata is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: unexpected checkpoint format {meta.get('format')!r}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: checkpoint version {meta.get('version')!r} is not supported")
    for key, kind in (("relations", list), ("vocab", list), ("use_mixer", bool),
                      ("max_len", int)):
        if not isinstance(meta.get(key), kind):
            raise ParseError(f"{path}: checkpoint metadata needs {key!r} as a {kind.__name__}")
    vocab = meta["vocab"]
    if (not all(isinstance(tok, str) for tok in vocab) or vocab[:1] != [UNK]
            or len(set(vocab)) != len(vocab)):
        raise ParseError(f"{path}: checkpoint vocabulary must be distinct strings from {UNK!r}")
    return meta


def _tensor_problems(meta: dict, tensors: dict[str, np.ndarray]) -> list[str]:
    """Why ``tensors`` are not the parameters of the model ``meta`` describes."""

    def dim(name: str, axis: int) -> int:
        arr = tensors.get(name)
        return arr.shape[axis] if arr is not None and arr.ndim > axis else -1

    embed_dim, pair_dim = dim("encoder.embed", 1), dim("kernel.bias", 0)
    heads = 2 * len(meta["relations"]) + 1
    want = {"encoder.embed": (len(meta["vocab"]), embed_dim)}
    out_dim = embed_dim
    if meta["use_mixer"]:
        state = dim("encoder.mixer.w_fwd", 0)
        out_dim = 2 * state
        for side in ("fwd", "bwd"):
            want[f"encoder.mixer.w_{side}"] = (state, embed_dim)
            want[f"encoder.mixer.u_{side}"] = (state, state)
            want[f"encoder.mixer.b_{side}"] = (state,)
    want["kernel.weight"] = (pair_dim, 2 * out_dim)
    want["kernel.bias"] = (pair_dim,)
    want["taggers.weight"] = (heads, 3, pair_dim)
    want["taggers.bias"] = (heads, 3)
    problems = []
    for label, names in (("missing", [name for name in want if name not in tensors]),
                         ("unexpected", [name for name in tensors if name not in want])):
        if names:
            problems.append(f"{label} {', '.join(names)}")
    problems += [
        f"{name} is {tensors[name].dtype}{list(tensors[name].shape)}, "
        f"expected float64{list(shape)}"
        for name, shape in want.items()
        if name in tensors and (tensors[name].shape != shape or tensors[name].dtype != np.float64)
    ]
    return problems


def load_checkpoint(path) -> tuple[ModelParams, RelationSchema, dict]:
    """Read a checkpoint back; arrays roundtrip bit-exactly.

    Raises :class:`ParseError` when the file is not a readable archive, its
    metadata is malformed, or its tensors are incomplete or disagree in shape
    with the metadata (vocabulary size, relation count, mixer on or off).
    """
    arrays = _read_archive(path)
    meta = _read_meta(path, arrays.pop("__meta__", None))
    tensors = {key.replace("__", "."): arr for key, arr in arrays.items()}
    problems = _tensor_problems(meta, tensors)
    if problems:
        raise ParseError(f"{path}: checkpoint tensors do not fit its metadata: "
                         + "; ".join(problems))
    try:
        schema = RelationSchema(tuple(meta["relations"]))
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from None
    mixer = None
    if meta["use_mixer"]:
        mixer = MixerParams(
            *(tensors[f"encoder.mixer.{k}"]
              for k in ("w_fwd", "u_fwd", "b_fwd", "w_bwd", "u_bwd", "b_bwd"))
        )
    params = ModelParams(
        encoder=EncoderParams({tok: idx for idx, tok in enumerate(meta["vocab"])},
                              tensors["encoder.embed"], mixer),
        kernel=KernelParams(tensors["kernel.weight"], tensors["kernel.bias"]),
        taggers=TaggerParams(tensors["taggers.weight"], tensors["taggers.bias"]),
        n_relations=len(schema),
        max_len=meta["max_len"],
    )
    return params, schema, meta
