"""Trainable tagger: token encoder, shared pair kernel, per-sequence softmax heads.

The forward path mirrors the tagging side of the package.  A sentence is
encoded once; every upper-triangle token pair (i, j) gets the representation

    k_ij = tanh(W [h_i; h_j] + b)

and 2N+1 independent 3-way softmax heads read the link tag off k_ij (head 0
scores the entity sequence, heads 1..N the per-relation head-pair sequences,
heads N+1..2N the tail-pair sequences).  Gradients are derived by hand and
cross-checked against central finite differences in the test suite; no
autograd library is involved.

One encoder path serves training and inference: ``_encode`` runs sentences
of any lengths as one right-padded (B, n_max) stack.  :func:`gradient` runs
it forward and backward once per batch, :func:`infer_batch` once per chunk
of ``batch_size`` sentences; :func:`forward_probs`, :func:`infer` and
:func:`batch_loss` (the finite-difference oracle's loss) run one sentence
as a stack of one.  The pair kernel, heads, softmax and their backward then
run one sentence at a time on 2-D arrays.

Training and :func:`forward_probs` score every head at every pair.  The head
logits are class-major, (2N+1, 3, P), so every head product is one matrix
multiply over contiguous pair rows.  :func:`forward_probs` builds them whole
and hands out the (2N+1, P, 3) view of their softmax.  Training never does:
it runs the logits, softmax, NLL and backward by tiles of ``PAIR_BLOCK``
contiguous pairs, so its working set is one tile's (2N+1, 3, PAIR_BLOCK)
whatever the sentence length.

Inference scores the entity head at every pair, but the 2N relation heads
only at entity-boundary pairs: the head rows at the pairs within the entity
head positions, the tail rows at the pairs within the entity tail positions.
No other relation cell can reach a triple in :func:`decode`, so the triples
equal those of scoring every head everywhere.

The entity head is screened in float32: every pair is scored from float32
copies of the projections, and wherever the top two logits are more than 2ε
apart, for the per-sentence error bound ε of :func:`_screen_bound` (the
standard dot-product bound plus an assumed float32 ``tanh`` accuracy that
the test suite checks), the float32 argmax is the float64 one.  The
near-ties and the relation cells are scored in float64, so the tags equal
the float64 argmax; when ε is not finite, every pair counts as a near-tie.
Training, :func:`forward_probs` and :func:`batch_loss` stay in float64.
"""

from __future__ import annotations

import copy
import json
import math
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .codec import IndexMap, index_map
from .core import HandshakingTagging, InvalidInput, PairLinkError, RelationSchema, Triple, check_int
from .data import ParseError, read_json
from .decoding import decode

UNK = "<unk>"
PROB_FLOOR = 1e-12
U32 = 2.0 ** -24  # unit roundoff of float32
TANH32_ERR = 4  # assumed bound on numpy's float32 tanh error over all inputs, in units of U32
INFER_BATCH_SIZE = 24  # default sentences per encoder pass in inference, also in the CLI
PAIR_BLOCK = 512  # flat pairs per tile of the training head pass


class ShapeError(PairLinkError, ValueError):
    """Tensor dimensions or dtypes do not line up."""


class NumericError(PairLinkError, ArithmeticError):
    """A loss or gradient stopped being finite."""


def _axis(arr: np.ndarray, axis: int) -> int:
    """Length of ``arr`` along ``axis``; -1, which fails any shape check, when it has none."""
    return arr.shape[axis] if arr.ndim > axis else -1


def _check_tensor(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> None:
    if arr.shape != shape or arr.dtype != np.float64:
        raise ShapeError(f"{name} is {arr.dtype}{list(arr.shape)}, expected float64{list(shape)}")


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
    """Embedding table plus context mixer; vocab ids are 0..V-1, 0 the unknown token."""

    vocab: dict[str, int]
    embed: np.ndarray  # (V, embed_dim)
    mixer: MixerParams

    def __post_init__(self) -> None:
        if self.vocab.get(UNK) != 0 or set(self.vocab.values()) != set(range(len(self.vocab))):
            raise InvalidInput(f"vocab must map its tokens onto ids 0..V-1 with {UNK!r} at 0")
        embed_dim = _axis(self.embed, 1)
        _check_tensor("encoder.embed", self.embed, (len(self.vocab), embed_dim))
        state = _axis(self.mixer.w_fwd, 0)
        shapes = {"w": (state, embed_dim), "u": (state, state), "b": (state,)}
        for f in fields(MixerParams):
            _check_tensor(f"encoder.mixer.{f.name}", getattr(self.mixer, f.name),
                          shapes[f.name[0]])

    @property
    def out_dim(self) -> int:
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
    """A whole model; construction checks every tensor's full shape and dtype."""

    encoder: EncoderParams
    kernel: KernelParams
    taggers: TaggerParams

    def __post_init__(self) -> None:
        heads, pair_dim = _axis(self.taggers.weight, 0), _axis(self.kernel.weight, 0)
        if heads % 2 == 0:
            raise ShapeError(f"need an odd number 2N+1 of output heads, got {heads}")
        for name, arr, shape in (
            ("kernel.weight", self.kernel.weight, (pair_dim, 2 * self.encoder.out_dim)),
            ("kernel.bias", self.kernel.bias, (pair_dim,)),
            ("taggers.weight", self.taggers.weight, (heads, 3, pair_dim)),
            ("taggers.bias", self.taggers.bias, (heads, 3)),
        ):
            _check_tensor(name, arr, shape)

    @property
    def n_relations(self) -> int:
        return self.taggers.n_taggers // 2


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
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Fresh parameters, every weight uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    for name, size in (("d_embed", d_embed), ("d_state", d_state), ("d_pair", d_pair)):
        check_int(name, size)
    seed = check_int("seed", seed, minimum=0)
    if rng is None:
        rng = np.random.default_rng(seed)
    n_rel = len(schema)
    embed = _uniform(rng, (len(vocab), d_embed), d_embed)
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
    return ModelParams(encoder, kernel, taggers)


def named_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Every trainable array, keyed by a stable dotted name."""
    out = {
        "encoder.embed": params.encoder.embed,
        "kernel.weight": params.kernel.weight,
        "kernel.bias": params.kernel.bias,
        "taggers.weight": params.taggers.weight,
        "taggers.bias": params.taggers.bias,
    }
    for f in fields(MixerParams):
        out[f"encoder.mixer.{f.name}"] = getattr(params.encoder.mixer, f.name)
    return out


def clone_params(params: ModelParams) -> ModelParams:
    """An independent copy: no array and no vocabulary dict is shared with ``params``."""
    return copy.deepcopy(params)


# --- forward -----------------------------------------------------------------


def _stack_ids(token_lists, vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Right-padded token ids (B, n_max) and the mask of real tokens; unknown tokens map to id 0."""
    lengths = [len(tokens) for tokens in token_lists]
    if min(lengths) == 0:
        raise InvalidInput("cannot encode an empty sentence")
    mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
    ids = np.zeros(mask.shape, dtype=np.int64)
    ids[mask] = [vocab.get(t, 0) for tokens in token_lists for t in tokens]
    return ids, mask


def _encode(token_lists, enc: EncoderParams) -> tuple[np.ndarray, dict]:
    """Context vectors (B, n_max, out_dim) for sentences of any lengths, right-padded.

    Both mixer directions step through one time-major loop over states
    (n_max, 2, B, state): direction 0 reads the stack in order, direction 1
    reversed, so step t is one stacked product, add and tanh for both.  Read
    forward, a sentence's padding comes after its last step.  Read reversed,
    it comes first, with its pre-activations zeroed, so the states stay
    exactly 0 until the sentence's last token: each sentence is read
    backward from its own end.  Padded rows of the result are finite filler.
    """
    ids, mask = _stack_ids(token_lists, enc.vocab)
    x = enc.embed[ids]
    cache = {"ids": ids, "mask": mask, "x": x}
    m = enc.mixer
    s = np.empty((ids.shape[1], 2, len(ids), m.state_dim))  # s_t = tanh(x_t wᵀ + s_{t-1} uᵀ + b)
    s[:, 0] = (x @ m.w_fwd.T + m.b_fwd).transpose(1, 0, 2)
    pre = x @ m.w_bwd.T + m.b_bwd
    pre[~mask] = 0.0
    s[:, 1] = pre[:, ::-1].transpose(1, 0, 2)
    u = np.stack([m.u_fwd, m.u_bwd]).transpose(0, 2, 1)  # (2, state, state), each uᵀ
    carry = np.empty_like(s[0])
    steps = list(s)  # views, so no step re-indexes s
    np.tanh(steps[0], out=steps[0])
    for prev, cur in zip(steps, steps[1:]):
        np.matmul(prev, u, out=carry)
        np.add(cur, carry, out=cur)
        np.tanh(cur, out=cur)
    cache.update(f=s[:, 0].transpose(1, 0, 2), g=s[::-1, 1].transpose(1, 0, 2))  # (B, n_max, state)
    return np.concatenate([cache["f"], cache["g"]], axis=2), cache


def encode_tokens(tokens, encoder: EncoderParams) -> np.ndarray:
    """Context vectors for one sentence, shape (n, out_dim); runs once per sentence."""
    return _encode([tokens], encoder)[0][0]


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
    """Softmax over the three link tags for one pair under head ``tagger``.

    ``tagger`` is an integer in [0, 2N+1), numpy integers too, bools not.
    """
    if check_int("tagger", tagger, minimum=0) >= taggers.n_taggers:
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


def _projections(h: np.ndarray, kernel: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """One sentence's token projections A, B (n, pair_dim) from its token vectors h (n, d).

    With W = [W_l | W_r] split at the token width, W [h_i; h_j] + b = A_i + B_j
    for A = h W_lᵀ + b and B = h W_rᵀ, so each token is projected once rather
    than once per pair, and the bias costs a pass over tokens, not pairs.
    """
    d = h.shape[1]
    a = h @ kernel.weight[:, :d].T
    a += kernel.bias
    return a, h @ kernel.weight[:, d:].T


def _pair_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every pair vector k (P, pair_dim) of one sentence from its projections.

    ``k`` is in ``index_map`` order, which lays pairs out row by row: row i,
    the pairs (i, i), ..., (i, n-1) from row_start[i], is tanh(A_i + B_i),
    ..., tanh(A_i + B_{n-1}).
    """
    n, imap = len(a), index_map(len(a))
    k = np.empty((imap.length, a.shape[1]))
    for i, start in enumerate(imap.row_start):
        np.add(a[i], b[i:], out=k[start:start + n - i])
    return np.tanh(k, out=k)


def _pair_cells(a: np.ndarray, b: np.ndarray, imap: IndexMap, cells: np.ndarray) -> np.ndarray:
    """The pair vectors at flat indices ``cells``: the same bits as those rows of :func:`_pair_rows`."""
    return np.tanh(a[imap.rows[cells]] + b[imap.cols[cells]])


def _head_logits(k: np.ndarray, heads: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Logits (T, 3, P) of any T head rows over one sentence's pair vectors k (P, pair_dim).

    ``heads`` (T, 3, pair_dim) and ``bias`` (T, 3) are those rows of the
    taggers: all 2N+1 in training, a subset in inference.  The heads run as
    one (T·3, pair_dim) @ kᵀ product; the class axis sits before the pair
    axis so that every class row is contiguous over pairs.
    """
    logits = heads.reshape(-1, heads.shape[2]) @ k.T
    logits += bias.reshape(-1, 1)
    return logits.reshape(len(heads), 3, -1)


def _logits(tokens, params: ModelParams) -> np.ndarray:
    """One sentence's full forward: every head's logits (2N+1, 3, P)."""
    h = _encode([tokens], params.encoder)[0][0]
    taggers = params.taggers
    return _head_logits(_pair_rows(*_projections(h, params.kernel)), taggers.weight, taggers.bias)


def forward_probs(tokens, params: ModelParams) -> np.ndarray:
    """Per-head tag distributions for a sentence, shape (2N+1, P, 3)."""
    return softmax(_logits(tokens, params), axis=1).transpose(0, 2, 1)


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


def _pair_backward(gold: np.ndarray, k: np.ndarray, h: np.ndarray, params: ModelParams,
                   grads: dict[str, np.ndarray], weight: float) -> tuple[float, np.ndarray]:
    """One sentence's head loss and backward; return (its mean cell loss, dL/dh).

    ``gold`` is the sentence's (2N+1, P) tags, ``k`` its pair vectors (P,
    pair_dim), which are consumed, and ``h`` (n, d) its token vectors;
    ``weight`` times the head and kernel gradients is added to ``grads``.

    The heads run over tiles of ``PAIR_BLOCK`` contiguous flat pairs.  Each
    tile is scored by :func:`_head_logits`, normalised by :func:`softmax`
    and read for the NLL at the gold tag: tag 0 except at the few nonzero
    gold cells.  Its dlogits, (p − onehot)·scale, then give the head
    gradients and dL/dk, and the tile of ``k`` is overwritten with dL/dpre.
    So the working set is one tile's (2N+1, 3, PAIR_BLOCK), never a
    (2N+1, 3, P) array, and a sentence of one tile gets exactly the bits of
    the whole-array :func:`softmax` and :func:`loss_from_probs`.
    """
    heads, bias = params.taggers.weight, params.taggers.bias
    n_heads, n_pairs = len(heads), len(k)
    if gold.shape != (n_heads, n_pairs):
        raise ShapeError(f"gold tags {gold.shape} do not cover the heads' cells "
                         f"{(n_heads, n_pairs)}")
    scale = weight / (n_heads * n_pairs)
    flat_heads = heads.reshape(-1, heads.shape[2])  # (T·3, pair_dim)
    # the nonzero gold cells, ordered by pair; few pairs hold any, so
    # np.nonzero runs over those pairs' columns only, not over all of gold
    cols = np.flatnonzero(gold.any(axis=0))
    tags = gold[:, cols].T
    at, rows = np.nonzero(tags)
    cols, tags = cols[at], tags[at, rows]
    nll = 0.0
    for start in range(0, n_pairs, PAIR_BLOCK):
        stop = min(start + PAIR_BLOCK, n_pairs)
        k_tile = k[start:stop]
        lo, hi = np.searchsorted(cols, (start, stop))
        t, c, g = rows[lo:hi], cols[lo:hi] - start, tags[lo:hi]
        probs = softmax(_head_logits(k_tile, heads, bias), axis=1)  # (T, 3, tile)
        picked = probs[:, 0].copy()
        picked[t, c] = probs[t, g, c]
        nll -= np.log(np.maximum(picked, PROB_FLOOR, out=picked), out=picked).sum()
        dlogits = probs  # overwritten in place: p − onehot, then times scale
        kept = dlogits[t, 0, c]
        dlogits[:, 0] -= 1.0
        dlogits[t, 0, c] = kept
        dlogits[t, g, c] -= 1.0
        dlogits *= scale
        flat = dlogits.reshape(len(flat_heads), -1)  # (T·3, tile)
        grads["taggers.weight"] += (flat @ k_tile).reshape(heads.shape)
        grads["taggers.bias"] += dlogits.sum(axis=2)
        dk = flat.T @ flat_heads  # dL/dk, (tile, pair_dim)
        deriv = np.square(k_tile, out=k_tile)  # k is spent; reuse it for tanh' = 1 - k²
        np.subtract(1.0, deriv, out=deriv)
        deriv *= dk  # the tile of k now holds dL/dpre
    dpre = k

    # index_map lays pairs out row by row: row i is the slice of pairs
    # (i, i), ..., (i, n-1) from row_start[i], so its sum is dA[i] and its
    # m-th pair adds to dB[i + m].  (np.add.at over the table's rows and
    # cols gives the same bits but is over ten times slower.)
    (n, d), pair_dim = h.shape, dpre.shape[1]
    d_a, d_b = np.empty((n, pair_dim)), np.zeros((n, pair_dim))
    for i, start in enumerate(index_map(n).row_start):
        seg = dpre[start:start + n - i]
        d_a[i] = seg.sum(axis=0)
        d_b[i:] += seg
    weight_l, weight_r = params.kernel.weight[:, :d], params.kernel.weight[:, d:]
    grads["kernel.bias"] += d_a.sum(axis=0)
    grads["kernel.weight"][:, :d] += d_a.T @ h
    grads["kernel.weight"][:, d:] += d_b.T @ h
    return nll / (n_heads * n_pairs), d_a @ weight_l + d_b @ weight_r


def _recurrence_backward(ds: np.ndarray, s: np.ndarray, x: np.ndarray, w: np.ndarray,
                         u: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """(dw, du, db, dx) of one mixer direction given dL/ds (B, n, state).

    ``s`` are that direction's states s_t = tanh(x_t wᵀ + s_{t-1} uᵀ + b)
    along axis 1 of its input x (B, n, embed), as :func:`_encode` computes
    them; the backward direction passes its states and input time-reversed.
    ``mask`` (B, n) marks the real steps: padding has zero ``ds``, and where
    it comes first its pre-activations are constants, so no gradient passes
    through a padded step.
    """
    deriv = 1.0 - s**2
    dpre = ds * deriv
    for t in range(s.shape[1] - 2, -1, -1):
        dpre[:, t] += (dpre[:, t + 1] @ u) * deriv[:, t]
    dpre[~mask] = 0.0
    state = s.shape[2]
    rows = dpre.reshape(-1, state)  # (B·n, state)
    dw = rows.T @ x.reshape(len(rows), -1)
    du = dpre[:, 1:].reshape(-1, state).T @ s[:, :-1].reshape(-1, state)
    return dw, du, rows.sum(axis=0), dpre @ w


def _encoder_backward(enc_cache: dict, enc: EncoderParams, dh: np.ndarray,
                      grads: dict[str, np.ndarray]) -> None:
    """Add the encoder's gradients given dL/dh (B, n_max, out_dim), zero at padding."""
    ids, mask, x = enc_cache["ids"], enc_cache["mask"], enc_cache["x"]
    f, g, m = enc_cache["f"], enc_cache["g"], enc.mixer
    s = f.shape[2]
    dw, du, db, dx = _recurrence_backward(dh[:, :, :s], f, x, m.w_fwd, m.u_fwd, mask)
    grads["encoder.mixer.w_fwd"] += dw
    grads["encoder.mixer.u_fwd"] += du
    grads["encoder.mixer.b_fwd"] += db
    # the backward direction runs from the stack's end: reverse time, then dx back
    dw, du, db, dx_bwd = _recurrence_backward(
        dh[:, ::-1, s:], g[:, ::-1], x[:, ::-1], m.w_bwd, m.u_bwd, mask[:, ::-1]
    )
    grads["encoder.mixer.w_bwd"] += dw
    grads["encoder.mixer.u_bwd"] += du
    grads["encoder.mixer.b_bwd"] += db
    dx += dx_bwd[:, ::-1]
    np.add.at(grads["encoder.embed"], ids[mask], dx[mask])


def gradient(batch, params: ModelParams) -> tuple[float, dict[str, np.ndarray]]:
    """(mean batch loss, analytic gradients) for (tokens, gold tagging) pairs.

    The loss is the mean over sentences of the per-sentence mean cell loss,
    so duplicating a sample leaves the gradient unchanged.  The encoder runs
    forward and backward once over the whole batch as a right-padded stack;
    the pair kernel, heads and their backward run one sentence at a time,
    and padding gets zero dL/dh.  The heads score a sentence by tiles of
    ``PAIR_BLOCK`` pairs (:func:`_pair_backward`), so each tile's working set
    is bounded and no (2N+1, 3, P) array is built.  Raises
    :class:`NumericError` the moment anything stops being finite.
    """
    if not batch:
        raise InvalidInput("empty batch")
    grads = {name: np.zeros_like(arr) for name, arr in named_tensors(params).items()}
    h, enc_cache = _encode([tokens for tokens, _ in batch], params.encoder)
    dh = np.zeros_like(h)
    total = 0.0
    scale = 1.0 / len(batch)
    for row, (tokens, tagging) in enumerate(batch):
        h_row = h[row, :len(tokens)]
        loss, dh[row, :len(tokens)] = _pair_backward(  # k is a temporary, freed per sentence
            gold_tags(tagging), _pair_rows(*_projections(h_row, params.kernel)),
            h_row, params, grads, scale)
        total += loss
    loss = total * scale
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss: {loss}")
    _encoder_backward(enc_cache, params.encoder, dh, grads)
    for name, arr in grads.items():
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite gradient in {name}")
    return loss, grads


# --- inference ---------------------------------------------------------------


def _boundary_cells(positions: np.ndarray, imap: IndexMap) -> np.ndarray:
    """Flat indices of the upper-triangle pairs within token ``positions``, diagonal included."""
    positions = np.unique(positions)
    within = index_map(len(positions))
    i, j = positions[within.rows], positions[within.cols]
    return np.take(imap.row_start, i) + (j - i)


def _screen_logits(a: np.ndarray, b: np.ndarray, head: np.ndarray, bias: np.ndarray,
                   imap: IndexMap) -> np.ndarray:
    """L₃₂: one head's logits (3, P) at every pair, computed in float32 throughout.

    The product runs as x @ headᵀ over the contiguous pair rows x and a C-ordered
    headᵀ, BLAS's fastest layout; the result is its (3, P) transposed view.
    """
    x = np.take(a.astype(np.float32), imap.rows, axis=0)
    x += np.take(b.astype(np.float32), imap.cols, axis=0)
    logits = np.tanh(x, out=x) @ np.ascontiguousarray(head.T, dtype=np.float32)
    logits += bias.astype(np.float32)
    return logits.T


def _screen_bound(head: np.ndarray, bias: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """ε with |L₃₂ − L₆₄| ≤ ε at every entity logit of one sentence, or inf.

    L₆₄ is ``head @ k.T + bias`` over the float64 pair vectors k = tanh(A_i +
    B_j); L₃₂ is the same sum with A, B, ``head`` and ``bias`` rounded to
    float32 and every operation in float32.  With u = 2⁻²⁴, S = Σ|head row|,
    β = |bias| and M = max|A| + max|B|, per pair coordinate:

    - rounding A and B and adding them moves the tanh argument by at most
      (2u + u²)·M, and tanh is 1-Lipschitz;
    - float32 tanh adds at most ``TANH32_ERR``·u (numpy measures about 1.01u;
      the test suite holds it to the allowance over a dense grid);

    so |k₃₂ − k₆₄| ≤ u·(2.1·M + TANH32_ERR).  Rounding the head row adds
    u·S, and the d products, their sum and the bias add at most
    γ_{d+1}·(S + β) (Higham, §3.1) plus u·β for rounding the bias.  Hence

        ε = u·(S·(2.1·M + TANH32_ERR + 4) + 1.01·(d + 6)·(S + β)),

    taken over the three class rows.  Each term holds more than 1% slack, which
    also covers float64's own rounding of L₆₄, of ε and of the top-two gap;
    the 2⁻¹²⁰ term covers underflow.  The bound assumes no float32 overflow
    and (d + 6)·u < 10⁻³, so ε is inf unless S + β + M < 2⁶⁴ and d ≤ 16771;
    a NaN or inf anywhere in the inputs makes it inf too.
    """
    s, beta, d = np.abs(head).sum(axis=1), np.abs(bias), head.shape[1]
    m = np.abs(a).max() + np.abs(b).max()
    if not (np.max(s + beta) + m < 2.0 ** 64 and (d + 6) * U32 < 1e-3):
        return math.inf
    eps = U32 * (s * (2.1 * m + TANH32_ERR + 4) + 1.01 * (d + 6) * (s + beta))
    return float(np.max(eps + 2.0 ** -120 * (s + d + 1)))


def _top_gap(scores: np.ndarray) -> np.ndarray:
    """Largest minus second-largest of (3, P) scores, per pair, in float64; NaN stays NaN."""
    s0, s1, s2 = scores.astype(np.float64)
    low, high = np.minimum(s0, s1), np.maximum(s0, s1)
    return np.maximum(high, s2) - np.maximum(low, np.minimum(high, s2))


def _entity_row(a: np.ndarray, b: np.ndarray, params: ModelParams, imap: IndexMap) -> np.ndarray:
    """The entity head's tags (P,) from one sentence's projections, equal to the float64 argmax.

    Every pair is scored in float32; wherever the top two logits differ by
    more than 2ε (:func:`_screen_bound`), the float32 argmax is the float64
    one.  The other pairs, the near-ties, are rescored in float64 from
    :func:`_pair_cells`.  When ε is not finite, the screen is not run and
    all P pairs are rescored that way.
    """
    heads, bias = params.taggers.weight[:1], params.taggers.bias[:1]
    eps = _screen_bound(heads[0], bias[0], a, b)
    if math.isfinite(eps):
        logits = _screen_logits(a, b, heads[0], bias[0], imap)
        tags, near = _argmax_tags(logits), np.flatnonzero(~(_top_gap(logits) > 2.0 * eps))
    else:
        tags, near = np.empty(imap.length, dtype=np.int8), np.arange(imap.length)
    if len(near):
        tags[near] = _argmax_tags(_head_logits(_pair_cells(a, b, imap, near), heads, bias))[0]
    return tags


def _entity_first_tags(a: np.ndarray, b: np.ndarray, params: ModelParams,
                       imap: IndexMap) -> np.ndarray:
    """One sentence's (2N+1, P) tags from its token projections A, B (n, pair_dim).

    :func:`decode` emits (s, r, o) only for entity spans s and o with a head
    link at (s.head, o.head) and a tail link at (s.tail, o.tail).  So the
    head rows are scored only at the pairs within the entity head positions,
    the tail rows only at the pairs within the entity tail positions, and
    every other relation cell stays 0: the triples equal those of the argmax
    over every head at every pair.  Those cells are scored in float64.
    """
    heads, bias, n_rel = params.taggers.weight, params.taggers.bias, params.n_relations
    tags = np.zeros((len(heads), imap.length), dtype=np.int8)
    tags[0] = entity = _entity_row(a, b, params, imap)
    spans = entity == 1
    if spans.any():
        for rows, ends in ((slice(1, 1 + n_rel), imap.rows[spans]),
                           (slice(1 + n_rel, None), imap.cols[spans])):
            cells = _boundary_cells(ends, imap)
            k = _pair_cells(a, b, imap, cells)
            tags[rows, cells] = _argmax_tags(_head_logits(k, heads[rows], bias[rows]))
    return tags


def _infer(sentences, params: ModelParams, schema: RelationSchema,
           batch_size: int) -> list[set[Triple]]:
    """Shared body of :func:`infer` and :func:`infer_batch`."""
    if params.n_relations != len(schema):
        raise InvalidInput(
            f"model has {params.n_relations} relations, schema has {len(schema)}"
        )
    sentences = list(sentences)
    results = []
    for start in range(0, len(sentences), batch_size):
        chunk = sentences[start:start + batch_size]
        h = _encode(chunk, params.encoder)[0]
        for tokens, h_row in zip(chunk, h):
            n = len(tokens)
            a, b = _projections(h_row[:n], params.kernel)
            tags = _entity_first_tags(a, b, params, index_map(n))
            results.append(decode(HandshakingTagging(n, tags), schema))
    return results


def infer(tokens, params: ModelParams, schema: RelationSchema) -> set[Triple]:
    """Encode, score the heads, argmax tags (ties toward the smaller label), decode.

    The entity head is scored at every token pair; the 2N relation heads only
    at the entity-boundary pairs that can reach a triple (pairs of entity
    head positions for the head rows, of entity tail positions for the tail
    rows), which gives the same triples as scoring every head everywhere.
    Softmax is monotone, so the argmax is taken on the logits directly.  The
    entity head is screened in float32 and its near-ties rescored in float64,
    so its tags equal the float64 argmax (see the module docstring).  The
    result equals ``infer_batch([tokens], ...)[0]``: both run one body.

    A sentence of any length is scored whole.  The tags are decoded
    leniently: a reversed entity tag is ignored, and a tagging past
    :data:`~pairlink.decoding.DECODE_BUDGET` is cut with a warning that
    points at the caller.
    """
    return _infer([tokens], params, schema, 1)[0]


def infer_batch(sentences, params: ModelParams, schema: RelationSchema,
                batch_size: int = INFER_BATCH_SIZE) -> list[set[Triple]]:
    """Inference over many sentences; output order matches input order.

    Each chunk of ``batch_size`` sentences, an integer >= 1 (numpy integers
    too, bools not), runs one encoder pass as a right-padded stack, then the
    pair kernel and heads one sentence at a time; decoded triple sets equal
    per-sentence :func:`infer`.
    """
    return _infer(sentences, params, schema, check_int("batch_size", batch_size))


# --- checkpoints ---------------------------------------------------------------

CHECKPOINT_FORMAT = "pairlink-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, params: ModelParams, schema: RelationSchema,
                    extra: dict | None = None) -> str:
    """Write a self-describing .npz checkpoint; returns the actual path used."""
    vocab = params.encoder.vocab
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "relations": list(schema.relations),
        "vocab": sorted(vocab, key=vocab.get),
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
    """Every array of the .npz file at ``path``; any damage is a :class:`ParseError`, a bad
    offset (OSError) and a flag or version zipfile cannot read (RuntimeError) included."""
    try:
        data = np.load(str(path))
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                return {key: data[key] for key in data.files}
        problem = "holds a single array, not an .npz archive"
    except (OSError, RuntimeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        problem = f"{type(exc).__name__}: {exc}".splitlines()[0]
    raise ParseError(f"{path}: not a readable checkpoint archive ({problem})")


def _read_meta(path, raw: np.ndarray | None) -> dict:
    if raw is None:
        raise ParseError(f"{path}: not a model checkpoint (no metadata entry)")
    meta = read_json(path, raw.tobytes())
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: checkpoint metadata is not a JSON object")
    if meta.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: unexpected checkpoint format {meta.get('format')!r}")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: checkpoint version {meta.get('version')!r} is not supported")
    if not isinstance(meta.get("relations"), list):  # RelationSchema checks the names
        raise ParseError(f"{path}: checkpoint metadata needs 'relations' as a list")
    if not isinstance(meta.get("vocab"), list) or not all(isinstance(v, str) for v in meta["vocab"]):
        raise ParseError(f"{path}: checkpoint metadata needs 'vocab' as a list of strings")
    return meta


def load_checkpoint(path) -> tuple[ModelParams, RelationSchema, dict]:
    """Read a checkpoint back; arrays roundtrip bit-exactly.

    Raises :class:`ParseError` when the file is not a readable archive, its
    metadata is malformed, a tensor is missing or left over, :class:`ModelParams`
    rejects the model, or its head count does not fit the relations.
    """
    arrays = _read_archive(path)
    meta = _read_meta(path, arrays.pop("__meta__", None))
    tensors = {key.replace("__", "."): arr for key, arr in arrays.items()}
    try:
        schema = RelationSchema(tuple(meta["relations"]))
        mixer = MixerParams(*(tensors.pop(f"encoder.mixer.{f.name}") for f in fields(MixerParams)))
        params = ModelParams(
            encoder=EncoderParams({tok: idx for idx, tok in enumerate(meta["vocab"])},
                                  tensors.pop("encoder.embed"), mixer),
            kernel=KernelParams(tensors.pop("kernel.weight"), tensors.pop("kernel.bias")),
            taggers=TaggerParams(tensors.pop("taggers.weight"), tensors.pop("taggers.bias")),
        )
    except KeyError as exc:
        raise ParseError(f"{path}: checkpoint has no tensor {exc.args[0]}") from None
    except (ShapeError, InvalidInput) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if tensors:
        raise ParseError(f"{path}: unexpected checkpoint tensors {', '.join(tensors)}")
    if params.n_relations != len(schema):
        raise ParseError(f"{path}: model has {params.n_relations} relations, "
                         f"schema has {len(schema)}")
    return params, schema, meta
