"""Synthetic sentences, annotations, and taggings for tests.

``random_annotation`` builds annotations that are cell-conflict-free by
construction and losslessly encodable (no phantom recombinations), while
deliberately steering into the interesting corners: nested entity spans,
shared single entities, repeated entity pairs under different relations, and
the occasional self-relating triple.
"""

from __future__ import annotations

import random

import numpy as np

from .codec import detect_conflicts, phantom_triples
from .core import (
    InvalidInput,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    seq_length,
    tagging_from_dense,
)


def _random_span(rng: random.Random, n: int, max_width: int) -> TokenSpan:
    head = rng.randrange(n)
    width = rng.randrange(min(max_width, n - head))
    return TokenSpan(head, head + width)


def _nested_variant(rng: random.Random, span: TokenSpan, n: int, max_width: int) -> TokenSpan:
    """A different span sharing the head or the tail of ``span``."""
    choices = []
    if span.tail > span.head:
        choices.append(TokenSpan(span.head, rng.randrange(span.head, span.tail)))
        choices.append(TokenSpan(rng.randrange(span.head + 1, span.tail + 1), span.tail))
    if span.tail + 1 < n and len(span) < max_width:
        choices.append(TokenSpan(span.head, span.tail + 1))
    if not choices:
        return span
    return rng.choice(choices)


def _propose(rng: random.Random, n: int, n_rel: int, triples: list[Triple],
             max_width: int, allow_self: bool) -> Triple:
    roll = rng.random()
    if triples and roll < 0.20:
        # entity-pair overlap: same ordered pair, fresh relation
        base = rng.choice(triples)
        return Triple(base.subject, rng.randrange(n_rel), base.object)
    if triples and roll < 0.45:
        # single-entity overlap: reuse one span in a random role
        base = rng.choice(triples)
        shared = rng.choice((base.subject, base.object))
        other = _random_span(rng, n, max_width)
        if rng.random() < 0.5:
            return Triple(shared, rng.randrange(n_rel), other)
        return Triple(other, rng.randrange(n_rel), shared)
    if triples and roll < 0.60:
        # nested entities: a span sharing a boundary with an existing one
        base = rng.choice(triples)
        nested = _nested_variant(rng, rng.choice((base.subject, base.object)), n, max_width)
        other = _random_span(rng, n, max_width)
        if rng.random() < 0.5:
            return Triple(nested, rng.randrange(n_rel), other)
        return Triple(other, rng.randrange(n_rel), nested)
    subject = _random_span(rng, n, max_width)
    if allow_self and roll > 0.97:
        return Triple(subject, rng.randrange(n_rel), subject)
    return Triple(subject, rng.randrange(n_rel), _random_span(rng, n, max_width))


def random_annotation(
    rng: random.Random,
    schema: RelationSchema,
    n_min: int = 1,
    n_max: int = 12,
    max_triples: int = 6,
    min_triples: int = 0,
    max_width: int = 4,
    vocab: list[str] | None = None,
    allow_self: bool = True,
    distinct_tokens: bool = False,
) -> SentenceAnnotation:
    """A conflict-free, losslessly encodable random annotation."""
    if n_min < 1 or n_max < n_min:
        raise InvalidInput(f"bad sentence length range [{n_min}, {n_max}]")
    n_rel = len(schema)
    words = vocab if vocab is not None else [f"w{i:02d}" for i in range(40)]
    if distinct_tokens and len(words) < n_max:
        raise InvalidInput(f"need at least {n_max} vocabulary words for distinct tokens")
    for _ in range(64):  # retries are rare; phantom rejection triggers them
        n = rng.randint(n_min, n_max)
        if distinct_tokens:
            tokens = tuple(rng.sample(words, n))
        else:
            tokens = tuple(rng.choice(words) for _ in range(n))
        target = rng.randint(min_triples, max_triples)
        triples: list[Triple] = []
        attempts = 0
        while len(triples) < target and attempts < 60:
            attempts += 1
            cand = _propose(rng, n, n_rel, triples, max_width, allow_self)
            if cand in triples:
                continue
            if not allow_self and cand.subject == cand.object:
                continue  # overlap branches can hit this by coincidence
            # the kept triples are conflict-free, so a conflict involves cand
            if detect_conflicts(SentenceAnnotation(tokens, triples=(*triples, cand)), schema):
                continue
            triples.append(cand)
        ann = SentenceAnnotation(tokens=tokens, text=" ".join(tokens), triples=tuple(triples))
        if len(ann.triples) < min_triples:
            continue
        if phantom_triples(ann, schema):
            continue
        return ann
    raise InvalidInput("could not build a lossless annotation within the retry budget")


def random_tagging(
    rng: random.Random, n: int, n_relations: int, zero_bias: float = 0.8
):
    """Arbitrary random tag sequences (not necessarily encodable from triples).

    ``zero_bias`` is the probability of tag 0 per cell; the rest splits
    evenly between tags 1 and 2, including in the entity sequence, so lenient
    handling of stray reversed entity tags gets exercised.
    """
    length = seq_length(n)
    # one draw per cell in row-major order: the entity sequence, then the
    # head sequences, then the tail sequences
    cells = [
        0 if rng.random() < zero_bias else rng.choice((1, 2))
        for _ in range((2 * n_relations + 1) * length)
    ]
    return tagging_from_dense(n, np.array(cells, dtype=np.int8).reshape(-1, length))


def synthetic_dataset(
    rng: random.Random,
    schema: RelationSchema,
    size: int,
    n_min: int = 4,
    n_max: int = 9,
    max_triples: int = 3,
    min_triples: int = 1,
    vocab_size: int = 30,
) -> list[SentenceAnnotation]:
    """Distinct learnable sentences: no two share the same token sequence.

    Tokens are also distinct within every sentence, so each pair cell has
    separable supervision at desk scale.
    """
    if vocab_size < n_max:
        raise InvalidInput(f"vocab_size must be >= n_max ({n_max}), got {vocab_size}")
    vocab = [f"tok{i:02d}" for i in range(vocab_size)]
    seen: set[tuple[str, ...]] = set()
    out: list[SentenceAnnotation] = []
    guard = 0
    while len(out) < size:
        guard += 1
        if guard > size * 200:
            raise InvalidInput("could not build enough distinct sentences")
        ann = random_annotation(
            rng,
            schema,
            n_min=n_min,
            n_max=n_max,
            max_triples=max_triples,
            min_triples=min_triples,
            vocab=vocab,
            allow_self=False,
            distinct_tokens=True,
        )
        if ann.tokens in seen:
            continue
        seen.add(ann.tokens)
        out.append(ann)
    return out
