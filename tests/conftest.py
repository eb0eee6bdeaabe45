"""Shared fixtures and helpers for the pairlink test suite."""

from __future__ import annotations

import random

import pytest

from pairlink import (
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    seq_index,
    seq_length,
    tagging_from_dense,
)


def span(head: int, tail: int) -> TokenSpan:
    return TokenSpan(head, tail)


def triple(sh: int, st: int, rid: int, oh: int, ot: int) -> Triple:
    return Triple(TokenSpan(sh, st), rid, TokenSpan(oh, ot))


# The match predicates of micro_prf's two modes, one pair of triples at a
# time: the brute-force maximum-matching oracle and criterion 6 use them.


def match_exact(pred: Triple, gold: Triple) -> bool:
    """Relation and both full spans agree."""
    return pred == gold


def match_partial(pred: Triple, gold: Triple) -> bool:
    """Relation plus subject and object head positions; tails are ignored."""
    return (
        pred.relation == gold.relation
        and pred.subject.head == gold.subject.head
        and pred.object.head == gold.object.head
    )


def annotation(n: int, triples, tokens=None) -> SentenceAnnotation:
    toks = tuple(tokens) if tokens is not None else tuple(f"w{i}" for i in range(n))
    return SentenceAnnotation(tokens=toks, triples=tuple(triples))


@pytest.fixture
def schema2() -> RelationSchema:
    return RelationSchema(("works_for", "lives_in"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def sequences_with(n: int, cells: dict[tuple[int, int], int]) -> tuple[int, ...]:
    """Build one flattened upper-triangle tag sequence with the given cells set."""
    seq = [0] * seq_length(n)
    for (i, j), tag in cells.items():
        seq[seq_index(i, j, n)] = tag
    return tuple(seq)


@pytest.fixture
def figure_fixture():
    """Hand-built five-triple inference example used across the suite.

    Tokens: New(0) York(1) City(2) De(3) Blasio(4); relations
    mayor-of / born-in / live-in.  The expected decode is pinned by hand:
    the mayor link pairs (0,1) with (3,4); born-in and live-in point from
    (3,4) back at both city mentions (0,1) and (0,2), so their head and
    tail links sit in the transposed cells with the reversed tag.
    """
    schema = RelationSchema(("mayor", "born_in", "live_in"))
    tokens = ("New", "York", "City", "De", "Blasio")
    n = len(tokens)
    eh2et = sequences_with(n, {(0, 1): 1, (0, 2): 1, (3, 4): 1})
    mayor_sh = sequences_with(n, {(0, 3): 1})
    mayor_st = sequences_with(n, {(1, 4): 1})
    back_sh = sequences_with(n, {(0, 3): 2})
    back_st = sequences_with(n, {(1, 4): 2, (2, 4): 2})
    tagging = tagging_from_dense(
        n, [eh2et, mayor_sh, back_sh, back_sh, mayor_st, back_st, back_st]
    )
    new_york = TokenSpan(0, 1)
    new_york_city = TokenSpan(0, 2)
    de_blasio = TokenSpan(3, 4)
    expected = frozenset(
        {
            Triple(new_york, 0, de_blasio),
            Triple(de_blasio, 1, new_york),
            Triple(de_blasio, 1, new_york_city),
            Triple(de_blasio, 2, new_york),
            Triple(de_blasio, 2, new_york_city),
        }
    )
    return schema, tokens, tagging, expected
