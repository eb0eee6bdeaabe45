"""Shared domain types for token-pair link tagging.

Conventions used across the package:

* token indices are 0-based and spans are inclusive on both ends,
* relation ids are dense integers assigned by schema order,
* a sentence of n tokens yields one flattened tag sequence per tagger,
  covering the upper-triangle token pairs (i, j), j >= i, in row-major
  order.

Everything here is immutable after construction and safe to share between
concurrent readers.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np


class PairLinkError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(PairLinkError, ValueError):
    """An argument violates a documented precondition."""


class InvalidIndex(PairLinkError, IndexError):
    """A token pair or flat sequence index lies outside its valid range."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer: any ``numbers.Integral``, numpy's included, but a bool."""
    # a plain int is the common case, and the abstract-class check is slow
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool))


def check_int(name: str, value, minimum: int = 1) -> int:
    """``value`` as a Python int; :class:`InvalidInput` unless it is an integer >= ``minimum``."""
    if not is_int(value) or value < minimum:
        raise InvalidInput(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_choice(name: str, value, choices: tuple) -> None:
    """:class:`InvalidInput` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise InvalidInput(f"{name} must be one of {choices}, got {value!r}")


def check_sequence(name: str, values, error: type[InvalidInput] = InvalidInput) -> tuple:
    """``values`` as a tuple, else ``error``: a ``str`` or a mapping is no sequence here.

    Where tokens, relation names or sentences are expected, a ``str`` would
    be read as its characters and a mapping as its keys, so both are rejected,
    as is a value that is not iterable.
    """
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise error(f"{name} must be a sequence, not {type(values).__name__}")
    return tuple(values)


def check_strings(name: str, values, error: type[InvalidInput] = InvalidInput) -> tuple[str, ...]:
    """``values`` as a tuple, else ``error``: the one rule for a sequence of tokens or names.

    :func:`check_sequence`, then every element must be a non-empty ``str``; O(n).
    """
    values = check_sequence(name, values, error)
    for value in values:
        if not isinstance(value, str) or not value:
            raise error(f"{name} must be non-empty strings, got {value!r}")
    return values


def check_relation_name(name, error: type[InvalidInput] = InvalidInput) -> str:
    """``name`` if it is a non-empty ``str``, else ``error``: the one rule for a relation name."""
    return check_strings("relation names", (name,), error)[0]


def seq_length(n: int) -> int:
    """Number of token pairs (i, j), 0 <= i <= j < n: (n^2 + n) / 2 for an integer n >= 1."""
    n = check_int("n", n)
    return (n * n + n) // 2


@dataclass(frozen=True, order=True, slots=True)
class TokenSpan:
    """Inclusive token span: ``head`` is the first token, ``tail`` the last."""

    head: int
    tail: int

    def __post_init__(self) -> None:
        head = check_int("head", self.head, minimum=0)
        tail = check_int("tail", self.tail, minimum=0)
        if head > tail:
            raise InvalidInput(f"bad span: head={head}, tail={tail}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    def __len__(self) -> int:
        return self.tail - self.head + 1


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    """(subject span, relation id, object span). Equality is structural."""

    subject: TokenSpan
    relation: int
    object: TokenSpan

    def __post_init__(self) -> None:
        for role, span in (("subject", self.subject), ("object", self.object)):
            if not isinstance(span, TokenSpan):
                raise InvalidInput(f"{role} must be a TokenSpan, got {type(span).__name__}")
        object.__setattr__(self, "relation", check_int("relation", self.relation, minimum=0))


@dataclass(frozen=True)
class RelationSchema:
    """Ordered registry of unique, non-empty string relation names; a name's id is its position."""

    relations: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        relations = check_strings("relation names", self.relations)
        object.__setattr__(self, "relations", relations)
        if not relations:
            raise InvalidInput("a schema needs at least one relation")
        ids: dict[str, int] = {}
        for rid, name in enumerate(relations):
            if name in ids:
                raise InvalidInput(f"duplicate relation name: {name!r}")
            ids[name] = rid
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.relations)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def id_of(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise InvalidInput(f"unknown relation: {name!r}") from None

    def name_of(self, rid: int) -> str:
        if not 0 <= rid < len(self.relations):
            raise InvalidIndex(f"relation id out of range: {rid}")
        return self.relations[rid]


@dataclass(frozen=True)
class SentenceAnnotation:
    """A tokenized sentence plus its gold relation triples.

    ``tokens`` follows :func:`check_strings`, ``text`` is a ``str`` and
    every triple a :class:`Triple`.  ``triples``
    keeps input order but never holds structural duplicates
    (set semantics with a stable order, so downstream tie-breaks are
    deterministic).  ``char_spans`` optionally maps each token to its
    (start, end) character offsets in ``text``, end exclusive, with
    0 <= start <= end <= len(text).
    """

    tokens: tuple[str, ...]
    text: str = ""
    triples: tuple[Triple, ...] = ()
    char_spans: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        tokens = check_strings("tokens", self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not tokens:
            raise InvalidInput("a sentence needs at least one token")
        if not isinstance(self.text, str):
            raise InvalidInput(f"text must be a str, got {type(self.text).__name__}")
        n = len(tokens)
        seen: set[Triple] = set()
        unique: list[Triple] = []
        for t in self.triples:
            if not isinstance(t, Triple):
                raise InvalidInput(f"triples must be Triples, got a {type(t).__name__}")
            for span in (t.subject, t.object):
                if span.tail >= n:
                    raise InvalidInput(
                        f"span ({span.head}, {span.tail}) exceeds sentence length {n}"
                    )
            if t not in seen:
                seen.add(t)
                unique.append(t)
        object.__setattr__(self, "triples", tuple(unique))
        if self.char_spans is not None:
            spans = tuple((check_int("char offset", a, minimum=0),
                           check_int("char offset", b, minimum=0)) for a, b in self.char_spans)
            if len(spans) != n:
                raise InvalidInput(
                    f"char_spans must align 1:1 with tokens ({len(spans)} vs {n})"
                )
            for start, end in spans:
                if not start <= end <= len(self.text):
                    raise InvalidInput(f"char span ({start}, {end}) does not fit a text "
                                       f"of {len(self.text)} characters")
            object.__setattr__(self, "char_spans", spans)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self.triples)


def _row_label(row: int, n_rel: int) -> str:
    """Field name of row ``row`` of a tag array: eh2et, sh2oh[r] or st2ot[r]."""
    if row == 0:
        return "eh2et"
    if row <= n_rel:
        return f"sh2oh[{row - 1}]"
    return f"st2ot[{row - 1 - n_rel}]"


def _bad_tag(row: int, n_rel: int, values: list) -> InvalidInput:
    """The error for the first of a row's ``values`` that is not the int 0, 1 or 2."""
    k, tag = next(
        (k, v) for k, v in enumerate(values) if type(v) is not int or not 0 <= v <= 2
    )
    return InvalidInput(f"corrupt tagging: {_row_label(row, n_rel)} holds tag {tag!r} "
                        f"at flat index {k}, expected 0, 1 or 2")


_FIELDS = ("n", "n_relations", "index", "tag")


@dataclass(frozen=True, eq=False, slots=True)
class HandshakingTagging:
    """The 2N+1 flattened tag sequences of one sentence of length ``n``, as their nonzero cells.

    The sequences form a (2N+1, seq_length(n)) tag array of 0 (no link), 1 (a
    link read left to right: row token first, column token second) or 2 (a
    link whose natural direction points into the lower triangle, folded onto
    the transposed cell).  Row 0 is ``eh2et``, which aligns entity start
    tokens with entity end tokens and is shared by all relations; rows 1..N
    are ``sh2oh`` and rows N+1..2N are ``st2ot``, one per relation, linking
    the start tokens (respectively the end tokens) of subject-object pairs.

    Almost every cell is 0, and no tag array is stored: ``index`` holds each
    other cell's flat index ``row * seq_length(n) + pair`` in the array,
    strictly ascending, and ``tag`` its tag, as read-only copies (9 bytes a
    cell).  ``tags`` builds the array on each access, and so do the tuple
    views kept for ``perfbench``'s traced hooks; :func:`tagging_from_dense`
    reads one.
    """

    n: int
    n_relations: int
    index: np.ndarray
    tag: np.ndarray

    def __post_init__(self) -> None:
        n, n_rel = check_int("n", self.n), check_int("n_relations", self.n_relations, minimum=0)
        kept = []
        for name, lo, hi, dtype in (("index", 0, (2 * n_rel + 1) * seq_length(n) - 1, np.intp),
                                    ("tag", 1, 2, np.int8)):
            try:
                arr = np.asarray(getattr(self, name))
            except ValueError:  # ragged nested sequences
                raise InvalidInput(f"{name} must be a 1-D integer array, got a ragged "
                                   "sequence") from None
            if arr.ndim != 1 or arr.dtype.kind not in "iu":
                raise InvalidInput(f"{name} must be a 1-D integer array, got "
                                   f"{arr.dtype}{list(arr.shape)}")
            if len(arr) and not lo <= arr.min() <= arr.max() <= hi:  # before a cast can wrap
                raise InvalidInput(f"each {name} must lie in {lo}..{hi}, got "
                                   f"{arr[(arr < lo) | (arr > hi)][0]}")
            kept.append(arr.astype(dtype))  # a copy, so nobody else can write to it
            kept[-1].flags.writeable = False
        index, tag = kept
        if len(index) != len(tag):
            raise InvalidInput(f"index and tag must have equal lengths, got "
                               f"{len(index)} and {len(tag)}")
        if len(index) > 1 and (np.diff(index) <= 0).any():
            raise InvalidInput("index must be strictly ascending")
        for name, value in zip(_FIELDS, (n, n_rel, index, tag)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HandshakingTagging):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in _FIELDS)

    def __hash__(self) -> int:
        return hash((self.n, self.n_relations, self.index.tobytes(), self.tag.tobytes()))

    @property
    def tags(self) -> np.ndarray:
        """The whole (2N+1, seq_length(n)) int8 tag array, built anew on each access."""
        tags = np.zeros((2 * self.n_relations + 1) * seq_length(self.n), dtype=np.int8)
        tags[self.index] = self.tag
        return tags.reshape(2 * self.n_relations + 1, -1)

    @property
    def eh2et(self) -> tuple[int, ...]:
        """The entity sequence, as a tuple of ints."""
        return tuple(self.tags[0].tolist())

    @property
    def sh2oh(self) -> tuple[tuple[int, ...], ...]:
        """The per-relation subject-head to object-head sequences, as tuples."""
        return tuple(map(tuple, self.tags[1:1 + self.n_relations].tolist()))

    @property
    def st2ot(self) -> tuple[tuple[int, ...], ...]:
        """The per-relation subject-tail to object-tail sequences, as tuples."""
        return tuple(map(tuple, self.tags[1 + self.n_relations:].tolist()))


def tagging_from_dense(n: int, tags) -> HandshakingTagging:
    """The tagging of length ``n`` whose (2N+1, P) tag array is ``tags``, any integer array-like."""
    length = seq_length(n)  # checks n
    try:
        tags = np.asarray(tags)
    except ValueError:  # ragged nested sequences
        raise InvalidInput("tag sequences must all have the same length") from None
    if tags.dtype.kind not in "iu":
        raise InvalidInput(f"tags must be integers, got dtype {tags.dtype}")
    if tags.ndim != 2 or tags.shape[0] % 2 == 0 or tags.shape[1] != length:
        raise InvalidInput(
            f"tags have shape {tags.shape}, expected (2N+1, {length}) for n={n}: "
            "one entity sequence plus a head and a tail sequence per relation"
        )
    if tags.min() < 0 or tags.max() > 2:
        row = int(np.argmax(((tags < 0) | (tags > 2)).any(axis=1)))
        raise _bad_tag(row, len(tags) // 2, tags[row].tolist())
    flat = tags.reshape(-1)
    index = np.flatnonzero(flat)
    return HandshakingTagging(n, len(tags) // 2, index, flat[index])
