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
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int = 1) -> int:
    """``value`` as a Python int; :class:`InvalidInput` unless it is an integer >= ``minimum``."""
    if not is_int(value) or value < minimum:
        raise InvalidInput(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_choice(name: str, value, choices: tuple) -> None:
    """:class:`InvalidInput` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise InvalidInput(f"{name} must be one of {choices}, got {value!r}")


def check_relation_name(name, error: type[InvalidInput] = InvalidInput) -> str:
    """``name`` if it is a non-empty ``str``, else ``error``: the one rule for a relation name."""
    if not isinstance(name, str) or not name:
        raise error(f"relation names must be non-empty strings, got {name!r}")
    return name


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
        if not 0 <= self.head <= self.tail:
            raise InvalidInput(f"bad span: head={self.head}, tail={self.tail}")

    def __len__(self) -> int:
        return self.tail - self.head + 1


@dataclass(frozen=True, order=True, slots=True)
class Triple:
    """(subject span, relation id, object span). Equality is structural."""

    subject: TokenSpan
    relation: int
    object: TokenSpan

    def __post_init__(self) -> None:
        if self.relation < 0:
            raise InvalidInput(f"relation id must be >= 0, got {self.relation}")


@dataclass(frozen=True)
class RelationSchema:
    """Ordered registry of unique, non-empty string relation names; a name's id is its position."""

    relations: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        relations = tuple(self.relations)
        object.__setattr__(self, "relations", relations)
        if not relations:
            raise InvalidInput("a schema needs at least one relation")
        ids: dict[str, int] = {}
        for rid, name in enumerate(relations):
            if check_relation_name(name) in ids:
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

    ``triples`` keeps input order but never holds structural duplicates
    (set semantics with a stable order, so downstream tie-breaks are
    deterministic).  ``char_spans`` optionally maps each token to its
    (start, end) character offsets in ``text``, end exclusive.
    """

    tokens: tuple[str, ...]
    text: str = ""
    triples: tuple[Triple, ...] = ()
    char_spans: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not tokens:
            raise InvalidInput("a sentence needs at least one token")
        n = len(tokens)
        seen: set[Triple] = set()
        unique: list[Triple] = []
        for t in self.triples:
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
            spans = tuple((int(a), int(b)) for a, b in self.char_spans)
            if len(spans) != n:
                raise InvalidInput(
                    f"char_spans must align 1:1 with tokens ({len(spans)} vs {n})"
                )
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


@dataclass(frozen=True, eq=False, slots=True)
class HandshakingTagging:
    """The 2N+1 flattened tag sequences for one sentence of length ``n``.

    ``n`` is an integer >= 1 (numpy integers are stored as ints, bools
    rejected).  ``tags`` is one read-only ``(2N+1, seq_length(n))`` int8
    array whose cells are 0 (no link), 1 (a link read left to right: row
    token first, column token second) or 2 (a link whose natural direction
    points into the lower triangle, folded onto the transposed cell).  Row
    0 is ``eh2et``, which aligns entity start tokens with entity end tokens
    and is shared by all relations; rows 1..N are
    ``sh2oh`` and rows N+1..2N are ``st2ot``, one per relation, linking the
    start tokens (respectively the end tokens) of subject-object pairs.  The
    constructor takes any integer array-like of that shape and keeps a copy.
    The library reads only ``tags``; the ``eh2et``/``sh2oh``/``st2ot`` tuple
    views are kept for the traced hooks of ``perfbench``.
    """

    n: int
    tags: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("n", self.n))
        length = seq_length(self.n)
        try:
            tags = np.asarray(self.tags)
        except ValueError:  # ragged nested sequences
            raise InvalidInput("tag sequences must all have the same length") from None
        if tags.dtype.kind not in "iu":
            raise InvalidInput(f"tags must be integers, got dtype {tags.dtype}")
        if tags.ndim != 2 or tags.shape[0] % 2 == 0 or tags.shape[1] != length:
            raise InvalidInput(
                f"tags have shape {tags.shape}, expected (2N+1, {length}) for n={self.n}: "
                "one entity sequence plus a head and a tail sequence per relation"
            )
        if tags.min() < 0 or tags.max() > 2:
            row = int(np.argmax(((tags < 0) | (tags > 2)).any(axis=1)))
            raise _bad_tag(row, len(tags) // 2, tags[row].tolist())
        tags = tags.astype(np.int8)  # always a copy, so nobody else can write to it
        tags.flags.writeable = False
        object.__setattr__(self, "tags", tags)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HandshakingTagging):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.tags, other.tags)

    def __hash__(self) -> int:
        return hash((self.n, self.tags.shape, self.tags.tobytes()))

    @property
    def n_relations(self) -> int:
        return len(self.tags) // 2

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
