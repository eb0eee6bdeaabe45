"""Lossless mapping between annotations and flattened token-pair tag sequences.

The upper triangle of the n x n token-pair matrix is flattened row-major.
A link whose natural direction would land in the lower triangle (object
token before subject token) is folded onto the transposed upper-triangle
cell with the reversed tag 2.  The entity sequence only ever uses tag 1,
since an entity's head token never follows its tail token.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    HandshakingTagging,
    InvalidIndex,
    InvalidInput,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    _bad_tag,
    _row_label,
    check_choice,
    check_int,
    seq_length,
)

MODES = ("strict", "lenient")


def seq_index(i: int, j: int, n: int) -> int:
    """Flat position of the pair (i, j), j >= i, in row-major order.

    ``i`` and ``j`` are integers >= 0 and ``n`` >= 1, numpy integers too, bools not.
    """
    i, j, n = check_int("i", i, minimum=0), check_int("j", j, minimum=0), check_int("n", n)
    if not i <= j < n:
        raise InvalidIndex(f"not an upper-triangle pair for n={n}: ({i}, {j})")
    return i * n - (i * (i - 1)) // 2 + (j - i)


class IndexMap:
    """Precomputed bijection between upper-triangle pairs and flat indices.

    ``(rows[k], cols[k])`` is the (i, j) cell at flat index k, held as two
    read-only int64 arrays, and the cell (i, j) sits at flat index
    ``row_start[i] + (j - i)``.
    """

    __slots__ = ("n", "length", "row_start", "rows", "cols")

    def __init__(self, n: int) -> None:
        self.n = n
        self.length = seq_length(n)
        self.row_start: tuple[int, ...] = tuple(seq_index(i, i, n) for i in range(n))
        self.rows, self.cols = np.triu_indices(n)  # row-major, diagonal included
        self.rows.flags.writeable = False
        self.cols.flags.writeable = False


@lru_cache(maxsize=512)
def index_map(n: int) -> IndexMap:
    return IndexMap(n)


@dataclass(frozen=True)
class EncodeConflict:
    """Two triples demanded different nonzero tags for the same cell."""

    kind: str  # "sh2oh" or "st2ot"
    relation: int
    pair: tuple[int, int]  # upper-triangle cell (row, column)
    existing_tag: int
    incoming_tag: int


class EncodeConflictError(PairLinkError):
    """Strict-mode encode refused an annotation with tag conflicts."""

    def __init__(self, conflicts: list[EncodeConflict]) -> None:
        self.conflicts = list(conflicts)
        first = self.conflicts[0]
        super().__init__(
            f"{len(self.conflicts)} tag conflict(s); first: {first.kind} cell "
            f"{first.pair} of relation {first.relation} wants both tag "
            f"{first.existing_tag} and tag {first.incoming_tag}"
        )


def _oriented(a: int, b: int) -> tuple[int, int, int]:
    """Upper-triangle cell and tag for a link from token a to token b."""
    if a <= b:
        return a, b, 1
    return b, a, 2


def _collect(
    ann: SentenceAnnotation, schema: RelationSchema
) -> tuple[dict[tuple[int, int], int], list[EncodeConflict]]:
    """Every nonzero cell of the tag array as {(row, flat index): tag}, and the conflicts.

    Row 0 holds the entity cells, row ``1 + rid`` the head links and row
    ``1 + N + rid`` the tail links of relation ``rid``.
    """
    n_rel = len(schema)
    row_start = index_map(ann.n).row_start
    cells: dict[tuple[int, int], int] = {}
    conflicts: list[EncodeConflict] = []
    for t in ann.triples:
        if t.relation >= n_rel:
            raise InvalidInput(
                f"triple uses relation id {t.relation}, schema has only {n_rel}"
            )
        for span in (t.subject, t.object):
            cells[0, row_start[span.head] + (span.tail - span.head)] = 1
        for kind, row, a, b in (
            ("sh2oh", 1 + t.relation, t.subject.head, t.object.head),
            ("st2ot", 1 + n_rel + t.relation, t.subject.tail, t.object.tail),
        ):
            i, j, tag = _oriented(a, b)
            key = (row, row_start[i] + (j - i))
            old = cells.setdefault(key, tag)
            if old != tag:
                conflicts.append(EncodeConflict(kind, t.relation, (i, j), old, tag))
                cells[key] = 1  # forward links win the tie-break
    return cells, conflicts


def encode(
    ann: SentenceAnnotation, schema: RelationSchema, mode: str = "strict"
) -> HandshakingTagging:
    """Tag sequences for an annotated sentence.

    Strict mode raises :class:`EncodeConflictError` when two triples demand
    different nonzero tags at the same cell; lenient mode keeps the forward
    tag (:func:`detect_conflicts` lists the conflicts).
    """
    check_choice("mode", mode, MODES)
    cells, conflicts = _collect(ann, schema)
    if conflicts and mode == "strict":
        raise EncodeConflictError(conflicts)
    tags = np.zeros((2 * len(schema) + 1, seq_length(ann.n)), dtype=np.int8)
    for cell, tag in cells.items():
        tags[cell] = tag
    return HandshakingTagging(ann.n, tags)


def detect_conflicts(
    ann: SentenceAnnotation, schema: RelationSchema
) -> list[EncodeConflict]:
    """Cell-level tag conflicts this annotation would produce; [] iff strict encode succeeds."""
    return _collect(ann, schema)[1]


def self_relating_triples(ann: SentenceAnnotation) -> tuple[Triple, ...]:
    """Triples whose subject and object are the same span (legal but unusual)."""
    return tuple(t for t in ann.triples if t.subject == t.object)


def phantom_triples(ann: SentenceAnnotation, schema: RelationSchema) -> frozenset[Triple]:
    """Extra triples that any faithful decoder must also emit for this annotation.

    Per relation, the tag sequences only record the set of (subject head,
    object head) pairs, the set of (subject tail, object tail) pairs, and the
    pool of entity spans.  When a head link and a tail pair coming from
    different gold triples recombine into another valid entity pair, the
    resulting triple is indistinguishable from a gold one.  A nonempty result
    means the annotation is not losslessly encodable even though it may be
    free of cell-level conflicts.

    Brute force over entity-span pairs, independent of the flattening and of
    the decoder.
    """
    heads_by_rel: dict[int, set[tuple[int, int]]] = {}
    tails_by_rel: dict[int, set[tuple[int, int]]] = {}
    spans: set[TokenSpan] = set()
    for t in ann.triples:
        if t.relation >= len(schema):
            raise InvalidInput(
                f"triple uses relation id {t.relation}, schema has only {len(schema)}"
            )
        spans.add(t.subject)
        spans.add(t.object)
        heads_by_rel.setdefault(t.relation, set()).add((t.subject.head, t.object.head))
        tails_by_rel.setdefault(t.relation, set()).add((t.subject.tail, t.object.tail))
    gold = set(ann.triples)
    phantoms: set[Triple] = set()
    for rid, heads in heads_by_rel.items():
        tails = tails_by_rel[rid]
        for s in spans:
            for o in spans:
                if (s.head, o.head) in heads and (s.tail, o.tail) in tails:
                    t = Triple(s, rid, o)
                    if t not in gold:
                        phantoms.add(t)
    return frozenset(phantoms)


# --- serialized form: one JSON object per line ------------------------------

_FIELDS = ("n", "relations", "eh2et", "sh2oh", "st2ot")


def check_relation_count(tagging: HandshakingTagging, schema: RelationSchema) -> None:
    if tagging.n_relations != len(schema):
        raise InvalidInput(
            f"tagging has {tagging.n_relations} relations, schema has {len(schema)}"
        )


def tagging_to_obj(tagging: HandshakingTagging, schema: RelationSchema) -> dict:
    check_relation_count(tagging, schema)
    rows = tagging.tags.tolist()
    n_rel = tagging.n_relations
    return {
        "n": tagging.n,
        "relations": list(schema.relations),
        "eh2et": rows[0],
        "sh2oh": rows[1:1 + n_rel],
        "st2ot": rows[1 + n_rel:],
    }


def dump_tagging_line(tagging: HandshakingTagging, schema: RelationSchema) -> str:
    """Canonical single-line JSON form; byte-stable for identical inputs.

    The bytes equal ``json.dumps(tagging_to_obj(tagging, schema),
    separators=(",", ":"))``; the tag rows are written as digits and commas
    into one uint8 buffer instead of going through Python ints.
    """
    check_relation_count(tagging, schema)
    tags = tagging.tags
    text = np.empty((len(tags), 2 * tags.shape[1]), dtype=np.uint8)
    text[:, 0::2] = tags + ord("0")
    text[:, 1::2] = ord(",")
    rows = [row[:-1].tobytes() for row in text]  # drop each row's trailing comma
    n_rel = tagging.n_relations
    # json.dumps writes the head, so relation names get its escaping
    head = json.dumps({"n": tagging.n, "relations": list(schema.relations)},
                      separators=(",", ":"))
    return b"".join((
        head[:-1].encode("ascii"), b',"eh2et":[', rows[0],
        b'],"sh2oh":[[', b"],[".join(rows[1:1 + n_rel]),
        b']],"st2ot":[[', b"],[".join(rows[1 + n_rel:]), b"]]}",
    )).decode("ascii")


def parse_tagging_line(line: str) -> tuple[HandshakingTagging, RelationSchema]:
    """The tagging and schema of one line; :class:`InvalidInput` if it is malformed.

    Each row becomes the tag array through ``bytes(row)``, which rejects
    anything but ints in [0, 256), and :class:`HandshakingTagging` rejects
    values above 2.  JSON ``true``/``false`` would pass ``bytes`` as 1 and 0,
    so a line holding either word, in a relation name too, has its rows also
    scanned for bools.  This reads the line format only: a reversed entity
    tag is well formed, and strict :func:`~pairlink.decoding.decode` rejects it.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise InvalidInput(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidInput(f"expected a JSON object, got {type(obj).__name__}")
    missing = [f for f in _FIELDS if f not in obj]
    if missing:
        raise InvalidInput(f"tagging object is missing fields: {missing}")
    n, relations = check_int("field 'n'", obj["n"]), obj["relations"]
    if not isinstance(relations, list):
        raise InvalidInput("field 'relations' must be a list")
    schema = RelationSchema(tuple(relations))
    n_rel = len(schema)
    sh, st = obj["sh2oh"], obj["st2ot"]
    if not (isinstance(sh, list) and isinstance(st, list)) or not len(sh) == len(st) == n_rel:
        raise InvalidInput(f"expected {n_rel} head and {n_rel} tail sequences as lists")
    length = seq_length(n)
    rows = [obj["eh2et"], *sh, *st]
    may_hold_bools = "true" in line or "false" in line
    chunks = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != length:
            raise InvalidInput(
                f"{_row_label(r, n_rel)} must be a list of {length} tags for n={n}"
            )
        try:
            chunks.append(bytes(row))
        except (TypeError, ValueError):
            raise _bad_tag(r, n_rel, row) from None
        if may_hold_bools and bool in set(map(type, row)):
            raise _bad_tag(r, n_rel, row)
    tags = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(rows), length)
    return HandshakingTagging(n, tags), schema
