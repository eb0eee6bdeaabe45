"""Turning flattened link-tag sequences back into relation triples.

``decode`` is the production path and the one decoder entry: the codec's
taggings and entity-first inference's both reach it.  It reads the
tagging's ascending flat indices, never a (2N+1, P) tag array, and loops in
Python over those cells only.  It groups the entity spans by head position,
then sweeps one relation at a time: it reads the relation's head links when
the sweep reaches it, and its tail links once, when a head link first has
span candidates.  It tries at most ``DECODE_BUDGET`` (subject, object)
candidates per tagging.  ``decode_oracle`` recomputes the same answer in
pure Python by brute force over all entity-span pairs, sharing no index
code with ``decode``, and exists purely to cross-check it.
"""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .codec import MODES, check_relation_count, index_map
from .core import (
    HandshakingTagging,
    InvalidInput,
    RelationSchema,
    TokenSpan,
    Triple,
    check_choice,
)

# (subject, object) candidates one tagging may cost: 1,750x the largest gold
# tagging in the test suite (57; 34 in the benchmark's codec workload), and
# with 24 relations an all-ones tagging decodes in 0.1-0.2 s at n=100 or 200
DECODE_BUDGET = 100_000


def _outside_level() -> int:
    """``stacklevel`` that makes a warning raised here point at the first caller outside pairlink."""
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get("__name__", "").startswith("pairlink."):
        frame, level = frame.f_back, level + 1
    return level


def decode(
    tagging: HandshakingTagging, schema: RelationSchema, mode: str = "lenient"
) -> set[Triple]:
    """All triples expressed by a tagging.

    For every relation, a head-link cell (tag 1 forward, tag 2 reversed)
    pairs each subject-head candidate with each object-head candidate; the
    pair is kept when its (subject tail, object tail) combination is tagged
    in the tail sequence.  Output is a set: one occurrence per triple.  A
    reversed tag in the entity sequence cannot come from encoded data:
    strict mode raises, lenient mode ignores it.
    :func:`~pairlink.codec.parse_tagging_line` leaves this rule to decoding.

    Each head link costs (spans at its subject head) x (spans at its object
    head) candidates, charged in sweep order before they are tried.  A
    tagging that needs more than ``DECODE_BUDGET`` raises in strict mode; in
    lenient mode decoding stops at the link that would exceed it and warns
    with the number of triples kept, pointing at the first caller outside
    pairlink, so a cut tagging always gives the same triples.
    """
    check_choice("mode", mode, MODES)
    check_relation_count(tagging, schema)
    imap, n_rel = index_map(tagging.n), len(schema)
    index, tag = tagging.index, tagging.tag
    # the cells of row r are starts[r]:starts[r + 1]: entity, head rows, tail rows
    starts = np.searchsorted(index, np.arange(2 * n_rel + 2) * imap.length).tolist()
    is_span = tag[:starts[1]] == 1
    if mode == "strict" and not is_span.all():
        k = int(index[np.argmin(is_span)])
        raise InvalidInput(f"reversed tag in entity sequence at flat index {k}")
    if not is_span.any():
        return set()
    spans = index[:starts[1]][is_span]
    by_head: dict[int, list[TokenSpan]] = {}
    for i, j in zip(imap.rows[spans].tolist(), imap.cols[spans].tolist()):
        by_head.setdefault(i, []).append(TokenSpan(i, j))

    def links(r: int) -> tuple[list[int], list[int]]:
        """(sources, targets) of row r's cells: a forward tag links row token to column token."""
        lo, hi = starts[r], starts[r + 1]
        pairs, ahead = index[lo:hi] - r * imap.length, tag[lo:hi] == 1
        rows, cols = imap.rows[pairs], imap.cols[pairs]
        return np.where(ahead, rows, cols).tolist(), np.where(ahead, cols, rows).tolist()

    result: set[Triple] = set()
    no_spans: tuple[TokenSpan, ...] = ()
    tried = 0
    for rid in range(n_rel):
        if starts[1 + rid] == starts[2 + rid]:
            continue  # no head link
        tails = None  # the relation's tail links, read when a head link first has candidates
        for subj_head, obj_head in zip(*links(1 + rid)):
            subjects, objects = by_head.get(subj_head, no_spans), by_head.get(obj_head, no_spans)
            tried += len(subjects) * len(objects)
            if tried > DECODE_BUDGET:
                if mode == "strict":
                    raise InvalidInput(f"tagging needs more than {DECODE_BUDGET:,} candidate pairs")
                warnings.warn(f"decode stopped at {DECODE_BUDGET:,} candidate pairs; "
                              f"kept {len(result):,} triples", stacklevel=_outside_level())
                return result
            if not (subjects and objects):
                continue
            if tails is None:
                tails = set(zip(*links(1 + n_rel + rid)))
            for s in subjects:
                for o in objects:
                    if (s.tail, o.tail) in tails:
                        result.add(Triple(s, rid, o))
    return result


def decode_oracle(
    tagging: HandshakingTagging, schema: RelationSchema, mode: str = "lenient"
) -> set[Triple]:
    """Brute-force reference decoder: try every entity pair under every relation.

    Independent of :func:`decode` and of the codec's index arithmetic: the
    tag rows are read once as Python lists, and the pair-to-flat map is
    rebuilt by plain enumeration.  A reversed entity tag cannot come from
    encoded data: strict mode raises, lenient mode ignores it.
    """
    check_choice("mode", mode, MODES)
    check_relation_count(tagging, schema)
    n = tagging.n
    rows = tagging.tags.tolist()
    flat: dict[tuple[int, int], int] = {}
    spans: list[TokenSpan] = []
    k = 0
    for i in range(n):
        for j in range(i, n):
            flat[(i, j)] = k
            if rows[0][k] == 1:
                spans.append(TokenSpan(i, j))
            elif rows[0][k] == 2 and mode == "strict":
                raise InvalidInput(f"reversed tag in entity sequence at flat index {k}")
            k += 1

    def link_present(seq, a: int, b: int) -> bool:
        # a forward tag where the link stays in the upper triangle, or a
        # reversed tag at the transposed cell; on the diagonal both mean
        # the same link
        if a <= b and seq[flat[(a, b)]] == 1:
            return True
        if b <= a and seq[flat[(b, a)]] == 2:
            return True
        return False

    result: set[Triple] = set()
    n_rel = len(schema)
    for rid, (sh, st) in enumerate(zip(rows[1:1 + n_rel], rows[1 + n_rel:])):
        for s in spans:
            for o in spans:
                if link_present(sh, s.head, o.head) and link_present(st, s.tail, o.tail):
                    result.add(Triple(s, rid, o))
    return result
