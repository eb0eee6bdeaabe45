"""Turning flattened link-tag sequences back into relation triples.

``decode`` is the production path.  It first finds the rows of the
tagging's (2N+1, P) array that hold a tag, then one ``np.nonzero`` over just
those rows finds every tagged cell; everything after it loops in Python over
those cells only.  It collects the entity spans grouped by head position and
the oriented tail links of every relation, then resolves each head link
against the span candidates.  ``decode_oracle`` recomputes the same
answer in pure Python by brute force over all entity-span pairs, sharing no
index code with ``decode``, and exists purely to cross-check it.
"""

from __future__ import annotations

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
    """
    check_choice("mode", mode, MODES)
    check_relation_count(tagging, schema)
    n_rel = len(schema)
    imap = index_map(tagging.n)
    tagged = np.flatnonzero(tagging.tags.any(axis=1))
    tags = tagging.tags[tagged]
    # row-major over the tagged rows: entity cells, then head rows, then tail rows
    local, cell = np.nonzero(tags)
    seq = tagged[local]
    forward = tags[local, cell] == 1
    # a forward tag links row token to column token; a reversed one the other way
    rows, cols = imap.rows[cell], imap.cols[cell]
    source = np.where(forward, rows, cols)
    target = np.where(forward, cols, rows)
    heads_at, tails_at = np.searchsorted(seq, (1, 1 + n_rel)).tolist()
    is_span = forward[:heads_at]
    if mode == "strict" and not is_span.all():
        k = int(cell[np.argmin(is_span)])
        raise InvalidInput(f"reversed tag in entity sequence at flat index {k}")
    by_head: dict[int, list[TokenSpan]] = {}
    for i, j in zip(rows[:heads_at][is_span].tolist(), cols[:heads_at][is_span].tolist()):
        by_head.setdefault(i, []).append(TokenSpan(i, j))
    tail_links = set(zip((seq[tails_at:] - (1 + n_rel)).tolist(),
                         source[tails_at:].tolist(), target[tails_at:].tolist()))
    result: set[Triple] = set()
    no_spans: tuple[TokenSpan, ...] = ()
    for rid, subj_head, obj_head in zip((seq[heads_at:tails_at] - 1).tolist(),
                                        source[heads_at:tails_at].tolist(),
                                        target[heads_at:tails_at].tolist()):
        for s in by_head.get(subj_head, no_spans):
            for o in by_head.get(obj_head, no_spans):
                if (rid, s.tail, o.tail) in tail_links:
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
