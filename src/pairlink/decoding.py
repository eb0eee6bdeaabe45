"""Turning flattened link-tag sequences back into relation triples.

``decode`` is the production path: collect entity spans grouped by head
position, then per relation collect oriented tail pairs and resolve every
head link against the span candidates.  It touches each flat index exactly
once per sequence.  ``decode_oracle`` recomputes the same answer by brute
force over all entity-span pairs and exists purely to cross-check ``decode``.
"""

from __future__ import annotations

from .codec import check_mode, index_map
from .core import (
    HandshakingTagging,
    InvalidInput,
    RelationSchema,
    TokenSpan,
    Triple,
    seq_length,
)


def extract_entities(
    eh2et, n: int, mode: str = "lenient"
) -> tuple[frozenset[TokenSpan], dict[int, tuple[TokenSpan, ...]]]:
    """Entity spans tagged in the shared sequence, plus a head-position index.

    Returns ``(spans, by_head)`` where ``by_head[p]`` lists the spans whose
    first token is ``p``.  A reversed tag cannot occur in encoded data but a
    model may predict one: strict mode raises, lenient mode ignores it.
    """
    check_mode(mode)
    if len(eh2et) != seq_length(n):
        raise InvalidInput(
            f"entity sequence has length {len(eh2et)}, expected {seq_length(n)} for n={n}"
        )
    pairs = index_map(n).pairs
    spans: list[TokenSpan] = []
    by_head: dict[int, list[TokenSpan]] = {}
    for k, tag in enumerate(eh2et):
        if tag == 1:
            i, j = pairs[k]
            span = TokenSpan(i, j)
            spans.append(span)
            by_head.setdefault(i, []).append(span)
        elif tag == 2 and mode == "strict":
            raise InvalidInput(f"reversed tag in entity sequence at flat index {k}")
    return frozenset(spans), {h: tuple(s) for h, s in by_head.items()}


def decode(
    tagging: HandshakingTagging, schema: RelationSchema, mode: str = "lenient"
) -> set[Triple]:
    """All triples expressed by a tagging.

    For every relation, a head-link cell (tag 1 forward, tag 2 reversed)
    pairs each subject-head candidate with each object-head candidate; the
    pair is kept when its (subject tail, object tail) combination is tagged
    in the tail sequence.  Output is a set: one occurrence per triple.
    """
    check_mode(mode)
    if tagging.n_relations != len(schema):
        raise InvalidInput(
            f"tagging has {tagging.n_relations} relations, schema has {len(schema)}"
        )
    n = tagging.n
    pairs = index_map(n).pairs
    _, by_head = extract_entities(tagging.eh2et, n, mode=mode)
    result: set[Triple] = set()
    no_spans: tuple[TokenSpan, ...] = ()
    for rid in range(len(schema)):
        tail_pairs: set[tuple[int, int]] = set()
        for k, tag in enumerate(tagging.st2ot[rid]):
            if tag == 1:
                tail_pairs.add(pairs[k])
            elif tag == 2:
                i, j = pairs[k]
                tail_pairs.add((j, i))
        for k, tag in enumerate(tagging.sh2oh[rid]):
            if tag == 1:
                subj_head, obj_head = pairs[k]
            elif tag == 2:
                obj_head, subj_head = pairs[k]
            else:
                continue
            for s in by_head.get(subj_head, no_spans):
                for o in by_head.get(obj_head, no_spans):
                    if (s.tail, o.tail) in tail_pairs:
                        result.add(Triple(s, rid, o))
    return result


def decode_oracle(
    tagging: HandshakingTagging, schema: RelationSchema, mode: str = "lenient"
) -> set[Triple]:
    """Brute-force reference decoder: try every entity pair under every relation.

    Deliberately independent of :func:`decode`'s sweep and of the codec's
    index arithmetic (the pair-to-flat map is rebuilt by plain enumeration).
    """
    check_mode(mode)
    if tagging.n_relations != len(schema):
        raise InvalidInput(
            f"tagging has {tagging.n_relations} relations, schema has {len(schema)}"
        )
    n = tagging.n
    flat: dict[tuple[int, int], int] = {}
    k = 0
    for i in range(n):
        for j in range(i, n):
            flat[(i, j)] = k
            k += 1
    spans, _ = extract_entities(tagging.eh2et, n, mode=mode)

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
    for rid in range(len(schema)):
        sh = tagging.sh2oh[rid]
        st = tagging.st2ot[rid]
        for s in spans:
            for o in spans:
                if link_present(sh, s.head, o.head) and link_present(st, s.tail, o.tail):
                    result.add(Triple(s, rid, o))
    return result
