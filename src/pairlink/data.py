"""Dataset ingestion: tokenization, mention alignment, overlap statistics.

The on-disk format is one JSON object per line with a ``text`` field and a
``triple_list`` of [subject, relation, object] entries where subject/object
is either a surface mention (string) or a [start, end) character-offset
pair.  A ``tokens`` field, when present, overrides the tokenizer.  Two
annotation standards are supported: ``whole-span`` keeps full entity spans,
``last-word`` collapses every entity to its final token.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from .codec import check_mode
from .core import (
    InvalidInput,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
)

STANDARDS = ("whole-span", "last-word")
BUCKETS = ("0", "1", "2", "3", "4", "5+")

# word characters with internal apostrophes/hyphens, otherwise one symbol
# per non-space character
_TOKEN_RE = re.compile(r"\w+(?:['’-]\w+)*|[^\w\s]")


class ParseError(InvalidInput):
    """An input file (a dataset line, a config, a checkpoint) could not be parsed."""


class AlignmentError(PairLinkError, ValueError):
    """A mention could not be mapped onto whole tokens."""


def check_standard(standard: str) -> str:
    if standard not in STANDARDS:
        raise InvalidInput(f"standard must be one of {STANDARDS}, got {standard!r}")
    return standard


def tokenize(text: str) -> list[str]:
    """Whitespace split with punctuation detached into separate tokens."""
    return _TOKEN_RE.findall(text)


def tokenize_with_offsets(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group())
        offsets.append((m.start(), m.end()))
    return tokens, offsets


def align_mention(tokens, mention: str) -> TokenSpan:
    """Leftmost token span whose tokens equal the tokenized mention.

    Raises :class:`AlignmentError` when the mention is absent or would split
    a token (e.g. a mention that is a substring of one token).
    """
    needle = tuple(tokenize(mention))
    if not needle:
        raise AlignmentError(f"mention tokenizes to nothing: {mention!r}")
    hay = tuple(tokens)
    width = len(needle)
    for start in range(len(hay) - width + 1):
        if hay[start : start + width] == needle:
            return TokenSpan(start, start + width - 1)
    raise AlignmentError(f"mention not found as whole tokens: {mention!r}")


def span_from_offsets(char_spans, start: int, end: int) -> TokenSpan:
    """Token span exactly covering characters [start, end)."""
    if start >= end:
        raise AlignmentError(f"empty character range [{start}, {end})")
    first = last = None
    for idx, (a, b) in enumerate(char_spans):
        if a < end and start < b:  # token overlaps the range
            if first is None:
                first = idx
            last = idx
    if first is None or last is None:
        raise AlignmentError(f"no tokens inside character range [{start}, {end})")
    if char_spans[first][0] != start or char_spans[last][1] != end:
        raise AlignmentError(
            f"character range [{start}, {end}) splits a token "
            f"(covers tokens {first}..{last})"
        )
    return TokenSpan(first, last)


@dataclass
class SkippedRecord:
    line_no: int
    reason: str


@dataclass
class LoadResult:
    annotations: list[SentenceAnnotation]
    skipped: list[SkippedRecord]


def _parse_ref(ref, line_no: int):
    """A subject/object field: mention string or [start, end) offsets."""
    if isinstance(ref, str):
        return ref
    if (
        isinstance(ref, (list, tuple))
        and len(ref) == 2
        and all(isinstance(v, int) for v in ref)
    ):
        return (ref[0], ref[1])
    raise ParseError(
        f"line {line_no}: subject/object must be a string or [start, end], got {ref!r}"
    )


def read_records(path) -> list[dict]:
    """Raw JSONL records; malformed lines raise with their line number."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{line_no}: not valid JSON: {exc}") from None
            if not isinstance(obj, dict) or "text" not in obj:
                raise ParseError(f"{path}:{line_no}: expected an object with a 'text' field")
            if not isinstance(obj.get("triple_list", []), list):
                raise ParseError(f"{path}:{line_no}: 'triple_list' must be a list")
            obj["_line_no"] = line_no
            records.append(obj)
    return records


def relation_names(records) -> list[str]:
    """Sorted unique relation names appearing in raw records."""
    names = set()
    for obj in records:
        for entry in obj.get("triple_list", []):
            if isinstance(entry, (list, tuple)) and len(entry) == 3:
                names.add(str(entry[1]))
    return sorted(names)


def load_dataset(
    path,
    schema: RelationSchema,
    standard: str = "whole-span",
    mode: str = "lenient",
) -> LoadResult:
    """Annotations from a JSONL file under the given annotation standard.

    Lenient mode skips records with unresolvable mentions or unknown
    relations and reports them; strict mode raises instead.  File parse
    errors always raise.
    """
    check_standard(standard)
    check_mode(mode)
    annotations: list[SentenceAnnotation] = []
    skipped: list[SkippedRecord] = []
    for obj in read_records(path):
        line_no = obj["_line_no"]
        try:
            annotations.append(
                _record_to_annotation(obj, schema, standard, line_no)
            )
        except (AlignmentError, InvalidInput) as exc:
            if isinstance(exc, ParseError):
                raise
            if mode == "strict":
                raise type(exc)(f"{path}:{line_no}: {exc}") from None
            skipped.append(SkippedRecord(line_no, str(exc)))
    return LoadResult(annotations, skipped)


def _record_to_annotation(obj, schema, standard, line_no):
    text = obj["text"]
    if not isinstance(text, str):
        raise ParseError(f"line {line_no}: 'text' must be a string")
    tokens = obj.get("tokens")
    if tokens is not None:
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ParseError(f"line {line_no}: 'tokens' must be a list of strings")
        offsets = None
    else:
        tokens, offsets = tokenize_with_offsets(text)
    if not tokens:
        raise InvalidInput("sentence tokenizes to nothing")

    triples = []
    for entry in obj.get("triple_list", []):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise ParseError(
                f"line {line_no}: each triple_list entry must be [subject, relation, object]"
            )
        subj_ref = _parse_ref(entry[0], line_no)
        obj_ref = _parse_ref(entry[2], line_no)
        rid = schema.id_of(str(entry[1]))
        spans = []
        for ref in (subj_ref, obj_ref):
            if isinstance(ref, str):
                span = align_mention(tokens, ref)
            else:
                if offsets is None:
                    raise AlignmentError("offset references need tokenizer-derived offsets")
                span = span_from_offsets(offsets, *ref)
            if standard == "last-word":
                span = TokenSpan(span.tail, span.tail)
            spans.append(span)
        triples.append(Triple(spans[0], rid, spans[1]))
    return SentenceAnnotation(
        tokens=tuple(tokens),
        text=text,
        triples=tuple(triples),
        char_spans=tuple(offsets) if offsets else None,
    )


# --- overlap taxonomy and statistics ------------------------------------------


@dataclass(frozen=True)
class OverlapPattern:
    normal: bool
    seo: bool
    epo: bool


def classify_overlap(ann: SentenceAnnotation) -> OverlapPattern:
    """Overlap flags for a sentence; it can be both ``seo`` and ``epo``.

    Per pair of distinct triples: sharing the ordered (subject, object) pair
    marks entity-pair overlap; any other shared span (including a reversed
    pair) marks single-entity overlap.  ``normal`` means no pair shares
    anything.
    """
    if not ann.triples:
        raise InvalidInput("cannot classify a sentence without triples")
    seo = epo = False
    for a, b in combinations(ann.triples, 2):
        if a.subject == b.subject and a.object == b.object:
            epo = True
        elif {a.subject, a.object} & {b.subject, b.object}:
            seo = True
    return OverlapPattern(normal=not (seo or epo), seo=seo, epo=epo)


def triple_bucket(count: int) -> str:
    if count < 0:
        raise InvalidInput(f"triple count cannot be negative: {count}")
    return str(count) if count < 5 else "5+"


def truncate_for_training(
    ann: SentenceAnnotation, max_len: int = 100
) -> tuple[SentenceAnnotation, int]:
    """Clip a sentence to ``max_len`` tokens for the training view.

    Triples reaching past the window are dropped; the second value is how
    many.  Evaluation should keep the original annotation.
    """
    if max_len < 1:
        raise InvalidInput(f"max_len must be >= 1, got {max_len}")
    if ann.n <= max_len:
        return ann, 0
    kept = tuple(
        t for t in ann.triples
        if t.subject.tail < max_len and t.object.tail < max_len
    )
    view = SentenceAnnotation(
        tokens=ann.tokens[:max_len],
        text=ann.text,
        triples=kept,
        char_spans=ann.char_spans[:max_len] if ann.char_spans else None,
    )
    return view, len(ann.triples) - len(kept)


@dataclass
class StatsReport:
    split_sizes: dict[str, int]
    pattern_counts: dict[str, int]  # over the test split
    bucket_counts: dict[str, int]  # over the test split
    n_relations: int


def subset_members(annotations) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Positions of the sentences in each overlap pattern and each triple-count bucket.

    A sentence without triples is in no pattern; see :func:`dataset_stats`.
    """
    patterns: dict[str, list[int]] = {"normal": [], "seo": [], "epo": []}
    buckets: dict[str, list[int]] = {key: [] for key in BUCKETS}
    for i, ann in enumerate(annotations):
        buckets[triple_bucket(len(ann.triples))].append(i)
        if ann.triples:
            p = classify_overlap(ann)
            for key, members in patterns.items():
                if getattr(p, key):
                    members.append(i)
    return patterns, buckets


def dataset_stats(
    splits: dict[str, list[SentenceAnnotation]], schema: RelationSchema
) -> StatsReport:
    """Corpus statistics; patterns and buckets are computed on the test split.

    Every test sentence lands in exactly one triple-count bucket, so the
    bucket counts always sum to the test size.  Pattern counts may overlap
    (a sentence can be seo and epo at once).
    """
    patterns, buckets = subset_members(splits.get("test", []))
    return StatsReport(
        split_sizes={name: len(annotations) for name, annotations in splits.items()},
        pattern_counts={key: len(members) for key, members in patterns.items()},
        bucket_counts={key: len(members) for key, members in buckets.items()},
        n_relations=len(schema),
    )


def format_stats(report: StatsReport) -> str:
    lines = ["split sizes:"]
    for name in ("train", "valid", "test"):
        if name in report.split_sizes:
            lines.append(f"  {name:<6} {report.split_sizes[name]:>7}")
    for name in sorted(set(report.split_sizes) - {"train", "valid", "test"}):
        lines.append(f"  {name:<6} {report.split_sizes[name]:>7}")
    lines.append("test-split overlap patterns:")
    for key in ("normal", "seo", "epo"):
        lines.append(f"  {key:<6} {report.pattern_counts[key]:>7}")
    lines.append("test-split triple-count buckets:")
    for key in BUCKETS:
        count = report.bucket_counts.get(key, 0)
        if key == "0" and count == 0:
            continue
        lines.append(f"  {key:<6} {count:>7}")
    lines.append(f"relations: {report.n_relations}")
    return "\n".join(lines)


def load_schema(path) -> RelationSchema:
    """Schema file: either a JSON list of names or {"relations": [...]}."""
    p = Path(path)
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    if isinstance(obj, dict) and "relations" in obj:
        obj = obj["relations"]
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list of relation names")
    return RelationSchema(tuple(str(name) for name in obj))
