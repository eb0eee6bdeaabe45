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

from .codec import MODES
from .core import (
    InvalidInput,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    check_choice,
    check_relation_name,
    is_int,
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


def _parse_ref(ref):
    """A subject/object field: mention string or [start, end) character offsets, integers >= 0."""
    if isinstance(ref, str):
        return ref
    if (isinstance(ref, (list, tuple)) and len(ref) == 2
            and all(is_int(x) and x >= 0 for x in ref)):
        return (ref[0], ref[1])
    raise ParseError(f"subject/object must be a string or [start, end], got {ref!r}")


def _triple_fields(entry) -> tuple:
    """A triple_list entry as (subject ref, relation, object ref), else :class:`ParseError`."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
        raise ParseError("each triple_list entry must be [subject, relation, object]")
    return _parse_ref(entry[0]), check_relation_name(entry[1], ParseError), _parse_ref(entry[2])


def _record(line: str) -> dict:
    """One JSONL line as a record: an object with a 'text' field and a list 'triple_list'."""
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or "text" not in obj:
        raise ParseError("expected an object with a 'text' field")
    if not isinstance(obj.get("triple_list", []), list):
        raise ParseError("'triple_list' must be a list")
    return obj


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None


def read_lines(path, parse, mode: str = "strict") -> tuple[list, list[SkippedRecord]]:
    """``parse(line)`` for each non-blank line of the file at ``path``, and the lines skipped.

    The one location rule for a line file: any error, a line that is not UTF-8
    included, is raised again as its own type with ``<path>:<line>: `` before
    its message.  Only lenient mode skips a line instead, and only for an error
    that is not a :class:`ParseError`.  Blank lines are ignored but counted.
    """
    parsed, skipped = [], []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = _utf8(raw)
                if line.strip():
                    parsed.append(parse(line))
            except (AlignmentError, InvalidInput) as exc:
                if mode == "strict" or isinstance(exc, ParseError):
                    raise type(exc)(f"{path}:{line_no}: {exc}") from None
                skipped.append(SkippedRecord(line_no, str(exc)))
    return parsed, skipped


def read_json(path, raw: bytes | None = None):
    """The UTF-8 JSON of the file at ``path`` (or ``raw``, its bytes), else :class:`ParseError`."""
    try:
        return json.loads((Path(path).read_bytes() if raw is None else raw).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deep
        raise ParseError(f"{path}: not valid JSON: {exc}") from None


def relation_names(path) -> list[str]:
    """Sorted unique relation names in a JSONL file; a malformed record raises ParseError."""
    def names(line):
        return {_triple_fields(entry)[1] for entry in _record(line).get("triple_list", [])}
    return sorted(set().union(*read_lines(path, names)[0]))


def load_dataset(
    path,
    schema: RelationSchema,
    standard: str = "whole-span",
    mode: str = "lenient",
) -> LoadResult:
    """Annotations from a JSONL file under the given annotation standard.

    Lenient mode skips records with unresolvable mentions or unknown
    relations and reports them; strict mode raises instead.  A malformed
    record raises :class:`ParseError` in both modes.  Every error raised
    begins with ``<path>:<line>: ``.
    """
    check_choice("standard", standard, STANDARDS)
    check_choice("mode", mode, MODES)
    return LoadResult(*read_lines(
        path, lambda line: _record_to_annotation(_record(line), schema, standard), mode))


def _record_to_annotation(obj, schema, standard):
    text = obj["text"]
    if not isinstance(text, str):
        raise ParseError("'text' must be a string")
    tokens = obj.get("tokens")
    if tokens is not None:
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise ParseError("'tokens' must be a list of strings")
        offsets = None
    else:
        tokens, offsets = tokenize_with_offsets(text)
    if not tokens:
        raise InvalidInput("sentence tokenizes to nothing")

    triples = []
    for entry in obj.get("triple_list", []):
        subj_ref, name, obj_ref = _triple_fields(entry)
        rid = schema.id_of(name)
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
    """Schema file: a JSON list of names or {"relations": [...]}, else :class:`ParseError`."""
    obj = read_json(path)
    if isinstance(obj, dict) and "relations" in obj:
        obj = obj["relations"]
    if not isinstance(obj, list):
        raise ParseError(f"{path}: expected a list of relation names")
    try:
        return RelationSchema(tuple(obj))
    except InvalidInput as exc:
        raise ParseError(f"{path}: {exc}") from None
