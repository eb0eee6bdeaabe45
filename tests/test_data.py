"""Tests for tokenization, mention alignment, dataset loading, and statistics."""

from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest

from pairlink import (
    AlignmentError,
    InvalidInput,
    OverlapPattern,
    RelationSchema,
    TokenSpan,
    align_mention,
    classify_overlap,
    dataset_stats,
    load_dataset,
    load_schema,
    tokenize,
)
from pairlink.data import (
    ParseError,
    format_stats,
    relation_names,
    span_from_offsets,
    tokenize_with_offsets,
    triple_bucket,
)

from conftest import annotation, triple


class TestTokenize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("New York City", ["New", "York", "City"]),
            ("hello, world!", ["hello", ",", "world", "!"]),
            ("it's a state-of-the-art model", ["it's", "a", "state-of-the-art", "model"]),
            ("(A-1)", ["(", "A-1", ")"]),
            ("", []),
            ("   ", []),
        ],
    )
    def test_examples(self, text, expected):
        assert tokenize(text) == expected

    def test_offsets_recover_the_surface(self):
        text = "De Blasio, mayor."
        tokens, offsets = tokenize_with_offsets(text)
        assert tokens == ["De", "Blasio", ",", "mayor", "."]
        for tok, (a, b) in zip(tokens, offsets):
            assert text[a:b] == tok


class TestAlignMention:
    def test_leftmost_match(self):
        tokens = ["the", "city", "of", "the", "city"]
        assert align_mention(tokens, "the city") == TokenSpan(0, 1)

    def test_multi_token_mention(self):
        tokens = ["De", "Blasio", "runs", "New", "York", "City"]
        assert align_mention(tokens, "New York City") == TokenSpan(3, 5)

    def test_mention_is_tokenized_before_matching(self):
        tokens = ["hello", ",", "world"]
        assert align_mention(tokens, "hello, world") == TokenSpan(0, 2)

    def test_absent_mention_raises(self):
        with pytest.raises(AlignmentError):
            align_mention(["a", "b"], "c")

    def test_substring_of_a_token_raises(self):
        with pytest.raises(AlignmentError):
            align_mention(["Yorkshire"], "York")

    def test_empty_mention_raises(self):
        with pytest.raises(AlignmentError):
            align_mention(["a"], "  ")


class TestSpanFromOffsets:
    def test_exact_cover(self):
        text = "New York City"
        _, offsets = tokenize_with_offsets(text)
        assert span_from_offsets(offsets, 0, 8) == TokenSpan(0, 1)
        assert span_from_offsets(offsets, 4, 13) == TokenSpan(1, 2)

    def test_splitting_a_token_raises(self):
        _, offsets = tokenize_with_offsets("New York")
        with pytest.raises(AlignmentError):
            span_from_offsets(offsets, 0, 6)  # cuts "York" in half

    def test_empty_or_miss_raises(self):
        _, offsets = tokenize_with_offsets("New York")
        with pytest.raises(AlignmentError):
            span_from_offsets(offsets, 3, 3)
        with pytest.raises(AlignmentError):
            span_from_offsets(offsets, 30, 40)


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in records:
            fh.write(json.dumps(obj) + "\n")


class TestLoadDataset:
    def test_mention_records(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {
                    "text": "Ada Lovelace lives in London",
                    "triple_list": [["Ada Lovelace", "lives_in", "London"]],
                }
            ],
        )
        result = load_dataset(path, schema2)
        assert result.skipped == []
        (ann,) = result.annotations
        assert ann.tokens == ("Ada", "Lovelace", "lives", "in", "London")
        assert ann.triples == (triple(0, 1, 1, 4, 4),)
        assert ann.char_spans is not None

    def test_a_repeated_mention_takes_its_leftmost_match_in_strict_mode(self, tmp_path,
                                                                         schema2):
        # a tie between whole-token matches is not an error in either mode
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"text": "Paris is near Paris",
                            "triple_list": [["Paris", "lives_in", "Paris"]]}])
        result = load_dataset(path, schema2, mode="strict")
        assert result.skipped == []
        (ann,) = result.annotations
        assert ann.triples == (triple(0, 0, 1, 0, 0),)  # TokenSpan(0, 0) twice

    def test_offset_records(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {
                    "text": "Ada works for ACME",
                    "triple_list": [[[0, 3], "works_for", [14, 18]]],
                }
            ],
        )
        (ann,) = load_dataset(path, schema2).annotations
        assert ann.triples == (triple(0, 0, 0, 3, 3),)

    def test_explicit_tokens_override_the_tokenizer(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {
                    "text": "Ada works-for ACME",
                    "tokens": ["Ada", "works-for", "ACME"],
                    "triple_list": [["Ada", "works_for", "ACME"]],
                }
            ],
        )
        (ann,) = load_dataset(path, schema2).annotations
        assert ann.tokens == ("Ada", "works-for", "ACME")

    def test_last_word_standard_collapses_spans(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {
                    "text": "Ada Lovelace lives in New York",
                    "triple_list": [["Ada Lovelace", "lives_in", "New York"]],
                }
            ],
        )
        (ann,) = load_dataset(path, schema2, standard="last-word").annotations
        assert ann.triples == (triple(1, 1, 1, 5, 5),)

    def test_lenient_skips_and_reports_bad_records(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {"text": "good one", "triple_list": []},
                {"text": "Ada here", "triple_list": [["Bob", "lives_in", "here"]]},
                {"text": "Ada here", "triple_list": [["Ada", "unknown_rel", "here"]]},
            ],
        )
        result = load_dataset(path, schema2, mode="lenient")
        assert len(result.annotations) == 1
        assert [s.line_no for s in result.skipped] == [2, 3]
        assert "Bob" in result.skipped[0].reason

    def test_strict_raises_on_bad_records(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path, [{"text": "Ada here", "triple_list": [["Bob", "lives_in", "here"]]}]
        )
        with pytest.raises(AlignmentError):
            load_dataset(path, schema2, mode="strict")

    def test_parse_errors_always_raise(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        path.write_text('{"text": "ok", "triple_list": []}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2|:2:"):
            load_dataset(path, schema2, mode="lenient")

    def test_missing_text_field_raises(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"triple_list": []}])
        with pytest.raises(ParseError):
            load_dataset(path, schema2)

    def test_malformed_triple_entry_raises_even_lenient(self, tmp_path, schema2):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"text": "Ada here", "triple_list": [["Ada", "lives_in"]]}])
        with pytest.raises(ParseError):
            load_dataset(path, schema2, mode="lenient")

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("tokens", ["Ada", 5, ["Ada", 7, "here"], {"Ada": 0}])
    def test_tokens_must_be_a_list_of_strings(self, tmp_path, schema2, mode, tokens):
        # a string was split into characters, a number raised TypeError and 7 became "7"
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"text": "Ada here", "triple_list": []},
                           {"text": "Ada 7 here", "tokens": tokens, "triple_list": []}])
        problem = ("'tokens' must be non-empty strings, got 7" if isinstance(tokens, list)
                   else f"'tokens' must be a sequence, not {type(tokens).__name__}")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}:2: {problem}')}$"):
            load_dataset(path, schema2, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("offsets", [[False, 3], [True, 3], [-3, 3], [0, -3]])
    def test_offsets_must_be_integers_not_bools(self, tmp_path, schema2, mode, offsets):
        # false was read as character 0, and true as 1; a negative offset was
        # taken as a range that splits a token (strict) or skipped (lenient)
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"text": "Ada here", "triple_list": []},
                           {"text": "Ada works for ACME",
                            "triple_list": [[offsets, "works_for", [14, 18]]]}])
        got = rf"\[{offsets[0]}, {offsets[1]}\]"
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: subject/object must "
                                             rf"be a string or \[start, end\], got {got}$"):
            load_dataset(path, schema2, mode=mode)

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("relation", [1, None, True, ["works_for"], ""])
    def test_relation_must_be_a_string(self, tmp_path, schema2, mode, relation):
        # 1, None and True were read as the relations "1", "None" and "True";
        # "" was skipped as an unknown relation, or broke a derived schema
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"text": "Ada here", "triple_list": []},
                           {"text": "Ada works for ACME",
                            "triple_list": [["Ada", relation, "ACME"]]}])
        message = (rf"^{re.escape(str(path))}:2: relation names must be non-empty strings, "
                   rf"got {re.escape(repr(relation))}$")
        with pytest.raises(ParseError, match=message):
            load_dataset(path, schema2, mode=mode)
        with pytest.raises(ParseError, match=message):
            relation_names(path)

    def test_blank_lines_are_ignored(self, tmp_path, schema2):
        # ignored, but counted in the line numbers
        path = tmp_path / "data.jsonl"
        path.write_text('\n{"text": "a", "triple_list": [["a", "r9", "a"]]}\n\n',
                        encoding="utf-8")
        result = load_dataset(path, schema2, mode="lenient")
        assert result.annotations == []
        assert [s.line_no for s in result.skipped] == [2]

    def test_relation_names_collects_sorted_unique(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(
            path,
            [
                {"text": "x", "triple_list": [["a", "r2", "b"], ["a", "r1", "b"]]},
                {"text": "y", "triple_list": [["c", "r1", "d"]]},
            ],
        )
        assert relation_names(path) == ["r1", "r2"]


class TestOverlapTaxonomy:
    def test_normal(self):
        ann = annotation(6, [triple(0, 0, 0, 1, 1), triple(2, 2, 0, 3, 3)])
        assert classify_overlap(ann) == OverlapPattern(normal=True, seo=False, epo=False)

    def test_epo_shares_the_ordered_pair(self):
        ann = annotation(4, [triple(0, 0, 0, 1, 1), triple(0, 0, 1, 1, 1)])
        pattern = classify_overlap(ann)
        assert pattern.epo and not pattern.seo and not pattern.normal

    def test_reversed_pair_is_seo_not_epo(self):
        ann = annotation(4, [triple(0, 0, 0, 1, 1), triple(1, 1, 0, 0, 0)])
        pattern = classify_overlap(ann)
        assert pattern.seo and not pattern.epo

    def test_single_shared_entity_is_seo(self):
        ann = annotation(6, [triple(0, 0, 0, 1, 1), triple(0, 0, 0, 3, 3)])
        pattern = classify_overlap(ann)
        assert pattern.seo and not pattern.epo

    def test_can_be_seo_and_epo_at_once(self):
        ann = annotation(
            6,
            [
                triple(0, 0, 0, 1, 1),
                triple(0, 0, 1, 1, 1),  # epo with the first
                triple(0, 0, 0, 3, 3),  # seo with both
            ],
        )
        pattern = classify_overlap(ann)
        assert pattern.seo and pattern.epo and not pattern.normal

    def test_single_triple_is_normal(self):
        ann = annotation(3, [triple(0, 0, 0, 1, 2)])
        assert classify_overlap(ann).normal

    def test_no_triples_rejected(self):
        with pytest.raises(InvalidInput):
            classify_overlap(annotation(3, []))

    def test_triple_bucket_boundaries(self):
        assert [triple_bucket(i) for i in range(7)] == ["0", "1", "2", "3", "4", "5+", "5+"]
        with pytest.raises(InvalidInput):
            triple_bucket(-1)


class TestStats:
    def test_counts_patterns_and_buckets_on_test_split(self):
        test = [
            annotation(6, [triple(0, 0, 0, 1, 1)]),                          # normal, 1
            annotation(6, [triple(0, 0, 0, 1, 1), triple(0, 0, 1, 1, 1)]),   # epo, 2
            annotation(6, [triple(0, 0, 0, 1, 1), triple(0, 0, 0, 3, 3)]),   # seo, 2
            annotation(6, []),                                               # bucket 0
        ]
        splits = {"train": [test[0]] * 3, "valid": [], "test": test}
        report = dataset_stats(splits, RelationSchema(("a", "b")))
        assert report.split_sizes == {"train": 3, "valid": 0, "test": 4}
        assert report.pattern_counts == {"normal": 1, "seo": 1, "epo": 1}
        assert report.bucket_counts == {"0": 1, "1": 1, "2": 2, "3": 0, "4": 0, "5+": 0}
        assert sum(report.bucket_counts.values()) == len(test)
        assert report.n_relations == 2

    def test_format_lists_every_section(self):
        report = dataset_stats(
            {"train": [], "test": [annotation(3, [triple(0, 0, 0, 1, 1)])]},
            RelationSchema(("a",)),
        )
        text = format_stats(report)
        assert "split sizes:" in text
        assert "overlap patterns:" in text
        assert "buckets:" in text
        assert "relations: 1" in text
        json.dumps(asdict(report))  # serializable

    def test_stats_survive_an_empty_test_split(self):
        report = dataset_stats({"train": [annotation(2, [])]}, RelationSchema(("a",)))
        assert report.pattern_counts == {"normal": 0, "seo": 0, "epo": 0}
        assert sum(report.bucket_counts.values()) == 0


class TestLoadSchema:
    def test_plain_list(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('["r1", "r2"]', encoding="utf-8")
        assert load_schema(path) == RelationSchema(("r1", "r2"))

    def test_wrapped_object(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"relations": ["only"]}', encoding="utf-8")
        assert load_schema(path) == RelationSchema(("only",))

    @pytest.mark.parametrize("content", ["not json", '{"other": 1}', '"just a string"'])
    def test_rejects_malformed_files(self, tmp_path, content):
        path = tmp_path / "schema.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError):
            load_schema(path)

    @pytest.mark.parametrize("content, problem", [
        ("[1, 2]", "relation names must be non-empty strings, got 1"),
        ("[null, true]", "relation names must be non-empty strings, got None"),
        ('{"relations": [1.5]}', "relation names must be non-empty strings, got 1.5"),
        ('["r", ""]', "relation names must be non-empty strings, got ''"),
        ('["r", "r"]', "duplicate relation name: 'r'"),
        ("[]", "a schema needs at least one relation"),
    ])
    def test_names_that_are_not_unique_non_empty_strings_are_a_parse_error(
            self, tmp_path, content, problem):
        # [null, true] was read as the relations "None" and "True", and a
        # duplicate, empty or missing name raised InvalidInput, not ParseError
        path = tmp_path / "schema.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {problem}')}$"):
            load_schema(path)
