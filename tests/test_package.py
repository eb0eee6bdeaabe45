"""Tests for the package's public surface."""

from __future__ import annotations

import argparse
import ast
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

import pairlink
from pairlink.cli import main
from pairlink.codec import tagging_to_obj


def test_every_export_resolves_and_the_list_is_sorted():
    missing = [name for name in pairlink.__all__ if not hasattr(pairlink, name)]
    assert missing == []
    assert pairlink.__all__ == sorted(pairlink.__all__)
    assert len(set(pairlink.__all__)) == len(pairlink.__all__)


def test_the_library_reads_no_tuple_view(figure_fixture, tmp_path, monkeypatch):
    # the eh2et/sh2oh/st2ot properties are kept only for the benchmark's
    # traced hooks; every library path reads the tag array itself
    schema, tokens, tagging, expected = figure_fixture
    ann = pairlink.SentenceAnnotation(tokens=tokens, triples=tuple(sorted(expected)))
    params = pairlink.init_model(schema, pairlink.build_vocab([tokens]),
                                 d_embed=4, d_state=3, d_pair=4)
    sentences = [tokens, tokens[:2], tokens[1:]]
    unpatched = pairlink.infer_batch(sentences, params, schema)
    data = tmp_path / "tagged.jsonl"

    def no_tuple_view(self):
        raise AssertionError("a tag row was read through a tuple view")

    for view in ("eh2et", "sh2oh", "st2ot"):
        monkeypatch.setattr(pairlink.HandshakingTagging, view, property(no_tuple_view))
    assert pairlink.encode(ann, schema) == tagging
    line = pairlink.dump_tagging_line(tagging, schema)
    assert line == json.dumps(tagging_to_obj(tagging, schema), separators=(",", ":"))
    assert pairlink.parse_tagging_line(line) == (tagging, schema)
    for mode in ("strict", "lenient"):
        assert pairlink.decode(tagging, schema, mode=mode) == expected
        assert pairlink.decode_oracle(tagging, schema, mode=mode) == expected
    assert pairlink.infer_batch(sentences, params, schema) == unpatched
    data.write_text(line + "\n", encoding="utf-8")
    assert main(["decode", "--data", str(data), "--out", str(tmp_path / "out.jsonl")]) == 0
    decoded = json.loads((tmp_path / "out.jsonl").read_text(encoding="utf-8"))
    assert len(decoded["triples"]) == len(expected)


def test_the_readme_quick_tour_runs_as_written(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("MicroScores(")


SOURCES = sorted(Path(pairlink.__file__).parent.glob("*.py"))

# the calls that read a file: open() in a mode that does not write, Path reads, np.load
_FILE_READS = {"read_text", "read_bytes", "load"}


def _reads_a_file(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        mode = call.args[1] if len(call.args) > 1 else None
        return not (isinstance(mode, ast.Constant) and set(mode.value) & set("wax"))
    return isinstance(func, ast.Attribute) and func.attr in _FILE_READS


def test_files_are_read_by_the_readers_alone():
    # one reader per input format: lines, whole-file JSON and checkpoint archives
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and _reads_a_file(inner):
                    readers.add(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    assert readers == {"data.read_lines", "data.read_json", "model._read_archive"}


def test_a_file_location_is_formatted_in_one_place():
    # "<path>:<line>: " is written by data.read_lines alone
    location = re.compile(r"f['\"]\{[^{}]+\}:\{[^{}]+\}: ")
    places = [path.stem for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.JoinedStr) and location.match(ast.unparse(node))]
    assert places == ["data"]


def test_pair_vectors_get_their_tanh_in_one_place():
    # model._pair_cells builds every pair vector; the mixer's recurrence and
    # the per-pair reference handshaking_kernel are the only other tanh calls
    tree = ast.parse((Path(pairlink.__file__).parent / "model.py").read_text(encoding="utf-8"))
    places = {getattr(node, "name", "<module>") for node in tree.body for inner in ast.walk(node)
              if isinstance(inner, ast.Attribute) and inner.attr == "tanh"}
    assert places == {"_pair_cells", "_encode", "handshaking_kernel"}


def test_the_reversed_entity_rule_is_checked_by_decoding_alone():
    # the line parser reads the format only; strict decode and its oracle own the rule
    assert "mode" not in inspect.signature(pairlink.parse_tagging_line).parameters
    raisers = {path.stem for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Raise) and "reversed tag" in ast.unparse(node)}
    assert raisers == {"decoding"}


def test_scoring_does_not_import_the_model():
    # timing inference is the benchmark's job; evaluate holds scoring only
    tree = ast.parse((Path(pairlink.__file__).parent / "evaluate.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"model", "pairlink.model"}


def test_the_commands_are_exactly_the_extractor_operations(capsys):
    parser = pairlink.cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"encode", "decode", "stats", "train", "eval"}
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", "x.jsonl", "--ckpt", "x.npz"])
    assert exc.value.code == 2


def test_inference_has_one_behaviour():
    # a long sentence is always cut with a warning and tags always decode leniently
    for function in (pairlink.infer, pairlink.infer_batch):
        assert "mode" not in inspect.signature(function).parameters


def test_encoding_has_one_entry():
    # encode builds the tagging in both modes; detect_conflicts is the one conflict list
    assert not hasattr(pairlink, "encode_with_conflicts")
    assert not hasattr(pairlink.codec, "encode_with_conflicts")


def test_the_library_imports_only_the_standard_library_and_its_dependencies():
    # a module that happens to be installed but is not declared would pass the tests
    # and fail to import for users
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    listed = re.search(r"^dependencies = \[(.*)\]$", pyproject, flags=re.MULTILINE).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_]+)', listed))
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"numpy", "json", "zipfile"} <= imported
    assert imported - sys.stdlib_module_names - declared == set()
