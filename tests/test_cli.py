"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from pairlink import RelationSchema, cli, load_dataset
from pairlink.cli import EXIT_DATA, EXIT_FAILURE, EXIT_INPUT, EXIT_OK, main
from pairlink.codec import tagging_to_obj
from pairlink.data import ParseError
from pairlink.model import (
    build_vocab,
    init_model,
    load_checkpoint,
    named_tensors,
    save_checkpoint,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def write_jsonl(path, records):
    write(path, "".join(json.dumps(obj) + "\n" for obj in records))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    schema = write(tmp_path / "schema.json", '["works_for", "lives_in"]')
    data = write_jsonl(
        tmp_path / "train.jsonl",
        [
            {
                "text": "Ada Lovelace lives in London",
                "triple_list": [["Ada Lovelace", "lives_in", "London"]],
            },
            {
                "text": "Grace Hopper works for the Navy",
                "triple_list": [["Grace Hopper", "works_for", "Navy"]],
            },
            {
                "text": "Alan Turing lives in Wilmslow",
                "triple_list": [
                    ["Alan Turing", "lives_in", "Wilmslow"],
                    ["Alan Turing", "works_for", "Wilmslow"],
                ],
            },
        ],
    )
    return tmp_path, schema, data


class TestEncodeDecode:
    def test_round_trip_through_files(self, workspace, capsys):
        tmp_path, schema, data = workspace
        tagged = tmp_path / "tagged.jsonl"
        assert main(["encode", "--data", data, "--schema", schema, "--out", str(tagged)]) == EXIT_OK
        assert "encoded 3 sentence(s)" in capsys.readouterr().out

        meta = json.loads((tmp_path / "tagged.jsonl.meta.json").read_text())
        assert meta["command"] == "encode"
        assert meta["report"]["sentences"] == 3
        assert meta["report"]["conflicts"] == []
        assert meta["report"]["phantom_triples"] == 0

        decoded = tmp_path / "triples.jsonl"
        assert main(["decode", "--data", str(tagged), "--out", str(decoded)]) == EXIT_OK
        rows = [json.loads(line) for line in decoded.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["triples"] == [
            {"subject": [0, 1], "relation": "lives_in", "object": [4, 4]}
        ]
        assert {t["relation"] for t in rows[2]["triples"]} == {"works_for", "lives_in"}

    def test_encode_is_byte_replayable(self, workspace, capsys):
        tmp_path, schema, data = workspace
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["encode", "--data", data, "--schema", schema, "--out", str(out1)])
        main(["encode", "--data", data, "--schema", schema, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = json.loads((tmp_path / "a.jsonl.meta.json").read_text())
        meta2 = json.loads((tmp_path / "b.jsonl.meta.json").read_text())
        assert meta1 == meta2

    def test_strict_encode_conflict_exits_4(self, tmp_path, capsys):
        schema = write(tmp_path / "schema.json", '["rel"]')
        data = write_jsonl(
            tmp_path / "conflict.jsonl",
            [
                {
                    "text": "alpha beta",
                    "triple_list": [
                        ["alpha", "rel", "beta"],
                        ["beta", "rel", "alpha"],
                    ],
                }
            ],
        )
        out = tmp_path / "tagged.jsonl"
        code = main(
            ["encode", "--data", data, "--schema", schema, "--out", str(out), "--mode", "strict"]
        )
        assert code == EXIT_DATA
        assert "conflict" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [None, "strict", "lenient"])
    def test_encode_loads_the_corpus_under_its_own_mode(self, tmp_path, capsys, mode):
        schema = write(tmp_path / "schema.json", '["rel"]')
        data = write_jsonl(tmp_path / "data.jsonl", [
            {"text": "alpha beta", "triple_list": [["alpha", "rel", "beta"]]},
            {"text": "gamma delta", "triple_list": [["gamma", "unknown", "delta"]]},
        ])
        out = tmp_path / "tagged.jsonl"
        flags = ["--mode", mode] if mode else []
        code = main(["encode", "--data", data, "--schema", schema, "--out", str(out), *flags])
        err = capsys.readouterr().err
        if mode == "lenient":
            assert code == EXIT_OK
            assert "warning: skipped 1 record(s)" in err and "line 2: unknown relation" in err
            meta = json.loads((tmp_path / "tagged.jsonl.meta.json").read_text())
            assert meta["report"]["skipped_records"] == [
                {"line": 2, "reason": "unknown relation: 'unknown'"}
            ]
        else:  # strict, the default
            assert code == EXIT_DATA
            assert "data.jsonl:2: unknown relation" in err
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()

    def test_lenient_encode_reports_conflicts_in_sidecar(self, tmp_path, capsys):
        schema = write(tmp_path / "schema.json", '["rel"]')
        data = write_jsonl(
            tmp_path / "conflict.jsonl",
            [
                {
                    "text": "alpha beta",
                    "triple_list": [
                        ["alpha", "rel", "beta"],
                        ["beta", "rel", "alpha"],
                    ],
                }
            ],
        )
        out = tmp_path / "tagged.jsonl"
        code = main(
            ["encode", "--data", data, "--schema", schema, "--out", str(out), "--mode", "lenient"]
        )
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "tagged.jsonl.meta.json").read_text())
        assert len(meta["report"]["conflicts"]) == 2
        assert {c["kind"] for c in meta["report"]["conflicts"]} == {"sh2oh", "st2ot"}

    def test_decode_rejects_corrupt_line_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        write(bad, '{"n": 1, "relations": ["r"], "eh2et": [9], "sh2oh": [[0]], "st2ot": [[0]]}\n')
        code = main(["decode", "--data", str(bad), "--out", str(tmp_path / "out.jsonl")])
        assert code == EXIT_INPUT
        assert "bad.jsonl:1" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("eh2et", None), ("eh2et", [True]), ("n", True)])
    def test_decode_rejects_malformed_field_with_one_line_exit_3(self, tmp_path, capsys,
                                                                 field, value):
        obj = {"n": 1, "relations": ["r"], "eh2et": [0], "sh2oh": [[0]], "st2ot": [[0]]}
        obj[field] = value
        bad = write_jsonl(tmp_path / "bad.jsonl", [obj])
        code = main(["decode", "--data", bad, "--out", str(tmp_path / "out.jsonl")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "bad.jsonl:1" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_decode_of_a_reversed_entity_tag_follows_the_mode(self, tmp_path, capsys,
                                                              figure_fixture, mode):
        # tag 2 in eh2et is well formed but cannot come from encoded data
        schema, _, tagging, _ = figure_fixture
        obj = tagging_to_obj(tagging, schema)
        obj["eh2et"][0] = 2
        bad = write_jsonl(tmp_path / "bad.jsonl", [obj])
        out = tmp_path / "out.jsonl"
        code = main(["decode", "--data", bad, "--out", str(out), "--mode", mode])
        err = capsys.readouterr().err
        if mode == "strict":
            assert code == EXIT_INPUT
            assert err.startswith(f"error: {bad}:1: ") and "reversed tag" in err
            assert err.count("\n") == 1 and not out.exists()
        else:  # the tag is ignored: the figure's five triples
            assert code == EXIT_OK and err == ""
            assert out.read_text(encoding="utf-8") == (
                '{"n":5,"triples":[{"subject":[0,1],"relation":"mayor","object":[3,4]},'
                '{"subject":[3,4],"relation":"born_in","object":[0,1]},'
                '{"subject":[3,4],"relation":"born_in","object":[0,2]},'
                '{"subject":[3,4],"relation":"live_in","object":[0,1]},'
                '{"subject":[3,4],"relation":"live_in","object":[0,2]}]}\n')

    def test_strict_decode_of_a_line_past_the_budget_exits_3(self, tmp_path, capsys,
                                                              figure_fixture):
        # every cell tag 1 at n=35 with one relation: 205,905 candidate pairs
        schema, _, figure, _ = figure_fixture
        dense = {"n": 35, "relations": ["r"], "eh2et": [1] * 630, "sh2oh": [[1] * 630],
                 "st2ot": [[1] * 630]}
        data = write_jsonl(tmp_path / "dense.jsonl", [tagging_to_obj(figure, schema), dense])
        out = tmp_path / "out.jsonl"
        code = main(["decode", "--data", data, "--out", str(out), "--mode", "strict"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {data}:2: tagging needs more than 100,000 candidate pairs\n")
        assert not out.exists()

    def test_lenient_decode_of_a_line_past_the_budget_writes_the_triples_kept(
            self, tmp_path, capsys, figure_fixture):
        schema, _, figure, _ = figure_fixture
        dense = {"n": 35, "relations": ["r"], "eh2et": [1] * 630, "sh2oh": [[1] * 630],
                 "st2ot": [[1] * 630]}
        data = write_jsonl(tmp_path / "dense.jsonl", [tagging_to_obj(figure, schema), dense])
        out = tmp_path / "out.jsonl"
        with pytest.warns(UserWarning, match="^decode stopped at 100,000 candidate pairs; "
                                             r"kept [\d,]+ triples$") as record:
            code = main(["decode", "--data", data, "--out", str(out), "--mode", "lenient"])
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert len(record) == 1 and record[0].filename == __file__  # points at main's caller
        figure_line, dense_line = out.read_text(encoding="utf-8").splitlines()
        assert len(json.loads(figure_line)["triples"]) == 5
        kept = json.loads(dense_line)["triples"]
        assert kept and f"kept {len(kept):,} triples" in str(record[0].message)

    @pytest.mark.parametrize("command", ["encode", "stats"])
    @pytest.mark.parametrize("tokens", ["Ada", 5, ["Ada", 7]])
    def test_tokens_that_are_not_a_list_of_strings_exit_3(self, tmp_path, capsys,
                                                          command, tokens):
        schema = write(tmp_path / "schema.json", '["rel"]')
        data = write_jsonl(tmp_path / "data.jsonl",
                           [{"text": "Ada 7", "tokens": tokens, "triple_list": []}])
        out = tmp_path / "out.jsonl"
        code = main([command, "--data", data, "--schema", schema, "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data}:1: 'tokens' must be a list of strings\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "stats"])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("offsets", [[False, 3], [True, 3], [-3, 3], [0, -3]])
    def test_bool_offsets_exit_3(self, tmp_path, capsys, command, mode, offsets):
        # false was read as character 0 and loaded; true as 1, which splits a
        # token; -3 exited 4 in strict mode and was skipped in lenient mode
        schema = write(tmp_path / "schema.json", '["r"]')
        data = write_jsonl(tmp_path / "data.jsonl", [
            {"text": "Ada works for ACME", "triple_list": [[offsets, "r", [14, 18]]]}])
        out = tmp_path / "out.jsonl"
        code = main([command, "--data", data, "--schema", schema, "--out", str(out),
                     "--mode", mode])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (f"error: {data}:1: subject/object must be a string "
                                           f"or [start, end], got [{offsets[0]}, {offsets[1]}]\n")
        assert not out.exists()


class TestRelationNames:
    """A relation name is a non-empty, unique string in every file that holds one."""

    @staticmethod
    def argv(command, tmp_path, data, schema):
        out = tmp_path / ("out.npz" if command == "train" else "out.json")
        where = ["--ckpt", str(out)] if command == "train" else ["--out", str(out)]
        return [command, "--data", data, *(["--schema", schema] if schema else []), *where], out

    @pytest.mark.parametrize("command", ["encode", "stats", "train"])
    @pytest.mark.parametrize("content", ["[1, 2]", "[null, true]", '{"relations": [1.5]}',
                                         '["r", "r"]'])
    def test_a_schema_file_with_bad_names_exits_3(self, workspace, capsys, command, content):
        # [1, 2] and [null, true] were read as the relations "1", "2", "None"
        # and "True"; a duplicate name exited 4
        tmp_path, _, data = workspace
        schema = write(tmp_path / "bad_schema.json", content)
        argv, out = self.argv(command, tmp_path, data, schema)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {schema}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["encode", "stats", "train"])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("relation", [1, None])
    def test_a_record_whose_relation_is_not_a_string_exits_3(self, workspace, capsys,
                                                             command, mode, relation):
        tmp_path, schema, _ = workspace
        data = write_jsonl(tmp_path / "data.jsonl", [
            {"text": "Ada works for ACME", "triple_list": [["Ada", "works_for", "ACME"]]},
            {"text": "Ada works for ACME", "triple_list": [["Ada", relation, "ACME"]]}])
        argv, out = self.argv(command, tmp_path, data, schema)
        code = main([*argv, "--mode", mode])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {data}:2: relation names must be non-empty strings, got {relation!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("relations", [[1], [None], [""]])
    def test_decode_of_a_line_with_bad_names_exits_3(self, tmp_path, capsys, relations):
        bad = write_jsonl(tmp_path / "bad.jsonl", [
            {"n": 1, "relations": relations, "eh2et": [0], "sh2oh": [[0]], "st2ot": [[0]]}])
        out = tmp_path / "out.jsonl"
        code = main(["decode", "--data", bad, "--out", str(out)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (f"error: {bad}:1: relation names must be non-empty "
                                           f"strings, got {relations[0]!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("relation", [1, None, ""])
    def test_stats_deriving_its_schema_exits_3_on_such_a_record(self, workspace, capsys,
                                                                relation):
        # sorting "works_for" with 1 raised a raw TypeError; None became "None";
        # "" exited 4, naming neither file nor line
        tmp_path, _, data = workspace
        bad = write_jsonl(tmp_path / "bad.jsonl", [
            {"text": "Ada works for ACME", "triple_list": [["Ada", relation, "ACME"]]}])
        argv, out = self.argv("stats", tmp_path, data, None)
        code = main([*argv, "--test", bad])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {bad}:1: relation names must be non-empty strings, got {relation!r}\n")
        assert not out.exists()


SENTENCE = "Ada works for ACME"

# one malformed record of each kind, with the error it gives after its location
MALFORMED = {
    "text_not_a_string": ({"text": 5, "triple_list": []}, "'text' must be a string"),
    "tokens_not_strings": ({"text": SENTENCE, "tokens": ["Ada", 7], "triple_list": []},
                           "'tokens' must be a list of strings"),
    "entry_not_a_triple": ({"text": SENTENCE, "triple_list": [["Ada", "works_for"]]},
                           "each triple_list entry must be [subject, relation, object]"),
    "bad_subject": ({"text": SENTENCE, "triple_list": [[[-3, 3], "works_for", "ACME"]]},
                    "subject/object must be a string or [start, end], got [-3, 3]"),
    "bad_object": ({"text": SENTENCE, "triple_list": [["Ada", "works_for", [14]]]},
                   "subject/object must be a string or [start, end], got [14]"),
    **{f"relation_{value!r}": ({"text": SENTENCE, "triple_list": [["Ada", value, "ACME"]]},
                               f"relation names must be non-empty strings, got {value!r}")
       for value in (1, None, "")},
}


class TestMalformedRecords:
    """A malformed record is an input error named by file and line, in every reader and mode."""

    @pytest.mark.parametrize("route", ["load_dataset", "encode", "stats", "stats_derived",
                                       "train", "eval"])
    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    @pytest.mark.parametrize("kind", list(MALFORMED))
    def test_exits_3_naming_file_and_line(self, workspace, capsys, route, mode, kind):
        tmp_path, schema, good = workspace
        record, message = MALFORMED[kind]
        bad = write_jsonl(tmp_path / "bad.jsonl", [
            {"text": SENTENCE, "triple_list": [["Ada", "works_for", "ACME"]]}, record])
        if route == "load_dataset":
            with pytest.raises(ParseError) as info:
                load_dataset(bad, RelationSchema(("works_for",)), mode=mode)
            assert str(info.value) == f"{bad}:2: {message}"
            return
        if route == "eval":
            out = tmp_path / "out.json"
            argv = ["eval", "--data", bad, "--ckpt", untrained_checkpoint(tmp_path),
                    "--out", str(out)]
        elif route == "stats_derived":  # no --schema: it comes from the records' relations
            argv, out = TestRelationNames.argv("stats", tmp_path, good, None)
            argv += ["--test", bad]
        else:
            argv, out = TestRelationNames.argv(route, tmp_path, bad, schema)
        code = main([*argv, "--mode", mode])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"
        assert not out.exists()


class TestStats:
    def test_prints_and_writes_report(self, workspace, capsys):
        tmp_path, schema, data = workspace
        out = tmp_path / "stats.json"
        code = main(
            ["stats", "--data", data, "--test", data, "--schema", schema, "--out", str(out)]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "split sizes:" in text and "overlap patterns:" in text
        payload = json.loads(out.read_text())
        assert payload["command"] == "stats"
        assert payload["stats"]["split_sizes"] == {"train": 3, "test": 3}
        assert payload["stats"]["n_relations"] == 2
        assert payload["stats"]["bucket_counts"]["1"] == 2

    def test_schema_is_derived_when_omitted(self, workspace, capsys):
        _, _, data = workspace
        assert main(["stats", "--data", data]) == EXIT_OK
        assert "relations: 2" in capsys.readouterr().out

    def test_no_splits_is_a_data_error(self, capsys):
        assert main(["stats"]) == EXIT_DATA


class TestTrainEvalBench:
    @pytest.fixture
    def trained(self, workspace, capsys):
        tmp_path, schema, data = workspace
        config = write(
            tmp_path / "config.json",
            json.dumps(
                {"d_embed": 8, "d_state": 4, "d_pair": 8, "epochs": 4, "lr": 0.01, "seed": 3}
            ),
        )
        ckpt = tmp_path / "model.npz"
        code = main(
            ["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt), "--config", config]
        )
        assert code == EXIT_OK
        assert "trained 4 epoch(s)" in capsys.readouterr().out
        return tmp_path, schema, data, str(ckpt), config

    def test_train_without_config_embeds_every_default(self, workspace, capsys):
        tmp_path, schema, data = workspace
        ckpt = tmp_path / "defaults.npz"
        assert main(["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt)]) == EXIT_OK
        params, _, meta = load_checkpoint(ckpt)
        assert meta["extra"]["config"] == {
            "lr": 1e-3, "epochs": 100, "batch_size": 6, "seed": 0, "optimizer": "adam",
            "early_stop_f1": None,
            "d_embed": 32, "d_state": 16, "d_pair": 32,
            "standard": "whole-span", "mode": "lenient",
        }
        assert len(meta["extra"]["history"]) == 100
        assert (params.encoder.embed.shape[1], params.encoder.mixer.state_dim,
                params.kernel.bias.shape[0]) == (32, 16, 32)
        assert "max_len" not in meta

    def test_train_writes_a_loadable_checkpoint_with_provenance(self, trained):
        _, _, _, ckpt, _ = trained
        params, schema, meta = load_checkpoint(ckpt)
        assert len(schema) == 2
        assert meta["extra"]["command"] == "train"
        assert meta["extra"]["config"]["epochs"] == 4
        assert meta["extra"]["config"]["lr"] == 0.01
        assert len(meta["extra"]["history"]) == 4
        assert meta["extra"]["diverged"] is False
        assert params.encoder.embed.shape[1] == 8

    def test_flags_override_the_config_file(self, trained, capsys):
        tmp_path, schema, data, _, config = trained
        ckpt2 = tmp_path / "override.npz"
        code = main(
            [
                "train", "--data", data, "--schema", schema,
                "--ckpt", str(ckpt2), "--config", config, "--epochs", "2",
            ]
        )
        assert code == EXIT_OK
        _, _, meta = load_checkpoint(ckpt2)
        assert meta["extra"]["config"]["epochs"] == 2  # flag beats config
        assert meta["extra"]["config"]["d_embed"] == 8  # config beats default

    def test_train_replay_is_byte_identical(self, trained, capsys):
        tmp_path, schema, data, ckpt, config = trained
        ckpt2 = tmp_path / "replay.npz"
        code = main(
            ["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt2), "--config", config]
        )
        assert code == EXIT_OK
        assert (tmp_path / "model.npz").read_bytes() == ckpt2.read_bytes()

    def test_embedded_config_written_back_retrains_the_same_checkpoint(self, trained, capsys):
        tmp_path, schema, data, ckpt, _ = trained
        _, _, meta = load_checkpoint(ckpt)
        config = write(tmp_path / "embedded.json", json.dumps(meta["extra"]["config"]))
        ckpt2 = tmp_path / "from_embedded.npz"
        code = main(
            ["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt2), "--config", config]
        )
        assert code == EXIT_OK
        assert (tmp_path / "model.npz").read_bytes() == ckpt2.read_bytes()

    def test_eval_scores_the_checkpoint(self, trained, capsys):
        tmp_path, _, data, ckpt, _ = trained
        out = tmp_path / "eval.json"
        code = main(
            [
                "eval", "--data", data, "--ckpt", ckpt,
                "--match", "exact", "--by-subset", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "match mode: exact" in text
        payload = json.loads(out.read_text())
        assert payload["command"] == "eval"
        assert "overall" in payload["report"]
        assert payload["report"]["mode"] == "exact"

    def test_eval_plain_micro(self, trained, capsys):
        tmp_path, _, data, ckpt, _ = trained
        assert main(["eval", "--data", data, "--ckpt", ckpt]) == EXIT_OK
        assert "match mode: partial" in capsys.readouterr().out

    @pytest.mark.parametrize("folder", ["missing_dir", "a_file"])
    def test_an_unwritable_checkpoint_folder_exits_3_before_training(self, workspace, capsys,
                                                                      monkeypatch, folder):
        # this ran every epoch, then failed to write the checkpoint
        tmp_path, schema, data = workspace
        write(tmp_path / "a_file", "")

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli, "train", no_training)
        ckpt = str(tmp_path / folder / "x")
        code = main(["train", "--data", data, "--schema", schema, "--ckpt", ckpt,
                     "--epochs", "200"])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1
        assert not list(tmp_path.glob("**/*.npz"))

    @pytest.mark.parametrize("records", [[], [
        {"text": "Ada works for ACME", "triple_list": [["Ada", "unknown", "ACME"]]}]],
        ids=["empty-file", "every-record-skipped"])
    @pytest.mark.parametrize("flags", [[], ["--by-subset"]], ids=["micro", "by-subset"])
    def test_eval_with_no_sentence_to_score_exits_4(self, workspace, capsys, records, flags):
        # it printed precision, recall and F1 1.0 with a raw UserWarning and exited 0
        tmp_path, _, _ = workspace
        data = write_jsonl(tmp_path / "test.jsonl", records)
        out = tmp_path / "eval.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--data", data, "--ckpt", untrained_checkpoint(tmp_path),
                         "--out", str(out), *flags])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {data}: no sentence to score"]
        assert not out.exists()

    def test_missing_checkpoint_exits_3(self, workspace, capsys):
        tmp_path, _, data = workspace
        code = main(["eval", "--data", data, "--ckpt", str(tmp_path / "missing.npz")])
        assert code == EXIT_INPUT


def untrained_checkpoint(tmp_path):
    """A small valid checkpoint for the workspace schema."""
    schema = RelationSchema(("works_for", "lives_in"))
    params = init_model(schema, build_vocab([("Ada", "Navy")]), d_embed=4, d_state=3, d_pair=4)
    return save_checkpoint(tmp_path / "good.npz", params, schema)


def corrupt_checkpoint(tmp_path, kind):
    """A checkpoint path broken in one way: unreadable, incomplete, misshapen or mislabelled.

    ``extra_axis:NAME`` and ``float32:NAME`` break the one tensor NAME.
    """
    path = tmp_path / "corrupt.npz"
    if kind == "directory":
        path.mkdir()
        return str(path)
    if kind == "random_bytes":
        path.write_bytes(np.random.default_rng(0).bytes(512))
        return str(path)
    with np.load(untrained_checkpoint(tmp_path)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    tensor = kind.partition(":")[2].replace(".", "__")
    if kind == "metadata_only":
        arrays = {"__meta__": arrays["__meta__"]}
    elif kind == "mixer_tensors_missing":
        arrays = {key: arr for key, arr in arrays.items() if "mixer" not in key}
    elif kind == "vocab_longer_than_embed":
        meta["vocab"].append("extra")
    elif kind == "vocab_duplicate_token":
        meta["vocab"][2] = meta["vocab"][1]
    elif kind == "vocab_unknown_not_first":
        meta["vocab"][:2] = meta["vocab"][1::-1]
    elif kind == "vocab_token_not_a_string":
        meta["vocab"][1] = 5
    elif kind == "relation_names_not_strings":
        meta["relations"] = [1, 2]
    elif kind == "relation_name_empty":
        meta["relations"][1] = ""
    elif kind == "relation_names_duplicate":
        meta["relations"][1] = meta["relations"][0]
    elif kind == "unexpected_tensor":
        arrays["encoder__extra"] = np.zeros(3)
    elif kind.startswith("extra_axis:"):
        arrays[tensor] = arrays[tensor][..., None]
    elif kind.startswith("float32:"):
        arrays[tensor] = arrays[tensor].astype(np.float32)
    else:
        raise ValueError(kind)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)
    return str(path)


# every tensor of a checkpoint
TENSOR_NAMES = list(named_tensors(init_model(RelationSchema(("r",)), build_vocab([]))))


class TestCorruptCheckpoint:
    @pytest.mark.parametrize(
        "kind",
        ["directory", "random_bytes", "metadata_only", "mixer_tensors_missing",
         "vocab_longer_than_embed", "vocab_duplicate_token", "vocab_unknown_not_first",
         "vocab_token_not_a_string", "relation_names_not_strings", "relation_name_empty",
         "relation_names_duplicate", "unexpected_tensor"]
        + [f"{damage}:{name}" for name in TENSOR_NAMES for damage in ("extra_axis", "float32")],
    )
    def test_eval_exits_3_with_one_line_error(self, workspace, capsys, kind):
        tmp_path, _, data = workspace
        ckpt = corrupt_checkpoint(tmp_path, kind)
        code = main(["eval", "--data", data, "--ckpt", ckpt])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {ckpt}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cap", ["0", "-1", "true"])
    def test_eval_ignores_the_length_cap_of_an_older_checkpoint(self, workspace, capsys, cap):
        # older archives carried the model's length cap, and these values
        # were refused as corrupt; the key is no longer read, so the archive
        # scores as it does without it
        tmp_path, _, data = workspace
        good = untrained_checkpoint(tmp_path)
        with np.load(good) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        meta["max_len"] = json.loads(cap)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        older = tmp_path / "older.npz"
        np.savez(older, **arrays)
        reports = []
        for ckpt in (good, str(older)):
            out = tmp_path / "eval.json"
            assert main(["eval", "--data", data, "--ckpt", ckpt, "--out", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text(encoding="utf-8"))["report"])
        assert reports[0] == reports[1] and reports[0]["n_gold"] > 0
        assert capsys.readouterr().err == ""

    def test_a_checkpoint_without_a_mixer_exits_3(self, workspace, capsys):
        # an archive as an older version wrote it for an embedding-only encoder:
        # "use_mixer": false in its metadata, no mixer tensors, and a kernel over
        # the embedding width
        tmp_path, _, data = workspace
        rng = np.random.default_rng(0)
        vocab = ["<unk>", "Ada", "Navy"]
        meta = {"format": "pairlink-checkpoint", "version": 1, "vocab": vocab,
                "relations": ["works_for", "lives_in"], "use_mixer": False, "max_len": 100,
                "extra": {}}
        ckpt = tmp_path / "embedding_only.npz"
        np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
                 encoder__embed=rng.normal(size=(3, 4)), kernel__weight=rng.normal(size=(4, 8)),
                 kernel__bias=np.zeros(4), taggers__weight=rng.normal(size=(5, 3, 4)),
                 taggers__bias=np.zeros((5, 3)))
        code = main(["eval", "--data", data, "--ckpt", str(ckpt)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {ckpt}: checkpoint has no tensor encoder.mixer.w_fwd\n")


class TestSelftestAndUsage:
    def test_usage_errors_exit_2(self, workspace, capsys):
        tmp_path, schema, data = workspace
        out = tmp_path / "out.jsonl"
        for argv in (
            ["encode"],  # missing required flags
            ["no-such-command"],
            ["selftest"],
            ["encode", "--data", data, "--schema", schema, "--out", str(out), "--seed", "1"],
        ):
            with pytest.raises(SystemExit) as exc_info:
                main(argv)
            assert exc_info.value.code == 2
        assert not out.exists()

    def test_each_command_embeds_exactly_its_options(self, workspace, capsys):
        # only train takes a seed; every other artifact embeds what its command reads
        tmp_path, schema, data = workspace
        ckpt = untrained_checkpoint(tmp_path)
        tagged, out = str(tmp_path / "tagged.jsonl"), str(tmp_path / "out.json")
        corpus = {"standard", "mode"}
        runs = [
            ("encode", ["--data", data, "--schema", schema, "--out", tagged],
             tagged + ".meta.json", corpus),
            ("decode", ["--data", tagged, "--out", out], out + ".meta.json", {"mode"}),
            ("stats", ["--data", data, "--out", out], out, corpus),
            ("train", ["--data", data, "--schema", schema, "--ckpt", out, "--epochs", "1"],
             out + ".npz", corpus | {"lr", "epochs", "batch_size", "seed", "optimizer",
                                    "early_stop_f1", "d_embed", "d_state", "d_pair"}),
            ("eval", ["--data", data, "--ckpt", ckpt, "--out", out], out,
             corpus | {"match"}),
        ]
        for command, argv, artifact, keys in runs:
            assert main([command, *argv]) == EXIT_OK
            if command == "train":
                embedded = load_checkpoint(artifact)[2]["extra"]
            else:
                embedded = json.loads(Path(artifact).read_text())
            assert embedded["command"] == command
            assert set(embedded["config"]) == keys, command

    @pytest.mark.parametrize("flags, options", [
        (["--seed", "-1"], {}),
        ([], {"seed": -1}),
        ([], {"d_embed": 0}),
        ([], {"d_state": 0}),
        ([], {"d_pair": -2}),
        ([], {"d_pair": -1}),
    ], ids=["flag-seed", "seed", "d_embed", "d_state", "d_pair-2", "d_pair-1"])
    def test_negative_seed_or_size_below_one_exits_4(self, workspace, capsys, flags, options):
        tmp_path, schema, data = workspace
        config = write(tmp_path / "sizes.json", json.dumps({"epochs": 1, **options}))
        ckpt = tmp_path / "x.npz"
        code = main(["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt),
                     "--config", config, *flags])
        err = capsys.readouterr().err
        name = next(iter(options), "seed")
        assert code == EXIT_DATA
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
        assert not ckpt.exists()

    @pytest.mark.parametrize("flags, options, name", [
        (["--lr", "inf", "--epochs", "2"], {}, "learning_rate"),
        ([], {"lr": float("inf"), "epochs": 1}, "learning_rate"),
        ([], {"early_stop_f1": float("nan"), "epochs": 1}, "early_stop_f1"),
    ], ids=["flag-lr-inf", "lr-inf", "early_stop_f1-nan"])
    def test_a_non_finite_number_exits_4(self, workspace, capsys, flags, options, name):
        # an infinite rate once trained to an all-NaN checkpoint, and a NaN
        # threshold turned early stopping off; both stop before any training
        tmp_path, schema, data = workspace
        config = write(tmp_path / "finite.json", json.dumps(options))  # as Infinity and NaN
        ckpt = tmp_path / "x.npz"
        code = main(["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt),
                     "--config", config, *flags])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
        assert not ckpt.exists()

    def test_an_optimizer_other_than_adam_exits_4(self, workspace, capsys):
        tmp_path, schema, data = workspace
        config = write(tmp_path / "sgd.json", json.dumps({"optimizer": "sgd", "epochs": 1}))
        ckpt = tmp_path / "x.npz"
        code = main(["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt),
                     "--config", config])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: optimizer must be one of ('adam',), got 'sgd'\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("records", [[], [
        {"text": "Ada works for ACME", "triple_list": [["Ada", "unknown", "ACME"]]}]],
        ids=["empty-file", "every-record-skipped"])
    def test_a_validation_file_with_no_usable_record_exits_4(self, workspace, capsys,
                                                             records):
        # it scored F1 1.0 every epoch, kept epoch 0's parameters and exited 0
        tmp_path, schema, data = workspace
        valid = write_jsonl(tmp_path / "valid.jsonl", records)
        ckpt = tmp_path / "x.npz"
        code = main(["train", "--data", data, "--valid", valid, "--schema", schema,
                     "--ckpt", str(ckpt), "--epochs", "30"])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.endswith("error: empty validation set\n")
        assert not ckpt.exists()

    def test_bad_config_file_exits_3(self, workspace, capsys):
        tmp_path, schema, data = workspace
        config = write(tmp_path / "bad.json", "{broken")
        code = main(
            [
                "train", "--data", data, "--schema", schema,
                "--ckpt", str(tmp_path / "x.npz"), "--config", config,
            ]
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("key, value", [
        ("lr", "fast"), ("batch_size", "six"), ("early_stop_f1", "x"), ("d_embed", True),
    ])
    def test_config_value_of_the_wrong_type_exits_3(self, workspace, capsys, key, value):
        # rejected before any training, in one line naming the file and key;
        # a JSON true is not an integer, though Python's True is an int
        tmp_path, schema, data = workspace
        config = write(tmp_path / "typed.json", json.dumps({key: value}))
        ckpt = tmp_path / "x.npz"
        code = main(
            ["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt), "--config", config]
        )
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {config}: config key {key!r} must be ")
        assert err.count("\n") == 1
        assert not ckpt.exists()

    def test_config_values_of_the_right_type_are_taken(self, workspace, capsys):
        # an integer is a number, null turns early stopping off
        tmp_path, schema, data = workspace
        config = write(tmp_path / "typed.json", json.dumps(
            {"lr": 1, "epochs": 1, "early_stop_f1": None, "d_embed": 4}))
        ckpt = tmp_path / "typed.npz"
        code = main(
            ["train", "--data", data, "--schema", schema, "--ckpt", str(ckpt), "--config", config]
        )
        assert code == EXIT_OK
        params, _, meta = load_checkpoint(ckpt)
        assert params.encoder.embed.shape[1] == 4
        assert meta["extra"]["config"]["early_stop_f1"] is None

    @pytest.mark.parametrize("command", [
        "encode", "decode", "stats", "train", "eval",
    ])
    def test_config_key_the_command_does_not_read_exits_3(self, workspace, capsys, command):
        # "epoch" is a misspelt "epochs": silently ignored, it left 100 epochs in force
        tmp_path, schema, data = workspace
        config = write(tmp_path / "misspelt.json", json.dumps({"epoch": 1}))
        out = tmp_path / "out"
        ckpt = untrained_checkpoint(tmp_path)
        argv = {
            "encode": ["--data", data, "--schema", schema, "--out", str(out)],
            "decode": ["--data", data, "--out", str(out)],
            "stats": ["--data", data, "--out", str(out)],
            "train": ["--data", data, "--schema", schema, "--ckpt", str(out)],
            "eval": ["--data", data, "--ckpt", ckpt, "--out", str(out)],
        }[command]
        code = main([command, *argv, "--config", config])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err == f"error: {config}: config key 'epoch' is not an option of {command}\n"
        assert not out.exists() and not (tmp_path / "out.npz").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "max_len", 100), ("eval", "batch_size", 24),
    ])
    def test_a_removed_option_in_a_config_exits_3(self, workspace, capsys, command, key, value):
        # a length cap and eval's chunk size are no longer options: a config
        # holding one is refused as an unread key, not run without it
        tmp_path, schema, data = workspace
        config = write(tmp_path / "old.json", json.dumps({key: value}))
        out = tmp_path / "out"
        argv = {"train": ["--data", data, "--schema", schema, "--ckpt", str(out)],
                "eval": ["--data", data, "--ckpt", untrained_checkpoint(tmp_path),
                         "--out", str(out)]}[command]
        code = main([command, *argv, "--config", config])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {config}: config key {key!r} is not an option of {command}\n")
        assert not out.exists() and not (tmp_path / "out.npz").exists()

    @pytest.mark.parametrize("command, options", [
        ("train", {"epochs": 1, "mode": "bogus"}),
        ("eval", {"match": "fuzzy"}),
    ])
    def test_config_value_outside_the_flag_choices_exits_3(self, workspace, capsys,
                                                           command, options):
        tmp_path, schema, data = workspace
        config = write(tmp_path / "choices.json", json.dumps(options))
        out = tmp_path / "out.npz"
        if command == "train":
            argv = ["--data", data, "--schema", schema, "--ckpt", str(out)]
        else:
            argv = ["--data", data, "--ckpt", untrained_checkpoint(tmp_path), "--out", str(out)]
        code = main([command, *argv, "--config", config])
        err = capsys.readouterr().err
        key, value = list(options.items())[-1]
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {config}: config key {key!r} must be one of ")
        assert err.endswith(f", got {json.dumps(value)}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        schema = write(tmp_path / "schema.json", '["r"]')
        code = main(
            [
                "encode", "--data", str(tmp_path / "nope.jsonl"),
                "--schema", schema, "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert code == EXIT_INPUT


# a line made unreadable in one way: a byte that is not UTF-8, or JSON nested
# too deep for the parser
DAMAGE = {
    "not_utf8": lambda line: line[:2] + b"\xff" + line[2:],
    "nested_too_deep": lambda line: b"[" * 100_000 + line,
}


class TestFileErrors:
    """A file a command cannot open, read, decode or write exits 3 in one line naming it."""

    @pytest.mark.parametrize("flag", ["--data", "--schema", "--config", "--ckpt", "--out"])
    def test_a_directory_for_a_file_exits_3(self, workspace, capsys, flag):
        # each but --ckpt was a raw IsADirectoryError traceback
        tmp_path, schema, data = workspace
        directory = tmp_path / "a_directory"
        directory.mkdir()
        if flag == "--ckpt":
            argv = ["eval", "--data", data, "--ckpt", str(directory)]
        else:
            paths = {"--data": data, "--schema": schema, "--out": str(tmp_path / "out.jsonl"),
                     flag: str(directory)}
            argv = ["encode", *(arg for pair in paths.items() for arg in pair)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and str(directory) in err and err.count("\n") == 1

    @pytest.mark.parametrize("damage", list(DAMAGE))
    @pytest.mark.parametrize("kind", ["dataset", "schema", "config", "tagging"])
    def test_a_damaged_last_line_exits_3_naming_file_and_line(self, workspace, capsys,
                                                              kind, damage):
        # each was a raw UnicodeDecodeError or RecursionError traceback
        tmp_path, schema, data = workspace
        tagged, out = str(tmp_path / "tagged.jsonl"), str(tmp_path / "out.jsonl")
        assert main(["encode", "--data", data, "--schema", schema, "--out", tagged]) == EXIT_OK
        config = write(tmp_path / "config.json", '{"mode": "strict"}')
        target = Path({"dataset": data, "schema": schema, "config": config, "tagging": tagged}[kind])
        lines = target.read_bytes().splitlines(keepends=True)
        lines[-1] = DAMAGE[damage](lines[-1])
        target.write_bytes(b"".join(lines))
        capsys.readouterr()
        if kind == "tagging":
            argv = ["decode", "--data", tagged, "--out", out]
        else:
            argv = ["encode", "--data", data, "--schema", schema, "--config", config, "--out", out]
        code = main(argv)
        err = capsys.readouterr().err
        where = f"{target}:3: " if kind in ("dataset", "tagging") else f"{target}: "
        assert code == EXIT_INPUT
        assert err.startswith(f"error: {where}") and err.count("\n") == 1
        assert not Path(out).exists()
