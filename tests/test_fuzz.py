"""Byte-level fuzzing of every input file reader, run through ``main()``.

Random inputs after Miller, Fredriksen & So 1990, "An Empirical Study of the
Reliability of UNIX Utilities" (CACM 33(12)).  Each trial damages one valid
input file in one of three seeded ways and runs the command that reads it:
- ``flip``: one to four bytes XORed with a random non-zero byte;
- ``splice``: 0-8 bytes at a random offset replaced by 0-8 random bytes;
- ``truncate``: the file cut at a random length.

Every outcome must be exit 0, 3 or 4 with exactly one ``error:`` line when it
is not 0, and never a raw exception.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

from pairlink import RelationSchema, dump_tagging_line, encode, load_dataset
from pairlink.cli import main
from pairlink.model import build_vocab, init_model, load_checkpoint, named_tensors, save_checkpoint

KINDS = ("flip", "splice", "truncate")
TRIALS = 100  # per kind and file

RECORDS = [
    {"text": "Ada Lovelace lives in London",
     "triple_list": [["Ada Lovelace", "lives_in", "London"]]},
    {"text": "Grace Hopper works for the Navy",
     "triple_list": [["Grace Hopper", "works_for", [27, 31]]]},
    {"text": "Alan Turing lives in Wilmslow",
     "triple_list": [["Alan Turing", "lives_in", "Wilmslow"],
                     ["Alan Turing", "works_for", "Wilmslow"]]},
]


def mutate(raw: bytes, kind: str, rng: random.Random) -> bytes:
    if kind == "flip":
        out = bytearray(raw)
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= rng.randrange(1, 256)
        return bytes(out)
    if kind == "splice":
        at = rng.randrange(len(raw) + 1)
        return raw[:at] + rng.randbytes(rng.randint(0, 8)) + raw[at + rng.randint(0, 8):]
    return raw[:rng.randrange(len(raw))]


def fuzz(path, argv, capsys, seed: int, on_success=None) -> Counter:
    """Outcomes of ``main(argv)`` over seeded mutations of the file at ``path``.

    A clean outcome counts as ``exit <code>``; anything else is named so the
    assertion shows it.
    """
    original = path.read_bytes()
    rng = random.Random(seed)
    outcomes: Counter = Counter()
    for kind in KINDS:
        for _ in range(TRIALS):
            path.write_bytes(mutate(original, kind, rng))
            try:
                code = main(argv)
            except Exception as exc:  # a raw traceback at the command line
                capsys.readouterr()
                outcomes[f"{kind}: raw {type(exc).__name__}"] += 1
                continue
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if code not in (0, 3, 4) or len(errors) != (code != 0) or "Traceback" in err:
                outcomes[f"{kind}: exit {code} with {err!r}"] += 1
            else:
                outcomes[f"exit {code}"] += 1
                if code == 0 and on_success:
                    on_success()
    return outcomes


def assert_clean(outcomes: Counter) -> None:
    bad = {key: n for key, n in outcomes.items() if not key.startswith("exit ")}
    assert bad == {}, f"{sum(bad.values())} unclean outcome(s) of {sum(outcomes.values())}"


@pytest.fixture
def files(tmp_path):
    schema = RelationSchema(("works_for", "lives_in"))
    data = tmp_path / "data.jsonl"
    data.write_text("".join(json.dumps(r) + "\n" for r in RECORDS), encoding="utf-8")
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({"relations": list(schema.relations)}), encoding="utf-8")
    return tmp_path, schema, data, schema_path


@pytest.mark.parametrize("command, seed", [("encode", 1), ("stats", 6)])
def test_a_damaged_dataset_never_ends_in_a_traceback(files, capsys, command, seed):
    tmp_path, _, data, schema = files
    argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
    if command == "encode":
        argv += ["--schema", str(schema), "--mode", "lenient"]
    assert_clean(fuzz(data, argv, capsys, seed=seed))


def test_a_damaged_schema_never_ends_in_a_traceback(files, capsys):
    tmp_path, _, data, schema = files
    argv = ["encode", "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "o")]
    assert_clean(fuzz(schema, argv, capsys, seed=2))


def test_a_damaged_config_never_ends_in_a_traceback(files, capsys):
    tmp_path, _, data, schema = files
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"standard": "last-word", "mode": "lenient"}), encoding="utf-8")
    argv = ["encode", "--data", str(data), "--schema", str(schema), "--out", str(tmp_path / "o"),
            "--config", str(config)]
    assert_clean(fuzz(config, argv, capsys, seed=3))


def test_a_damaged_tagging_file_never_ends_in_a_traceback(files, capsys):
    tmp_path, schema, data, _ = files
    tagged = tmp_path / "tagged.jsonl"
    lines = [dump_tagging_line(encode(ann, schema), schema)
             for ann in load_dataset(data, schema).annotations]
    tagged.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["decode", "--data", str(tagged), "--out", str(tmp_path / "out.jsonl")]
    assert_clean(fuzz(tagged, argv, capsys, seed=4))


def test_a_damaged_checkpoint_never_ends_in_a_traceback(files, capsys):
    # a damaged archive that still loads holds the original tensors bit for bit
    tmp_path, schema, data, _ = files
    annotations = load_dataset(data, schema).annotations
    params = init_model(schema, build_vocab([ann.tokens for ann in annotations]),
                        d_embed=4, d_state=3, d_pair=4)
    ckpt = tmp_path / "model.npz"
    save_checkpoint(ckpt, params, schema)
    expected = {name: (arr.dtype, arr.shape, arr.tobytes())
                for name, arr in named_tensors(params).items()}

    def same_tensors():
        loaded, loaded_schema, _ = load_checkpoint(ckpt)
        assert loaded_schema == schema and loaded.encoder.vocab == params.encoder.vocab
        assert {name: (arr.dtype, arr.shape, arr.tobytes())
                for name, arr in named_tensors(loaded).items()} == expected

    argv = ["eval", "--data", str(data), "--ckpt", str(ckpt)]
    outcomes = fuzz(ckpt, argv, capsys, seed=5, on_success=same_tensors)
    assert_clean(outcomes)
