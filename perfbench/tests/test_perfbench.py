"""Tests of the benchmark itself: seeded inputs, printed metrics, failing checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (sets BLAS threads before NumPy loads)

wl = run.import_library(ROOT)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs(name: str, seed: int, workdir: Path):
    """What a workload hands the program, in a comparable form."""
    state = wl.WORKLOADS[name].setup(seed, workdir)
    if name == "fit_toy":
        return state["dataset"]
    if name == "train_paper":
        return state["batches"], wl.param_bytes(state["params"])
    if name == "infer_paper":
        return state["annotations"], wl.param_bytes(state["params"])
    return state["annotations"], state["path"].read_text()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    first = inputs(name, 3, tmp_path)
    assert inputs(name, 3, tmp_path) == first
    if name != "fit_toy":  # replays acceptance criterion 5 whatever the seed
        assert inputs(name, 4, tmp_path) != first


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_name_and_unit(trace, section, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    originals = [getattr(owner, attr) for owner, attr, _, _ in wl.trace_targets()]
    code = run.main(["--workload", "codec_paper", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines[:-1]), name
    # a traced run puts every wrapped function back
    assert [getattr(owner, attr) for owner, attr, _, _ in wl.trace_targets()] == originals


def test_a_wrong_decode_output_raises_the_error_rate(monkeypatch, tmp_path):
    decode = wl.decoding.decode

    def drops_a_triple(*args, **kwargs):
        triples = decode(*args, **kwargs)
        triples.discard(min(triples, default=None))
        return triples

    monkeypatch.setattr(wl.decoding, "decode", drops_a_triple)
    workload = wl.WORKLOADS["codec_paper"]
    result = workload.run_pass(workload.setup(5, tmp_path), 0)
    assert result.attempted > 0
    assert result.failed / result.attempted > 0
