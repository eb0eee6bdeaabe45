"""The benchmark's traced runs of the paper-scale model workloads, run from the repo root.

A traced run swaps pairlink functions for timing wrappers with counter hooks
that read the taggings they see, and its per-layer probes call ``gold_tags``
and ``loss_from_probs`` directly.  The benchmark's own tests trace only the
codec workload, which has no model, so these two runs guard the rest.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["train_paper", "infer_paper"])
def test_a_traced_run_completes_and_is_correct(workload, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] is True and result["attempted"] >= 1
