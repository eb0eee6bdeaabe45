"""pairlink benchmark: one workload, one run, metrics as JSON on the last line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it alternates untraced and traced
passes over the same inputs, checks that their outputs are identical, and
reports the per-layer metrics and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracing import Tracer, instrument

# One BLAS thread (the cap is nproc): the steadiest figures on a small shared
# machine.  These must be set before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a fresh interpreter that imports pairlink, builds one workload's inputs and
# prints how long the build alone took
SETUP_CHILD = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
               "print(run.setup_once(sys.argv[1], int(sys.argv[2]), sys.argv[3]))")
HELD_OUT_SEED = 104729  # reserved for confirming a gain; never tune on it
OUT_DIR = Path("perfbench") / "out"
ROADMAP_N100_MS = {"forward": 107.0, "forward + backward": 268.0}

END_TO_END_UNITS = {
    "sentences_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer metric -> unit; every one is reported for every workload, 0 where
# the workload does not reach that layer
PER_LAYER_UNITS = {
    "model.encode_tokens.ms": "ms",
    "model.pair_heads.ms": "ms",
    "model.loss_from_probs.ms": "ms",
    "model.backward.ms": "ms",
    "model.gradient.ms": "ms",
    "model.infer_batch.ms": "ms",
    "model.infer.ms": "ms",
    "core.tagging_build.ms": "ms",
    "decoding.decode.ms": "ms",
    "codec.encode.ms": "ms",
    "codec.dump_line.ms": "ms",
    "codec.parse_line.ms": "ms",
    "data.load_dataset.ms": "ms",
    "train.adam_step.ms": "ms",
    "train.eval_pass.ms": "ms",
    "evaluate.micro_prf.ms": "ms",
    "train.train.ms": "ms",
    "synth.ms": "ms",
    "model.forward_n100.ms": "ms",
    "model.fwd_bwd_n100.ms": "ms",
    "model.pairs_scored": "count",
    "model.nonzero_tag_share.entity": "share",
    "model.nonzero_tag_share.head": "share",
    "model.nonzero_tag_share.tail": "share",
    "model.infer_batch.group_size_mean": "count",
    "decoding.entities": "count",
    "decoding.triples_emitted": "count",
    "decoding.useful_share": "share",
    "codec.line_bytes": "B",
    "train.epochs_to_f1": "count",
    "model.pair_kernel.flops": "flop",
    "model.pair_kernel.bytes": "B",
    "model.heads.flops": "flop",
    "model.heads.bytes": "B",
    "model.x_pair.max_bytes": "B",
    "trace.overhead_share": "share",
    "trace.spans": "count",
}

# spans whose self time is reported as "<span>.ms"
SELF_TIME_SPANS = (
    "model.gradient",
    "model.infer_batch",
    "model.infer",
    "core.tagging_build",
    "decoding.decode",
    "codec.encode",
    "codec.dump_line",
    "codec.parse_line",
    "data.load_dataset",
    "train.adam_step",
    "evaluate.micro_prf",
    "train.train",
)


class SourceMissing(RuntimeError):
    """The working directory is not a checkout holding ``src/pairlink``."""


def import_library(root: Path):
    """Import pairlink from ``root/src`` and nowhere else, then the workload code."""
    src = (root / "src").resolve()
    if not (src / "pairlink" / "__init__.py").is_file():
        raise SourceMissing(f"no pairlink sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import pairlink

    if Path(pairlink.__file__).resolve().parent != src / "pairlink":
        raise SourceMissing(f"pairlink was imported from {pairlink.__file__}, not {src}")
    import workloads

    return workloads


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def setup_once(name: str, seed: int, workdir: str) -> float:
    """Seconds to build one workload's inputs, pairlink already imported."""
    wl = import_library(Path.cwd())
    start = perf_counter()
    wl.WORKLOADS[name].setup(seed, Path(workdir))
    return perf_counter() - start


def fresh_setup_s(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    """(start to exit, build alone) of a new process that sets the workload up.

    The first figure counts interpreter start and imports too, so work moved
    to import time shows as set-up time.
    """
    start = perf_counter()
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD, name, str(seed), str(workdir)],
                           capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return perf_counter() - start, float(child.stdout.split()[-1])


def measure(wl, workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The untraced run: fresh-process set-ups, then passes until ``seconds`` have elapsed."""
    setups = [fresh_setup_s(workload.name, seed, workdir) for _ in range(SETUP_REPEATS)]
    state = workload.setup(seed, workdir)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(workload.run_pass(state, len(passes)))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    # identical inputs must give identical outputs on every pass
    for previous, current in zip(passes, passes[1:]):
        attempted += 1
        failed += current.outputs != previous.outputs
    op_ms = [ms for p in passes for ms in p.op_ms]
    metrics = {
        "sentences_per_s": statistics.median(p.sentences / p.seconds for p in passes),
        "op_ms_p50": statistics.median(op_ms),
        "setup_s": statistics.median(total for total, _ in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
    beyond = sum(1 for ms in op_ms if ms > p90)
    notes = {
        "passes": len(passes),
        "pass_sentences_per_s": [p.sentences / p.seconds for p in passes],
        "op": workload.op,
        "op_samples": len(op_ms),
        # reported only where at least ten samples lie beyond it
        "op_ms_p90": p90 if beyond >= 10 else None,
        "op_samples_beyond_p90": beyond,
        "error_rate": failed / attempted,
        "setup_s_each": [total for total, _ in setups],
        "setup_build_s_each": [build for _, build in setups],
    }
    if workload.name == "fit_toy":
        notes["epochs_to_f1"] = [p.epochs for p in passes]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def traced(wl, workload, seed: int, seconds: float, workdir: Path) -> dict:
    """The traced run: per-layer metrics, traced outputs checked against untraced ones."""
    tracer = Tracer()
    with instrument(tracer, wl.setup_targets()):
        state = workload.setup(seed, workdir)
    synth_ms = tracer.times_ms().get("synth", {}).get("self_ms", 0.0)  # spans nest
    tracer.reset()

    attempted = failed = 0
    plain_s, traced_s = [], []
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        plain = workload.run_pass(state, rounds)
        tracer.reset()
        with instrument(tracer, wl.trace_targets()):
            result = workload.run_pass(state, rounds)
        attempted += plain.attempted + result.attempted + 1
        failed += plain.failed + result.failed + (plain.outputs != result.outputs)
        plain_s.append(plain.seconds)
        traced_s.append(result.seconds)
        rounds += 1
    # the spans and counters of the last traced pass are the ones reported
    times = tracer.times_ms()
    counts = dict(tracer.counts)
    spans = len(tracer.spans)
    per_sentence = 1.0 / result.sentences

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for span in SELF_TIME_SPANS:
        metrics[f"{span}.ms"] = times.get(span, {}).get("self_ms", 0.0) * per_sentence
    metrics["train.eval_pass.ms"] = eval_pass_ms(tracer) * per_sentence
    metrics["synth.ms"] = synth_ms
    metrics["model.pairs_scored"] = counts.get("model.pairs_scored", 0)
    for group in ("entity", "head", "tail"):
        cells = counts.get(f"cells.{group}", 0)
        metrics[f"model.nonzero_tag_share.{group}"] = (
            counts.get(f"nonzero.{group}", 0) / cells if cells else 0.0)
    if workload.name == "infer_paper":
        sentences = [a.tokens for a in state["annotations"]]
        metrics["model.infer_batch.group_size_mean"] = (
            len(sentences) / len(wl.batch_groups(sentences)))
    metrics["decoding.entities"] = counts.get("decoding.entities", 0)
    metrics["decoding.triples_emitted"] = counts.get("decoding.triples_emitted", 0)
    metrics["decoding.useful_share"] = result.useful / result.emitted if result.emitted else 0.0
    lines = counts.get("codec.lines", 0)
    metrics["codec.line_bytes"] = counts.get("codec.line_bytes", 0) / lines if lines else 0.0
    metrics["train.epochs_to_f1"] = result.epochs
    metrics.update(result.costs)
    plain_med, traced_med = statistics.median(plain_s), statistics.median(traced_s)
    metrics["trace.overhead_share"] = (traced_med - plain_med) / plain_med
    metrics["trace.spans"] = spans

    # direct calls that split a sentence's gradient into layers
    params, examples = workload.probe_examples(state)
    if examples:
        probe = Tracer()
        wl.layer_split(probe, params, examples)
        ptimes = probe.times_ms()

        def total(name):
            return ptimes[f"probe.{name}"]["total_ms"] / len(examples)

        metrics["model.encode_tokens.ms"] = total("encode_tokens")
        metrics["model.pair_heads.ms"] = total("forward_probs") - total("encode_tokens")
        metrics["model.loss_from_probs.ms"] = total("loss_from_probs")
        metrics["model.backward.ms"] = (
            total("gradient") - total("forward_probs") - total("loss_from_probs"))
    if workload.name == "train_paper":
        forward, both = wl.n100_times(state["params"], seed)
        metrics["model.forward_n100.ms"] = forward
        metrics["model.fwd_bwd_n100.ms"] = both

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = {
        "rounds": rounds,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "spans_file": str(spans_path),
        "error_rate": failed / attempted,
    }
    if workload.name == "train_paper":
        notes["n100_ms_measured_vs_roadmap"] = {
            "forward": [metrics["model.forward_n100.ms"], ROADMAP_N100_MS["forward"]],
            "forward + backward": [metrics["model.fwd_bwd_n100.ms"],
                                   ROADMAP_N100_MS["forward + backward"]],
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def eval_pass_ms(tracer) -> float:
    """Inclusive ms of the evaluation calls ``train()`` makes after each epoch."""
    names = {span[0]: span[1] for span in tracer.spans}
    total = 0.0
    for _, name, begin, end, parent in tracer.spans:
        if name in ("model.infer", "evaluate.micro_prf") and names.get(parent) == "train.train":
            total += end - begin
    return total * 1e3


def render(result: dict, units: dict, env: dict) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    for name, value in result["metrics"].items():
        lines.append(f"{name:<36} {value:>18.6g} {units[name]}")
    for name, value in result["notes"].items():
        lines.append(f"# {name}: {json.dumps(value)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        wl = import_library(Path.cwd())
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run = traced if args.trace else measure
        result = run(wl, workload, args.seed, args.seconds, Path(tmp))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for line in render(result, units, environment(args.seed)):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
