"""Gradient-descent training for the pair tagger.

The Adam optimizer, a seeded deterministic loop, per-epoch exact-match F1
tracking, and the finite-difference gradient check the tests hold the
analytic gradients to.  The loop never silently eats a numeric blow-up: on
divergence it stops and hands back the best-scoring parameters, or the
initial ones if no epoch completed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codec import encode
from .core import InvalidInput, RelationSchema, SentenceAnnotation, check_choice, check_int
from .evaluate import micro_prf
from .model import (
    ModelParams,
    NumericError,
    batch_loss,
    build_vocab,
    clone_params,
    gradient,
    infer,
    init_model,
    named_tensors,
)


def _is_finite(value) -> bool:
    """Whether ``value`` is a finite real number; bools are not numbers here."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class TrainConfig:
    """Training settings; a bad value raises :class:`InvalidInput`.

    ``learning_rate`` is a finite number > 0.  ``epochs`` and ``batch_size``
    are integers >= 1 and ``seed`` >= 0; numpy integers are stored as ints
    and bools rejected; ``optimizer`` must be ``"adam"``.  Training stops once
    validation F1 reaches ``early_stop_f1``, a finite number, unless it is None.
    """

    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 6
    seed: int = 0
    optimizer: str = "adam"
    early_stop_f1: float | None = None

    def __post_init__(self) -> None:
        lr = self.learning_rate
        if not _is_finite(lr) or not lr > 0:
            raise InvalidInput(f"learning_rate must be a finite number > 0, got {lr!r}")
        self.epochs = check_int("epochs", self.epochs)
        self.batch_size = check_int("batch_size", self.batch_size)
        self.seed = check_int("seed", self.seed, minimum=0)
        check_choice("optimizer", self.optimizer, ("adam",))
        stop = self.early_stop_f1
        if stop is not None and not _is_finite(stop):
            raise InvalidInput(f"early_stop_f1 must be None or a finite number, got {stop!r}")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    f1: float


@dataclass
class TrainResult:
    params: ModelParams
    history: list[EpochStats]
    best_epoch: int
    diverged: bool = False


class Adam:
    """Adaptive moments with bias correction (beta1=0.9, beta2=0.999, eps=1e-8)."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float) -> None:
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, tensors: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for name, arr in tensors.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            arr -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def check_gradients(batch, params: ModelParams, grads: dict[str, np.ndarray] | None = None,
                    step: float = 1e-5, rel_tol: float = 1e-4, abs_tol: float = 1e-8,
                    max_coords: int | None = 24, seed: int = 0) -> float:
    """Compare analytic gradients with central differences; return the worst relative error.

    Checks ``max_coords`` coordinates per tensor sampled with ``seed``, or
    all of them when it is None.  The first coordinate whose difference
    exceeds ``abs_tol`` with a relative error of at least ``rel_tol`` raises
    :class:`NumericError`.  ``abs_tol`` absorbs the roundoff noise of the
    difference quotient itself: at ``step`` 1e-5 a double-precision loss
    evaluation perturbs the quotient by ~1e-10, so differences below 1e-8 say
    nothing about the analytic gradient and count as agreeing.

    The returned error is the worst over every checked coordinate, each
    difference taken relative to the larger of the two gradients but to no
    less than ``abs_tol / rel_tol``: below that scale ``abs_tol`` decides,
    so a check that passes returns less than ``rel_tol``.
    """
    if grads is None:
        _, grads = gradient(batch, params)
    rng = np.random.default_rng(seed)
    floor = max(abs_tol / rel_tol, 1e-9)
    worst = 0.0
    for name, arr in named_tensors(params).items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        if max_coords is None:
            coords = range(flat.size)
        else:
            coords = rng.choice(flat.size, size=min(max_coords, flat.size), replace=False)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + step
            up = batch_loss(batch, params)
            flat[idx] = original - step
            down = batch_loss(batch, params)
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            analytic = gflat[idx]
            diff = abs(analytic - numeric)
            scale = max(abs(analytic), abs(numeric))
            if diff > abs_tol and diff / max(scale, 1e-9) >= rel_tol:
                raise NumericError(
                    f"gradient mismatch in {name}[{idx}]: "
                    f"analytic {analytic:.10g}, numeric {numeric:.10g}"
                )
            worst = max(worst, diff / max(scale, floor))
    return worst


def train(
    dataset: list[SentenceAnnotation],
    schema: RelationSchema,
    config: TrainConfig,
    valid: list[SentenceAnnotation] | None = None,
    **dims,
) -> TrainResult:
    """Fit a tagger on gold annotations; returns the best-scoring parameters.

    Gold taggings are produced leniently (cell conflicts resolved by the
    forward-tag tie-break).  After every epoch the model is scored with
    exact-match micro F1 on ``valid`` (the training set when it is None) and
    the best parameters are kept; an empty training or validation set raises
    :class:`InvalidInput`.  All randomness flows through one generator seeded
    from the config, so equal seeds give identical histories.  ``dims`` are
    :func:`init_model`'s size options (``d_embed``, ``d_state``, ``d_pair``),
    with its defaults.  Every sentence is trained whole, whatever its length.
    """
    if not dataset:
        raise InvalidInput("empty training set")
    if valid is not None and not valid:
        raise InvalidInput("empty validation set")
    rng = np.random.default_rng(config.seed)
    vocab = build_vocab(ann.tokens for ann in dataset)
    params = init_model(schema, vocab, seed=config.seed, rng=rng, **dims)
    examples = [(ann.tokens, encode(ann, schema, mode="lenient")) for ann in dataset]
    eval_set = valid if valid is not None else dataset
    eval_golds = [set(ann.triples) for ann in eval_set]

    tensors = named_tensors(params)
    optimizer = Adam(config.learning_rate)
    history: list[EpochStats] = []
    best_f1 = -1.0
    best_params = clone_params(params)
    best_epoch = -1
    diverged = False

    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        losses = []
        try:
            for start in range(0, len(order), config.batch_size):
                batch = [examples[i] for i in order[start : start + config.batch_size]]
                loss, grads = gradient(batch, params)
                optimizer.step(tensors, grads)
                losses.append(loss)
        except NumericError:
            diverged = True
            break
        preds = [infer(ann.tokens, params, schema) for ann in eval_set]
        f1 = micro_prf(preds, eval_golds, mode="exact").f1
        history.append(EpochStats(epoch, float(np.mean(losses)), f1))
        if f1 > best_f1:
            best_f1 = f1
            best_params = clone_params(params)
            best_epoch = epoch
        if config.early_stop_f1 is not None and f1 >= config.early_stop_f1:
            break

    return TrainResult(best_params, history, best_epoch, diverged)
