"""Tests for the training loop, the optimizer, and the gradient spot check."""

from __future__ import annotations

import importlib
import random
import warnings

import numpy as np
import pytest

# the package re-exports a ``train`` function under the same name as the
# submodule, so fetch the module itself for monkeypatching
train_mod = importlib.import_module("pairlink.train")
from pairlink import (
    InvalidInput,
    NumericError,
    RelationSchema,
    TrainConfig,
    check_gradients,
    decode,
    encode,
    infer,
    micro_prf,
    train,
)
from pairlink.model import gradient, named_tensors
from pairlink.synth import random_annotation, synthetic_dataset
from pairlink.train import Adam

from conftest import annotation, triple


def small_dataset(seed=0, size=6, n_relations=1):
    schema = RelationSchema(tuple(f"r{i}" for i in range(n_relations)))
    data = synthetic_dataset(
        random.Random(seed), schema, size, n_min=4, n_max=6, max_triples=2
    )
    return data, schema


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"optimizer": "momentum"},
            {"optimizer": "sgd"},
            {"early_stop_f1": "x"},
            {"early_stop_f1": True},
            {"epochs": 1.5},
            {"epochs": True},
            {"batch_size": 2.5},
            {"batch_size": "6"},
            {"learning_rate": "x"},
            {"learning_rate": True},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"learning_rate": np.float64("inf")},
            {"early_stop_f1": float("nan")},
            {"early_stop_f1": float("-inf")},
            {"seed": -1},
            {"seed": True},
            {"seed": 1.5},
            {"seed": "0"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidInput):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("stop", [None, 1, 0.5, np.float64(0.9)])
    def test_early_stop_takes_none_or_a_real_number(self, stop):
        assert TrainConfig(early_stop_f1=stop).early_stop_f1 is stop

    def test_accepts_numpy_numbers(self):
        cfg = TrainConfig(learning_rate=np.float64(0.01), epochs=np.int64(3),
                          batch_size=np.int32(2), seed=np.int64(5))
        assert (cfg.learning_rate, cfg.epochs, cfg.batch_size, cfg.seed) == (0.01, 3, 2, 5)


class TestOptimizers:
    def test_adam_first_step_is_signed_learning_rate(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        tensors = {"w": np.zeros(3)}
        grads = {"w": np.array([0.25, -3.0, 0.0])}
        Adam(lr=0.1).step(tensors, grads)
        assert np.allclose(tensors["w"], [-0.1, 0.1, 0.0], atol=1e-6)

    def test_adam_state_tracks_each_tensor(self):
        opt = Adam(lr=0.1)
        tensors = {"a": np.ones(2), "b": np.ones(3)}
        grads = {"a": np.ones(2), "b": -np.ones(3)}
        opt.step(tensors, grads)
        opt.step(tensors, grads)
        assert opt.t == 2
        assert set(opt.m) == {"a", "b"}
        assert tensors["a"][0] < 1.0 < tensors["b"][0]


class TestTrainLoop:
    def test_same_seed_reproduces_the_run(self):
        data, schema = small_dataset()
        cfg = TrainConfig(learning_rate=1e-2, epochs=4, batch_size=3, seed=7)
        r1 = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        r2 = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        assert [(s.epoch, s.loss, s.f1) for s in r1.history] == [
            (s.epoch, s.loss, s.f1) for s in r2.history
        ]
        for name, arr in named_tensors(r1.params).items():
            assert np.array_equal(arr, named_tensors(r2.params)[name])

    def test_different_seeds_differ(self):
        data, schema = small_dataset()
        cfg1 = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=3, seed=0)
        cfg2 = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=3, seed=1)
        r1 = train(data, schema, cfg1, d_embed=8, d_state=4, d_pair=8)
        r2 = train(data, schema, cfg2, d_embed=8, d_state=4, d_pair=8)
        assert [s.loss for s in r1.history] != [s.loss for s in r2.history]

    def test_loss_decreases_on_average(self):
        data, schema = small_dataset()
        cfg = TrainConfig(learning_rate=1e-2, epochs=12, batch_size=3, seed=0)
        result = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        first, last = result.history[0].loss, result.history[-1].loss
        assert last < first

    def test_early_stop_halts_the_loop(self):
        data, schema = small_dataset()
        cfg = TrainConfig(
            learning_rate=1e-2, epochs=50, batch_size=3, seed=0, early_stop_f1=0.0
        )
        result = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        assert len(result.history) == 1  # any F1 satisfies a 0.0 threshold

    def test_returned_params_reproduce_best_f1(self):
        data, schema = small_dataset(seed=1, size=4)
        cfg = TrainConfig(learning_rate=1e-2, epochs=60, batch_size=2, seed=0)
        result = train(data, schema, cfg, d_embed=16, d_state=8, d_pair=16)
        best = max(s.f1 for s in result.history)
        assert result.history[result.best_epoch].f1 == best
        preds = [infer(ann.tokens, result.params, schema) for ann in data]
        golds = [set(ann.triples) for ann in data]
        assert micro_prf(preds, golds, mode="exact").f1 == pytest.approx(best)

    def test_validation_set_drives_the_score(self):
        data, schema = small_dataset()
        # gold on the validation sentence is unreachable for an untrained
        # model on out-of-vocabulary tokens: F1 stays 0 from epoch 0
        valid = [annotation(4, [triple(0, 1, 0, 2, 3)], tokens=("q1", "q2", "q3", "q4"))]
        cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=3, seed=0)
        result = train(data, schema, cfg, valid=valid, d_embed=8, d_state=4, d_pair=8)
        assert [s.f1 for s in result.history] == [0.0, 0.0, 0.0]
        assert result.best_epoch == 0

    def test_empty_dataset_rejected(self):
        _, schema = small_dataset()
        with pytest.raises(InvalidInput):
            train([], schema, TrainConfig())

    def test_empty_validation_set_rejected(self):
        # it scored the vacuous F1 1.0 every epoch, so epoch 0 stayed best
        # and its parameters were returned in place of the trained ones
        data, schema = small_dataset()
        with pytest.raises(InvalidInput, match="^empty validation set$"):
            train(data, schema, TrainConfig(epochs=2), valid=[])

    def test_a_validation_set_with_no_gold_triple_rejected(self, monkeypatch):
        # its F1 read 1.0 every epoch, so the untrained epoch 0 came back
        data, schema = small_dataset()
        monkeypatch.setattr(train_mod, "init_model", None)  # raised before any work
        valid = [annotation(3, [])]
        with pytest.raises(InvalidInput, match="^the validation set holds no gold triple"):
            train(data, schema, TrainConfig(epochs=2), valid=valid)

    def test_a_training_set_with_no_gold_triple_and_no_validation_set_rejected(self):
        _, schema = small_dataset()
        data = [annotation(3, []), annotation(2, [])]
        with pytest.raises(InvalidInput, match="^the training set holds no gold triple"):
            train(data, schema, TrainConfig(epochs=2))
        # scored on a validation set that holds a triple, it trains
        valid = [annotation(3, [triple(0, 0, 0, 2, 2)])]
        result = train(data, schema, TrainConfig(epochs=1), valid=valid,
                       d_embed=4, d_state=2, d_pair=4)
        assert len(result.history) == 1

    @pytest.mark.parametrize("dims", [{"seed": 1}, {"d_embd": 8}])
    def test_dims_take_only_init_model_sizes(self, dims):
        # the seed comes from the config alone; a misspelt size is not ignored
        data, schema = small_dataset()
        with pytest.raises(TypeError):
            train(data, schema, TrainConfig(epochs=1), **dims)

    def test_long_sentences_are_trained_whole(self, monkeypatch):
        # the triple lies past token 4, where a length cap used to drop it
        schema = RelationSchema(("r0",))
        ann = annotation(8, [triple(0, 0, 0, 6, 7)])
        cfg = TrainConfig(learning_rate=1e-2, epochs=1, batch_size=1, seed=0)
        batches = []

        def recording_gradient(batch, params):
            batches.append(batch)
            return gradient(batch, params)

        monkeypatch.setattr(train_mod, "gradient", recording_gradient)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train([ann], schema, cfg, d_embed=4, d_state=3, d_pair=4)
        assert len(result.history) == 1
        [[(tokens, tagging)]] = batches
        assert tokens == ann.tokens and decode(tagging, schema) == ann.triple_set()


class TestDivergenceHandling:
    def test_blowup_mid_training_returns_last_finite_params(self, monkeypatch):
        data, schema = small_dataset()
        calls = []

        def fragile_gradient(batch, params):
            calls.append(1)
            if len(calls) > 3:
                raise NumericError("non-finite gradient in kernel.weight")
            return gradient(batch, params)

        monkeypatch.setattr(train_mod, "gradient", fragile_gradient)
        cfg = TrainConfig(learning_rate=1e-2, epochs=10, batch_size=3, seed=0)
        result = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        assert result.diverged
        assert len(result.history) >= 1  # at least one epoch finished
        for arr in named_tensors(result.params).values():
            assert np.all(np.isfinite(arr))

    def test_blowup_on_first_batch_returns_initial_params(self, monkeypatch):
        data, schema = small_dataset()

        def exploding_gradient(batch, params):
            raise NumericError("non-finite loss: nan")

        monkeypatch.setattr(train_mod, "gradient", exploding_gradient)
        cfg = TrainConfig(learning_rate=1e-2, epochs=5, batch_size=3, seed=0)
        result = train(data, schema, cfg, d_embed=8, d_state=4, d_pair=8)
        assert result.diverged
        assert result.history == []
        assert result.best_epoch == -1
        for arr in named_tensors(result.params).values():
            assert np.all(np.isfinite(arr))


class TestCheckGradients:
    def make_case(self):
        schema = RelationSchema(("r0",))
        rng = random.Random(3)
        ann = random_annotation(rng, schema, n_max=4, max_triples=2, min_triples=1)
        batch = [(ann.tokens, encode(ann, schema))]
        from pairlink import build_vocab, init_model

        params = init_model(
            schema, build_vocab([ann.tokens]), d_embed=4, d_state=3, d_pair=4
        )
        return batch, params

    def test_healthy_gradients_pass(self):
        batch, params = self.make_case()
        check_gradients(batch, params)  # recomputes and verifies; no exception

    def test_worst_error_covers_every_checked_coordinate(self):
        # every difference on this model is under abs_tol, so a worst taken
        # only over the coordinates beyond it would read 0 and show no margin
        batch, params = self.make_case()
        assert 0.0 < check_gradients(batch, params, max_coords=None) < 1e-4

    def test_corrupted_gradients_are_caught(self):
        batch, params = self.make_case()
        _, grads = gradient(batch, params)
        grads["kernel.bias"] = grads["kernel.bias"] + 0.5
        with pytest.raises(NumericError, match="kernel.bias"):
            check_gradients(batch, params, grads)

    def test_full_coverage_names_the_one_corrupted_coordinate(self):
        batch, params = self.make_case()
        _, grads = gradient(batch, params)
        assert 0.0 <= check_gradients(batch, params, grads, max_coords=None) < 1e-4
        grads["kernel.weight"] = grads["kernel.weight"].copy()
        grads["kernel.weight"].reshape(-1)[7] += 0.5
        with pytest.raises(NumericError, match=r"kernel\.weight\[7\]"):
            check_gradients(batch, params, grads, max_coords=None)

    def test_sampling_is_seeded(self):
        batch, params = self.make_case()
        _, grads = gradient(batch, params)
        # corrupt exactly one embedding coordinate: whether the check trips
        # depends only on the seeded coordinate sample, so equal seeds agree
        grads["encoder.embed"] = grads["encoder.embed"].copy()
        grads["encoder.embed"][0, 0] += 10.0
        outcomes = []
        for _ in range(2):
            try:
                check_gradients(batch, params, grads, max_coords=2, seed=123)
                outcomes.append("ok")
            except NumericError:
                outcomes.append("caught")
        assert outcomes[0] == outcomes[1]
