import math

import numpy as np
import pytest

import mmsets.tensor as T
from mmsets.data import ModalityInstance, Sample
from mmsets.errors import DataError, NumericError
from mmsets.fusion import FusionModel, ModalitySpec
from mmsets.training import (AdamWState, TrainConfig, adamw_step,
                             init_classifier_bias, inverse_sqrt_class_weights,
                             kfold_split, lr_at, train, weighted_sigmoid_ce)
from helpers import central_diff, max_rel_err


class TestSchedule:
    def test_starts_at_zero(self):
        sched = TrainConfig(epochs=25)
        assert lr_at(sched, 0.0) == 0.0

    def test_peak_at_warmup_end(self):
        sched = TrainConfig(epochs=25, warmup_epochs=5, peak_lr=0.001)
        assert lr_at(sched, 5.0) == 0.001

    def test_cosine_midpoint(self):
        sched = TrainConfig(epochs=25, warmup_epochs=5, peak_lr=0.001)
        assert lr_at(sched, 15.0) == pytest.approx(0.0005, abs=1e-15)

    def test_continuous_at_junction(self):
        sched = TrainConfig(epochs=25, warmup_epochs=5, peak_lr=0.001)
        eps = 1e-9
        assert lr_at(sched, 5.0 - eps) == pytest.approx(lr_at(sched, 5.0 + eps),
                                                        abs=1e-10)

    def test_ends_at_min_lr(self):
        sched = TrainConfig(epochs=25, warmup_epochs=5, peak_lr=0.001, min_lr=1e-5)
        assert lr_at(sched, 25.0) == pytest.approx(1e-5, abs=1e-18)

    def test_out_of_range_progress(self):
        sched = TrainConfig(epochs=25)
        for p in (-0.1, 25.1):
            with pytest.raises(ValueError):
                lr_at(sched, p)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=5)
        with pytest.raises(ValueError):
            TrainConfig(epochs=5, warmup_epochs=0, peak_lr=0.0)

    def test_zero_warmup_starts_at_peak(self):
        sched = TrainConfig(epochs=10, warmup_epochs=0, peak_lr=0.01)
        assert lr_at(sched, 0.0) == 0.01


def _scalar_params(value):
    return {"theta": T.parameter([[value]])}


class TestAdamW:
    def test_zero_gradient_no_decay_is_fixed_point(self):
        params = _scalar_params(1.5)
        state = AdamWState(params, weight_decay=0.0)
        adamw_step(params, {"theta": np.zeros((1, 1))}, state, lr=0.1)
        assert params["theta"].data[0, 0] == 1.5

    def test_zero_gradient_with_decay_is_pure_shrink(self):
        params = _scalar_params(2.0)
        state = AdamWState(params, weight_decay=0.01)
        adamw_step(params, {"theta": np.zeros((1, 1))}, state, lr=0.1)
        assert params["theta"].data[0, 0] == 2.0 * (1.0 - 0.1 * 0.01)

    def test_one_step_matches_reference_formulas(self):
        params = _scalar_params(1.0)
        state = AdamWState(params, weight_decay=0.01)
        adamw_step(params, {"theta": np.ones((1, 1))}, state, lr=0.001)
        # hand-rolled reference: m/v update, bias correction, step, decay
        beta1, beta2, eps, wd, lr = 0.9, 0.999, 1e-8, 0.01, 0.001
        m = (1 - beta1) * 1.0
        v = (1 - beta2) * 1.0
        m_hat = m / (1 - beta1)
        v_hat = v / (1 - beta2)
        theta = 1.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
        theta *= 1.0 - lr * wd
        assert params["theta"].data[0, 0] == pytest.approx(theta, abs=1e-12)

    def test_multi_step_matches_reference(self):
        rng = np.random.default_rng(0)
        params = {"w": T.parameter(rng.standard_normal((3, 2)))}
        ref = params["w"].data.copy()
        state = AdamWState(params, weight_decay=0.02)
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t in range(1, 6):
            g = rng.standard_normal((3, 2))
            adamw_step(params, {"w": g.copy()}, state, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            ref = ref * (1 - 0.01 * 0.02)
        np.testing.assert_allclose(params["w"].data, ref, atol=1e-12)

    def test_nonfinite_gradient_aborts_naming_parameter(self):
        params = _scalar_params(1.0)
        state = AdamWState(params)
        with pytest.raises(NumericError, match="theta"):
            adamw_step(params, {"theta": np.array([[np.nan]])}, state, lr=0.01)

    def test_nonfinite_gradient_updates_nothing(self):
        params = {"a": T.parameter([[1.0]]), "b": T.parameter([[2.0]])}
        state = AdamWState(params)
        grads = {"a": np.ones((1, 1)), "b": np.array([[np.inf]])}
        with pytest.raises(NumericError, match="'b'"):
            adamw_step(params, grads, state, lr=0.1)
        assert params["a"].data[0, 0] == 1.0 and params["b"].data[0, 0] == 2.0
        assert state.t == 0
        assert not state.m["a"].any() and not state.v["a"].any()

    def test_missing_gradient_still_decays(self):
        params = _scalar_params(3.0)
        state = AdamWState(params, weight_decay=0.1)
        adamw_step(params, {}, state, lr=0.5)
        assert params["theta"].data[0, 0] == 3.0 * (1.0 - 0.5 * 0.1)


class TestLoss:
    def test_zero_logits_give_log2_per_class(self):
        logits = T.Tensor(np.zeros((1, 4)))
        loss = weighted_sigmoid_ce(logits, np.array([1, 0, 1, 0]), np.ones(4))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_inverse_sqrt_weight_formula(self):
        # class frequency 0.25 gets weight proportional to 1/sqrt(0.25) = 2
        labels = np.zeros((8, 2), dtype=np.int64)
        labels[:2, 0] = 1   # freq 0.25
        labels[:, 1] = 1    # freq 1.0
        w = inverse_sqrt_class_weights(labels)
        assert w[0] / w[1] == pytest.approx(2.0, abs=1e-12)
        assert w.mean() == pytest.approx(1.0, abs=1e-12)

    def test_weights_monotone_decreasing_in_frequency(self):
        labels = np.zeros((12, 3), dtype=np.int64)
        labels[:2, 0] = 1
        labels[:6, 1] = 1
        labels[:, 2] = 1
        w = inverse_sqrt_class_weights(labels)
        assert w[0] > w[1] > w[2] > 0

    def test_never_positive_class_stays_finite(self):
        labels = np.zeros((10, 2), dtype=np.int64)
        labels[:, 0] = 1
        w = inverse_sqrt_class_weights(labels)
        assert np.all(np.isfinite(w)) and np.all(w > 0)

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            weighted_sigmoid_ce(T.Tensor(np.zeros((1, 2))), np.array([0.5, 1.0]),
                                np.ones(2))

    def test_stable_at_extreme_logits(self):
        logits = T.Tensor([[1000.0, -1000.0]])
        loss = weighted_sigmoid_ce(logits, np.array([1, 0]), np.ones(2))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)
        loss = weighted_sigmoid_ce(T.Tensor([[30.0, -30.0]]), np.array([1, 0]),
                                   np.ones(2))
        assert loss.item() < 1e-6

    def test_loss_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            logits = T.Tensor(rng.standard_normal((1, 3)) * 10)
            targets = (rng.random(3) < 0.5).astype(np.int64)
            w = rng.random(3) + 0.1
            assert weighted_sigmoid_ce(logits, targets, w).item() >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        logits = T.parameter(rng.standard_normal((1, 5)))
        targets = np.array([1, 0, 1, 1, 0])
        weights = rng.random(5) + 0.5
        with T.Tape():
            loss = weighted_sigmoid_ce(logits, targets, weights)
        T.backward(loss)

        def value():
            z = logits.data[0]
            per = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
            return float((weights * per).sum() / 5)

        numeric = central_diff(value, logits.data, h=1e-6)
        assert max_rel_err(logits.grad, numeric) < 1e-6


    def test_batch_rows_are_per_sample_losses(self):
        rng = np.random.default_rng(3)
        logits = T.parameter(rng.standard_normal((4, 3)))
        targets = (rng.random((4, 3)) < 0.5).astype(np.int64)
        weights = rng.random(3) + 0.5
        with T.Tape():
            rows = weighted_sigmoid_ce(logits, targets, weights)
        assert rows.data.shape == (4, 1)
        for b in range(4):
            single = weighted_sigmoid_ce(T.Tensor(logits.data[b:b + 1]), targets[b], weights)
            assert rows.data[b, 0] == pytest.approx(single.item(), rel=1e-15)
        # one backward of the batch mean: each row's gradient over B
        T.backward(rows, np.full((4, 1), 0.25))

        def value():
            z = logits.data
            per = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
            return float((weights * per).sum() / 3 / 4)

        numeric = central_diff(value, logits.data, h=1e-6)
        assert max_rel_err(logits.grad, numeric) < 1e-6


class TestClassifierBias:
    def test_half_prior_gives_zero(self):
        assert np.all(init_classifier_bias(3, prior=0.5) == 0.0)

    def test_default_prior_value(self):
        b = init_classifier_bias(2, prior=0.01)
        assert b[0, 0] == pytest.approx(-math.log(99.0), abs=1e-12)
        assert b[0, 0] == pytest.approx(-4.59511985013459, abs=1e-10)

    def test_sigmoid_of_bias_recovers_prior(self):
        b = init_classifier_bias(4, prior=0.01)
        assert T.sigmoid_values(b)[0, 0] == pytest.approx(0.01, abs=1e-12)

    def test_invalid_prior(self):
        for prior in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                init_classifier_bias(2, prior=prior)


def _tiny_dataset(n, seed=0, dim=4, separated=True):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        c = i % 2
        center = (1.0 if c else -1.0) if separated else 0.0
        payload = center + 0.1 * rng.standard_normal(dim)
        labels = np.zeros(2, dtype=np.int64)
        labels[c] = 1
        samples.append(Sample(f"s{i:04d}", [ModalityInstance("x", payload)], labels))
    return samples


def _tiny_model(seed=0, pool="max"):
    return FusionModel([ModalitySpec("x", "dense", input_dim=4)], num_classes=2,
                       dim=8, pool=pool, predictor_hidden=(8,), seed=seed)


class TestTrain:
    def test_zero_lr_is_noop(self):
        model = _tiny_model()
        before = {n: p.data.copy() for n, p in model.named_parameters().items()}
        params = model.named_parameters()
        state = AdamWState(params, weight_decay=0.01)
        adamw_step(params, {n: np.zeros_like(p.data) for n, p in params.items()},
                   state, lr=0.0)
        for n, p in params.items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_learns_separable_task(self):
        samples = _tiny_dataset(60, seed=3)
        model = _tiny_model(seed=4)
        cfg = TrainConfig(epochs=30, batch_size=16, warmup_epochs=5, seed=5)
        history = train(model, samples, cfg, task="single_label")
        assert len(history) == 30
        correct = 0
        for s in samples:
            logits, _ = model.forward(s)
            correct += int(np.argmax(logits.data[0]) == np.argmax(s.labels))
        assert correct / len(samples) >= 0.99

    def test_same_seed_bit_identical_parameters(self):
        samples = _tiny_dataset(20, seed=6)
        runs = []
        for _ in range(2):
            model = _tiny_model(seed=7)
            train(model, samples, TrainConfig(epochs=3, warmup_epochs=1, seed=8),
                  task="single_label")
            runs.append({n: p.data.copy() for n, p in model.named_parameters().items()})
        for name in runs[0]:
            assert np.array_equal(runs[0][name], runs[1][name]), name

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            train(_tiny_model(), [], TrainConfig(epochs=1, warmup_epochs=0))

    def test_non_finite_loss_names_the_sample(self):
        # an overflowing payload in the middle of a batch: the error names
        # that sample, not the batch's first one
        samples = _tiny_dataset(8, seed=15)
        bad = samples[5]
        samples[5] = Sample(bad.sample_id, [ModalityInstance("x", np.full(4, 1e308))],
                            bad.labels)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match=r"non-finite loss at epoch 0, sample 's0005'"):
                train(_tiny_model(seed=16), samples,
                      TrainConfig(epochs=2, warmup_epochs=0, batch_size=8, seed=17))

    def test_history_fields(self):
        samples = _tiny_dataset(8, seed=9)
        history = train(_tiny_model(seed=10), samples,
                        TrainConfig(epochs=2, warmup_epochs=0, seed=11),
                        task="single_label")
        for rec in history:
            assert set(rec) == {"epoch", "lr", "loss", "train_accuracy"}
            assert math.isfinite(rec["loss"])


class TestKfold:
    def test_ten_samples_five_folds(self):
        splits = kfold_split(10, k=5, seed=0)
        assert [len(ev) for _, ev in splits] == [2, 2, 2, 2, 2]

    def test_partition_laws(self):
        splits = kfold_split(23, k=4, seed=1)
        evals = [set(ev.tolist()) for _, ev in splits]
        union = set().union(*evals)
        assert union == set(range(23))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not evals[i] & evals[j]
        for train_idx, eval_idx in splits:
            assert set(train_idx.tolist()) == union - set(eval_idx.tolist())

    def test_327_samples_fold_sizes(self):
        splits = kfold_split(327, k=5, seed=2)
        assert [len(ev) for _, ev in splits] == [66, 66, 65, 65, 65]

    def test_deterministic_across_runs(self):
        a = kfold_split(50, k=5, seed=3)
        b = kfold_split(50, k=5, seed=3)
        for (ta, ea), (tb, eb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(ea, eb)

    def test_too_small_dataset(self):
        with pytest.raises(ValueError):
            kfold_split(3, k=5)
        with pytest.raises(ValueError):
            kfold_split(10, k=1)


def test_first_warmup_epoch_at_lr_zero_changes_nothing():
    # epoch 0 of a warmup schedule runs at lr 0: a full no-op on parameters
    samples = _tiny_dataset(6, seed=12)
    model = _tiny_model(seed=13)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    snapshots = []

    def on_epoch(rec):
        if rec["epoch"] == 0:
            snapshots.append({n: p.data.copy()
                              for n, p in model.named_parameters().items()})

    train(model, samples, TrainConfig(epochs=2, warmup_epochs=1, seed=14),
          task="single_label", on_epoch=on_epoch)
    for n in before:
        assert np.array_equal(before[n], snapshots[0][n]), n
