import math
import tracemalloc

import numpy as np
import pytest

import mmsets.tensor as T
import mmsets.training as training
from mmsets.data import ModalityInstance, Sample
from mmsets.errors import DataError, EmptySetError, NumericError
from mmsets.fusion import ConcatModel, FusionModel, ImportanceRecord, ModalitySpec
from mmsets.seeding import derive_rng
from mmsets.training import (AdamWState, TrainConfig, adamw_step,
                             init_classifier_bias, inverse_sqrt_class_weights,
                             kfold_split, lr_at, train, weighted_sigmoid_ce)
from helpers import central_diff, max_rel_err, mixed_specs, random_sample, reference_train


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
        adamw_step(state, lr=0.1)
        assert params["theta"].data[0, 0] == 1.5

    def test_zero_gradient_with_decay_is_pure_shrink(self):
        params = _scalar_params(2.0)
        state = AdamWState(params, weight_decay=0.01)
        adamw_step(state, lr=0.1)
        assert params["theta"].data[0, 0] == 2.0 * (1.0 - 0.1 * 0.01)

    def test_one_step_matches_reference_formulas(self):
        params = _scalar_params(1.0)
        state = AdamWState(params, weight_decay=0.01)
        params["theta"].grad[...] = 1.0
        adamw_step(state, lr=0.001)
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
            params["w"].grad[...] = g
            adamw_step(state, lr=0.01)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            ref = ref * (1 - 0.01 * 0.02)
        np.testing.assert_allclose(params["w"].data, ref, atol=1e-12)

    def test_nonfinite_gradient_aborts_naming_parameter(self):
        params = _scalar_params(1.0)
        state = AdamWState(params)
        params["theta"].grad[...] = np.nan
        with pytest.raises(NumericError, match="theta"):
            adamw_step(state, lr=0.01)

    def test_nonfinite_gradient_updates_nothing(self):
        params = {"a": T.parameter([[1.0]]), "b": T.parameter([[2.0]])}
        state = AdamWState(params)
        params["a"].grad[...] = 1.0
        params["b"].grad[...] = np.inf
        with pytest.raises(NumericError, match="'b'"):
            adamw_step(state, lr=0.1)
        assert params["a"].data[0, 0] == 1.0 and params["b"].data[0, 0] == 2.0
        assert state.t == 0
        assert not state.m.any() and not state.v.any()

    def test_flat_step_matches_the_per_parameter_update_bit_for_bit(self):
        # the update of one parameter at a time, in the step's float order
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 2), "b": (1, 2), "e": (4, 1)}
        params = {n: T.parameter(rng.standard_normal(s)) for n, s in shapes.items()}
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros(s) for n, s in shapes.items()}
        v = {n: np.zeros(s) for n, s in shapes.items()}
        state = AdamWState(params, weight_decay=0.02)
        for t in range(1, 4):
            lr = 0.01 * t
            c1, c2 = 1.0 - training.BETA1 ** t, 1.0 - training.BETA2 ** t
            for n, p in params.items():
                g = rng.standard_normal(shapes[n])
                p.grad[...] = g
                m[n] = m[n] * training.BETA1 + (1.0 - training.BETA1) * g
                v[n] = v[n] * training.BETA2 + (1.0 - training.BETA2) * np.square(g)
                ref[n] = ref[n] - lr * (m[n] / c1) / (np.sqrt(v[n] / c2) + training.EPS)
                ref[n] = ref[n] * (1.0 - lr * 0.02)
            adamw_step(state, lr)
        for n, p in params.items():
            assert p.data.tobytes() == ref[n].tobytes(), n

    def test_step_allocates_no_full_length_temporary(self):
        # the isfinite mask alone is theta.nbytes / 8; a float temporary is theta.nbytes
        rng = np.random.default_rng(6)
        state = AdamWState({"w": T.parameter(rng.standard_normal((50_000, 1)))})
        state.grad[:] = rng.standard_normal(state.grad.size)
        tracemalloc.start()
        try:
            adamw_step(state, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < state.theta.nbytes / 4

    @pytest.mark.parametrize("grad_a,grad_b,lr,named", [
        (1.0, 1.0, 1e300, "'a'"),  # theta overflows: the decay factor is -1e298
        (0.5, 1e200, 0.01, "'b'"),  # only v overflows: g * g is inf, theta stays finite
    ], ids=["theta-overflows", "v-overflows"])
    def test_nonfinite_update_names_parameter_and_step_and_updates_nothing(
            self, grad_a, grad_b, lr, named):
        def fresh():
            params = {"a": T.parameter([[1.0, -2.0]]), "b": T.parameter([[3.0]])}
            return params, AdamWState(params, weight_decay=0.01)

        def step(state, grads, lr):
            state.grad[:] = grads
            adamw_step(state, lr)

        params, state = fresh()
        _, clean = fresh()
        for s in (state, clean):
            step(s, [0.5, -0.25, 2.0], 0.01)
        saved = [x.copy() for x in (state.theta, state.m, state.v)]
        # pytest turns any RuntimeWarning into an error, so none is emitted
        with pytest.raises(NumericError, match=f"step 2 would make parameter {named}"):
            step(state, [grad_a, grad_a, grad_b], lr)
        assert state.t == 1
        for now, before in zip((state.theta, state.m, state.v), saved):
            assert now.tobytes() == before.tobytes()
        assert np.shares_memory(params["a"].data, state.theta)
        # the failed step leaves nothing behind: later steps match a clean state's bits
        for s in (state, clean):
            step(s, [0.1, 0.2, -0.3], 0.02)
            step(s, [-0.4, 0.0, 0.5], 0.01)
        for now, want in zip((state.theta, state.m, state.v), (clean.theta, clean.m, clean.v)):
            assert now.tobytes() == want.tobytes()
        assert params["a"].data.tobytes() == clean.theta[:2].tobytes()

    def test_parameters_and_gradients_are_views_of_the_flat_vectors(self):
        params = {"w": T.parameter(np.arange(6.0).reshape(3, 2)),
                  "b": T.parameter([[7.0, 8.0]])}
        state = AdamWState(params)
        np.testing.assert_array_equal(state.theta, [0, 1, 2, 3, 4, 5, 7, 8])
        for p in params.values():
            assert np.shares_memory(p.data, state.theta)
            assert np.shares_memory(p.grad, state.grad)
        params["b"].grad[0, 1] = 3.0
        assert state.grad[7] == 3.0


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
        adamw_step(state, lr=0.0)
        for n, p in params.items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_encoder_of_an_absent_modality_only_decays(self):
        # no sample has "y": its encoder gets a zero gradient on every step,
        # so each step only multiplies its weights by 1 - lr*wd
        model = FusionModel([ModalitySpec("x", "dense", input_dim=4),
                             ModalitySpec("y", "dense", input_dim=3)], num_classes=2,
                            dim=8, predictor_hidden=(8,), seed=21)
        initial = model.named_parameters()["encoder.y.weight"].data.copy()
        samples = _tiny_dataset(10, seed=22)
        config = TrainConfig(epochs=3, warmup_epochs=1, batch_size=4, seed=23)
        train(model, samples, config)
        expected = initial.copy()
        for epoch in range(config.epochs):
            for _ in range(math.ceil(len(samples) / config.batch_size)):
                expected *= 1.0 - lr_at(config, epoch) * config.weight_decay
        assert not np.array_equal(expected, initial)
        np.testing.assert_array_equal(model.named_parameters()["encoder.y.weight"].data,
                                      expected)

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
        # an infinite payload in the middle of a batch: the error names
        # that sample, not the batch's first one
        samples = _tiny_dataset(8, seed=15)
        bad = samples[5]
        samples[5] = Sample(bad.sample_id, [ModalityInstance("x", np.full(4, np.inf))],
                            bad.labels)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError,
                               match=r"non-finite loss at epoch 0, sample 's0005'"):
                train(_tiny_model(seed=16), samples,
                      TrainConfig(epochs=2, warmup_epochs=0, batch_size=8, seed=17))

    def test_builds_no_importance_records(self, monkeypatch):
        # training reads only the logits; attribution is built where results leave
        def refuse(*args, **kwargs):
            raise AssertionError("train() built an ImportanceRecord")

        monkeypatch.setattr(ImportanceRecord, "__init__", refuse)
        history = train(_tiny_model(seed=12), _tiny_dataset(8, seed=13),
                        TrainConfig(epochs=2, warmup_epochs=0, seed=14), task="single_label")
        assert len(history) == 2

    def test_class_weighting_weights_the_loss(self, monkeypatch):
        # three positives of class 1 to every one of class 0
        samples = [s for i, s in enumerate(_tiny_dataset(24, seed=18)) if i % 2 or i % 6 == 0]
        labels = np.stack([s.labels for s in samples])
        seen = []

        def recording_loss(logits, targets, weights):
            seen.append(weights)
            return weighted_sigmoid_ce(logits, targets, weights)

        monkeypatch.setattr(training, "weighted_sigmoid_ce", recording_loss)
        histories = {}
        for weighting in (False, True):
            seen.clear()
            config = TrainConfig(epochs=2, warmup_epochs=0, batch_size=4, seed=19,
                                 class_weighting=weighting)
            histories[weighting] = train(_tiny_model(seed=20), samples, config)
            expected = inverse_sqrt_class_weights(labels) if weighting else np.ones(2)
            assert seen and all(np.array_equal(w, expected) for w in seen)
        assert not np.allclose(expected, 1.0)
        assert histories[True] != histories[False]

    def test_history_fields(self):
        samples = _tiny_dataset(8, seed=9)
        history = train(_tiny_model(seed=10), samples,
                        TrainConfig(epochs=2, warmup_epochs=0, seed=11),
                        task="single_label")
        for rec in history:
            assert set(rec) == {"epoch", "lr", "loss", "train_accuracy"}
            assert math.isfinite(rec["loss"])


@pytest.mark.parametrize("model_class, pool, class_weighting", [
    (FusionModel, "max", False), (FusionModel, "mean", True), (ConcatModel, None, False)])
def test_train_matches_the_reference_loop_bit_for_bit(model_class, pool, class_weighting):
    """Runs grouped once per call and each epoch's derived streams give the
    bytes of one forward_batch per batch with sample_rng streams, on ragged
    data."""
    specs = mixed_specs(max_instances=2)
    rng = np.random.default_rng(30)
    samples = [random_sample(rng, specs, sample_id=f"r{i}", max_instances=4) for i in range(23)]
    if model_class is ConcatModel:  # no instance the model knows: all zero slots
        samples.insert(7, Sample("rogue", [ModalityInstance("other", np.ones(2))],
                                 np.array([0, 1])))
    counts = [[sum(i.modality_id == spec.modality_id for i in s.instances) for spec in specs]
              for s in samples]
    assert max(map(max, counts)) > 2 and min(map(min, counts)) == 0  # over the cap, missing
    assert min(len(i.payload) for s in samples for i in s.instances
               if i.modality_id == "obj") < 4  # shorter than the widest kernel
    config = TrainConfig(epochs=3, warmup_epochs=1, batch_size=5, peak_lr=0.05, seed=7919,
                         class_weighting=class_weighting)
    assert len(samples) % config.batch_size
    kwargs = {"dim": 6, "embed_dim": 4, "num_filters": 3, "kernel_widths": (2, 4), "seed": 31}
    if pool is not None:
        kwargs["pool"] = pool
    models = [model_class(specs, num_classes=2, **kwargs) for _ in range(2)]
    initial = {n: p.data.copy() for n, p in models[0].named_parameters().items()}
    history = train(models[0], samples, config)
    assert history == reference_train(models[1], samples, config)
    trained = models[0].named_parameters()
    for name, p in models[1].named_parameters().items():
        assert trained[name].data.tobytes() == p.data.tobytes(), name
    assert not np.array_equal(trained["encoder.obj.embedding"].data,
                              initial["encoder.obj.embedding"])


@pytest.mark.parametrize("bad, error, match", [
    (Sample("short", [ModalityInstance("x", np.zeros(3))], np.array([1, 0])), ValueError,
     r"expects vectors of length 4, got shape \[\(3,\), \(4,\)\]"),
    (Sample("lost", [ModalityInstance("y", np.zeros(4))], np.array([1, 0])), EmptySetError,
     "lost"),
    (Sample("oov", [ModalityInstance("z", np.array([1, 9]))], np.array([1, 0])), ValueError,
     r"'z': index out of range \[0, 5\)"),
    (Sample("floats", [ModalityInstance("z", np.array([1.0, 2.0]))], np.array([1, 0])),
     ValueError, "'z' expects a nonempty int sequence"),
    (Sample("blank", [ModalityInstance("z", np.array([], dtype=np.int64))], np.array([1, 0])),
     ValueError, "'z' expects a nonempty int sequence"),
], ids=["dense-shape", "empty-set", "out-of-vocabulary", "float-tokens", "empty-sequence"])
def test_train_checks_every_sample_before_the_first_step(bad, error, match):
    """A payload its encoder rejects fails as the encoder's error, and a set
    model's empty sample as EmptySetError, before any optimizer step,
    although the bad sample comes last in epoch 0's order of batches of one."""
    model = FusionModel([ModalitySpec("x", "dense", input_dim=4),
                         ModalitySpec("z", "index_sequence", vocab_size=5)], num_classes=2,
                        dim=8, predictor_hidden=(8,), seed=0)
    samples = _tiny_dataset(6, seed=24)
    # at the index that epoch 0's shuffle (seed 0) visits last
    samples.insert(derive_rng(0, "shuffle", 0).permutation(7)[-1], bad)
    before = {n: p.data.copy() for n, p in model.named_parameters().items()}
    with pytest.raises(error, match=match):
        train(model, samples, TrainConfig(epochs=2, warmup_epochs=0, batch_size=1, seed=0))
    for name, p in model.named_parameters().items():
        assert np.array_equal(p.data, before[name]), name


def test_train_groups_each_sample_once_per_call(monkeypatch):
    """A 3-epoch train groups each sample into its runs exactly once."""
    model, samples = _tiny_model(), _tiny_dataset(7, seed=25)
    grouped = []
    runs = model._runs
    monkeypatch.setattr(model, "_runs", lambda sample: grouped.append(sample.sample_id)
                        or runs(sample))
    train(model, samples, TrainConfig(epochs=3, warmup_epochs=1, batch_size=2))
    assert grouped == [s.sample_id for s in samples]


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
