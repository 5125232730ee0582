"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The whole suite is CPU-only and finishes in a few minutes.
"""

import numpy as np

import mmsets.tensor as T
from mmsets.cli import main
from mmsets.data import (ModalityInstance, Sample, SyntheticConfig,
                         generate_synthetic)
from mmsets.evaluate import evaluate_model
from mmsets.fusion import (ConcatModel, FusionModel, ModalitySpec,
                           aggregate_importance, build_set)
from mmsets.metrics import accuracy_suite, f1_suite, roc_auc
from mmsets.training import (AdamWState, TrainConfig, adamw_step,
                             init_classifier_bias, kfold_split, lr_at, train,
                             weighted_sigmoid_ce)
from helpers import central_diff, max_rel_err, shuffled_copy
from test_metrics import (accuracy_counting_oracle, auc_pairwise_oracle,
                          f1_counts_oracle)


def check(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def five_modalities(max_instances=10):
    return [
        ModalitySpec("m_img", "dense", input_dim=16, max_instances=max_instances),
        ModalitySpec("m_face", "dense", input_dim=8, max_instances=max_instances),
        ModalitySpec("m_txt", "dense", input_dim=12, max_instances=max_instances),
        ModalitySpec("m_obj", "index_sequence", vocab_size=20,
                     max_instances=max_instances),
        ModalitySpec("m_tag", "index_sequence", vocab_size=9,
                     max_instances=max_instances),
    ]


def random_ragged_sample(rng, specs, sample_id, min_mods, max_mods,
                         min_inst, max_inst, num_classes=2):
    chosen = rng.choice(len(specs), size=int(rng.integers(min_mods, max_mods + 1)),
                        replace=False)
    instances = []
    for k in chosen:
        spec = specs[k]
        for _ in range(int(rng.integers(min_inst, max_inst + 1))):
            if spec.kind == "dense":
                payload = rng.standard_normal(spec.input_dim)
            else:
                payload = rng.integers(0, spec.vocab_size,
                                       size=int(rng.integers(4, 8)))
            instances.append(ModalityInstance(spec.modality_id, payload))
    labels = np.zeros(num_classes, dtype=np.int64)
    labels[int(rng.integers(num_classes))] = 1
    return Sample(sample_id, instances, labels)


def test_criterion_1_permutation_invariance():
    """1,000 random samples, every pool mode: shuffled-instance forward is
    bit-identical in logits and importance counts."""
    specs = five_modalities(max_instances=10)
    models = {dim: FusionModel(specs, num_classes=2, dim=dim, pool="max",
                               embed_dim=4, num_filters=3, predictor_hidden=(16,),
                               seed=dim)
              for dim in (8, 32)}
    rng = np.random.default_rng(2024)
    failures = 0
    for i in range(1000):
        sample = random_ragged_sample(rng, specs, f"p{i}", min_mods=2, max_mods=5,
                                      min_inst=1, max_inst=12)
        shuffled = shuffled_copy(sample, rng)
        model = models[8 if i % 2 == 0 else 32]
        for pool in T.POOL_MODES:
            model.pool = pool
            logits_a, rec_a = model.forward(sample)
            logits_b, rec_b = model.forward(shuffled)
            if logits_a.data.tobytes() != logits_b.data.tobytes():
                failures += 1
            if (rec_a is None) != (rec_b is None) or (
                    rec_a is not None and rec_a.counts != rec_b.counts):
                failures += 1
    check(1, "permutation invariance", failures == 0,
          f"{failures} mismatches over 1000 samples x 4 pool modes")


def test_criterion_2_gradient_correctness():
    """Full-model analytic gradients match central finite differences
    (h=1e-5) within rel. error 1e-4 for every parameter, all pool modes."""
    specs = [ModalitySpec("m_img", "dense", input_dim=6, max_instances=5),
             ModalitySpec("m_obj", "index_sequence", vocab_size=12, max_instances=5)]
    rng = np.random.default_rng(7)
    num_classes = 3
    worst = 0.0
    checked = 0
    for pool in T.POOL_MODES:
        model = FusionModel(specs, num_classes=num_classes, dim=8, pool=pool,
                            predictor_hidden=(32,), embed_dim=4, num_filters=3,
                            seed=11)
        params = model.named_parameters()
        weights = np.ones(num_classes)
        for s in range(5):
            sample = random_ragged_sample(rng, specs, f"g{pool}{s}", min_mods=1,
                                          max_mods=2, min_inst=1, max_inst=3,
                                          num_classes=num_classes)
            targets = sample.labels

            def loss_value():
                logits, _ = model.forward(sample, training=False)
                z = logits.data[0]
                per = np.maximum(z, 0) - z * targets + np.log1p(np.exp(-np.abs(z)))
                return float((weights * per).sum() / num_classes)

            with T.Tape():
                logits, _ = model.forward(sample, training=False)
                loss = weighted_sigmoid_ce(logits, targets, weights)
            T.backward(loss)
            for name, p in params.items():
                numeric = central_diff(loss_value, p.data, h=1e-5)
                analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
                worst = max(worst, max_rel_err(analytic, numeric))
                p.grad = None
            checked += 1
    check(2, "gradient correctness", worst < 1e-4,
          f"worst rel. error {worst:.2e} over {checked} samples x all parameters")


def test_criterion_3_importance_oracle():
    """Importance equals a per-dimension brute-force scan; counts sum to D
    and fractions to 1 within 1e-12."""
    specs = five_modalities()
    dim = 24
    model = FusionModel(specs, num_classes=2, dim=dim, pool="max", embed_dim=4,
                        num_filters=3, seed=3)
    rng = np.random.default_rng(17)
    bad = 0
    for i in range(200):
        sample = random_ragged_sample(rng, specs, f"i{i}", min_mods=1, max_mods=5,
                                      min_inst=1, max_inst=4)
        elements = build_set(sample, specs, None)
        rows = np.concatenate([
            model.encoders[mid].encode([p], training=False, uniforms=None).data
            for mid, p in elements], axis=0)
        expected = {mid: 0 for mid in model.modality_ids}
        for d in range(dim):
            best = 0
            for r in range(1, rows.shape[0]):
                if rows[r, d] > rows[best, d]:
                    best = r
            expected[elements[best][0]] += 1
        _, record = model.forward(sample)
        if record.counts != expected:
            bad += 1
        if sum(record.counts.values()) != dim:
            bad += 1
        if abs(sum(record.fractions.values()) - 1.0) > 1e-12:
            bad += 1
    check(3, "importance oracle", bad == 0, f"{bad} mismatches over 200 samples")


def test_criterion_4_planted_importance_recovery():
    """Trained max-pool models recover the planted informative modality and
    classify the held-out split at >= 0.95 in at least 9 of 10 seeds."""
    wins = 0
    accs = []
    for seed in range(10):
        cfg = SyntheticConfig(num_modalities=4, feature_dims=(8, 8, 8, 8),
                              min_instances=1, max_instances=3,
                              informative_modality="m0", missing_rates=0.3,
                              noise_scale=0.25, num_classes=2, num_samples=1000,
                              seed=seed)
        manifest, samples = generate_synthetic(cfg)
        train_split, test_split = samples[:800], samples[800:]
        model = FusionModel(manifest.modalities, num_classes=2, dim=32, pool="max",
                            predictor_hidden=(32,), seed=seed)
        train(model, train_split,
              TrainConfig(epochs=25, batch_size=16, peak_lr=0.003, seed=seed),
              task="single_label")
        metrics, records, _ = evaluate_model(model, test_split, "single_label")
        fim = aggregate_importance(records)
        accs.append(metrics["overall_accuracy"])
        if metrics["overall_accuracy"] >= 0.95 and max(fim, key=fim.get) == "m0":
            wins += 1
    check(4, "planted-importance recovery", wins >= 9,
          f"{wins}/10 seeds recovered (min acc {min(accs):.3f})")


def test_criterion_5_missing_modality_and_cardinality_robustness():
    """Forward succeeds on every nonempty modality subset and cardinalities
    1..40, with a constant parameter count and no placeholders."""
    specs = [ModalitySpec("a", "dense", input_dim=5, max_instances=40),
             ModalitySpec("b", "dense", input_dim=7, max_instances=40),
             ModalitySpec("c", "index_sequence", vocab_size=11, max_instances=40)]
    model = FusionModel(specs, num_classes=2, dim=16, pool="max", embed_dim=4,
                        num_filters=3, seed=1)
    rng = np.random.default_rng(5)
    counts = set()
    runs = 0

    def instances_for(mid, n):
        spec = next(s for s in specs if s.modality_id == mid)
        out = []
        for _ in range(n):
            if spec.kind == "dense":
                out.append(ModalityInstance(mid, rng.standard_normal(spec.input_dim)))
            else:
                out.append(ModalityInstance(
                    mid, rng.integers(0, spec.vocab_size, size=5)))
        return out

    subsets = [["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
               ["a", "b", "c"]]
    labels = np.array([1, 0], dtype=np.int64)
    for subset in subsets:
        sample = Sample(f"sub_{'_'.join(subset)}",
                        sum((instances_for(m, 2) for m in subset), []), labels)
        logits, _ = model.forward(sample)
        assert logits.data.shape == (1, 2)
        counts.add(model.parameter_count())
        runs += 1
    for cardinality in range(1, 41):
        sample = Sample(f"card_{cardinality}", instances_for("a", cardinality), labels)
        logits, _ = model.forward(sample)
        assert logits.data.shape == (1, 2)
        counts.add(model.parameter_count())
        runs += 1
    check(5, "missing-modality and cardinality robustness", len(counts) == 1,
          f"{runs} cases, parameter counts seen: {sorted(counts)}")


def test_criterion_6_training_recipe_conformance():
    sched = TrainConfig(epochs=25, warmup_epochs=5, peak_lr=0.001)
    ok_zero = lr_at(sched, 0.0) == 0.0
    ok_peak = lr_at(sched, 5.0) == 0.001
    eps = 1e-9
    ok_cont = abs(lr_at(sched, 5.0 - eps) - lr_at(sched, 5.0 + eps)) < 1e-9

    bias = init_classifier_bias(4, prior=0.01)
    ok_bias = bool(np.all(np.abs(T.sigmoid_values(bias) - 0.01) <= 1e-12))

    params = {"w": T.parameter(np.full((3, 2), 2.0))}
    state = AdamWState(params, weight_decay=0.01)
    adamw_step(params, {"w": np.zeros((3, 2))}, state, lr=0.5)
    expected = 2.0 * (1.0 - 0.5 * 0.01)
    ok_decay = bool(np.all(params["w"].data == expected))

    ok = ok_zero and ok_peak and ok_cont and ok_bias and ok_decay
    check(6, "training recipe conformance", ok,
          f"lr0={ok_zero} peak={ok_peak} continuity={ok_cont} "
          f"bias={ok_bias} decay={ok_decay}")


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        C = int(rng.integers(2, 9))
        # roc_auc vs O(n^2) pairwise oracle (ties forced via coarse grid)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        s = np.round(rng.random(n), 2)
        worst = max(worst, abs(roc_auc(s, y) - auc_pairwise_oracle(s, y)))
        # f1 suite vs counting oracle
        pred = (rng.random((n, C)) < 0.4).astype(int)
        true = (rng.random((n, C)) < 0.4).astype(int)
        for got, want in zip(f1_suite(pred, true), f1_counts_oracle(pred, true)):
            worst = max(worst, abs(got - want))
        # accuracy vs counting oracle
        pc = rng.integers(0, C, size=n)
        tc = rng.integers(0, C, size=n)
        overall, per_class = accuracy_suite(pc, tc, C)
        o_overall, o_per_class = accuracy_counting_oracle(pc, tc, C)
        worst = max(worst, abs(overall - o_overall))
        worst = max(worst, max(abs(a - b) for a, b in zip(per_class, o_per_class)))
    check(7, "metric oracles", worst <= 1e-12, f"worst abs deviation {worst:.2e}")


def test_criterion_8_set_vs_concat_harness():
    """Both fusion and concat models train end-to-end on a ragged task with
    30% missing noise modalities; the set model clears majority + 20 pts."""
    cfg = SyntheticConfig(num_modalities=3, feature_dims=(6, 6, 6),
                          min_instances=1, max_instances=4,
                          informative_modality="m0", missing_rates=0.3,
                          noise_scale=0.25, num_classes=2, num_samples=400, seed=99)
    manifest, samples = generate_synthetic(cfg)
    train_split, test_split = samples[:300], samples[300:]
    config = TrainConfig(epochs=15, batch_size=16, peak_lr=0.003, seed=99)

    set_model = FusionModel(manifest.modalities, num_classes=2, dim=16, pool="max",
                            predictor_hidden=(16,), seed=99)
    train(set_model, train_split, config, task="single_label")
    set_metrics, _, _ = evaluate_model(set_model, test_split, "single_label")

    concat_model = ConcatModel(manifest.modalities, num_classes=2, dim=16,
                               predictor_hidden=(16,), seed=99)
    train(concat_model, train_split, config, task="single_label")
    concat_metrics, _, _ = evaluate_model(concat_model, test_split, "single_label")

    true = np.argmax(np.stack([s.labels for s in test_split]), axis=1)
    majority = max(np.mean(true == 0), np.mean(true == 1))
    set_acc = set_metrics["overall_accuracy"]
    ok = set_acc >= majority + 0.20
    check(8, "set-vs-concat harness", ok,
          f"set acc {set_acc:.3f}, concat acc "
          f"{concat_metrics['overall_accuracy']:.3f}, majority {majority:.3f}")


def test_criterion_9_determinism(tmp_path):
    cfg = SyntheticConfig(num_modalities=2, feature_dims=(4, 4), num_samples=327,
                          seed=4)
    assert main(["gen-synthetic", "--out", str(tmp_path / "data"),
                 "--samples", "327", "--modalities", "2", "--seed", "4"]) == 0
    (data_dir,) = [p for p in (tmp_path / "data").iterdir() if p.is_dir()]

    checkpoints = []
    for sub in ("runA", "runB"):
        out = tmp_path / sub
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     "--epochs", "3", "--warmup-epochs", "1", "--dim", "8",
                     "--seed", "12"]) == 0
        (run_dir,) = [p for p in out.iterdir() if p.is_dir()]
        checkpoints.append((run_dir / "checkpoint.json").read_bytes())
    ok_ckpt = checkpoints[0] == checkpoints[1]

    splits_a = kfold_split(327, k=5, seed=0)
    splits_b = kfold_split(327, k=5, seed=0)
    ok_repro = all(np.array_equal(ea, eb) and np.array_equal(ta, tb)
                   for (ta, ea), (tb, eb) in zip(splits_a, splits_b))
    sizes = [len(ev) for _, ev in splits_a]
    ok_sizes = sizes == [66, 66, 65, 65, 65]

    ok = ok_ckpt and ok_repro and ok_sizes
    check(9, "determinism", ok,
          f"identical checkpoints={ok_ckpt}, folds reproduce={ok_repro}, "
          f"sizes={sizes}")
