import numpy as np
import pytest

from mmsets.data import SyntheticConfig, generate_synthetic
from mmsets.evaluate import PREDICT_CHUNK, decide, evaluate_model, predict_scores, run_kfold
from mmsets.fusion import FusionModel, ImportanceRecord, aggregate_importance
from mmsets.tensor import sigmoid_values
from mmsets.training import TrainConfig


def small_dataset(task="single_label", n=40, seed=0):
    cfg = SyntheticConfig(num_modalities=2, feature_dims=(4, 4), num_samples=n,
                          seed=seed, task=task, noise_scale=0.1)
    return generate_synthetic(cfg)


def test_decide_rules():
    scores = np.array([[0.9, 0.2], [0.3, 0.6]])
    assert decide(scores, "single_label").tolist() == [0, 1]
    assert decide(scores, "multi_label").tolist() == [[1, 0], [0, 1]]


def test_predict_scores_shapes_and_records():
    manifest, samples = small_dataset()
    model = FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max")
    scores, owners = predict_scores(model, samples)
    assert scores.shape == (len(samples), 2)
    assert np.all((scores >= 0) & (scores <= 1))
    assert owners.shape == (len(samples), 8)
    model = FusionModel(manifest.modalities, num_classes=2, dim=8, pool="sum")
    _, owners = predict_scores(model, samples)
    assert owners is None


def test_predict_scores_chunks_match_single_forwards():
    # more samples than one chunk holds, so the last chunk is partial
    manifest, samples = small_dataset(n=PREDICT_CHUNK + 9)
    model = FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max")
    scores, owners = predict_scores(model, samples)
    for i, sample in enumerate(samples):
        logits, record = model.forward(sample)
        np.testing.assert_allclose(scores[i], sigmoid_values(logits.data[0]),
                                   rtol=0, atol=1e-12)
        assert ImportanceRecord.from_owners(sample.sample_id, model.modality_ids,
                                            owners[i]) == record


def test_evaluate_model_single_label_fields():
    manifest, samples = small_dataset()
    model = FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max")
    metrics, records, scores = evaluate_model(model, samples, "single_label")
    assert metrics["overall_accuracy"] is not None
    assert metrics["roc_auc"] is not None
    assert len(metrics["per_class_accuracy"]) == 2
    for key in ("overall_accuracy", "roc_auc", "f1_micro", "f1_macro", "f1_samples"):
        assert 0.0 <= metrics[key] <= 1.0


def test_evaluate_model_multi_label_fields():
    manifest, samples = small_dataset(task="multi_label")
    model = FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max")
    metrics, _, _ = evaluate_model(model, samples, "multi_label")
    assert metrics["overall_accuracy"] is None
    assert metrics["roc_auc"] is None
    for key in ("f1_micro", "f1_macro", "f1_samples"):
        assert 0.0 <= metrics[key] <= 1.0


def test_run_kfold_structure_and_importance():
    manifest, samples = small_dataset(n=30)

    def factory(fold):
        return FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max",
                           predictor_hidden=(8,), seed=100 + fold)

    config = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8, seed=1)
    report, records = run_kfold(samples, "single_label", factory, config, k=3, seed=2)
    assert report.num_folds == 3
    assert len(report.folds) == 3
    assert {f["fold"] for f in report.folds} == {0, 1, 2}
    assert sum(f["n_eval"] for f in report.folds) == 30
    assert report.fim is None  # the caller aggregates the records
    assert sum(aggregate_importance(records).values()) == pytest.approx(1.0, abs=1e-9)
    assert len(records) == 30  # every sample contributes exactly once
    assert report.mean["overall_accuracy"] is not None


def test_run_kfold_reproducible():
    manifest, samples = small_dataset(n=24)

    def factory(fold):
        return FusionModel(manifest.modalities, num_classes=2, dim=8, pool="sum",
                           predictor_hidden=(8,), seed=7 + fold)

    config = TrainConfig(epochs=2, warmup_epochs=1, batch_size=8, seed=3)
    r1, _ = run_kfold(samples, "single_label", factory, config, k=3, seed=4)
    r2, _ = run_kfold(samples, "single_label", factory, config, k=3, seed=4)
    assert r1.to_json() == r2.to_json()


def test_group_accuracy_reported():
    manifest, samples = small_dataset(n=30)
    for i, s in enumerate(samples):
        s.group = "g0" if i % 3 else "g1"

    def factory(fold):
        return FusionModel(manifest.modalities, num_classes=2, dim=8, pool="max",
                           predictor_hidden=(8,), seed=fold)

    config = TrainConfig(epochs=1, warmup_epochs=0, batch_size=8, seed=5)
    report, _ = run_kfold(samples, "single_label", factory, config, k=3, seed=6)
    assert set(report.per_group_accuracy) == {"g0", "g1"}
    for v in report.per_group_accuracy.values():
        assert 0.0 <= v <= 1.0
