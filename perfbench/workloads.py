"""Benchmark workloads: the inputs each one generates from a seed, and the
model and training recipe it runs them through.

Every workload plants its class signal in modality ``m0`` so that the
held-out feature importance has a known right answer. The program sees only
the generated dataset, written to disk in the documented JSON format; the
seed picks the data and nothing else. See WORKLOADS.md for why each
workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mmsets import data as mdata
from mmsets import fusion as mfusion
from mmsets import training as mtraining

PLANTED = "m0"
TRAIN_SAMPLES = 320
HELDOUT_SAMPLES = 160

# Sequence workload: vocabulary and lengths chosen so that some sequences
# are shorter than the widest kernel (4) and take the padding path.
SEQ_VOCAB = 200
SEQ_LENGTHS = (3, 20)
SEQ_CLASS_TOKENS = 10


# One training recipe for every workload; the rest are the CLI defaults.
EPOCHS = 8
BATCH_SIZE = 16
WARMUP_EPOCHS = 1
PEAK_LR = 0.03
POOL = "max"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "dense" or "seq-dense": how the inputs are generated
    model: str           # "fusion" (max pool, so it has a FIM) or "concat"
    dim: int
    quality_models: int = 3  # model seeds whose held-out results are averaged


WORKLOADS = {w.name: w for w in (
    Workload("dense-d32", kind="dense", model="fusion", dim=32),
    Workload("dense-d1024", kind="dense", model="fusion", dim=1024, quality_models=2),
    Workload("seq-dense", kind="seq-dense", model="fusion", dim=32),
    Workload("concat-d32", kind="dense", model="concat", dim=32),
)}


def generate(workload: Workload, seed: int):
    """(manifest, samples) for the workload: TRAIN_SAMPLES training samples
    followed by HELDOUT_SAMPLES held-out ones. Same seed, same bytes."""
    n = TRAIN_SAMPLES + HELDOUT_SAMPLES
    if workload.kind == "dense":
        # the synthetic generator's defaults: 4 dense 8-feature modalities,
        # 1-3 instances each, signal in m0
        return mdata.generate_synthetic(mdata.SyntheticConfig(num_samples=n, seed=seed))
    return _generate_seq_dense(n, seed)


def _generate_seq_dense(n: int, seed: int):
    """One index-sequence modality carrying a class-conditional token
    distribution (m0) plus one dense noise modality (m1), 1-3 instances each.

    Each class owns a fixed, disjoint set of SEQ_CLASS_TOKENS tokens spread
    over the vocabulary, and every token of its sequences is drawn uniformly
    from that set. Like the dense generator's class means, the class
    distributions do not depend on the seed; only the draws do. Token 0
    belongs to class 0 and is an ordinary token, as the dataset format allows.
    With a weaker signal (part of each sequence uniform over the vocabulary)
    the planted modality's importance share moved by 15-25% between seeds.
    """
    num_classes = 2
    stride = SEQ_VOCAB // (num_classes * SEQ_CLASS_TOKENS)
    class_tokens = stride * np.arange(num_classes * SEQ_CLASS_TOKENS).reshape(
        num_classes, SEQ_CLASS_TOKENS)
    rng = np.random.default_rng(seed)
    assigned = np.arange(n) % num_classes
    rng.shuffle(assigned)
    lo, hi = SEQ_LENGTHS
    samples = []
    for i in range(n):
        c = int(assigned[i])
        instances = []
        for _ in range(int(rng.integers(1, 4))):
            tokens = rng.choice(class_tokens[c], size=int(rng.integers(lo, hi + 1)))
            instances.append(mdata.ModalityInstance(PLANTED, tokens.astype(np.int64)))
        for _ in range(int(rng.integers(1, 4))):
            instances.append(mdata.ModalityInstance("m1", rng.standard_normal(8)))
        labels = np.zeros(num_classes, dtype=np.int64)
        labels[c] = 1
        samples.append(mdata.Sample(sample_id=f"s{i:05d}", instances=instances,
                                    labels=labels))
    specs = [mfusion.ModalitySpec(PLANTED, mfusion.INDEX_SEQUENCE, vocab_size=SEQ_VOCAB),
             mfusion.ModalitySpec("m1", mfusion.DENSE, input_dim=8)]
    manifest = mdata.DatasetManifest(modalities=specs,
                                     class_names=[f"class{c}" for c in range(num_classes)],
                                     task="single_label", sample_count=n)
    return manifest, samples


def build_model(workload: Workload, manifest, seed: int):
    """The model a user would build for this workload."""
    if workload.model == "concat":
        return mfusion.ConcatModel(manifest.modalities, manifest.num_classes,
                                   dim=workload.dim, seed=seed)
    return mfusion.FusionModel(manifest.modalities, manifest.num_classes,
                               dim=workload.dim, pool=POOL, seed=seed)


def train_config(seed: int):
    return mtraining.TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE,
                                 warmup_epochs=WARMUP_EPOCHS, peak_lr=PEAK_LR, seed=seed)
