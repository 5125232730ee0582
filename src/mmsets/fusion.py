"""Multi-modal set fusion models.

Each modality is encoded to a common dimension D, the encoded instances are
pooled as an unordered set (sum/max/min/mean), and an MLP predicts class
logits from the pooled vector. Max/min pooling additionally tracks, per
pooled dimension, which modality supplied the extremum; the resulting
argmax-count fractions are the per-sample feature importance.

A fixed-slot concatenation baseline is included for comparison: every
modality gets a constant number of slots, missing slots are zero blocks,
and extra instances are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from . import tensor as T
from .errors import EmptySetError, check_int, check_real
from .seeding import derive_rng
from .training import init_classifier_bias

DENSE = "dense"
INDEX_SEQUENCE = "index_sequence"
PAD_INDEX = 0


@dataclass(frozen=True)
class ModalitySpec:
    """Declaration of one feature modality.

    Dense modalities carry float vectors of length ``input_dim``; index
    sequences carry int vectors with values in [0, vocab_size). At most
    ``max_instances`` occurrences per sample enter the set; extras are
    subsampled away.
    """

    modality_id: str
    kind: str
    input_dim: int | None = None
    vocab_size: int | None = None
    max_instances: int = 10

    def __post_init__(self):
        if not isinstance(self.modality_id, str) or not self.modality_id:
            raise ValueError("modality_id must be a nonempty string")
        if self.kind == DENSE:
            check_int(f"input_dim of dense modality {self.modality_id!r}", self.input_dim)
        elif self.kind == INDEX_SEQUENCE:
            check_int(f"vocab_size of index_sequence modality {self.modality_id!r}",
                      self.vocab_size)
        else:
            raise ValueError(f"unknown modality kind {self.kind!r}")
        check_int(f"max_instances of modality {self.modality_id!r}", self.max_instances)

    def to_dict(self) -> dict:
        d = {"modality_id": self.modality_id, "kind": self.kind,
             "max_instances": self.max_instances}
        if self.kind == DENSE:
            d["input_dim"] = self.input_dim
        else:
            d["vocab_size"] = self.vocab_size
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModalitySpec":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters both models share; the one place their defaults live.

    Lists are stored as tuples. A value of the wrong type or out of range
    raises ValueError naming its field.
    """

    dim: int = 32
    predictor_hidden: tuple[int, ...] = (32,)
    embed_dim: int = 16
    num_filters: int = 16
    kernel_widths: tuple[int, ...] = (2, 3, 4)
    dropout_p: float = 0.25
    class_prior: float = 0.01

    def __post_init__(self):
        for name in ("predictor_hidden", "kernel_widths"):
            widths = getattr(self, name)
            if not isinstance(widths, (list, tuple)):
                raise ValueError(f"{name} must be a list of integers, got {widths!r}")
            object.__setattr__(self, name, tuple(widths))
            for i, width in enumerate(widths):
                check_int(f"{name}[{i}]", width)
        if not self.kernel_widths:
            raise ValueError("kernel_widths must hold at least one width")
        for name in ("dim", "embed_dim", "num_filters"):
            check_int(name, getattr(self, name))
        check_real("dropout_p", self.dropout_p, 0.0, 1.0)
        check_real("class_prior", self.class_prior, 0.0, 1.0, open_low=True)


@dataclass
class ImportanceRecord:
    """Per-sample attribution: how many of the D pooled dimensions each
    modality won under extremum pooling."""

    sample_id: str
    counts: dict[str, int]
    fractions: dict[str, float]

    @classmethod
    def from_counts(cls, sample_id: str, counts: dict[str, int]) -> "ImportanceRecord":
        total = sum(counts.values())
        return cls(sample_id=sample_id, counts=dict(counts),
                   fractions={m: c / total for m, c in counts.items()})


def build_set(sample, specs, rng=None):
    """Canonically ordered (modality_id, payload) elements of a sample.

    Instances are grouped by modality, ordered by payload content, and
    subsampled without replacement down to the modality's cap. Keying the
    order on content (not on storage position) makes the element list, and
    therefore every downstream pooling reduction, independent of the order
    in which instances arrived; subsampling picks positions in the sorted
    list, so it inherits the same independence.

    When ``rng`` is None the stream used by inference forwards is derived
    from the sample id, so a standalone call reproduces exactly the set an
    eval-mode forward sees. Instances of modalities absent from ``specs``
    are ignored. Raises EmptySetError when nothing usable remains.
    """
    spec_by_id = {spec.modality_id: spec for spec in specs}
    grouped: dict[str, list[np.ndarray]] = {mid: [] for mid in spec_by_id}
    for inst in sample.instances:
        if inst.modality_id in grouped:
            grouped[inst.modality_id].append(inst.payload)
    elements = []
    for mid in sorted(grouped):
        payloads = sorted(grouped[mid], key=np.ndarray.tobytes)
        cap = spec_by_id[mid].max_instances
        if len(payloads) > cap:
            if rng is None:
                rng = derive_rng("eval", sample.sample_id)
            keep = rng.choice(len(payloads), size=cap, replace=False)
            payloads = [payloads[i] for i in sorted(keep)]
        elements.extend((mid, p) for p in payloads)
    if not elements:
        raise EmptySetError("no usable instances after filtering to known modalities",
                            sample_id=sample.sample_id)
    return elements


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[:-1]))
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseEncoder:
    """Single FC layer with ELU and dropout: a block of payloads [n,M] -> [n,D]."""

    def __init__(self, spec: ModalitySpec, config: ModelConfig, rng: np.random.Generator):
        self.spec = spec
        self.dropout_p = config.dropout_p
        self.weight = T.parameter(_uniform_init(rng, (spec.input_dim, config.dim)))
        self.bias = T.parameter(np.zeros((1, config.dim)))

    def encode(self, payloads, training: bool, uniforms) -> T.Tensor:
        """Encode a list of n payloads, one row each.

        ``uniforms`` are the [n,D] dropout uniforms in training mode and
        None in eval (see ``tensor.dropout``).
        """
        try:
            x = np.array(payloads, dtype=np.float64)
        except ValueError:  # payloads of different lengths
            x = None
        if x is None or x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            shapes = sorted({np.shape(p) for p in payloads}) if x is None else x.shape
            raise ValueError(
                f"modality {self.spec.modality_id!r} expects vectors of length "
                f"{self.spec.input_dim}, got shape {shapes}"
            )
        h = T.elu(T.linear(T.Tensor(x), self.weight, self.bias))
        return T.dropout(h, self.dropout_p, training, uniforms)

    def named_parameters(self, prefix: str) -> dict[str, T.Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class SequenceEncoder:
    """Index-sequence encoder: lookup table, multi-width 1-D convolutions
    with max-over-time, then a projection to the common dimension.

    Sequences shorter than the widest kernel are right-padded with the
    reserved index 0 so the convolution is always defined. A block of
    sequences is encoded at once: they are joined end to end, and each
    one's max-over-time covers only the windows inside it.
    """

    def __init__(self, spec: ModalitySpec, config: ModelConfig, rng: np.random.Generator):
        self.spec = spec
        self.dropout_p = config.dropout_p
        self.kernel_widths = config.kernel_widths
        self.embedding = T.parameter(_uniform_init(rng, (spec.vocab_size, config.embed_dim)))
        self.kernels = {
            w: T.parameter(_uniform_init(rng, (w, config.embed_dim, config.num_filters)))
            for w in self.kernel_widths
        }
        self.projection = T.parameter(
            _uniform_init(rng, (len(self.kernel_widths) * config.num_filters, config.dim))
        )
        self.bias = T.parameter(np.zeros((1, config.dim)))

    def encode(self, payloads, training: bool, uniforms) -> T.Tensor:
        """Encode a list of n sequences, one row each.

        ``uniforms`` feed the dropout as in ``DenseEncoder.encode``.
        """
        pad_to = max(self.kernel_widths)
        padded = []
        for payload in payloads:
            idx = np.asarray(payload)
            if idx.ndim != 1 or idx.size == 0 or idx.dtype.kind not in "iu":
                raise ValueError(
                    f"modality {self.spec.modality_id!r} expects a nonempty int sequence"
                )
            if idx.size < pad_to:
                idx = np.concatenate([idx, np.full(pad_to - idx.size, PAD_INDEX,
                                                   dtype=idx.dtype)])
            padded.append(idx)
        joined = np.concatenate(padded)
        if joined.min() < 0 or joined.max() >= self.spec.vocab_size:
            raise ValueError(
                f"modality {self.spec.modality_id!r}: index out of range "
                f"[0, {self.spec.vocab_size})"
            )
        lengths = [idx.size for idx in padded]
        emb = T.embedding_lookup(self.embedding, joined)
        pooled = []
        for w in self.kernel_widths:
            conv = T.conv1d_over_sequence(emb, self.kernels[w], lengths)
            # each sequence's windows form one set for the max-over-time
            starts = list(accumulate((n - w + 1 for n in lengths[:-1]), initial=0))
            best, _ = T.reduce_over_set(conv, "max", starts)
            pooled.append(best)
        h = T.elu(T.linear(T.concat(pooled, axis=1), self.projection, self.bias))
        return T.dropout(h, self.dropout_p, training, uniforms)

    def named_parameters(self, prefix: str) -> dict[str, T.Tensor]:
        params = {f"{prefix}.embedding": self.embedding}
        for w in self.kernel_widths:
            params[f"{prefix}.conv{w}"] = self.kernels[w]
        params[f"{prefix}.projection"] = self.projection
        params[f"{prefix}.bias"] = self.bias
        return params


class Mlp:
    """Plain MLP with ELU hidden activations and a linear output layer."""

    def __init__(self, sizes, rng, final_bias: np.ndarray | None = None):
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            self.weights.append(T.parameter(_uniform_init(rng, (a, b))))
            last = i == len(sizes) - 2
            bias = final_bias if (last and final_bias is not None) else np.zeros((1, b))
            self.biases.append(T.parameter(np.array(bias, dtype=np.float64)))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = T.linear(x, w, b)
            if i != last:
                x = T.elu(x)
        return x

    def named_parameters(self, prefix: str) -> dict[str, T.Tensor]:
        params = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            params[f"{prefix}.{i}.weight"] = w
            params[f"{prefix}.{i}.bias"] = b
        return params


class _ModelCore:
    """What both models share: the ModelConfig, the sorted specs, one encoder
    per modality, the predictor and their parameters. A subclass sets up its
    combine step before calling this constructor, and defines ``forward`` and
    ``combined_dim``, the width of the vector it hands the predictor."""

    def __init__(self, specs, num_classes: int, seed: int, config: dict):
        ids = [s.modality_id for s in specs]
        if not ids:
            raise ValueError("a model needs at least one modality")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate modality ids: {sorted(ids)}")
        check_int("num_classes", num_classes)
        self.specs = tuple(sorted(specs, key=lambda s: s.modality_id))
        self.modality_ids = tuple(s.modality_id for s in self.specs)
        self.num_classes = num_classes
        self.config = cfg = ModelConfig(**config)
        rng = derive_rng(seed, "init")
        self.encoders = {
            s.modality_id: (DenseEncoder if s.kind == DENSE else SequenceEncoder)(s, cfg, rng)
            for s in self.specs
        }
        self.predictor = Mlp([self.combined_dim, *cfg.predictor_hidden, num_classes], rng,
                             final_bias=init_classifier_bias(num_classes, cfg.class_prior))

    @staticmethod
    def _sample_rngs(samples, training: bool, rngs):
        if rngs is None:
            if training:
                raise ValueError("training forward needs an rng per sample")
            return [None] * len(samples)
        if len(rngs) != len(samples):
            raise ValueError(f"got {len(rngs)} rngs for {len(samples)} samples")
        return rngs

    def _encode(self, element_lists, training: bool, rngs):
        """Encode every element of a batch, one block per modality.

        ``element_lists[b]`` holds sample b's (modality_id, payload) pairs in
        its element order; "sample-major" numbers all the elements in that
        order, sample after sample. Returns the encoded rows, modality after
        modality, and each row's sample-major position; None and an empty
        array when the batch has no elements. In training mode each sample
        draws its rows' dropout uniforms from its own stream, in element
        order, as one block.
        """
        positions = {mid: [] for mid in self.modality_ids}
        payloads = {mid: [] for mid in self.modality_ids}
        n = 0
        for elements in element_lists:
            for mid, payload in elements:
                positions[mid].append(n)
                payloads[mid].append(payload)
                n += 1
        order = np.array([i for mid in self.modality_ids for i in positions[mid]],
                         dtype=np.intp)
        if n == 0:
            return None, order
        uniforms = None
        if training:
            uniforms = np.concatenate([rng.random((len(elements), self.config.dim))
                                       for elements, rng in zip(element_lists, rngs)])[order]
        blocks = []
        lo = 0
        for mid in self.modality_ids:
            hi = lo + len(payloads[mid])
            if hi > lo:
                blocks.append(self.encoders[mid].encode(
                    payloads[mid], training, None if uniforms is None else uniforms[lo:hi]))
            lo = hi
        return T.concat(blocks, axis=0), order

    def named_parameters(self) -> dict[str, T.Tensor]:
        params = {}
        for mid in self.modality_ids:
            params.update(self.encoders[mid].named_parameters(f"encoder.{mid}"))
        params.update(self.predictor.named_parameters("predictor"))
        return params

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values())


class FusionModel(_ModelCore):
    """Set fusion model: per-modality encoders, pooling, predictor.

    ``config`` takes the ModelConfig fields as keywords, e.g. ``dim=64``.
    """

    def __init__(self, specs, num_classes: int, *, pool: str = "max", seed: int = 0,
                 **config):
        self.pool = pool
        super().__init__(specs, num_classes, seed, config)
        self._mod_index = {m: i for i, m in enumerate(self.modality_ids)}

    @property
    def combined_dim(self) -> int:
        return self.config.dim

    @property
    def pool(self) -> str:
        return self._pool

    @pool.setter
    def pool(self, mode: str) -> None:
        # switching the pooling mode is legal (it owns no parameters)
        if mode not in T.POOL_MODES:
            raise ValueError(f"pool must be one of {T.POOL_MODES}, got {mode!r}")
        self._pool = mode

    def forward(self, sample, training: bool = False, rng=None):
        """``forward_batch`` on one sample: (logits [1,C], importance record)."""
        logits, records = self.forward_batch([sample], training,
                                             None if rng is None else [rng])
        return logits, records[0]

    def forward_batch(self, samples, training: bool = False, rngs=None):
        """Encode, pool, predict a batch. Returns (logits [B,C], records).

        ``rngs`` holds one stream per sample, drawn from for its subsampling
        and then its dropout; training needs it. Each sample's elements are
        encoded with the batch's other elements of the same modality, then
        pooled over its own rows only, so a sample's logits do not depend on
        its batch beyond floating-point rounding. ``records[b]`` is sample
        b's importance record under max/min pooling and None under sum and
        mean, which carry no per-dimension attribution. Without rngs
        (inference) a stream derived from each sample id does the
        subsampling, so repeated calls are bit-identical.
        """
        rngs = self._sample_rngs(samples, training, rngs)
        element_lists = [build_set(s, self.specs, rng) for s, rng in zip(samples, rngs)]
        rows, order = self._encode(element_lists, training, rngs)
        sizes = np.array([len(elements) for elements in element_lists])
        x = T.scatter_rows(rows, order, (order.size, self.config.dim))
        pooled, argidx = T.reduce_over_set(x, self.pool, np.cumsum(sizes) - sizes)
        records = [None] * len(samples)
        if argidx is not None:
            owners = np.array([self._mod_index[mid] for elements in element_lists
                               for mid, _ in elements])
            for b, sample in enumerate(samples):
                won = np.bincount(owners[argidx[b]], minlength=len(self.modality_ids))
                counts = {m: int(won[i]) for i, m in enumerate(self.modality_ids)}
                records[b] = ImportanceRecord.from_counts(sample.sample_id, counts)
        return self.predictor(pooled), records


class ConcatModel(_ModelCore):
    """Fixed-slot concatenation baseline.

    Every modality owns ``slots[modality_id]`` encoder slots, its spec's
    max_instances. Instances fill slots in arrival order, missing slots are
    exact zero blocks, and extra instances are dropped. The concatenated
    [1, sum(slots)*D] vector feeds an MLP. Deliberately not permutation
    invariant. ``config`` takes the ModelConfig fields as keywords.
    """

    def __init__(self, specs, num_classes: int, *, seed: int = 0, **config):
        self.slots = {s.modality_id: s.max_instances for s in specs}
        super().__init__(specs, num_classes, seed, config)

    @property
    def combined_dim(self) -> int:
        return sum(self.slots.values()) * self.config.dim

    def forward(self, sample, training: bool = False, rng=None):
        """``forward_batch`` on one sample: (logits [1,C], None)."""
        logits, records = self.forward_batch([sample], training,
                                             None if rng is None else [rng])
        return logits, records[0]

    def forward_batch(self, samples, training: bool = False, rngs=None):
        """Returns (logits [B,C], [None]*B); padding makes every sample total.

        ``rngs`` (one stream per sample) feeds the dropout and is needed in
        training. Row b of the [B, sum(slots)*D] predictor input is sample
        b's slot vector.
        """
        rngs = self._sample_rngs(samples, training, rngs)
        n_slots = sum(self.slots.values())
        element_lists, slot_rows = [], []
        for b, sample in enumerate(samples):
            elements = []
            first = b * n_slots
            for spec in self.specs:
                mid = spec.modality_id
                got = [inst.payload for inst in sample.instances if inst.modality_id == mid]
                got = got[: self.slots[mid]]
                elements.extend((mid, payload) for payload in got)
                slot_rows.extend(range(first, first + len(got)))
                first += self.slots[mid]
            element_lists.append(elements)
        rows, order = self._encode(element_lists, training, rngs)
        shape = (len(samples), n_slots * self.config.dim)
        if rows is None:
            x = T.Tensor(np.zeros(shape))
        else:
            x = T.scatter_rows(rows, np.array(slot_rows, dtype=np.intp)[order], shape)
        return self.predictor(x), [None] * len(samples)


def aggregate_importance(records) -> dict[str, float]:
    """Mean per-modality importance fraction over a list of records."""
    if not records:
        raise ValueError("cannot aggregate an empty list of importance records")
    totals: dict[str, float] = {}
    for rec in records:
        for mid, frac in rec.fractions.items():
            totals[mid] = totals.get(mid, 0.0) + frac
    return {mid: totals[mid] / len(records) for mid in sorted(totals)}
