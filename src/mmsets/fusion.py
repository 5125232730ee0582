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

import numpy as np

from . import tensor as T
from .errors import EmptySetError, check_int, check_real
from .seeding import derive_rng, stable_hash
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
        if not isinstance(d, dict):
            raise ValueError(f"a modality must be a JSON object, not {type(d).__name__}")
        for key in ("modality_id", "kind"):
            if key not in d:
                raise ValueError(f"modality is missing {key!r}")
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
        if not self.kernel_widths or len(set(self.kernel_widths)) != len(self.kernel_widths):
            raise ValueError(f"kernel_widths must hold distinct widths, at least one, "
                             f"got {list(self.kernel_widths)}")
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
    def from_owners(cls, sample_id: str, modality_ids, owners_row) -> "ImportanceRecord":
        """The record of one row of ``forward_batch``'s owner matrix: entry d
        is the index in ``modality_ids`` of the modality that won dimension d."""
        won = np.bincount(owners_row, minlength=len(modality_ids))
        counts = {m: int(won[i]) for i, m in enumerate(modality_ids)}
        return cls(sample_id=sample_id, counts=counts,
                   fractions={m: c / len(owners_row) for m, c in counts.items()})


def _group_by_modality(sample, modality_ids) -> dict[str, list[np.ndarray]]:
    """A sample's payloads per id of ``modality_ids``, in that order, each list
    in arrival order; instances of other modalities are left out."""
    grouped = {mid: [] for mid in modality_ids}
    for inst in sample.instances:
        if inst.modality_id in grouped:
            grouped[inst.modality_id].append(inst.payload)
    return grouped


def _sorted_runs(sample, specs) -> dict[str, list[np.ndarray]]:
    """A sample's payloads per spec, in the specs' order, each run ordered
    by payload content and none left out. Raises EmptySetError when no
    instance is of a modality in ``specs``."""
    grouped = _group_by_modality(sample, [spec.modality_id for spec in specs])
    if not any(grouped.values()):
        raise EmptySetError("no usable instances after filtering to known modalities",
                            sample_id=sample.sample_id)
    for got in grouped.values():
        got.sort(key=np.ndarray.tobytes)
    return grouped


def build_set(sample, specs, rng=None):
    """A sample's set as ``{modality_id: [payload]}``, one entry per spec in
    id order.

    Each list is ordered by payload content and subsampled without
    replacement down to the modality's cap. Keying the order on content (not
    on storage position) makes the set, and therefore every downstream
    pooling reduction, independent of the order in which instances arrived;
    subsampling picks positions in the sorted list, so it inherits the same
    independence.

    When ``rng`` is None the stream used by inference forwards is derived
    from the sample id, so a standalone call reproduces exactly the set an
    eval-mode forward sees. Instances of modalities absent from ``specs``
    are ignored. Raises EmptySetError when nothing usable remains.
    """
    specs = sorted(specs, key=lambda spec: spec.modality_id)
    grouped = _sorted_runs(sample, specs)
    for spec in specs:
        payloads = grouped[spec.modality_id]
        if len(payloads) > spec.max_instances:
            if rng is None:
                rng = derive_rng("eval", sample.sample_id)
            keep = rng.choice(len(payloads), size=spec.max_instances, replace=False)
            grouped[spec.modality_id] = [payloads[i] for i in sorted(keep)]
    return grouped


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = int(np.prod(shape[:-1]))
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class DenseEncoder:
    """Single FC layer with ELU: a block of payloads [n,M] -> [n,D]. ``params``
    holds ``weight`` and ``bias``."""

    def __init__(self, spec: ModalitySpec, config: ModelConfig, rng: np.random.Generator):
        self.spec = spec
        self.params = {"weight": T.parameter(_uniform_init(rng, (spec.input_dim, config.dim))),
                       "bias": T.parameter(np.zeros((1, config.dim)))}

    def rows(self, payloads) -> np.ndarray:
        """n payloads as one [n,M] float64 array; ValueError unless each is a
        vector of length M."""
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
        return x

    def encode(self, payloads) -> T.Tensor:
        """Encode n payloads, a list or an [n,M] array, one row each."""
        x = self.rows(payloads)
        return T.elu(T.linear(T.Tensor(x), self.params["weight"], self.params["bias"]))


class SequenceEncoder:
    """Index-sequence encoder: lookup table, multi-width 1-D convolutions
    with max-over-time, then a projection to the common dimension.

    Sequences shorter than the widest kernel are right-padded with index 0
    so the convolution is always defined. Index 0 is also a real token, so
    padding aliases it (ROADMAP item 4, still open). A block of
    sequences is encoded at once: they are joined end to end, and each
    one's max-over-time covers only the windows inside it. ``params`` holds
    ``embedding``, ``conv<w>`` per kernel width, ``projection`` and ``bias``.
    """

    def __init__(self, spec: ModalitySpec, config: ModelConfig, rng: np.random.Generator):
        self.spec = spec
        self.kernel_widths = widths = config.kernel_widths
        self.params = {"embedding": T.parameter(
            _uniform_init(rng, (spec.vocab_size, config.embed_dim)))}
        for w in widths:
            self.params[f"conv{w}"] = T.parameter(
                _uniform_init(rng, (w, config.embed_dim, config.num_filters)))
        self.params["projection"] = T.parameter(
            _uniform_init(rng, (len(widths) * config.num_filters, config.dim)))
        self.params["bias"] = T.parameter(np.zeros((1, config.dim)))

    def encode(self, payloads) -> T.Tensor:
        """Encode a list of n sequences, one row each."""
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
        params = self.params
        emb = T.embedding_lookup(params["embedding"], joined)
        pooled = []
        for w in self.kernel_widths:
            conv = T.conv1d_over_sequence(emb, params[f"conv{w}"], lengths)
            # each sequence's windows form one set for the max-over-time
            best, _ = T.reduce_over_set(conv, "max", [n - w + 1 for n in lengths])
            pooled.append(best)
        return T.elu(T.linear(T.concat(pooled, axis=1), params["projection"], params["bias"]))


class Mlp:
    """Plain MLP with ELU hidden activations and a linear output layer.
    ``params`` holds ``<i>.weight`` and ``<i>.bias`` for layer i."""

    def __init__(self, sizes, rng, final_bias: np.ndarray | None = None):
        self.depth = len(sizes) - 1
        self.params = {}
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == self.depth - 1
            bias = final_bias if (last and final_bias is not None) else np.zeros((1, b))
            self.params[f"{i}.weight"] = T.parameter(_uniform_init(rng, (a, b)))
            self.params[f"{i}.bias"] = T.parameter(np.array(bias, dtype=np.float64))

    def __call__(self, x: T.Tensor) -> T.Tensor:
        for i in range(self.depth):
            x = T.linear(x, self.params[f"{i}.weight"], self.params[f"{i}.bias"])
            if i != self.depth - 1:
                x = T.elu(x)
        return x


class TrainingStore:
    """A model's training samples as columns, built once per ``train`` call.

    Column k holds modality k's instances, sample after sample; each
    sample's instances form one run in the model's element order, before any
    subsampling. ``counts[i, k]`` is the length of sample i's run and
    ``starts[i, k]`` its first row. A dense column is one [rows, M] float64
    array, a sequence column a list of int arrays. ``hashes`` holds each
    sample id's ``stable_hash``, which keys the sample's stream.
    """

    def __init__(self, model, samples):
        runs = [model._runs(sample) for sample in samples]
        self.counts = np.array([[len(got) for got in run.values()] for run in runs],
                               dtype=np.intp).reshape(len(runs), len(model.specs))
        self.starts = np.cumsum(self.counts, axis=0) - self.counts
        self.caps = np.array([spec.max_instances for spec in model.specs], dtype=np.intp)
        self.columns = []
        for spec in model.specs:
            column = [p for run in runs for p in run[spec.modality_id]]
            if spec.kind == DENSE:
                column = (model.encoders[spec.modality_id].rows(column) if column
                          else np.zeros((0, spec.input_dim)))
            self.columns.append(column)
        self.hashes = [stable_hash(sample.sample_id) for sample in samples]
        self.dim = model.config.dim
        self._rng = np.random.Generator(np.random.PCG64())

    def batch(self, idx, states):
        """The training batch of samples ``idx``: (counts, owner, blocks, the
        [N, dim] dropout uniforms), as ``_forward`` takes them.

        Sample i's stream resumes from ``states[i]``. It draws the
        subsampling of each of its runs over the cap, in modality order, and
        then its run of uniforms, as ``build_set`` and ``forward_batch``
        draw them.
        """
        counts = self.counts[idx]
        sizes = np.minimum(counts, self.caps)
        starts = self.starts[idx]
        firsts = np.cumsum(sizes, axis=0) - sizes  # each run's first row in its block
        rows = [np.repeat(starts[:, k] - firsts[:, k], sizes[:, k]) + np.arange(sizes[:, k].sum())
                for k in range(len(self.columns))]
        over = {}
        for b, k in np.argwhere(counts > self.caps).tolist():
            over.setdefault(b, []).append(k)
        ends = np.cumsum(sizes.sum(axis=1)).tolist()
        uniforms = np.empty((ends[-1], self.dim))
        rng = self._rng
        for b, (i, lo, hi) in enumerate(zip(idx.tolist(), [0, *ends], ends)):
            rng.bit_generator.state = states[i]
            for k in over.get(b, ()):
                keep = rng.choice(int(counts[b, k]), size=int(self.caps[k]), replace=False)
                rows[k][firsts[b, k]:firsts[b, k] + self.caps[k]] = starts[b, k] + np.sort(keep)
            rng.random(out=uniforms[lo:hi])
        blocks = [column[r] if isinstance(column, np.ndarray) else [column[j] for j in r.tolist()]
                  for column, r in zip(self.columns, rows)]
        owner = np.repeat(np.arange(sizes.size) % sizes.shape[1], sizes.reshape(-1))
        return sizes.tolist(), owner, blocks, uniforms


class _ModelCore:
    """What both models share: the ModelConfig, the sorted specs, one encoder
    per modality, the predictor, their parameters and the forward pass. A
    subclass sets up its combine step before calling this constructor, and
    defines ``_group`` (a sample's payloads per modality), ``_runs`` (the
    same before any subsampling), ``_combine`` (the encoded rows, sample
    after sample, to the predictor's input) and ``combined_dim``, its width.
    A training batch drops out those sample-ordered rows, each sample drawing
    its run of uniforms as one block."""

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

    def forward(self, sample, training: bool = False, rng=None):
        """``forward_batch`` on one sample: (logits [1,C], its ImportanceRecord
        or None). ``rng`` is given exactly when ``training`` is set."""
        if training != (rng is not None):
            raise ValueError("a training forward needs an rng, an inference forward none")
        logits, owners = self.forward_batch([sample], None if rng is None else [rng])
        return logits, None if owners is None else ImportanceRecord.from_owners(
            sample.sample_id, self.modality_ids, owners[0])

    def forward_batch(self, samples, rngs=None):
        """Group, encode, combine and predict: (logits [B,C], owners).

        ``rngs``, one stream per sample, makes a training batch: each sample
        draws its subsampling and then the dropout uniforms of its own run of
        rows from its own stream. Without them a stream derived from each
        sample id subsamples, so inference repeats bit for bit. A sample's
        logits do not depend on its batch beyond floating-point rounding.
        ``owners[b, d]`` indexes in ``modality_ids`` the modality that won
        pooled dimension d of sample b under max/min pooling; ``owners`` is
        None for sum/mean and ConcatModel.
        """
        if rngs is not None and len(rngs) != len(samples):
            raise ValueError(f"got {len(rngs)} rngs for {len(samples)} samples")
        groups = [self._group(s, None if rngs is None else rngs[b])
                  for b, s in enumerate(samples)]
        counts = [[len(got) for got in group.values()] for group in groups]
        owner = np.array([i for group in groups for i, got in enumerate(group.values())
                          for _ in got], dtype=np.intp)
        blocks = [[p for group in groups for p in group[mid]] for mid in self.modality_ids]
        uniforms = None
        if rngs is not None:
            uniforms = np.empty((owner.size, self.config.dim))
            ends = np.cumsum([sum(row) for row in counts]).tolist()
            for rng, lo, hi in zip(rngs, [0, *ends], ends):
                rng.random(out=uniforms[lo:hi])
        return self._forward(counts, owner, blocks, uniforms)

    def training_store(self, samples) -> TrainingStore:
        """The columnar view of ``samples`` that ``forward_store`` draws
        batches from. A dense payload of the wrong shape raises ValueError,
        and for FusionModel a sample with no usable instance EmptySetError,
        as a forward of that sample would."""
        return TrainingStore(self, samples)

    def forward_store(self, store: TrainingStore, idx, states):
        """The training batch of the store's samples ``idx`` (an int array),
        sample i's stream resuming from ``states[i]``: equal, bit for bit,
        to ``forward_batch`` of those samples with those streams."""
        return self._forward(*store.batch(idx, states))

    def _forward(self, counts, owner, blocks, uniforms):
        """Encode, drop out, combine and predict one batch: (logits, owners).

        The elements are numbered sample after sample, and within a sample
        modality after modality. ``counts[b][k]``, a list of int lists, is
        sample b's number of elements of modality k, and ``owner[i]``
        indexes in ``modality_ids`` the modality of element i. ``blocks[k]``
        holds modality k's payloads, sample after sample. ``uniforms``,
        [N, D] in element order, are a training batch's dropout draws, None
        at inference.
        """
        x = self._encode(blocks, owner)
        if uniforms is not None:
            x = T.dropout(x, self.config.dropout_p, uniforms)
        x, owners = self._combine(counts, x, owner)
        return self.predictor(x), owners

    def _encode(self, blocks, owner):
        """Encode every element of a batch: [N, D] rows in element order.

        ``blocks[k]`` holds modality k's payloads and ``owner`` each
        element's modality. The encoders run one block per modality, and one
        scatter puts their rows back in element order.
        """
        if owner.size == 0:
            return T.Tensor(np.zeros((0, self.config.dim)))
        rows = T.concat([self.encoders[mid].encode(block)
                         for mid, block in zip(self.modality_ids, blocks) if len(block)], axis=0)
        order = np.argsort(owner, kind="stable")
        return T.scatter_rows(rows, order, (owner.size, self.config.dim))

    def named_parameters(self) -> dict[str, T.Tensor]:
        """Every parameter by its checkpoint name: the encoders' in modality-id
        order, then the predictor's."""
        layers = [*((f"encoder.{mid}", self.encoders[mid]) for mid in self.modality_ids),
                  ("predictor", self.predictor)]
        return {f"{prefix}.{name}": p for prefix, layer in layers
                for name, p in layer.params.items()}

    def parameter_count(self) -> int:
        return sum(p.data.size for p in self.named_parameters().values())


class FusionModel(_ModelCore):
    """Set fusion model: per-modality encoders, pooling, predictor.

    ``config`` takes the ModelConfig fields as keywords, e.g. ``dim=64``.
    """

    forward = _ModelCore.forward  # perfbench/tracing.installed finds it via vars(cls)

    def __init__(self, specs, num_classes: int, *, pool: str = "max", seed: int = 0,
                 **config):
        self.pool = pool
        super().__init__(specs, num_classes, seed, config)

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

    def _group(self, sample, rng):
        return build_set(sample, self.specs, rng)

    def _runs(self, sample):
        return _sorted_runs(sample, self.specs)

    def _combine(self, counts, x, owner):
        """Pool each sample's rows only: ([B,D], the [B,D] owner matrix under
        max/min pooling, None under sum and mean)."""
        pooled, argidx = T.reduce_over_set(x, self.pool, [sum(row) for row in counts])
        return pooled, None if argidx is None else owner[argidx]


class ConcatModel(_ModelCore):
    """Fixed-slot concatenation baseline.

    Every modality owns ``slots[modality_id]`` encoder slots, its spec's
    max_instances. Instances fill slots in arrival order, missing slots are
    exact zero blocks, and extra instances are dropped. The concatenated
    [1, sum(slots)*D] vector feeds an MLP. Deliberately not permutation
    invariant. ``config`` takes the ModelConfig fields as keywords.
    """

    forward = _ModelCore.forward  # perfbench/tracing.installed finds it via vars(cls)

    def __init__(self, specs, num_classes: int, *, seed: int = 0, **config):
        self.slots = {s.modality_id: s.max_instances for s in specs}
        super().__init__(specs, num_classes, seed, config)

    @property
    def combined_dim(self) -> int:
        return sum(self.slots.values()) * self.config.dim

    def _group(self, sample, rng):
        group = _group_by_modality(sample, self.modality_ids)
        for mid, got in group.items():
            del got[self.slots[mid]:]
        return group

    def _runs(self, sample):
        return self._group(sample, None)

    def _combine(self, counts, x, owner):
        """Row b of the [B, sum(slots)*D] result is sample b's slot vector."""
        n_slots = sum(self.slots.values())
        slots = [self.slots[mid] for mid in self.modality_ids]
        slot_rows = []
        for b, row in enumerate(counts):
            first = b * n_slots
            for got, n in zip(row, slots):
                slot_rows.extend(range(first, first + got))
                first += n
        shape = (len(counts), n_slots * self.config.dim)
        return T.scatter_rows(x, np.array(slot_rows, dtype=np.intp), shape), None


def aggregate_importance(records) -> dict[str, float]:
    """Mean per-modality importance fraction over a list of records."""
    if not records:
        raise ValueError("cannot aggregate an empty list of importance records")
    totals: dict[str, float] = {}
    for rec in records:
        for mid, frac in rec.fractions.items():
            totals[mid] = totals.get(mid, 0.0) + frac
    return {mid: totals[mid] / len(records) for mid in sorted(totals)}
