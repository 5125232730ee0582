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
from dataclasses import asdict, dataclass, fields
from itertools import chain, repeat
from operator import gt

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
    sequences carry int vectors with values in [0, vocab_size). A spec keeps
    only its kind's size: the other kind's field is set to None. At most
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
        object.__setattr__(self, "vocab_size" if self.kind == DENSE else "input_dim", None)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

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


def _arrival_runs(sample, modality_ids) -> list[list[np.ndarray]]:
    """A sample's payloads per id of ``modality_ids``, in arrival order;
    instances of other modalities are left out."""
    grouped = {mid: [] for mid in modality_ids}
    for inst in sample.instances:
        if inst.modality_id in grouped:
            grouped[inst.modality_id].append(inst.payload)
    return list(grouped.values())


def _sorted_runs(sample, specs) -> list[list[np.ndarray]]:
    """A sample's payloads per spec, in the specs' order, each run in payload
    content order; EmptySetError when none is of a modality in ``specs``."""
    runs = _arrival_runs(sample, [spec.modality_id for spec in specs])
    if not any(runs):
        raise EmptySetError("no usable instances after filtering to known modalities",
                            sample_id=sample.sample_id)
    for run in runs:
        run.sort(key=np.ndarray.tobytes)
    return runs


def _subsample(runs, caps, rng, sample_id):
    """``runs``, each run over its cap subsampled without replacement down to
    the cap, kept in run order. ``rng`` draws run after run; when it is None,
    the eval stream of ``sample_id`` is derived at the first run over its cap
    and continued across the rest."""
    out = list(runs)
    for k, (run, cap) in enumerate(zip(runs, caps)):
        if len(run) > cap:
            if rng is None:
                rng = derive_rng("eval", sample_id)
            out[k] = [run[i] for i in sorted(rng.choice(len(run), size=cap, replace=False))]
    return out


def build_set(sample, specs, rng=None):
    """A sample's set as ``{modality_id: [payload]}``, one entry per spec in
    id order: each run in payload-content order, then subsampled down to the
    modality's cap. Ordering on content, not arrival, makes the set, and so
    every pooling reduction, independent of the instances' order.

    When ``rng`` is None the eval stream is derived from the sample id, so a
    standalone call gives exactly the set an eval-mode forward sees.
    Instances of modalities absent from ``specs`` are ignored. Raises
    EmptySetError when nothing usable remains.
    """
    specs = sorted(specs, key=lambda spec: spec.modality_id)
    runs = _subsample(_sorted_runs(sample, specs), [spec.max_instances for spec in specs],
                      rng, sample.sample_id)
    return {spec.modality_id: run for spec, run in zip(specs, runs)}


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

    ``rows`` checks a block of sequences, right-pads each one shorter than
    the widest kernel with index 0 so the convolution is always defined, and
    joins them end to end. Index 0 is also a real token, so padding aliases
    it (ROADMAP item 4, still open). Each sequence's max-over-time covers
    only its own windows, and one ``scatter_rows`` lays the widths' pooled
    blocks side by side. ``params`` holds ``embedding``, ``conv<w>`` per
    kernel width, ``projection`` and ``bias``.
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

    def rows(self, payloads) -> tuple[np.ndarray, list[int]]:
        """n sequences, padded and joined, as (indices, padded lengths);
        ValueError unless each is a nonempty int vector in [0, vocab_size)."""
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
        return joined, [idx.size for idx in padded]

    def encode(self, payloads) -> T.Tensor:
        """Encode a list of n sequences, one row each."""
        joined, lengths = self.rows(payloads)
        params = self.params
        emb = T.embedding_lookup(params["embedding"], joined)
        pooled = []
        for w in self.kernel_widths:
            conv = T.conv1d_over_sequence(emb, params[f"conv{w}"], lengths)
            # each sequence's windows form one set for the max-over-time
            best, _ = T.reduce_over_set(conv, "max", [n - w + 1 for n in lengths])
            pooled.append(best)
        n, k = len(lengths), len(pooled)
        features = T.scatter_rows(pooled, np.arange(n * k).reshape(n, k).T.ravel(),
                                  (n, k * best.shape[1]))
        return T.elu(T.linear(features, params["projection"], params["bias"]))


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


class _ModelCore:
    """What both models share: the ModelConfig, the sorted specs and their
    caps, one encoder per modality, the predictor, their parameters and the
    forward pass. A subclass defines ``_runs`` (a sample's payloads per
    modality in element order, not yet subsampled), ``_combine`` (the encoded
    rows to the predictor's input) and ``combined_dim``, its width.
    ``_assemble`` makes every batch, training or inference, from the runs:
    ``forward_batch`` groups its samples itself, and ``train`` groups them
    once with ``group`` and runs each batch through ``forward_runs``.
    ``config`` takes the ModelConfig fields as keywords, e.g. ``dim=64``."""

    def __init__(self, specs, num_classes: int, *, seed: int = 0, **config):
        ids = [s.modality_id for s in specs]
        if not ids:
            raise ValueError("a model needs at least one modality")
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate modality ids: {sorted(ids)}")
        check_int("num_classes", num_classes)
        self.specs = tuple(sorted(specs, key=lambda s: s.modality_id))
        self.modality_ids = tuple(s.modality_id for s in self.specs)
        self.caps = tuple(s.max_instances for s in self.specs)
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

        ``rngs``, one stream per sample, makes a training batch (see
        ``_assemble``); without them inference repeats bit for bit. A
        sample's logits do not depend on its batch beyond floating-point
        rounding. ``owners[b, d]`` indexes in ``modality_ids`` the modality
        that won pooled dimension d of sample b under max/min pooling;
        ``owners`` is None for sum/mean and ConcatModel.
        """
        if rngs is not None and len(rngs) != len(samples):
            raise ValueError(f"got {len(rngs)} rngs for {len(samples)} samples")
        return self._forward(*self._assemble([self._runs(s) for s in samples], rngs,
                                             [s.sample_id for s in samples]))

    def group(self, samples) -> list:
        """Each sample's runs, as ``forward_runs`` takes them. Every modality's
        payloads over all the samples pass one ``rows`` check of its encoder,
        so a payload the encoder rejects or a set model's empty sample raises
        as in a forward."""
        runs = [self._runs(sample) for sample in samples]
        for k, mid in enumerate(self.modality_ids):
            if any(row[k] for row in runs):
                self.encoders[mid].rows([p for row in runs for p in row[k]])
        return runs

    def forward_runs(self, runs, rngs):
        """The training batch of grouped runs ``runs[b]``, sample b drawing
        from ``rngs[b]``: ``forward_batch`` of their samples, bit for bit."""
        return self._forward(*self._assemble(runs, rngs))

    def _assemble(self, runs, rngs=None, ids=None):
        """The batch of sample runs ``runs[b]`` as ``_forward`` takes it:
        (counts, owner, blocks, uniforms).

        With ``rngs``, sample after sample draws from its stream the
        subsampling of its runs over their cap, in modality order, then the
        dropout uniforms of its rows. Each stream is taken from ``rngs`` just
        before its sample draws, so a generator may yield one reused
        Generator, set to each sample's state in turn. Without ``rngs`` the
        uniforms are None, and sample b subsamples from the eval stream of
        ``ids[b]``.
        """
        counts, blocks, lo = [], [[] for _ in self.caps], 0
        if rngs is not None:  # rows for the runs before subsampling; the batch takes the first
            uniforms = np.empty((sum(map(len, chain.from_iterable(runs))), self.config.dim))
        for row, rng, sample_id in zip(runs, repeat(None) if rngs is None else rngs,
                                       repeat(None) if ids is None else ids):
            sizes = list(map(len, row))
            if any(map(gt, sizes, self.caps)):
                row = _subsample(row, self.caps, rng, sample_id)
                sizes = list(map(len, row))
            counts.append(sizes)
            for block, run in zip(blocks, row):
                block.extend(run)
            if rng is not None:
                rng.random(out=uniforms[lo:lo + sum(sizes)])
                lo += sum(sizes)
        owner = np.array([*range(len(self.caps))] * len(runs), dtype=np.intp).repeat(
            list(chain.from_iterable(counts)))
        return counts, owner, blocks, None if rngs is None else uniforms[:lo]

    def _forward(self, counts, owner, blocks, uniforms):
        """Encode, drop out, combine and predict one batch: (logits, owners).

        Elements are numbered sample after sample, modality after modality
        within a sample. ``counts[b][k]`` is sample b's number of elements of
        modality k, ``owner[i]`` the index in ``modality_ids`` of element i's
        modality, ``blocks[k]`` modality k's payloads, sample after sample,
        and ``uniforms`` [N, D] a training batch's dropout draws (else None).
        """
        x = self._encode(blocks, owner)
        if uniforms is not None:
            x = T.dropout(x, self.config.dropout_p, uniforms)
        x, owners = self._combine(counts, x, owner)
        return self.predictor(x), owners

    def _encode(self, blocks, owner):
        """Encode every element of a batch: [N, D] rows in element order. The
        encoders run one block per modality, and one ``scatter_rows`` places
        each block's rows at its elements' positions."""
        if owner.size == 0:
            return T.Tensor(np.zeros((0, self.config.dim)))
        parts = [self.encoders[mid].encode(block)
                 for mid, block in zip(self.modality_ids, blocks) if len(block)]
        order = np.argsort(owner, kind="stable")
        return T.scatter_rows(parts, order, (owner.size, self.config.dim))

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
    """Set fusion model: per-modality encoders, pooling, predictor. ``pool``
    is fixed at construction."""

    forward = _ModelCore.forward  # perfbench/tracing.installed finds it via vars(cls)

    def __init__(self, specs, num_classes: int, *, pool: str = "max", seed: int = 0,
                 **config):
        if pool not in T.POOL_MODES:
            raise ValueError(f"pool must be one of {T.POOL_MODES}, got {pool!r}")
        self._pool = pool
        super().__init__(specs, num_classes, seed=seed, **config)

    @property
    def combined_dim(self) -> int:
        return self.config.dim

    @property
    def pool(self) -> str:
        return self._pool

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
    invariant.
    """

    forward = _ModelCore.forward  # perfbench/tracing.installed finds it via vars(cls)

    @property
    def slots(self) -> dict[str, int]:
        return dict(zip(self.modality_ids, self.caps))

    @property
    def combined_dim(self) -> int:
        return sum(self.caps) * self.config.dim

    def _runs(self, sample):
        runs = _arrival_runs(sample, self.modality_ids)
        for run, cap in zip(runs, self.caps):
            del run[cap:]
        return runs

    def _combine(self, counts, x, owner):
        """Row b of the [B, sum(slots)*D] result is sample b's slot vector."""
        n_slots = sum(self.caps)
        slot_rows = []
        for b, row in enumerate(counts):
            first = b * n_slots
            for got, n in zip(row, self.caps):
                slot_rows.extend(range(first, first + got))
                first += n
        return T.scatter_rows([x], slot_rows, (len(counts), n_slots * self.config.dim)), None


def aggregate_importance(records) -> dict[str, float]:
    """Mean per-modality importance fraction over a list of records."""
    if not records:
        raise ValueError("cannot aggregate an empty list of importance records")
    totals: dict[str, float] = {}
    for rec in records:
        for mid, frac in rec.fractions.items():
            totals[mid] = totals.get(mid, 0.0) + frac
    return {mid: totals[mid] / len(records) for mid in sorted(totals)}
