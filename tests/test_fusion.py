import numpy as np
import pytest

import mmsets.tensor as T
from mmsets.data import ModalityInstance, Sample
from mmsets.errors import EmptySetError
from mmsets.evaluate import predict_scores
from mmsets.fusion import (ConcatModel, DenseEncoder, FusionModel, ImportanceRecord, Mlp,
                           ModalitySpec, ModelConfig, SequenceEncoder, aggregate_importance,
                           build_set)
from mmsets.seeding import derive_rng
from helpers import (central_diff, max_rel_err, mixed_specs, random_sample, reference_batch,
                     shuffled_copy, sum_all)


def encode_groups(model, groups):
    """Eval-mode rows of a set from ``build_set``, one encoder block per
    modality; the groups come in id order, so the blocks stack in element
    order."""
    return np.concatenate([model.encoders[mid].encode(payloads).data
                           for mid, payloads in groups.items() if payloads], axis=0)


def owner_ids(groups):
    """The modality id of each element of a set, in element order."""
    return [mid for mid, payloads in groups.items() for _ in payloads]


def make_sample(payloads_by_mod, sample_id="s0", num_classes=2):
    instances = [ModalityInstance(mid, np.asarray(p))
                 for mid, payloads in payloads_by_mod.items() for p in payloads]
    labels = np.zeros(num_classes, dtype=np.int64)
    labels[0] = 1
    return Sample(sample_id=sample_id, instances=instances, labels=labels)


class TestModalitySpec:
    def test_dense_needs_input_dim(self):
        with pytest.raises(ValueError):
            ModalitySpec("x", "dense")

    def test_sequence_needs_vocab(self):
        with pytest.raises(ValueError):
            ModalitySpec("x", "index_sequence")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ModalitySpec("x", "audio", input_dim=3)

    def test_roundtrip_dict(self):
        spec = ModalitySpec("obj", "index_sequence", vocab_size=9, max_instances=4)
        assert ModalitySpec.from_dict(spec.to_dict()) == spec


class TestBuildSet:
    def test_subsamples_down_to_cap(self):
        specs = [ModalitySpec("face", "dense", input_dim=3, max_instances=10)]
        rng = np.random.default_rng(0)
        sample = make_sample({"face": [rng.standard_normal(3) for _ in range(14)]})
        groups = build_set(sample, specs, np.random.default_rng(1))
        assert len(groups["face"]) == 10

    def test_missing_modality_simply_absent(self):
        specs = mixed_specs()
        sample = make_sample({"img": [np.zeros(6)]})
        groups = build_set(sample, specs, np.random.default_rng(0))
        assert owner_ids(groups) == ["img"]
        assert list(groups) == sorted(s.modality_id for s in specs)

    def test_unknown_modalities_filtered(self):
        specs = [ModalitySpec("img", "dense", input_dim=6)]
        sample = make_sample({"img": [np.zeros(6)], "rogue": [np.ones(2)]})
        groups = build_set(sample, specs, np.random.default_rng(0))
        assert owner_ids(groups) == ["img"]

    def test_empty_after_filter_raises_with_sample_id(self):
        specs = [ModalitySpec("img", "dense", input_dim=6)]
        sample = make_sample({"rogue": [np.ones(2)]}, sample_id="s77")
        with pytest.raises(EmptySetError, match="s77"):
            build_set(sample, specs, np.random.default_rng(0))

    def test_identical_canonical_lists_for_reordered_instances(self):
        specs = mixed_specs()
        rng = np.random.default_rng(2)
        sample = random_sample(rng, specs, max_instances=5)
        shuffled = shuffled_copy(sample, rng)
        a = build_set(sample, specs, np.random.default_rng(3))
        b = build_set(shuffled, specs, np.random.default_rng(3))
        assert owner_ids(a) == owner_ids(b)
        for mid in a:
            for pay_a, pay_b in zip(a[mid], b[mid]):
                assert np.array_equal(pay_a, pay_b)

    def test_subsampling_order_independent(self):
        # over the cap, so the rng actually picks; content sort makes the
        # pick independent of storage order
        specs = [ModalitySpec("face", "dense", input_dim=2, max_instances=3)]
        rng = np.random.default_rng(4)
        sample = make_sample({"face": [rng.standard_normal(2) for _ in range(8)]})
        shuffled = shuffled_copy(sample, rng)
        a = build_set(sample, specs, np.random.default_rng(5))
        b = build_set(shuffled, specs, np.random.default_rng(5))
        for pay_a, pay_b in zip(a["face"], b["face"]):
            assert np.array_equal(pay_a, pay_b)


class TestEncoders:
    def test_zero_weights_give_zero_vector(self):
        model = FusionModel([ModalitySpec("img", "dense", input_dim=6)],
                            num_classes=2, dim=8)
        enc = model.encoders["img"]
        enc.params["weight"].data[:] = 0.0
        enc.params["bias"].data[:] = 0.0
        out = enc.encode([np.arange(6.0), np.ones(6)])
        assert np.all(out.data == 0.0)
        assert out.data.shape == (2, 8)

    @pytest.mark.parametrize("input_dim", [8, 2048])
    def test_output_dim_independent_of_input_dim(self, input_dim):
        model = FusionModel([ModalitySpec("img", "dense", input_dim=input_dim)],
                            num_classes=2, dim=16)
        out = model.encoders["img"].encode([np.zeros(input_dim)])
        assert out.data.shape == (1, 16)

    def test_dense_dimension_mismatch(self):
        model = FusionModel([ModalitySpec("img", "dense", input_dim=6)],
                            num_classes=2, dim=8)
        with pytest.raises(ValueError, match="length 6"):
            model.encoders["img"].encode([np.zeros(5)])
        with pytest.raises(ValueError, match="length 6"):  # one bad row in a block
            model.encoders["img"].encode([np.zeros(6), np.zeros(5)])

    def test_sequence_out_of_vocab(self):
        model = FusionModel([ModalitySpec("obj", "index_sequence", vocab_size=5)],
                            num_classes=2, dim=8, embed_dim=4, num_filters=3)
        with pytest.raises(ValueError, match="out of range"):
            model.encoders["obj"].encode([np.array([5])])
        with pytest.raises(ValueError, match="out of range"):
            model.encoders["obj"].encode([np.array([1, 2]), np.array([0, 5])])

    def test_short_sequence_padded_not_crashing(self):
        model = FusionModel([ModalitySpec("obj", "index_sequence", vocab_size=5)],
                            num_classes=2, dim=8, embed_dim=4, num_filters=3)
        enc = model.encoders["obj"]
        out = enc.encode([np.array([2]), np.array([1, 3, 4, 0, 2, 2])])
        assert out.data.shape == (2, 8)
        # a short sequence in a block encodes as it does alone: padded to the
        # widest kernel, and its max-over-time sees only its own windows
        alone = enc.encode([np.array([2])])
        np.testing.assert_allclose(out.data[:1], alone.data, rtol=0, atol=1e-12)

    def test_tape_records_per_layer(self):
        # each affine layer is one linear op: a dense block records linear
        # and ELU, however many rows it holds; a one-hidden-layer MLP linear,
        # ELU, linear
        rng = np.random.default_rng(0)
        encoder = DenseEncoder(ModalitySpec("img", "dense", input_dim=6), ModelConfig(dim=8), rng)
        predictor = Mlp([8, 5, 2], rng)
        with T.Tape() as tape:
            h = encoder.encode([np.arange(6.0), np.ones(6), np.zeros(6)])
            assert len(tape) == 2
            predictor(h)
            assert len(tape) == 5
        # a sequence block: lookup, conv and max-over-time per kernel width,
        # concat, linear, ELU
        sequences = SequenceEncoder(ModalitySpec("obj", "index_sequence", vocab_size=5),
                                    ModelConfig(dim=8), rng)
        for block in ([np.array([1, 2])], [np.array([1, 2]), np.array([0, 3, 4, 1, 1])]):
            with T.Tape() as tape:
                sequences.encode(block)
            assert len(tape) == 1 + 2 * 3 + 3

    def test_encoder_gradients_match_fd(self):
        specs = mixed_specs()
        model = FusionModel(specs, num_classes=2, dim=6, embed_dim=4, num_filters=3,
                            predictor_hidden=(8,), seed=3)
        rng = np.random.default_rng(9)
        sample = random_sample(rng, specs, sample_id="g0")

        def loss_value():
            logits, _ = model.forward(sample, training=False)
            return float(logits.data.sum())

        with T.Tape():
            logits, _ = model.forward(sample, training=False)
            loss = sum_all(logits)
        T.backward(loss)
        for name, p in model.named_parameters().items():
            numeric = central_diff(loss_value, p.data, h=1e-5)
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            assert max_rel_err(analytic, numeric) < 1e-4, name


class TestForward:
    def test_singleton_max_pool_identity(self):
        spec = ModalitySpec("img", "dense", input_dim=4)
        model = FusionModel([spec], num_classes=3, dim=8, pool="max")
        sample = make_sample({"img": [np.array([1.0, -2.0, 0.5, 3.0])]}, num_classes=3)
        encoded = model.encoders["img"].encode([sample.instances[0].payload])
        logits, record = model.forward(sample)
        np.testing.assert_array_equal(model.predictor(encoded).data, logits.data)
        assert record.fractions == {"img": 1.0}

    @pytest.mark.parametrize("cardinality", [1, 5, 17, 40])
    def test_logit_shape_for_any_cardinality(self, cardinality):
        spec = ModalitySpec("img", "dense", input_dim=4, max_instances=40)
        model = FusionModel([spec], num_classes=5, dim=8)
        rng = np.random.default_rng(0)
        sample = make_sample({"img": [rng.standard_normal(4) for _ in range(cardinality)]},
                             num_classes=5)
        logits, _ = model.forward(sample)
        assert logits.data.shape == (1, 5)

    @pytest.mark.parametrize("pool", ["max", "min"])
    def test_importance_matches_bruteforce_scan(self, pool):
        specs = mixed_specs()
        model = FusionModel(specs, num_classes=2, dim=12, pool=pool,
                            embed_dim=4, num_filters=3, seed=5)
        rng = np.random.default_rng(1)
        samples = [random_sample(rng, specs, sample_id=f"t{trial}") for trial in range(20)]
        _, batch_owners = model.forward_batch(samples)
        assert batch_owners.shape == (20, 12)
        for b, sample in enumerate(samples):
            groups = build_set(sample, specs, None)
            rows = encode_groups(model, groups)
            owners = owner_ids(groups)
            counts = {mid: 0 for mid in model.modality_ids}
            for d in range(rows.shape[1]):
                best = 0
                for r in range(rows.shape[0]):
                    better = rows[r, d] > rows[best, d] if pool == "max" \
                        else rows[r, d] < rows[best, d]
                    if better:
                        best = r
                counts[owners[best]] += 1
                # the lowest row holding the extremum owns the dimension
                assert model.modality_ids[batch_owners[b, d]] == owners[best]
            _, record = model.forward(sample)
            assert record.counts == counts
            assert sum(record.counts.values()) == 12
            assert abs(sum(record.fractions.values()) - 1.0) < 1e-12

    @pytest.mark.parametrize("pool", ["sum", "mean"])
    def test_no_importance_for_sum_mean(self, pool):
        specs = [ModalitySpec("img", "dense", input_dim=4)]
        model = FusionModel(specs, num_classes=2, dim=8, pool=pool)
        sample = make_sample({"img": [np.ones(4)]})
        _, record = model.forward(sample)
        assert record is None

    def test_permutation_invariance_all_pools(self):
        specs = mixed_specs(max_instances=4)
        rng = np.random.default_rng(2)
        model = FusionModel(specs, num_classes=2, dim=8, embed_dim=4, num_filters=3)
        for trial in range(10):
            sample = random_sample(rng, specs, sample_id=f"p{trial}", max_instances=6)
            shuffled = shuffled_copy(sample, rng)
            for pool in ("sum", "max", "min", "mean"):
                model.pool = pool
                base, rec_a = model.forward(sample)
                out, rec_b = model.forward(shuffled)
                assert np.array_equal(base.data, out.data)
                if rec_a is not None:
                    assert rec_a.counts == rec_b.counts

    def test_missing_modality_robustness_and_constant_params(self):
        specs = [ModalitySpec("a", "dense", input_dim=3),
                 ModalitySpec("b", "dense", input_dim=4),
                 ModalitySpec("c", "index_sequence", vocab_size=6)]
        model = FusionModel(specs, num_classes=2, dim=8, embed_dim=4, num_filters=3)
        count = model.parameter_count()
        rng = np.random.default_rng(3)
        subsets = [["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
                   ["a", "b", "c"]]
        for subset in subsets:
            payloads = {}
            for mid in subset:
                if mid == "c":
                    payloads[mid] = [rng.integers(0, 6, size=4)]
                else:
                    payloads[mid] = [rng.standard_normal(3 if mid == "a" else 4)]
            logits, _ = model.forward(make_sample(payloads))
            assert logits.data.shape == (1, 2)
            assert model.parameter_count() == count

    def test_max_pool_gradient_locality(self):
        # a sub-margin perturbation of a non-selected row leaves logits unchanged
        spec = ModalitySpec("img", "dense", input_dim=4)
        model = FusionModel([spec], num_classes=2, dim=8, pool="max")
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((5, 8))
        pooled, arg = T.reduce_over_set(T.Tensor(rows), "max", [5])
        margins = pooled.data[0] - np.sort(rows, axis=0)[-2]
        d = int(np.argmax(margins))
        r = int((arg[0, d] + 1) % 5)  # any non-selected row in dimension d
        perturbed = rows.copy()
        perturbed[r, d] += margins[d] * 0.5
        base = model.predictor(pooled)
        after = model.predictor(T.reduce_over_set(T.Tensor(perturbed), "max", [5])[0])
        assert np.array_equal(base.data, after.data)

    def test_adding_instances_never_changes_parameter_count(self):
        spec = ModalitySpec("img", "dense", input_dim=4, max_instances=40)
        model = FusionModel([spec], num_classes=2, dim=8)
        before = model.parameter_count()
        rng = np.random.default_rng(5)
        for n in (1, 10, 40):
            sample = make_sample({"img": [rng.standard_normal(4) for _ in range(n)]})
            model.forward(sample)
        assert model.parameter_count() == before

    def test_training_forward_requires_rng(self):
        spec = ModalitySpec("img", "dense", input_dim=4)
        model = FusionModel([spec], num_classes=2, dim=8)
        sample = make_sample({"img": [np.ones(4)]})
        with pytest.raises(ValueError, match="rng"):
            model.forward(sample, training=True)
        with pytest.raises(ValueError, match="rng"):  # inference takes no stream
            model.forward(sample, rng=np.random.default_rng(0))


def batch_of_samples(specs, rng, n=7, cap=3):
    """Random ragged samples plus one over every modality's cap, so its
    subsampling draws come before its dropout draws."""
    samples = [random_sample(rng, specs, sample_id=f"b{i}", max_instances=cap + 1,
                             num_classes=3) for i in range(n)]
    over = {"img": [rng.standard_normal(6) for _ in range(cap + 3)],
            "obj": [rng.integers(0, 12, size=int(rng.integers(1, 7))) for _ in range(cap + 2)]}
    samples.insert(n // 2, make_sample(over, sample_id="over", num_classes=3))
    return samples


def assert_batch_matches_single_forwards(model, samples):
    """forward_batch equals one forward per sample within 1e-12, its owner
    rows give the same importance counts, in eval mode and in training mode
    with fresh identical per-sample streams."""
    for training in (False, True):
        def streams():
            return [np.random.default_rng(100 + b) for b in range(len(samples))]

        logits, owners = model.forward_batch(samples, streams() if training else None)
        assert logits.data.shape == (len(samples), model.num_classes)
        if owners is not None:
            assert owners.shape == (len(samples), model.config.dim)
        fresh = streams()
        for b, sample in enumerate(samples):
            single, record = model.forward(sample, training, fresh[b] if training else None)
            assert np.max(np.abs(single.data[0] - logits.data[b])) <= 1e-12, (training, b)
            assert (record is None) == (owners is None)
            if record is not None:
                won = np.bincount(owners[b], minlength=len(model.modality_ids))
                assert record.counts == {m: int(won[i])
                                         for i, m in enumerate(model.modality_ids)}


class TestForwardBatch:
    @pytest.mark.parametrize("pool", T.POOL_MODES)
    def test_fusion_batch_matches_single_forwards(self, pool):
        specs = mixed_specs(max_instances=3)
        model = FusionModel(specs, num_classes=3, dim=8, pool=pool, embed_dim=4,
                            num_filters=3, seed=2)
        assert_batch_matches_single_forwards(model, batch_of_samples(specs,
                                                                     np.random.default_rng(40)))

    def test_concat_batch_matches_single_forwards(self):
        specs = mixed_specs(max_instances=3)
        model = ConcatModel(specs, num_classes=3, dim=8, embed_dim=4, num_filters=3, seed=2)
        samples = batch_of_samples(specs, np.random.default_rng(41))
        samples.append(Sample("none", [ModalityInstance("rogue", np.ones(1))],
                              np.array([1, 0, 0])))  # all slots zero
        assert_batch_matches_single_forwards(model, samples)

    def test_one_tape_per_batch(self):
        # the records of a batch depend on the modalities present, not on
        # how many samples or elements the batch holds; 18 pins one
        # scatter_rows for the encoded rows' layout and one for the
        # sequence encoder's join of its kernel widths
        specs = mixed_specs()
        rng = np.random.default_rng(42)
        small = [make_sample({"img": [np.ones(6)], "obj": [np.array([1, 2])]}, "s0")]
        large = small + [random_sample(rng, specs, sample_id=f"l{i}") for i in range(9)]
        for model_class in (FusionModel, ConcatModel):
            model = model_class(specs, num_classes=2, dim=8, embed_dim=4, num_filters=3)
            lengths = []
            for batch in (small, large):
                with T.Tape() as tape:
                    model.forward_batch(batch, [np.random.default_rng(0) for _ in batch])
                lengths.append(len(tape))
            assert lengths[0] == lengths[1], model_class.__name__
            assert lengths[1] == 18, model_class.__name__

    def test_streams_are_checked(self):
        spec = ModalitySpec("img", "dense", input_dim=4)
        model = FusionModel([spec], num_classes=2, dim=8)
        samples = [make_sample({"img": [np.ones(4)]}, f"s{i}") for i in range(2)]
        with pytest.raises(ValueError, match="rngs"):
            model.forward_batch(samples, [np.random.default_rng(0)])


@pytest.mark.parametrize("model_class", [FusionModel, ConcatModel])
def test_eval_leaves_dropout_out(monkeypatch, model_class):
    specs = mixed_specs(max_instances=3)
    model = model_class(specs, num_classes=3, dim=8, embed_dim=4, num_filters=3, seed=2)
    samples = batch_of_samples(specs, np.random.default_rng(43))

    def no_dropout(*args, **kwargs):
        raise RuntimeError("dropout called")

    monkeypatch.setattr(T, "dropout", no_dropout)
    logits, _ = model.forward_batch(samples)
    assert logits.data.shape == (len(samples), 3)
    scores, _ = predict_scores(model, samples)
    assert scores.shape == (len(samples), 3)
    with pytest.raises(RuntimeError, match="dropout"):  # training does reach the op
        model.forward_batch(samples, [np.random.default_rng(b) for b in range(len(samples))])


@pytest.mark.parametrize("model_class", [FusionModel, ConcatModel])
def test_each_sample_drops_out_its_own_run_of_rows(monkeypatch, model_class):
    """Dropout sees the encoded rows sample after sample, and sample b's run
    of uniforms is a fresh draw from its stream once its subsampling is done."""
    specs = mixed_specs(max_instances=3)
    model = model_class(specs, num_classes=3, dim=8, embed_dim=4, num_filters=3, seed=2)
    samples = batch_of_samples(specs, np.random.default_rng(44))
    if model_class is ConcatModel:
        samples.insert(2, Sample("none", [ModalityInstance("rogue", np.ones(1))],
                                 np.array([1, 0, 0])))  # no rows, no uniforms
    seen = []
    real_dropout = T.dropout

    def spy(x, p, uniforms):
        seen.append((x.data.copy(), p, uniforms.copy()))
        return real_dropout(x, p, uniforms)

    monkeypatch.setattr(T, "dropout", spy)
    model.forward_batch(samples, [np.random.default_rng(200 + b) for b in range(len(samples))])
    ((rows, p, uniforms),) = seen
    assert p == model.config.dropout_p
    # the per-sample oracle draws each sample's subsampling, then its uniforms
    _, owner, blocks, expected = reference_batch(
        model, samples, [np.random.default_rng(200 + b) for b in range(len(samples))])
    assert uniforms.tobytes() == expected.tobytes()
    # each modality encoded as one block, as the model does, then dealt out
    # to the samples in turn
    encoded = [iter(model.encoders[mid].encode(block).data) if block else None
               for mid, block in zip(model.modality_ids, blocks)]
    assert rows.tobytes() == np.array([next(encoded[k]) for k in owner]).tobytes()


class TestConcatBaseline:
    def test_zero_blocks_for_missing_modalities(self):
        specs = [ModalitySpec("a", "dense", input_dim=3, max_instances=1),
                 ModalitySpec("b", "dense", input_dim=3, max_instances=2)]
        model = ConcatModel(specs, num_classes=2, dim=4)
        sample = make_sample({"a": [np.ones(3)]})
        logits, record = model.forward(sample)
        assert record is None
        # reconstruct the concat input: slots are (a:1, b:2) in sorted order
        enc = model.encoders["a"].encode([np.ones(3)])
        expected = np.concatenate([enc.data, np.zeros((1, 8))], axis=1)
        np.testing.assert_array_equal(
            model.predictor(T.Tensor(expected)).data, logits.data)

    def test_concat_dim_is_sum_of_slots_times_dim(self):
        specs = [ModalitySpec("a", "dense", input_dim=3, max_instances=1),
                 ModalitySpec("b", "dense", input_dim=3, max_instances=10)]
        model = ConcatModel(specs, num_classes=2, dim=4)
        assert model.combined_dim == (1 + 10) * 4

    def test_not_permutation_invariant(self):
        spec = ModalitySpec("a", "dense", input_dim=2, max_instances=2)
        model = ConcatModel([spec], num_classes=2, dim=4)
        first = make_sample({"a": [np.array([1.0, 0.0]), np.array([0.0, 1.0])]})
        swapped = Sample(first.sample_id, list(reversed(first.instances)), first.labels)
        a, _ = model.forward(first)
        b, _ = model.forward(swapped)
        assert not np.array_equal(a.data, b.data)

    def test_truncates_extra_instances(self):
        spec = ModalitySpec("a", "dense", input_dim=2, max_instances=2)
        model = ConcatModel([spec], num_classes=2, dim=4)
        rng = np.random.default_rng(6)
        sample = make_sample({"a": [rng.standard_normal(2) for _ in range(5)]})
        logits, _ = model.forward(sample)
        assert logits.data.shape == (1, 2)

    def test_all_missing_still_forward(self):
        specs = [ModalitySpec("a", "dense", input_dim=2, max_instances=1)]
        model = ConcatModel(specs, num_classes=2, dim=4)
        sample = Sample("s0", [ModalityInstance("rogue", np.ones(1))],
                        np.array([1, 0]))
        logits, _ = model.forward(sample)
        assert logits.data.shape == (1, 2)


class TestAggregateImportance:
    def test_single_record_is_identity(self):
        rec = ImportanceRecord.from_owners("s0", ("a", "b"), np.array([0, 1, 0, 0]))
        assert rec.counts == {"a": 3, "b": 1}
        assert aggregate_importance([rec]) == rec.fractions

    def test_two_record_mean(self):
        r1 = ImportanceRecord("s0", {"a": 4}, {"a": 1.0})
        r2 = ImportanceRecord("s1", {"a": 2, "b": 2}, {"a": 0.5, "b": 0.5})
        agg = aggregate_importance([r1, r2])
        assert agg["a"] == pytest.approx(0.75)
        assert agg["b"] == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_importance([])

    def test_aggregate_matches_recomputation_from_argmaxes(self):
        specs = mixed_specs()
        model = FusionModel(specs, num_classes=2, dim=10, pool="max",
                            embed_dim=4, num_filters=3, seed=7)
        rng = np.random.default_rng(8)
        samples = [random_sample(rng, specs, sample_id=f"a{i}") for i in range(30)]
        records = [model.forward(s)[1] for s in samples]
        agg = aggregate_importance(records)
        # independent recomputation from stored per-dimension winners
        fractions = np.zeros(len(model.modality_ids))
        for s in samples:
            groups = build_set(s, specs, None)
            rows = encode_groups(model, groups)
            owners = owner_ids(groups)
            winners = rows.argmax(axis=0)
            for d in winners:
                fractions[model.modality_ids.index(owners[d])] += 1 / 10
        fractions /= len(samples)
        for i, mid in enumerate(model.modality_ids):
            assert agg[mid] == pytest.approx(fractions[i], abs=1e-12)
        assert sum(agg.values()) == pytest.approx(1.0, abs=1e-9)


def test_standalone_build_set_matches_eval_forward_subsample():
    # over the cap: the default rng stream must reproduce what an eval
    # forward samples, so oracles can reuse build_set(rng=None); with two
    # modalities over their caps, one stream is derived and continued
    for caps, sizes in (({"face": 2}, {"face": 7}),
                        ({"face": 2, "voice": 3}, {"face": 7, "voice": 6})):
        specs = [ModalitySpec(mid, "dense", input_dim=3, max_instances=cap)
                 for mid, cap in caps.items()]
        model = FusionModel(specs, num_classes=2, dim=6, pool="max", seed=0)
        rng = np.random.default_rng(21)
        payloads = {mid: [rng.standard_normal(3) for _ in range(n)] for mid, n in sizes.items()}
        sample = make_sample(payloads, sample_id="sub1")
        stream = derive_rng("eval", "sub1")  # derived once, continued across modalities
        expected_set = {}
        for mid, cap in sorted(caps.items()):
            run = sorted(payloads[mid], key=np.ndarray.tobytes)
            expected_set[mid] = [run[i] for i in sorted(stream.choice(len(run), cap, False))]
        got = build_set(sample, specs, None)
        assert {mid: np.array(run).tobytes() for mid, run in got.items()} == {
            mid: np.array(run).tobytes() for mid, run in expected_set.items()}
        rows = encode_groups(model, got)
        assert len(rows) == sum(caps.values())
        for pool, reduce in (("max", np.max), ("min", np.min)):
            model.pool = pool
            expected = model.predictor(T.Tensor(reduce(rows, axis=0, keepdims=True)))
            logits, _ = model.forward(sample)
            assert np.array_equal(expected.data, logits.data), (caps, pool)


def test_invalid_pool_rejected_on_build_and_reassign():
    spec = ModalitySpec("a", "dense", input_dim=2)
    with pytest.raises(ValueError, match="pool"):
        FusionModel([spec], num_classes=2, pool="median")
    model = FusionModel([spec], num_classes=2)
    with pytest.raises(ValueError, match="pool"):
        model.pool = "median"


@pytest.mark.parametrize("model_class,combined_dim", [(FusionModel, 8), (ConcatModel, 160)])
def test_parameter_names_order_and_shapes(model_class, combined_dim):
    # FORMATS.md's names, encoders in modality-id order, then the predictor:
    # the order AdamWState packs the parameters in and first_nonfinite reports
    model = model_class(mixed_specs()[::-1], num_classes=2, dim=8, embed_dim=4,
                        num_filters=3, kernel_widths=(3, 2), predictor_hidden=(5, 4))
    assert [(name, p.data.shape) for name, p in model.named_parameters().items()] == [
        ("encoder.img.weight", (6, 8)), ("encoder.img.bias", (1, 8)),
        ("encoder.obj.embedding", (12, 4)), ("encoder.obj.conv3", (3, 4, 3)),
        ("encoder.obj.conv2", (2, 4, 3)), ("encoder.obj.projection", (6, 8)),
        ("encoder.obj.bias", (1, 8)),
        ("predictor.0.weight", (combined_dim, 5)), ("predictor.0.bias", (1, 5)),
        ("predictor.1.weight", (5, 4)), ("predictor.1.bias", (1, 4)),
        ("predictor.2.weight", (4, 2)), ("predictor.2.bias", (1, 2)),
    ]
