import gc
import math
import weakref

import numpy as np
import pytest

import mmsets.tensor as T
from mmsets.errors import EmptySetError
from helpers import central_diff, max_rel_err, mul, scale, sigmoid, sum_all


def scalar_loss(fn):
    """Run fn under a tape, reduce to sum, backprop; returns the loss tensor."""
    with T.Tape():
        out = fn()
        loss = sum_all(out)
    T.backward(loss)
    return loss


class TestLinear:
    def test_basic_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[1.0], [1.0]])
        assert T.linear(a, b, T.Tensor([[0.0]])).data.tolist() == [[3.0], [7.0]]
        assert T.linear(a, b, T.Tensor([[0.5]])).data.tolist() == [[3.5], [7.5]]

    def test_identity(self):
        rng = np.random.default_rng(0)
        a = T.Tensor(rng.standard_normal((3, 3)))
        out = T.linear(a, T.Tensor(np.eye(3)), T.Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data, a.data)

    def test_shape_mismatch_names_all_three_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\).*\(1, 3\)"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))),
                     T.Tensor(np.zeros((1, 3))))
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(3, 4\).*\(2, 4\)"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((3, 4))),
                     T.Tensor(np.zeros((2, 4))))

    def test_bias_broadcasts_rows(self):
        x = T.parameter(np.zeros((3, 2)))
        b = T.parameter([[1.0, 2.0]])
        with T.Tape():
            out = T.linear(x, T.Tensor(np.eye(2)), b)
            loss = sum_all(out)
        T.backward(loss)
        np.testing.assert_array_equal(out.data, [[1, 2]] * 3)
        np.testing.assert_array_equal(b.grad, [[3.0, 3.0]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = T.parameter(rng.standard_normal((3, 4)))
        w = T.parameter(rng.standard_normal((4, 2)))
        b = T.parameter(rng.standard_normal((1, 2)))
        # weight every output entry differently, so each bias entry's row sum shows
        mix = rng.standard_normal((3, 2))
        with T.Tape():
            loss = sum_all(mul(T.linear(x, w, b), T.Tensor(mix)))
        T.backward(loss)

        def value():
            return float(((x.data @ w.data + b.data) * mix).sum())

        for p in (x, w, b):
            numeric = central_diff(value, p.data, h=1e-6)
            assert max_rel_err(p.grad, numeric) < 1e-6


class TestElu:
    def test_boundary_and_passthrough(self):
        out = T.elu(T.Tensor([[0.0, 2.0]]))
        assert out.data.tolist() == [[0.0, 2.0]]

    def test_negative_closed_form(self):
        out = T.elu(T.Tensor([[-1.0]]))
        assert out.data[0, 0] == pytest.approx(math.expm1(-1.0), abs=1e-15)
        assert out.data[0, 0] == pytest.approx(-0.6321205588285577, abs=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = T.parameter(rng.standard_normal((2, 5)))
        scalar_loss(lambda: T.elu(x))
        numeric = central_diff(
            lambda: float(np.where(x.data > 0, x.data, np.expm1(x.data)).sum()),
            x.data, h=1e-6)
        assert max_rel_err(x.grad, numeric) < 1e-6


class TestSigmoid:
    def test_zero_is_half(self):
        assert sigmoid(T.Tensor([[0.0]])).data[0, 0] == 0.5

    def test_symmetry_identity(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((1, 20)) * 5
        total = sigmoid(T.Tensor(z)).data + sigmoid(T.Tensor(-z)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-15)

    def test_stable_for_large_inputs(self):
        out = sigmoid(T.Tensor([[1000.0, -1000.0]]))
        assert out.data[0, 0] == 1.0
        assert out.data[0, 1] == 0.0

    def test_gradient_matches_closed_form_and_fd(self):
        rng = np.random.default_rng(4)
        x = T.parameter(rng.standard_normal((1, 8)))
        scalar_loss(lambda: sigmoid(x))
        s = T.sigmoid_values(x.data)
        np.testing.assert_allclose(x.grad, s * (1 - s), atol=1e-12)
        numeric = central_diff(lambda: float(T.sigmoid_values(x.data).sum()),
                               x.data, h=1e-6)
        assert max_rel_err(x.grad, numeric) < 1e-6


class TestDropout:
    def test_eval_mode_is_exact_identity(self):
        x = T.Tensor([[1.0, 2.0, 3.0]])
        assert T.dropout(x, 0.5, training=False) is x

    def test_p_zero_training_is_identity(self):
        x = T.Tensor([[1.0, -2.0]])
        out = T.dropout(x, 0.0, training=True, uniforms=np.random.default_rng(0).random(x.shape))
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_probability(self):
        x = T.Tensor([[1.0]])
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                T.dropout(x, p, training=True, uniforms=np.random.default_rng(0).random(x.shape))

    def test_monte_carlo_rate_and_mean(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(np.full((1000, 1000), 2.0))
        out = T.dropout(x, 0.25, training=True, uniforms=rng.random(x.shape))
        zero_fraction = float(np.mean(out.data == 0.0))
        assert abs(zero_fraction - 0.25) < 0.005
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01

    def test_gradient_uses_recorded_mask(self):
        x = T.parameter(np.linspace(-1, 1, 12).reshape(3, 4))

        def forward():
            return T.dropout(x, 0.5, training=True,
                             uniforms=np.random.default_rng(11).random(x.shape))

        scalar_loss(forward)
        numeric = central_diff(lambda: float(forward().data.sum()), x.data, h=1e-6)
        assert max_rel_err(x.grad, numeric) < 1e-6


    def test_predrawn_uniforms_match_the_generator(self):
        # the caller's uniforms alone decide the mask; they must fit x
        x = T.Tensor(np.arange(1.0, 13.0).reshape(3, 4))
        rows = np.random.default_rng(3).random((3, 4))
        given = T.dropout(x, 0.5, training=True, uniforms=rows)
        np.testing.assert_array_equal(given.data, x.data * (rows >= 0.5) / 0.5)
        with pytest.raises(ValueError, match="shape"):
            T.dropout(x, 0.5, training=True, uniforms=rows[:2])
        with pytest.raises(ValueError, match="uniforms"):
            T.dropout(x, 0.5, training=True)


# rows of x: sets [0,3), [3,4), [4,8) -- ragged, and a singleton among them
SEGMENT_STARTS = np.array([0, 3, 4])
SEGMENT_ROWS = 8


def _segment_oracle(d, starts, mode):
    """Per-set numpy reduction plus, for max/min, each set's first arg row."""
    bounds = [*starts, d.shape[0]]
    outs, args = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = d[lo:hi]
        outs.append(getattr(part, mode)(axis=0))
        if mode in ("max", "min"):
            args.append(lo + getattr(part, "arg" + mode)(axis=0))
    return np.array(outs), (np.array(args) if args else None)


class TestReduceOverSet:
    def test_max_values_and_argidx(self):
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 3.0], [2.0, 1.0]]), "max", [0])
        assert out.data.tolist() == [[2.0, 3.0]]
        assert arg[0].tolist() == [1, 0]
        # two sets: arg rows index x, not the set
        x = T.Tensor([[1.0, 3.0], [2.0, 1.0], [0.0, 5.0], [4.0, -1.0], [9.0, 0.0]])
        out, arg = T.reduce_over_set(x, "max", [0, 2])
        assert out.data.tolist() == [[2.0, 3.0], [9.0, 5.0]]
        assert arg.tolist() == [[1, 0], [4, 2]]

    def test_ragged_sets_match_per_set_reduction_in_every_mode(self):
        rng = np.random.default_rng(30)
        d = rng.standard_normal((SEGMENT_ROWS, 5))
        for mode in T.POOL_MODES:
            for starts in (SEGMENT_STARTS, np.array([0, 2, 4, 6])):  # ragged, equal sizes
                out, arg = T.reduce_over_set(T.Tensor(d), mode, starts)
                expected, expected_arg = _segment_oracle(d, starts, mode)
                np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)
                if expected_arg is None:
                    assert arg is None
                else:
                    np.testing.assert_array_equal(arg, expected_arg)
                    np.testing.assert_array_equal(out.data, expected)

    def test_sum(self):
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), "sum", [0])
        assert out.data.tolist() == [[4.0, 6.0]]
        assert arg is None
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                     "sum", [0, 1])
        assert out.data.tolist() == [[1.0, 2.0], [8.0, 10.0]]
        assert arg is None

    def test_mean(self):
        out, _ = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), "mean", [0])
        assert out.data.tolist() == [[2.0, 3.0]]
        out, _ = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                   "mean", [0, 1])
        assert out.data.tolist() == [[1.0, 2.0], [4.0, 5.0]]

    def test_min_ties_take_lowest_row(self):
        _, arg = T.reduce_over_set(T.Tensor([[5.0, 1.0], [5.0, 1.0]]), "min", [0])
        assert arg[0].tolist() == [0, 0]
        _, arg = T.reduce_over_set(T.Tensor([[5.0, 1.0], [5.0, 1.0]]), "max", [0])
        assert arg[0].tolist() == [0, 0]
        # within each set, ragged or not: the set's lowest tied row wins
        tied = T.Tensor(np.array([[5.0, 1.0]] * 5 + [[2.0, 2.0]] * 2))
        for mode in ("min", "max"):
            _, arg = T.reduce_over_set(tied, mode, [0, 2, 5])
            assert arg.tolist() == [[0, 0], [2, 2], [5, 5]]
            _, arg = T.reduce_over_set(tied, mode, [0, 1, 2, 3, 4, 5, 6])
            assert arg.tolist() == [[i, i] for i in range(7)]

    def test_max_gradient_routing(self):
        x = T.parameter([[1.0, 3.0], [2.0, 1.0]])
        with T.Tape():
            out, _ = T.reduce_over_set(x, "max", [0])
            loss = sum_all(out)  # upstream gradient [1, 1]
        T.backward(loss)
        assert x.grad.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_max_min_zero_gradient_off_arg_rows(self):
        rng = np.random.default_rng(6)
        for mode in ("max", "min"):
            x = T.parameter(rng.standard_normal((5, 4)))
            with T.Tape():
                out, arg = T.reduce_over_set(x, mode, [0])
                loss = sum_all(out)
            T.backward(loss)
            selected = np.zeros_like(x.data, dtype=bool)
            selected[arg[0], np.arange(4)] = True
            assert np.all(x.grad[~selected] == 0.0)
            assert np.all(x.grad[selected] == 1.0)

    def test_sum_mean_gradients_match_fd(self):
        rng = np.random.default_rng(7)
        reducers = {"sum": lambda d: d.sum(axis=0).sum(),
                    "mean": lambda d: d.mean(axis=0).sum()}
        for mode, ref in reducers.items():
            x = T.parameter(rng.standard_normal((4, 3)))
            scalar_loss(lambda: T.reduce_over_set(x, mode, [0])[0])
            numeric = central_diff(lambda: float(ref(x.data)), x.data, h=1e-6)
            assert max_rel_err(x.grad, numeric) < 1e-6

    def test_segment_gradients_match_fd_in_every_mode(self):
        rng = np.random.default_rng(31)
        mix = rng.standard_normal((len(SEGMENT_STARTS), 3))
        for mode in T.POOL_MODES:
            x = T.parameter(rng.standard_normal((SEGMENT_ROWS, 3)))
            with T.Tape():
                out, _ = T.reduce_over_set(x, mode, SEGMENT_STARTS)
                loss = sum_all(mul(out, T.Tensor(mix)))
            T.backward(loss)

            def value():
                return float((_segment_oracle(x.data, SEGMENT_STARTS, mode)[0] * mix).sum())

            numeric = central_diff(value, x.data, h=1e-6)
            assert max_rel_err(x.grad, numeric) < 1e-6, mode

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            T.reduce_over_set(T.Tensor(np.zeros((0, 4))), "sum", [0])
        for mode in T.POOL_MODES:
            for starts in ([0, 2, 2], [0, 3]):  # an empty middle set, an empty last set
                with pytest.raises(EmptySetError):
                    T.reduce_over_set(T.Tensor(np.zeros((3, 4))), mode, starts)
        for starts in ([1, 2], [0, 2, 1], [0, 4]):
            with pytest.raises(ValueError, match="starts"):
                T.reduce_over_set(T.Tensor(np.zeros((3, 4))), "max", starts)

    def test_permutation_invariance_after_canonical_sort(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((7, 5))
        canonical = rows[np.lexsort(rows.T[::-1])]
        for mode in T.POOL_MODES:
            base, _ = T.reduce_over_set(T.Tensor(canonical), mode, [0])
            for _ in range(5):
                shuffled = rows[rng.permutation(7)]
                resorted = shuffled[np.lexsort(shuffled.T[::-1])]
                out, _ = T.reduce_over_set(T.Tensor(resorted), mode, [0])
                assert np.array_equal(out.data, base.data)  # bit-exact


class TestConv1d:
    def test_single_position_when_length_equals_width(self):
        rng = np.random.default_rng(9)
        out = T.conv1d_over_sequence(T.Tensor(rng.standard_normal((3, 4))),
                                     T.Tensor(rng.standard_normal((3, 4, 2))), [3])
        assert out.data.shape == (1, 2)

    def test_zero_kernels_zero_output(self):
        rng = np.random.default_rng(10)
        out = T.conv1d_over_sequence(T.Tensor(rng.standard_normal((6, 4))),
                                     T.Tensor(np.zeros((2, 4, 3))), [6])
        assert np.all(out.data == 0.0)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        emb = rng.standard_normal((5, 4))
        kernels = rng.standard_normal((2, 4, 3))
        out = T.conv1d_over_sequence(T.Tensor(emb), T.Tensor(kernels), [5]).data
        expected = np.zeros((4, 3))
        for p in range(4):
            for f in range(3):
                for j in range(2):
                    for e in range(4):
                        expected[p, f] += emb[p + j, e] * kernels[j, e, f]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_sequence_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            T.conv1d_over_sequence(T.Tensor(np.zeros((2, 4))),
                                   T.Tensor(np.zeros((3, 4, 1))), [2])

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(12)
        emb = T.parameter(rng.standard_normal((5, 3)))
        kernels = T.parameter(rng.standard_normal((2, 3, 2)))
        scalar_loss(lambda: T.conv1d_over_sequence(emb, kernels, [5]))

        def value():
            total = 0.0
            for j in range(2):
                total += (emb.data[j:j + 4] @ kernels.data[j]).sum()
            return float(total)

        for p in (emb, kernels):
            numeric = central_diff(value, p.data, h=1e-6)
            assert max_rel_err(p.grad, numeric) < 1e-6


    def test_joined_sequences_match_separate_convolutions(self):
        rng = np.random.default_rng(32)
        lengths = [3, 5, 4]
        parts = [rng.standard_normal((n, 4)) for n in lengths]
        kernels = T.Tensor(rng.standard_normal((3, 4, 2)))
        joined = T.conv1d_over_sequence(T.Tensor(np.concatenate(parts)), kernels, lengths)
        expected = np.concatenate([T.conv1d_over_sequence(T.Tensor(p), kernels, [len(p)]).data
                                   for p in parts])
        assert joined.data.shape == (1 + 3 + 2, 2)
        np.testing.assert_allclose(joined.data, expected, rtol=0, atol=1e-12)
        with pytest.raises(ValueError, match="too short"):
            T.conv1d_over_sequence(T.Tensor(np.concatenate(parts)), kernels, [6, 2, 4])
        with pytest.raises(ValueError, match="add up"):
            T.conv1d_over_sequence(T.Tensor(np.concatenate(parts)), kernels, [3, 5])

    def test_joined_gradients_match_fd(self):
        rng = np.random.default_rng(33)
        lengths = [2, 4, 3]
        emb = T.parameter(rng.standard_normal((9, 3)))
        kernels = T.parameter(rng.standard_normal((2, 3, 2)))
        mix = rng.standard_normal((1 + 3 + 2, 2))
        with T.Tape():
            loss = sum_all(mul(T.conv1d_over_sequence(emb, kernels, lengths), T.Tensor(mix)))
        T.backward(loss)

        def value():
            rows, lo = [], 0
            for n in lengths:
                seq = emb.data[lo:lo + n]
                rows.extend(seq[p] @ kernels.data[0] + seq[p + 1] @ kernels.data[1]
                            for p in range(n - 1))
                lo += n
            return float((np.array(rows) * mix).sum())

        for p in (emb, kernels):
            numeric = central_diff(value, p.data, h=1e-6)
            assert max_rel_err(p.grad, numeric) < 1e-6


class TestEmbeddingLookup:
    def test_gathers_rows(self):
        table = T.Tensor(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([2, 0, 2]))
        np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])

    def test_out_of_range(self):
        table = T.Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="vocabulary"):
            T.embedding_lookup(table, np.array([4]))

    def test_duplicate_indices_accumulate_gradient(self):
        table = T.parameter(np.zeros((4, 2)))
        with T.Tape():
            out = T.embedding_lookup(table, np.array([1, 1, 3]))
            loss = sum_all(out)
        T.backward(loss)
        np.testing.assert_array_equal(table.grad,
                                      [[0, 0], [2, 2], [0, 0], [1, 1]])


class TestStructuralOps:
    def test_concat_and_stack_gradients(self):
        rng = np.random.default_rng(13)
        parts = [T.parameter(rng.standard_normal((1, k))) for k in (2, 3)]
        scalar_loss(lambda: T.concat(parts, axis=1))
        for p in parts:
            np.testing.assert_array_equal(p.grad, np.ones_like(p.data))
        rows = [T.parameter(rng.standard_normal((1, 4))) for _ in range(3)]
        with T.Tape():
            stacked = T.concat(rows, axis=0)
            out, _ = T.reduce_over_set(stacked, "mean", [0])
            loss = sum_all(out)
        T.backward(loss)
        for r in rows:
            np.testing.assert_allclose(r.grad, np.full((1, 4), 1 / 3), atol=1e-15)
        # multi-row and multi-column parts: each gets its own block of upstream
        upstream = rng.standard_normal((6, 6))
        cases = [(0, [(1, 3), (2, 3), (3, 3)], [np.s_[0:1, 0:3], np.s_[1:3, 0:3], np.s_[3:6, 0:3]]),
                 (1, [(2, 1), (2, 3), (2, 2)], [np.s_[0:2, 0:1], np.s_[0:2, 1:4], np.s_[0:2, 4:6]])]
        for axis, shapes, cuts in cases:
            blocks = [T.parameter(rng.standard_normal(sh)) for sh in shapes]
            up = upstream[:6, :3] if axis == 0 else upstream[:2, :6]
            with T.Tape():
                joined = T.concat(blocks, axis=axis)
                loss = sum_all(mul(joined, T.Tensor(up)))
            T.backward(loss)
            for b, cut in zip(blocks, cuts):
                np.testing.assert_array_equal(joined.data[cut], b.data)
                np.testing.assert_array_equal(b.grad, up[cut])

    def test_concat_rejects_mismatched_parts_and_bad_axis(self):
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(1, 3\)"):
            T.concat([T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 3)))], axis=0)
        with pytest.raises(ValueError, match="axis"):
            T.concat([T.Tensor(np.zeros((1, 2)))], axis=2)
        with pytest.raises(ValueError):
            T.concat([], axis=1)

    def test_mul_and_scale(self):
        x = T.parameter([[2.0, -3.0]])
        with T.Tape():
            loss = sum_all(scale(mul(x, x), 0.5))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, x.data)


class TestScatterRows:
    def test_reorders_rows_and_fills_slots(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2))
        out = T.scatter_rows(x, np.array([2, 0, 1]), (3, 2))
        assert out.data.tolist() == [[2.0, 3.0], [4.0, 5.0], [0.0, 1.0]]
        # [2,6] seen as six 2-wide slots: rows land in slots 0, 3 and 5
        out = T.scatter_rows(x, np.array([0, 3, 5]), (2, 6))
        assert out.data.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                                     [2.0, 3.0, 0.0, 0.0, 4.0, 5.0]]

    def test_gradient_gathers_each_rows_destination(self):
        rng = np.random.default_rng(34)
        x = T.parameter(rng.standard_normal((3, 2)))
        rows = np.array([4, 1, 2])
        mix = rng.standard_normal((3, 4))
        with T.Tape():
            loss = sum_all(mul(T.scatter_rows(x, rows, (3, 4)), T.Tensor(mix)))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, mix.reshape(-1, 2)[rows])

    def test_rejects_rows_that_do_not_fit(self):
        x = T.Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows(x, np.array([0, 1, 2]), (3, 3))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows(x, np.array([0, 1]), (3, 2))


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.parameter(np.arange(6.0).reshape(2, 3))
        scalar_loss(lambda: x)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square_gives_two_x(self):
        x = T.parameter(np.arange(6.0).reshape(2, 3))
        with T.Tape():
            loss = sum_all(mul(x, x))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = T.parameter(np.ones((2, 2)))
        with T.Tape():
            y = T.elu(x)
        with pytest.raises(ValueError, match="scalar"):
            T.backward(y)

    def test_loss_off_tape_rejected(self):
        x = T.parameter(np.ones((1, 1)))
        y = T.elu(x)  # no tape active
        with pytest.raises(ValueError, match="Tape"):
            T.backward(y)

    def test_seeded_backward_of_per_row_losses(self):
        x = T.parameter(np.arange(6.0).reshape(3, 2))
        with T.Tape():
            rows = T.linear(x, T.Tensor(np.ones((2, 1))), T.Tensor(np.zeros((1, 1))))
        T.backward(rows, np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(ValueError, match="shape"):
            T.backward(rows, np.ones((1, 3)))

    def test_finished_graph_is_freed_without_the_cycle_collector(self):
        # the loss owns its graph and the graph owns the tape, with no cycle
        # back: dropping the loss frees the tape by reference counting alone
        x = T.parameter(np.ones((2, 2)))
        gc.disable()
        try:
            with T.Tape() as tape:
                loss = sum_all(T.elu(T.linear(x, T.Tensor(np.eye(2)),
                                              T.Tensor(np.zeros((1, 2))))))
            T.backward(loss)
            tape_ref = weakref.ref(tape)
            del tape, loss
            assert tape_ref() is None
        finally:
            gc.enable()
        np.testing.assert_array_equal(x.grad, np.ones((2, 2)))

    def test_repeated_backward_accumulates(self):
        x = T.parameter(np.ones((2, 2)))
        with T.Tape():
            loss = sum_all(x)
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_nested_tapes_rejected(self):
        with T.Tape():
            with pytest.raises(RuntimeError, match="already active"):
                with T.Tape():
                    pass


def _random_graph_value(x_data, w_data, b_data, mode):
    h = x_data @ w_data + b_data
    h = np.where(h > 0, h, np.expm1(h))
    if mode == "sum":
        r = h.sum(axis=0)
    elif mode == "mean":
        r = h.mean(axis=0)
    elif mode == "max":
        r = h.max(axis=0)
    else:
        r = h.min(axis=0)
    return float((1.0 / (1.0 + np.exp(-r))).sum())


def test_gradcheck_fifty_random_instances():
    """Composite graphs through every op family, analytic vs central FD."""
    rng = np.random.default_rng(99)
    for trial in range(50):
        mode = T.POOL_MODES[trial % 4]
        x = T.parameter(rng.standard_normal((4, 3)))
        w = T.parameter(rng.standard_normal((3, 5)))
        b = T.parameter(rng.standard_normal((1, 5)))
        with T.Tape():
            h = T.elu(T.linear(x, w, b))
            r, _ = T.reduce_over_set(h, mode, [0])
            loss = sum_all(sigmoid(r))
        T.backward(loss)
        for p in (x, w, b):
            numeric = central_diff(lambda: _random_graph_value(x.data, w.data, b.data, mode),
                                   p.data, h=1e-6)
            assert max_rel_err(p.grad, numeric) < 1e-4


def test_tape_replay_determinism():
    """Same seed and inputs give bit-identical outputs and gradients."""

    def run():
        rng = np.random.default_rng(42)
        x = T.parameter(rng.standard_normal((3, 4)))
        w = T.parameter(rng.standard_normal((4, 2)))
        with T.Tape():
            h = T.dropout(T.elu(T.linear(x, w, T.Tensor(np.zeros((1, 2))))), 0.25,
                          training=True, uniforms=np.random.default_rng(7).random((3, 2)))
            out, _ = T.reduce_over_set(h, "max", [0])
            loss = sum_all(out)
        T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
