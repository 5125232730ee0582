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

    def test_constant_input_takes_no_gradient(self):
        rng = np.random.default_rng(2)
        x = T.Tensor(rng.standard_normal((3, 4)))
        w = T.parameter(rng.standard_normal((4, 2)))
        b = T.parameter(rng.standard_normal((1, 2)))
        mix = rng.standard_normal((3, 2))
        with T.Tape():
            loss = sum_all(mul(T.linear(x, w, b), T.Tensor(mix)))
        T.backward(loss)
        assert x.grad is None

        def value():
            return float(((x.data @ w.data + b.data) * mix).sum())

        for p in (w, b):
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

    def test_signed_zeros_and_nan(self):
        # -0.0 stays -0.0 and NaN stays NaN; the backward scales every
        # x <= 0, -0.0 included, by out + 1 and passes NaN's gradient through
        x = T.parameter([[-0.0, 0.0, np.nan, -1.0, -np.inf, 2.0]])
        g = np.array([[3.0, 5.0, 7.0, 11.0, 13.0, 17.0]])
        with T.Tape():
            out = T.elu(x)
        T.backward(out, g)
        assert np.signbit(out.data[0, 0]) and not np.signbit(out.data[0, 1])
        assert np.isnan(out.data[0, 2])
        np.testing.assert_array_equal(out.data[0, 3:], [math.expm1(-1.0), -1.0, 2.0])
        neg = np.array([[True, True, False, True, True, False]])
        np.testing.assert_array_equal(x.grad, np.where(neg, g * (out.data + 1.0), g))

    def test_bytes_match_the_masked_form(self):
        # the reference is the masked form: expm1 and the scaling on x <= 0 only
        rng = np.random.default_rng(12)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
                   2.2e-308, -2.2e-308, 1e-20, -1e-20, 709.0, 710.0, -746.0, 1e308, -1e308]
        d = np.concatenate([rng.standard_normal(100_000) * 5, special]).reshape(1, -1)
        g = rng.standard_normal(d.shape)
        neg = d <= 0.0
        want = d.copy()
        want[neg] = np.expm1(d[neg])
        want_grad = g.copy()
        want_grad[neg] *= want[neg] + 1.0
        x = T.parameter(d)
        with np.errstate(all="raise"):  # no overflow from entries that pass through
            with T.Tape():
                out = T.elu(x)
            T.backward(out, g)
        assert out.data.tobytes() == want.tobytes()
        assert x.grad.tobytes() == want_grad.tobytes()


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
    def test_p_zero_training_is_identity(self):
        x = T.Tensor([[1.0, -2.0]])
        out = T.dropout(x, 0.0, uniforms=np.random.default_rng(0).random(x.shape))
        np.testing.assert_array_equal(out.data, x.data)

    def test_invalid_probability(self):
        x = T.Tensor([[1.0]])
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                T.dropout(x, p, uniforms=np.random.default_rng(0).random(x.shape))

    def test_monte_carlo_rate_and_mean(self):
        rng = np.random.default_rng(5)
        x = T.Tensor(np.full((1000, 1000), 2.0))
        out = T.dropout(x, 0.25, uniforms=rng.random(x.shape))
        zero_fraction = float(np.mean(out.data == 0.0))
        assert abs(zero_fraction - 0.25) < 0.005
        assert abs(out.data.mean() - 2.0) / 2.0 < 0.01

    def test_gradient_uses_recorded_mask(self):
        x = T.parameter(np.linspace(-1, 1, 12).reshape(3, 4))

        def forward():
            return T.dropout(x, 0.5, uniforms=np.random.default_rng(11).random(x.shape))

        scalar_loss(forward)
        numeric = central_diff(lambda: float(forward().data.sum()), x.data, h=1e-6)
        assert max_rel_err(x.grad, numeric) < 1e-6


    def test_predrawn_uniforms_match_the_generator(self):
        # the caller's uniforms alone decide the mask; they must fit x
        x = T.Tensor(np.arange(1.0, 13.0).reshape(3, 4))
        rows = np.random.default_rng(3).random((3, 4))
        given = T.dropout(x, 0.5, uniforms=rows)
        np.testing.assert_array_equal(given.data, x.data * (rows >= 0.5) / 0.5)
        with pytest.raises(ValueError, match="shape"):
            T.dropout(x, 0.5, uniforms=rows[:2])

    def test_uniforms_drawn_into_a_block_match_a_fresh_draw(self):
        # a training batch draws each sample's uniforms into its run of one
        # block, after the sample's earlier draws from the same stream
        block = np.empty((7, 5))
        lo = 0
        for seed, n in ((1, 3), (2, 0), (3, 4)):
            rng = np.random.default_rng(seed)
            rng.random(2)
            rng.random(out=block[lo:lo + n])
            fresh = np.random.default_rng(seed)
            fresh.random(2)
            assert block[lo:lo + n].tobytes() == fresh.random((n, 5)).tobytes()
            lo += n


# rows of x: sets [0,3), [3,4), [4,8) -- ragged, and a singleton among them
SEGMENT_SIZES = np.array([3, 1, 4])
SEGMENT_ROWS = 8


def _segment_oracle(d, sizes, mode):
    """Per-set numpy reduction plus, for max/min, each set's first arg row."""
    bounds = [0, *np.cumsum(sizes)]
    outs, args = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = d[lo:hi]
        outs.append(getattr(part, mode)(axis=0))
        if mode in ("max", "min"):
            args.append(lo + getattr(part, "arg" + mode)(axis=0))
    return np.array(outs), (np.array(args) if args else None)


class TestReduceOverSet:
    def test_max_values_and_argidx(self):
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 3.0], [2.0, 1.0]]), "max", [2])
        assert out.data.tolist() == [[2.0, 3.0]]
        assert arg[0].tolist() == [1, 0]
        # two sets: arg rows index x, not the set
        x = T.Tensor([[1.0, 3.0], [2.0, 1.0], [0.0, 5.0], [4.0, -1.0], [9.0, 0.0]])
        out, arg = T.reduce_over_set(x, "max", [2, 3])
        assert out.data.tolist() == [[2.0, 3.0], [9.0, 5.0]]
        assert arg.tolist() == [[1, 0], [4, 2]]

    def test_ragged_sets_match_per_set_reduction_in_every_mode(self):
        rng = np.random.default_rng(30)
        d = rng.standard_normal((SEGMENT_ROWS, 5))
        for mode in T.POOL_MODES:
            for sizes in (SEGMENT_SIZES, np.array([2, 2, 2, 2])):  # ragged, equal sizes
                out, arg = T.reduce_over_set(T.Tensor(d), mode, sizes)
                expected, expected_arg = _segment_oracle(d, sizes, mode)
                np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-15)
                if expected_arg is None:
                    assert arg is None
                else:
                    np.testing.assert_array_equal(arg, expected_arg)
                    np.testing.assert_array_equal(out.data, expected)

    def test_sum(self):
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), "sum", [2])
        assert out.data.tolist() == [[4.0, 6.0]]
        assert arg is None
        out, arg = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                     "sum", [1, 2])
        assert out.data.tolist() == [[1.0, 2.0], [8.0, 10.0]]
        assert arg is None

    def test_mean(self):
        out, _ = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0]]), "mean", [2])
        assert out.data.tolist() == [[2.0, 3.0]]
        out, _ = T.reduce_over_set(T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                                   "mean", [1, 2])
        assert out.data.tolist() == [[1.0, 2.0], [4.0, 5.0]]

    def test_min_ties_take_lowest_row(self):
        _, arg = T.reduce_over_set(T.Tensor([[5.0, 1.0], [5.0, 1.0]]), "min", [2])
        assert arg[0].tolist() == [0, 0]
        _, arg = T.reduce_over_set(T.Tensor([[5.0, 1.0], [5.0, 1.0]]), "max", [2])
        assert arg[0].tolist() == [0, 0]
        # within each set, ragged or not: the set's lowest tied row wins
        tied = T.Tensor(np.array([[5.0, 1.0]] * 5 + [[2.0, 2.0]] * 2))
        for mode in ("min", "max"):
            _, arg = T.reduce_over_set(tied, mode, [2, 3, 2])
            assert arg.tolist() == [[0, 0], [2, 2], [5, 5]]
            _, arg = T.reduce_over_set(tied, mode, [1] * 7)
            assert arg.tolist() == [[i, i] for i in range(7)]

    def test_pooled_extremum_is_the_arg_rows_value_bit_for_bit(self):
        # a tie of -0.0 and +0.0 compares equal; the pooled bit is the arg row's
        rng = np.random.default_rng(34)
        for mode, other in (("max", -1.0), ("min", 1.0)):
            d = rng.choice([-0.0, 0.0, other], size=(12, 6))
            for sizes in ([1, 3, 2, 4, 2], [3, 3, 3, 3]):  # ragged, equal sizes
                out, arg = T.reduce_over_set(T.Tensor(d), mode, sizes)
                assert out.data.tobytes() == d[arg, np.arange(6)].tobytes()
        # one bit must not depend on the set's batch-mates
        for mode, rows in (("max", [[-0.0], [0.0], [5.0]]), ("min", [[0.0], [-0.0], [-5.0]])):
            x = T.Tensor(rows)
            together, arg = T.reduce_over_set(x, mode, [2, 1])
            alone, _ = T.reduce_over_set(T.Tensor(rows[:2]), mode, [2])
            assert arg[0, 0] == 0
            assert together.data[:1].tobytes() == alone.data.tobytes() == x.data[0].tobytes()

    def test_wide_and_narrow_rows_match_the_per_set_oracle(self):
        # rows of WIDE_ROWS columns or more take one arg-reduction per set;
        # ties of +-0, NaN and +-inf must come out as on narrower rows
        rng = np.random.default_rng(35)
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf])
        for width in (T.WIDE_ROWS - 1, T.WIDE_ROWS):
            cols = np.arange(width)
            d = rng.standard_normal((12, width))
            d[:, ::2] = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(12, len(cols[::2])))
            spots = rng.random(d.shape) < 0.05
            d[spots] = rng.choice(special, size=int(spots.sum()))
            for sizes in ([1, 3, 2, 4, 1, 1], [12]):  # ragged with 1-row sets, one set
                for mode in ("max", "min"):
                    x = T.parameter(d)
                    g = rng.standard_normal((len(sizes), width))
                    with T.Tape():
                        out, arg = T.reduce_over_set(x, mode, sizes)
                    T.backward(out, g)
                    np.testing.assert_array_equal(arg, _segment_oracle(d, sizes, mode)[1])
                    assert out.data.tobytes() == d[arg, cols].tobytes()
                    routed = np.zeros_like(d)
                    routed[arg, cols] = g
                    assert x.grad.tobytes() == routed.tobytes()

    def test_max_gradient_routing(self):
        x = T.parameter([[1.0, 3.0], [2.0, 1.0]])
        with T.Tape():
            out, _ = T.reduce_over_set(x, "max", [2])
            loss = sum_all(out)  # upstream gradient [1, 1]
        T.backward(loss)
        assert x.grad.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_max_min_zero_gradient_off_arg_rows(self):
        rng = np.random.default_rng(6)
        for mode in ("max", "min"):
            x = T.parameter(rng.standard_normal((5, 4)))
            with T.Tape():
                out, arg = T.reduce_over_set(x, mode, [5])
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
            scalar_loss(lambda: T.reduce_over_set(x, mode, [4])[0])
            numeric = central_diff(lambda: float(ref(x.data)), x.data, h=1e-6)
            assert max_rel_err(x.grad, numeric) < 1e-6

    def test_segment_gradients_match_fd_in_every_mode(self):
        rng = np.random.default_rng(31)
        mix = rng.standard_normal((len(SEGMENT_SIZES), 3))
        for mode in T.POOL_MODES:
            x = T.parameter(rng.standard_normal((SEGMENT_ROWS, 3)))
            with T.Tape():
                out, _ = T.reduce_over_set(x, mode, SEGMENT_SIZES)
                loss = sum_all(mul(out, T.Tensor(mix)))
            T.backward(loss)

            def value():
                return float((_segment_oracle(x.data, SEGMENT_SIZES, mode)[0] * mix).sum())

            numeric = central_diff(value, x.data, h=1e-6)
            assert max_rel_err(x.grad, numeric) < 1e-6, mode

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            T.reduce_over_set(T.Tensor(np.zeros((0, 4))), "sum", [0])
        for mode in T.POOL_MODES:
            for sizes in ([2, 0, 1], [3, 0]):  # an empty middle set, an empty last set
                with pytest.raises(EmptySetError):
                    T.reduce_over_set(T.Tensor(np.zeros((3, 4))), mode, sizes)
        for sizes in ([1, 1], [4], [2, -1, 2], [[3]]):  # wrong sum, negative, 2-D
            with pytest.raises(ValueError, match="sizes"):
                T.reduce_over_set(T.Tensor(np.zeros((3, 4))), "max", sizes)

    def test_permutation_invariance_after_canonical_sort(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((7, 5))
        canonical = rows[np.lexsort(rows.T[::-1])]
        for mode in T.POOL_MODES:
            base, _ = T.reduce_over_set(T.Tensor(canonical), mode, [7])
            for _ in range(5):
                shuffled = rows[rng.permutation(7)]
                resorted = shuffled[np.lexsort(shuffled.T[::-1])]
                out, _ = T.reduce_over_set(T.Tensor(resorted), mode, [7])
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

    def test_constant_kernels_take_no_gradient(self):
        rng = np.random.default_rng(35)
        emb = T.parameter(rng.standard_normal((5, 3)))
        kernels = T.Tensor(rng.standard_normal((2, 3, 2)))
        mix = rng.standard_normal((4, 2))
        with T.Tape():
            loss = sum_all(mul(T.conv1d_over_sequence(emb, kernels, [5]), T.Tensor(mix)))
        T.backward(loss)
        assert kernels.grad is None

        def value():
            return float(((emb.data[0:4] @ kernels.data[0]
                           + emb.data[1:5] @ kernels.data[1]) * mix).sum())

        numeric = central_diff(value, emb.data, h=1e-6)
        assert max_rel_err(emb.grad, numeric) < 1e-6

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
    def test_mul_and_scale(self):
        x = T.parameter([[2.0, -3.0]])
        with T.Tape():
            loss = sum_all(scale(mul(x, x), 0.5))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, x.data)


class TestScatterRows:
    def test_reorders_rows_and_fills_slots(self):
        x = T.Tensor(np.arange(6.0).reshape(3, 2))
        out = T.scatter_rows([x], np.array([2, 0, 1]), (3, 2))
        assert out.data.tolist() == [[2.0, 3.0], [4.0, 5.0], [0.0, 1.0]]
        # [2,6] seen as six 2-wide slots: rows land in slots 0, 3 and 5
        out = T.scatter_rows([x], np.array([0, 3, 5]), (2, 6))
        assert out.data.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                                     [2.0, 3.0, 0.0, 0.0, 4.0, 5.0]]

    def test_gradient_gathers_each_rows_destination(self):
        rng = np.random.default_rng(34)
        x = T.parameter(rng.standard_normal((3, 2)))
        rows = np.array([4, 1, 2])
        mix = rng.standard_normal((3, 4))
        with T.Tape():
            loss = sum_all(mul(T.scatter_rows([x], rows, (3, 4)), T.Tensor(mix)))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, mix.reshape(-1, 2)[rows])

    def test_rejects_rows_that_do_not_fit(self):
        x = T.Tensor(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows([x], np.array([0, 1, 2]), (3, 3))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows([x], np.array([0, 1]), (3, 2))

    def test_stacks_parts_and_joins_columns(self):
        rng = np.random.default_rng(13)
        # a column join: part j's row i fills column block j of row i
        parts = [T.parameter(rng.standard_normal((1, 2))) for _ in range(2)]
        scalar_loss(lambda: T.scatter_rows(parts, np.array([0, 1]), (1, 4)))
        for p in parts:
            np.testing.assert_array_equal(p.grad, np.ones_like(p.data))
        rows = [T.parameter(rng.standard_normal((1, 4))) for _ in range(3)]
        with T.Tape():
            stacked = T.scatter_rows(rows, np.arange(3), (3, 4))
            out, _ = T.reduce_over_set(stacked, "mean", [3])
            loss = sum_all(out)
        T.backward(loss)
        for r in rows:
            np.testing.assert_allclose(r.grad, np.full((1, 4), 1 / 3), atol=1e-15)
        # parts of different row counts: each gets its own rows of upstream
        upstream = rng.standard_normal((6, 6))
        cases = [((6, 3), [(1, 3), (2, 3), (3, 3)], np.arange(6),
                  [np.s_[0:1, 0:3], np.s_[1:3, 0:3], np.s_[3:6, 0:3]]),
                 ((2, 6), [(2, 2)] * 3, np.arange(6).reshape(2, 3).T.ravel(),
                  [np.s_[0:2, 0:2], np.s_[0:2, 2:4], np.s_[0:2, 4:6]]),
                 ((4, 2), [(1, 2), (3, 2)], np.array([2, 0, 3, 1]),
                  [np.s_[[2], :], np.s_[[0, 3, 1], :]])]
        for shape, shapes, dest, cuts in cases:
            blocks = [T.parameter(rng.standard_normal(sh)) for sh in shapes]
            up = upstream[:shape[0], :shape[1]]
            with T.Tape():
                joined = T.scatter_rows(blocks, dest, shape)
                loss = sum_all(mul(joined, T.Tensor(up)))
            T.backward(loss)
            for b, cut in zip(blocks, cuts):
                np.testing.assert_array_equal(joined.data[cut], b.data)
                np.testing.assert_array_equal(b.grad, up[cut])

    def test_constant_part_takes_no_gradient(self):
        rng = np.random.default_rng(36)
        param = T.parameter(rng.standard_normal((2, 3)))
        const = T.Tensor(rng.standard_normal((2, 3)))
        mix = rng.standard_normal((2, 6))
        side_by_side = np.arange(4).reshape(2, 2).T.ravel()
        with T.Tape():
            loss = sum_all(mul(T.scatter_rows([param, const], side_by_side, (2, 6)),
                               T.Tensor(mix)))
        T.backward(loss)
        assert const.grad is None

        def value():
            return float((np.concatenate([param.data, const.data], axis=1) * mix).sum())

        numeric = central_diff(value, param.data, h=1e-6)
        assert max_rel_err(param.grad, numeric) < 1e-6

    def test_rejects_mismatched_parts(self):
        with pytest.raises(ValueError, match=r"cannot place.*\(1, 2\).*\(1, 3\)"):
            T.scatter_rows([T.Tensor(np.zeros((1, 2))), T.Tensor(np.zeros((1, 3)))],
                           np.arange(2), (1, 6))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows([T.Tensor(np.zeros((1, 2)))], np.arange(1), (2,))
        with pytest.raises(ValueError, match="cannot place"):
            T.scatter_rows([], np.arange(0), (0, 2))


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
            r, _ = T.reduce_over_set(h, mode, [4])
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
                          uniforms=np.random.default_rng(7).random((3, 2)))
            out, _ = T.reduce_over_set(h, "max", [3])
            loss = sum_all(out)
        T.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
