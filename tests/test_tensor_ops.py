"""Forward-value checks for the tensor core against direct oracles."""
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasfusion import ndcore as ndc
from pasfusion.ndcore import ShapeError

from oracles import avgpool_nd_loops, conv_nd_loops, maxpool_nd_loops


def _t(arr, grad=False):
    return ndc.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def _param(arr):
    return ndc.Parameter(np.asarray(arr, dtype=np.float64))


class TestConv:
    def test_identity_kernel(self):
        x = _t(np.random.default_rng(0).normal(size=(1, 1, 4, 4, 4)))
        w = _param(np.ones((1, 1, 1, 1, 1)))
        b = _param(np.zeros(1))
        y = ndc.conv(x, w, b, stride=1, padding=0)
        np.testing.assert_array_equal(y.data, x.data)

    def test_2d_hand_case(self):
        x = _t([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = _param([[[[1.0, 0.0], [0.0, 1.0]]]])
        b = _param([0.0])
        y = ndc.conv(x, w, b, stride=1, padding=0)
        assert y.shape == (1, 1, 1, 1)
        assert y.data[0, 0, 0, 0] == 5.0

    def test_stem_shape_halves_input(self):
        # 7^3 kernel, stride 2, padding 3 on a 16x16x8 volume
        x = _t(np.zeros((1, 1, 16, 16, 8)))
        w = _param(np.zeros((4, 1, 7, 7, 7)))
        b = _param(np.zeros(4))
        y = ndc.conv(x, w, b, stride=2, padding=3)
        assert y.shape == (1, 4, 8, 8, 4)

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 2), (2, 1, 3), (1, 1, 3)])
    def test_matches_nested_loop_oracle(self, rng, dims, stride, padding, k):
        sp = (6, 5) if dims == 2 else (6, 5, 4)
        x = rng.normal(size=(2, 3) + sp)
        w = rng.normal(size=(4, 3) + (k,) * dims)
        b = rng.normal(size=4)
        got = ndc.conv(_t(x), _param(w), _param(b), stride=stride, padding=padding)
        want = conv_nd_loops(x, w, b, stride, padding)
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("in_ch,k,stride,padding", [
        (3, 1, 1, 0),   # at batch 1 the column of contiguous x aliases it
        (3, 1, 2, 0),
        (3, 3, 1, 1),
        (1, 7, 2, 3),
    ])
    @pytest.mark.parametrize("layout", ["moveaxis", "strided"])
    def test_non_contiguous_input_is_bitwise_contiguous(self, rng, batch, in_ch, k,
                                                        stride, padding, layout):
        sp = (9, 8)
        if layout == "moveaxis":
            base = rng.normal(size=(batch, sp[1], sp[0], in_ch)).astype(np.float32)
            strided = np.moveaxis(base, (3, 2), (1, 2))
        else:
            base = rng.normal(size=(batch, in_ch, 2 * sp[0], sp[1] + 3)).astype(np.float32)
            strided = base[:, :, ::2, 1:-2]
        assert strided.shape == (batch, in_ch) + sp and not strided.flags.c_contiguous
        w = rng.normal(size=(4, in_ch, k, k)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        results = []
        for data in (strided, np.ascontiguousarray(strided)):
            with ndc.Tape():
                x = ndc.Tensor(np.zeros_like(data), requires_grad=True)
                x.data = data       # the constructor would make a contiguous copy
                wt, bt = ndc.Parameter(w), ndc.Parameter(b)
                y = ndc.conv(x, wt, bt, stride=stride, padding=padding)
                g = np.random.default_rng(5).normal(size=y.shape).astype(np.float32)
                ndc.backward(ndc.sum_(y * ndc.Tensor(g)))
            results.append((y.data, x.grad, wt.grad, bt.grad))
        for got, want in zip(*results):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_channel_mismatch_names_axis(self):
        x = _t(np.zeros((1, 3, 4, 4)))
        w = _param(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            ndc.conv(x, w, None, stride=1, padding=0)

    def test_nonpositive_output_extent(self):
        x = _t(np.zeros((1, 1, 2, 2)))
        w = _param(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="spatial axis"):
            ndc.conv(x, w, None, stride=1, padding=0)


class TestPooling:
    def test_maxpool_constant(self):
        x = _t(np.full((1, 2, 4, 4), 3.5))
        y = ndc.maxpool(x, 2, 2)
        np.testing.assert_array_equal(y.data, np.full((1, 2, 2, 2), 3.5))

    def test_maxpool_hand_case(self):
        x = _t([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ndc.maxpool(x, 2, 2).data[0, 0, 0, 0] == 4.0

    def test_maxpool_halving_shape(self):
        x = _t(np.zeros((1, 4, 16, 16, 8)))
        assert ndc.maxpool(x, 3, 2, padding=1).shape == (1, 4, 8, 8, 4)

    def test_maxpool_window_too_large(self):
        with pytest.raises(ShapeError, match="window"):
            ndc.maxpool(_t(np.zeros((1, 1, 2, 2))), 5, 1, padding=1)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_maxpool_matches_oracle(self, rng, dims):
        sp = (7, 6) if dims == 2 else (7, 6, 5)
        x = rng.normal(size=(2, 2) + sp)
        got = ndc.maxpool(_t(x), 3, 2, padding=1)
        np.testing.assert_allclose(got.data, maxpool_nd_loops(x, 3, 2, 1), atol=0)

    def test_avgpool_constant(self):
        x = _t(np.full((1, 1, 4, 4, 4), 2.25))
        np.testing.assert_allclose(ndc.avgpool(x, 2, 2).data,
                                   np.full((1, 1, 2, 2, 2), 2.25))

    def test_avgpool_hand_case(self):
        x = _t([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ndc.avgpool(x, 2, 2).data[0, 0, 0, 0] == 2.5

    @pytest.mark.parametrize("dims", [2, 3])
    def test_avgpool_matches_oracle(self, rng, dims):
        sp = (8, 6) if dims == 2 else (8, 6, 4)
        x = rng.normal(size=(2, 2) + sp)
        got = ndc.avgpool(_t(x), 2, 2)
        np.testing.assert_allclose(got.data, avgpool_nd_loops(x, 2, 2), atol=1e-12)

    def test_avgpool_degenerate_axis_passthrough(self):
        # extent-1 depth axis clamps the window instead of erroring
        x = rng_vol = np.random.default_rng(7).normal(size=(1, 3, 2, 2, 1))
        y = ndc.avgpool(_t(rng_vol), 2, 2)
        assert y.shape == (1, 3, 1, 1, 1)
        np.testing.assert_allclose(y.data[0, :, 0, 0, 0],
                                   x[0].mean(axis=(1, 2, 3)), atol=1e-12)

    def test_global_avgpool(self, rng):
        x = rng.normal(size=(2, 5, 3, 3, 2))
        got = ndc.global_avgpool(_t(x))
        np.testing.assert_allclose(got.data, x.mean(axis=(2, 3, 4)), atol=1e-12)
        ones = ndc.global_avgpool(_t(np.ones((1, 4, 2, 2))))
        np.testing.assert_array_equal(ones.data, np.ones((1, 4)))

    def test_global_avgpool_mean_value(self):
        x = _t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2))
        assert ndc.global_avgpool(x).data[0, 0] == 2.5


class TestNormalization:
    def test_batchnorm_eval_identity(self):
        x = _t(np.random.default_rng(3).normal(size=(4, 3, 2, 2)))
        scale, shift = _param(np.ones(3)), _param(np.zeros(3))
        rm, rv = np.zeros(3), np.ones(3)
        y = ndc.batchnorm(x, scale, shift, rm, rv, mode="eval")
        np.testing.assert_allclose(y.data, x.data, atol=1e-4)

    def test_batchnorm_train_statistics(self, rng):
        x = _t(rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5)))
        scale, shift = _param(np.ones(4)), _param(np.zeros(4))
        rm, rv = np.zeros(4), np.ones(4)
        y = ndc.batchnorm(x, scale, shift, rm, rv, mode="train")
        per_ch = y.data.transpose(1, 0, 2, 3).reshape(4, -1)
        np.testing.assert_allclose(per_ch.mean(axis=1), 0.0, atol=1e-4)
        np.testing.assert_allclose(per_ch.var(axis=1), 1.0, atol=1e-4)

    def test_batchnorm_constant_input_gives_shift(self):
        x = _t(np.full((4, 2, 3), 7.0))
        scale, shift = _param(np.ones(2) * 5.0), _param(np.array([1.5, -2.0]))
        rm, rv = np.zeros(2), np.ones(2)
        y = ndc.batchnorm(x, scale, shift, rm, rv, mode="train")
        np.testing.assert_allclose(y.data[:, 0], 1.5, atol=1e-6)
        np.testing.assert_allclose(y.data[:, 1], -2.0, atol=1e-6)

    def test_batchnorm_empty_batch(self):
        with pytest.raises(ShapeError):
            ndc.batchnorm(_t(np.zeros((0, 2))), _param(np.ones(2)),
                          _param(np.zeros(2)), np.zeros(2), np.ones(2), "train")

    def test_layernorm_constant_token(self):
        x = _t(np.ones((1, 4)))
        y = ndc.layernorm(x, _param(np.ones(4)), _param(np.zeros(4)))
        np.testing.assert_allclose(y.data, 0.0, atol=1e-6)

    def test_layernorm_two_values(self):
        x = _t(np.array([[1.0, 3.0]]))
        y = ndc.layernorm(x, _param(np.ones(2)), _param(np.zeros(2)))
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-3)

    def test_layernorm_zero_mean(self, rng):
        x = _t(rng.normal(size=(6, 9, 16)))
        y = ndc.layernorm(x, _param(np.ones(16)), _param(np.zeros(16)))
        assert np.abs(y.data.mean(axis=-1)).max() < 1e-6


class TestActivations:
    def test_trivial_values(self):
        np.testing.assert_allclose(ndc.softmax(_t([0.0, 0.0])).data, [0.5, 0.5])
        assert ndc.sigmoid(_t([0.0])).data[0] == 0.5
        assert ndc.relu(_t([-1.0])).data[0] == 0.0

    def test_gelu_erf_closed_form(self):
        # oracle: 0.5 * (1 + erf(1/sqrt(2))) -- the exact-erf formulation
        want = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
        got = ndc.gelu(_t([1.0])).data[0]
        assert abs(got - want) < 1e-12
        assert abs(got - 0.8413447460685429) < 1e-12

    def test_softmax_rows_sum_to_one(self, rng):
        x = _t(rng.normal(scale=4.0, size=(32, 2)))
        y = ndc.softmax(x)
        np.testing.assert_allclose(y.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(y.data > 0) and np.all(y.data < 1)


class TestLinearConcat:
    def test_linear_identity(self):
        x = _t(np.random.default_rng(5).normal(size=(3, 4)))
        y = ndc.linear(x, _param(np.eye(4)), _param(np.zeros(4)))
        np.testing.assert_allclose(y.data, x.data)

    def test_linear_hand_case(self):
        y = ndc.linear(_t([[1.0, 1.0]]), _param([[1.0, 2.0], [3.0, 4.0]]),
                       _param([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [[3.0, 7.0]])

    def test_linear_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ndc.linear(_t(np.zeros((2, 3))), _param(np.zeros((4, 5))), None)

    def test_concat_with_empty(self):
        x = _t(np.arange(6, dtype=np.float64).reshape(2, 3))
        empty = _t(np.zeros((2, 0)))
        y = ndc.concat([x, empty], axis=1)
        np.testing.assert_array_equal(y.data, x.data)

    def test_concat_feature_dims(self):
        a, b = _t(np.zeros((1, 128))), _t(np.zeros((1, 768)))
        assert ndc.concat([a, b], axis=1).shape == (1, 896)
        c = _t(np.zeros((1, 2048)))
        assert ndc.concat([ndc.concat([a, b], axis=1), c], axis=1).shape == (1, 2944)

    def test_concat_mismatch(self):
        with pytest.raises(ShapeError):
            ndc.concat([_t(np.zeros((2, 3))), _t(np.zeros((3, 3)))], axis=1)

    def test_concat_split_round_trip(self, rng):
        a = rng.normal(size=(2, 5))
        b = rng.normal(size=(2, 7))
        joined = ndc.concat([_t(a), _t(b)], axis=1)
        assert joined.shape == (2, 12)
        np.testing.assert_array_equal(joined.data[:, :5], a)
        np.testing.assert_array_equal(joined.data[:, 5:], b)


class TestAttention:
    def test_single_token_is_value_projection(self, rng):
        d = 6
        tok = rng.normal(size=(1, d))
        ws = [ndc.Parameter(rng.normal(size=(d, d)), dtype=np.float64) for _ in range(4)]
        out = ndc.mhsa(_t(tok), 2, *ws)
        want = (tok @ ws[2].data) @ ws[3].data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_two_identical_tokens_average_equally(self, rng):
        # attention over identical tokens is [0.5, 0.5], so output rows match
        d = 8
        row = rng.normal(size=d)
        toks = np.stack([row, row])
        ws = [ndc.Parameter(rng.normal(size=(d, d)), dtype=np.float64) for _ in range(4)]
        out = ndc.mhsa(_t(toks), 4, *ws)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-12)
        want = (row @ ws[2].data) @ ws[3].data
        np.testing.assert_allclose(out.data[0], want, atol=1e-10)

    def test_shape_preserved(self, rng):
        toks = rng.normal(size=(2, 16, 12))
        ws = [ndc.Parameter(rng.normal(size=(12, 12)), dtype=np.float64) for _ in range(4)]
        assert ndc.mhsa(_t(toks), 4, *ws).shape == (2, 16, 12)

    def test_heads_must_divide(self, rng):
        toks = _t(rng.normal(size=(1, 3, 10)))
        ws = [ndc.Parameter(rng.normal(size=(10, 10)), dtype=np.float64) for _ in range(4)]
        with pytest.raises(ShapeError):
            ndc.mhsa(toks, 3, *ws)


class TestDropout:
    def test_p_zero_and_eval_identity(self, rng):
        x = _t(rng.normal(size=(4, 4)))
        assert ndc.dropout(x, 0.0, "train", np.random.default_rng(0)) is x
        assert ndc.dropout(x, 0.7, "eval") is x

    def test_drop_fraction(self):
        x = _t(np.ones(100_000))
        y = ndc.dropout(x, 0.5, "train", np.random.default_rng(99))
        frac = np.mean(y.data == 0.0)
        assert abs(frac - 0.5) < 0.01
        survivors = y.data[y.data != 0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_p_out_of_range(self):
        with pytest.raises(ValueError):
            ndc.dropout(_t([1.0]), 1.0, "train", np.random.default_rng(0))


class TestLosses:
    def test_uniform_cross_entropy_is_ln2(self):
        logits = _t(np.zeros((4, 2)))
        out = ndc.cross_entropy(logits, [0, 1, 0, 1])
        np.testing.assert_allclose(out.data, math.log(2.0), atol=1e-7)

    def test_label_smoothing_target(self):
        # eps=0.1, K=2: target 1 becomes [0.05, 0.95]; loss = -sum(y * logp)
        logits = np.array([[0.3, 1.1]])
        z = logits - logits.max()
        logp = z - np.log(np.exp(z).sum())
        want = -(0.05 * logp[0, 0] + 0.95 * logp[0, 1])
        got = ndc.cross_entropy(_t(logits), [1], label_smoothing=0.1)
        np.testing.assert_allclose(got.data, want, atol=1e-9)

    def test_class_weights_normalization(self, rng):
        logits = rng.normal(size=(6, 2))
        targets = np.array([0, 0, 0, 0, 1, 1])
        weights = np.array([0.5, 2.5])
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        per = -logp[np.arange(6), targets]
        w = weights[targets]
        want = (per * w).sum() / w.sum()
        got = ndc.cross_entropy(_t(logits), targets, class_weights=weights)
        np.testing.assert_allclose(got.data, want, atol=1e-9)

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            ndc.cross_entropy(_t(np.zeros((1, 2))), [2])

    def test_bce_clamped_perfect_prediction(self):
        out = ndc.bce_loss(_t([1.0]), [1.0])
        assert out.data <= 1.1e-7

    def test_bce_hand_value(self):
        p, y = 0.73, 1.0
        got = ndc.bce_loss(_t([p]), [y])
        np.testing.assert_allclose(got.data, -math.log(p), rtol=1e-6)

    def test_bce_rejects_soft_targets(self):
        with pytest.raises(ValueError):
            ndc.bce_loss(_t([0.5]), [0.25])


def _ndc1_block(name, extents, body=None, name_len=None, rank=None):
    """One NDC1 array block; ``None`` fields take their consistent values and
    a ``None`` body is the zero payload that the extents call for (if small)."""
    count = math.prod(extents)
    if body is None:
        body = bytes(4 * count) if count <= 1024 else b""
    return (struct.pack("<Q", len(name) if name_len is None else name_len) + name
            + struct.pack("<Q", len(extents) if rank is None else rank)
            + struct.pack(f"<{len(extents)}Q", *extents) + body)


class TestSerialization:
    def test_round_trip_is_bitwise(self, rng):
        arrays = {
            "mri.dense.stem.weight": rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32),
            "mri.dense.stem.bias": rng.normal(size=4).astype(np.float32),
            "a.scalarish": rng.normal(size=(1,)).astype(np.float32),
        }
        blob = ndc.dump_arrays(arrays)
        assert blob[:4] == b"NDC1"
        back = ndc.load_arrays(blob)
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            assert back[name].tobytes() == arr.tobytes()

    def test_lexicographic_order(self):
        arrays = {"b": np.zeros(1, np.float32), "a": np.ones(1, np.float32)}
        blob = ndc.dump_arrays(arrays)
        assert blob.find(b"a") < blob.find(b"b")

    def test_bad_magic(self):
        with pytest.raises(ndc.ContainerError):
            ndc.load_arrays(b"XXXX" + b"\x00" * 16)

    @pytest.mark.parametrize("block", [
        _ndc1_block(b"\xff\xfe", [1], bytes(4)),
        _ndc1_block(b"w", [2 ** 32, 2 ** 32], bytes(64)),
        _ndc1_block(b"w", [1] * 65, bytes(4)),
        _ndc1_block(b"w", [0, 2 ** 63], b"")],
        ids=["name_not_utf8", "count_wraps_in_int64", "65_axes", "axis_past_intp"])
    def test_malformed_block_is_container_error(self, block):
        with pytest.raises(ndc.ContainerError):
            ndc.load_arrays(b"NDC1" + block)

    @given(blob=st.one_of(
        st.binary(max_size=300),
        st.builds(lambda magic, blocks: magic + b"".join(blocks),
                  st.sampled_from([b"NDC1"] * 3 + [b"NDC2"]),
                  st.lists(st.builds(
                      _ndc1_block,
                      name=st.text(max_size=6).map(str.encode) | st.binary(max_size=6),
                      extents=st.lists(st.integers(0, 3), max_size=5)
                      | st.lists(st.integers(0, 2 ** 64 - 1), max_size=3)
                      | st.lists(st.sampled_from([1, 1, 0]), min_size=60, max_size=70),
                      body=st.none() | st.binary(max_size=64),
                      name_len=st.none() | st.integers(0, 2 ** 64 - 1),
                      rank=st.none() | st.integers(0, 2 ** 64 - 1)), max_size=3))))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_container_is_loaded_or_container_error(self, blob):
        try:
            arrays = ndc.load_arrays(blob)
        except ndc.ContainerError:
            return
        assert all(a.dtype == np.float32 for a in arrays.values())
