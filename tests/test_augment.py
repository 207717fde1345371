"""Augmentation geometry: involution identities, zoom growth, rotation stats."""
import numpy as np
import pytest

from pasfusion.datapipe import (
    Volume,
    augment_mri,
    augment_us,
    rotate_bilinear,
    sample_rng,
    zoom_center_crop,
)
from pasfusion.datapipe.preprocess import cubic_taps, resample

from oracles import rotate_bilinear_loops


class TestMriAugment:
    def test_shape_and_finiteness_preserved(self, rng):
        vol = Volume(voxels=rng.random((32, 32, 16)).astype(np.float32))
        out = augment_mri(vol, sample_rng(0, "p1", 0))
        assert out.voxels.shape == (32, 32, 16)
        assert np.all(np.isfinite(out.voxels))

    def test_rot90_four_times_identity(self, rng):
        vox = rng.random((16, 16, 8))
        out = vox
        for _ in range(4):
            out = np.rot90(out, k=1, axes=(0, 1))
        np.testing.assert_array_equal(out, vox)

    def test_flip_twice_identity(self, rng):
        vox = rng.random((16, 16, 8))
        np.testing.assert_array_equal(vox[::-1][::-1], vox)

    def test_zoom_grows_bright_cube(self):
        # a centered bright cube grows in voxel count by about factor^3
        vox = np.zeros((32, 32, 32))
        vox[12:20, 12:20, 12:20] = 1.0
        factor = 1.25
        out = zoom_center_crop(vox, factor)
        count_in = (vox > 0.5).sum()
        count_out = (out > 0.5).sum()
        growth = count_out / count_in
        assert abs(growth - factor ** 3) / factor ** 3 < 0.10

    @pytest.mark.parametrize("shape", [(32, 32, 16), (17, 23, 9), (3, 4, 5)])
    @pytest.mark.parametrize("factor", [1.1, 1.3, 1.2345])
    def test_zoom_equals_full_resample_then_centre_slice(self, rng, shape, factor):
        # (3, 4, 5) at 1.1 rounds two axes back to their own size
        vox = rng.random(shape).astype(np.float32)
        scaled = tuple(max(1, int(round(e * factor))) for e in shape)
        big = resample(vox.astype(np.float64), scaled, cubic_taps)
        region = tuple(slice((s - e) // 2, (s - e) // 2 + e)
                       for s, e in zip(scaled, shape))
        expected = big[region]
        out = zoom_center_crop(vox, factor)
        assert out.shape == shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()

    def test_determinism_per_stream(self, rng):
        vol = Volume(voxels=rng.random((16, 16, 8)).astype(np.float32))
        a = augment_mri(vol, sample_rng(7, "px", 3)).voxels
        b = augment_mri(vol, sample_rng(7, "px", 3)).voxels
        assert a.tobytes() == b.tobytes()
        c = augment_mri(vol, sample_rng(7, "px", 4)).voxels
        assert a.tobytes() != c.tobytes()


class TestUsAugment:
    def test_zero_angle_no_flip_is_identity(self, rng):
        img = rng.random((3, 32, 32))
        np.testing.assert_allclose(rotate_bilinear(img, 0.0), img, atol=1e-12)

    def test_angles_in_range_with_small_mean(self):
        angles = []
        for i in range(10_000):
            stream = sample_rng(1, f"p{i}", 0)
            stream.random()                      # the flip draw
            angles.append(stream.uniform(-10.0, 10.0))
        angles = np.array(angles)
        assert angles.min() >= -10.0 and angles.max() <= 10.0
        assert abs(angles.mean()) < 0.3

    def test_rotation_preserves_disk_mean_within_2pct(self):
        h = w = 64
        yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        disk = (((yy - 31.5) ** 2 + (xx - 31.5) ** 2) <= 20 ** 2).astype(np.float64)
        img = disk[None]
        out = rotate_bilinear(img, 7.5)
        assert abs(out.mean() - img.mean()) / img.mean() < 0.02

    def test_shape_preserved(self, rng):
        img = rng.random((3, 56, 56)).astype(np.float32)
        out = augment_us(img, sample_rng(0, "p", 0))
        assert out.shape == (3, 56, 56)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("shape,degrees", [((9, 9), 7.5), ((12, 7), -10.0),
                                               ((5, 16), 33.0), ((1, 4), 3.0)])
    def test_rotation_matches_loop_oracle(self, rng, channels, shape, degrees):
        img = rng.random((channels,) + shape)
        np.testing.assert_allclose(rotate_bilinear(img, degrees),
                                   rotate_bilinear_loops(img, degrees), rtol=0, atol=1e-12)

    def test_zero_fill_outside(self):
        img = np.ones((1, 32, 32))
        out = rotate_bilinear(img, 10.0)
        # corners rotate out of support and take fill value 0
        assert out[0, 0, 0] < 1.0
        assert out[0].max() <= 1.0 + 1e-9
