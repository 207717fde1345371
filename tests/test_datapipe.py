"""Format round-trips, preprocessing oracles, splits and balancing."""
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pasfusion.datapipe import (
    ManifestError,
    NiftiError,
    NotNiftiError,
    Pairing,
    PreprocessError,
    RawFormatError,
    Sample,
    SampleManifest,
    TruncatedNiftiError,
    UnsupportedNiftiError,
    Volume,
    class_weights,
    largest_remainder,
    minmax_unit,
    oversample_minority,
    preprocess_mri,
    preprocess_us,
    read_nifti,
    read_rimg,
    read_rvol,
    stratified_split,
    write_nifti,
    write_rimg,
    write_rvol,
)
from pasfusion.datapipe import preprocess


# any JSON value, for fuzzing readers of JSON-headed files and manifests
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10)


class TestNifti:
    def test_round_trip_bitwise(self, rng, tmp_path):
        vox = rng.random((9, 7, 5)).astype(np.float32)
        path = tmp_path / "vol.nii"
        write_nifti(path, Volume(voxels=vox))
        back = read_nifti(path)
        assert back.voxels.tobytes() == vox.tobytes()
        assert back.voxels.shape == (9, 7, 5)

    def test_header_is_348_bytes(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.zeros((2, 2, 2), np.float32)))
        raw = path.read_bytes()
        assert struct.unpack_from("<i", raw, 0)[0] == 348
        assert raw[344:348] == b"n+1\x00"

    def test_detached_header_rejected(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.zeros((2, 2, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        blob[344:348] = b"ni1\x00"
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedNiftiError):
            read_nifti(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.zeros((2, 2, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        blob[344:348] = b"ABCD"
        path.write_bytes(bytes(blob))
        with pytest.raises(NotNiftiError):
            read_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.zeros((2, 2, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<h", blob, 70, 128)   # RGB24, unsupported
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedNiftiError):
            read_nifti(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.ones((4, 4, 4), np.float32)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(TruncatedNiftiError):
            read_nifti(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "v.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(TruncatedNiftiError):
            read_nifti(path)

    def test_extent_beyond_int16_dim_rejected(self, tmp_path):
        path = tmp_path / "v.nii"
        with pytest.raises(NiftiError, match="int16"):
            write_nifti(path, Volume(voxels=np.zeros((40000,), np.float32)))
        assert not path.exists()

    def test_scl_slope_applied(self, tmp_path, rng):
        path = tmp_path / "v.nii"
        vox = rng.random((3, 3, 3)).astype(np.float32)
        write_nifti(path, Volume(voxels=vox))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, 112, 2.0)   # scl_slope
        struct.pack_into("<f", blob, 116, 1.0)   # scl_inter
        path.write_bytes(bytes(blob))
        back = read_nifti(path)
        np.testing.assert_allclose(back.voxels, vox * 2.0 + 1.0, rtol=1e-6)

    def test_big_endian_heuristic(self, tmp_path, rng):
        # build a big-endian u8 file by hand: only dim/datatype/magic matter
        vox = (rng.random((2, 3, 4)) * 255).astype(np.uint8)
        header = bytearray(348)
        struct.pack_into(">i", header, 0, 348)
        struct.pack_into(">8h", header, 40, 3, 2, 3, 4, 1, 1, 1, 1)
        struct.pack_into(">h", header, 70, 2)      # datatype u8
        struct.pack_into(">h", header, 72, 8)      # bitpix
        struct.pack_into(">f", header, 108, 352.0)  # vox_offset
        header[344:348] = b"n+1\x00"
        path = tmp_path / "be.nii"
        path.write_bytes(bytes(header) + b"\x00" * 4 + vox.tobytes(order="F"))
        back = read_nifti(path)
        np.testing.assert_array_equal(back.voxels, vox.astype(np.float32))


def _nifti_blob(endian, dim, datatype, vox_offset, slope, magic, body):
    """A 352-byte NIfTI-1 header with the given field values, then ``body``."""
    header = bytearray(352)
    struct.pack_into(endian + "i", header, 0, 348)
    struct.pack_into(endian + "8h", header, 40, *dim)
    struct.pack_into(endian + "h", header, 70, datatype)
    struct.pack_into(endian + "3f", header, 108, vox_offset, slope, 1.0)
    header[344:348] = magic
    return bytes(header) + body


def _extents(values):
    return st.tuples(*[values] * 7)


class TestNiftiFaults:
    @pytest.mark.parametrize("offset, fmt, values", [
        (108, "<f", (math.nan,)), (108, "<f", (math.inf,)), (108, "<f", (-math.inf,)),
        (40, "<6h", (5,) + (32767,) * 5), (40, "<8h", (7,) + (32767,) * 7)])
    def test_bad_header_field_is_nifti_error(self, tmp_path, offset, fmt, values):
        path = tmp_path / "v.nii"
        write_nifti(path, Volume(voxels=np.zeros((2, 2, 2), np.float32)))
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, offset, *values)
        path.write_bytes(bytes(blob))
        with pytest.raises(NiftiError):
            read_nifti(path)

    @given(blob=st.one_of(
        st.binary(max_size=800),
        st.builds(
            _nifti_blob,
            endian=st.sampled_from("<>"),
            dim=st.builds(lambda rank, extents: (rank,) + extents, st.integers(0, 8),
                          _extents(st.integers(1, 3)) | _extents(st.sampled_from([1, 32767]))
                          | _extents(st.integers(-2 ** 15, 2 ** 15 - 1))),
            datatype=st.sampled_from([2, 4, 16, 64, 0, 128, -1]),
            vox_offset=st.sampled_from([352.0, 360.0]) | st.floats(width=32),
            slope=st.sampled_from([0.0, 2.0]) | st.floats(width=32),
            magic=st.sampled_from([b"n+1\x00"] * 3 + [b"ni1\x00", b"n+2\x00"]),
            body=st.binary(max_size=600))))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_is_read_or_nifti_error(self, tmp_path, blob):
        path = tmp_path / "fuzz.nii"
        path.write_bytes(blob)
        try:
            volume = read_nifti(path)
        except NiftiError:
            return
        assert volume.voxels.dtype == np.float32
        assert 1 <= volume.voxels.ndim <= 7


class TestRawFormats:
    def test_rvol_round_trip(self, rng, tmp_path):
        vox = rng.random((5, 4, 3)).astype(np.float32)
        path = tmp_path / "x.rvol"
        write_rvol(path, vox)
        back = read_rvol(path)
        assert back.voxels.tobytes() == vox.tobytes()
        header = path.read_bytes().split(b"\n", 1)[0]
        assert json.loads(header) == {"extents": [5, 4, 3], "dtype": "f32le"}

    def test_rimg_round_trip(self, rng, tmp_path):
        img = rng.random((6, 7)).astype(np.float32)
        path = tmp_path / "x.rimg"
        write_rimg(path, img)
        assert read_rimg(path).tobytes() == img.tobytes()

    @pytest.mark.parametrize("suffix, extents", [
        ("rvol", [-1, 4, 4]), ("rvol", [0, 4, 4]), ("rvol", [2.0, 4, 4]),
        ("rvol", ["4", 4, 4]), ("rvol", [True, 4, 4]),
        ("rimg", [4, None]), ("rimg", [2 ** 40, 2 ** 40])])
    def test_bad_extent_rejected(self, tmp_path, suffix, extents):
        path = tmp_path / f"bad.{suffix}"
        header = json.dumps({"extents": extents, "dtype": "f32le"})
        path.write_bytes(header.encode() + b"\n" + bytes(4 * 64))
        reader = {"rvol": read_rvol, "rimg": read_rimg}[suffix]
        with pytest.raises(RawFormatError):
            reader(path)

    @pytest.mark.parametrize("suffix", ["rvol", "rimg"])
    @pytest.mark.parametrize("header", [b"[1, 2]", b'"x"', b"3", b"null"])
    def test_non_object_header_rejected(self, tmp_path, suffix, header):
        path = tmp_path / f"bad.{suffix}"
        path.write_bytes(header + b"\n" + bytes(4 * 64))
        reader = {"rvol": read_rvol, "rimg": read_rimg}[suffix]
        with pytest.raises(RawFormatError, match="not a JSON object"):
            reader(path)

    @given(blob=st.one_of(
        st.binary(max_size=300),
        st.builds(lambda head, body: json.dumps(head).encode() + b"\n" + body,
                  st.one_of(JSON_VALUES, st.fixed_dictionaries(
                      {"extents": st.one_of(JSON_VALUES, st.lists(
                          st.integers(-2, 5) | JSON_VALUES, max_size=4))},
                      optional={"dtype": st.sampled_from(["f32le", "f64le"]) | JSON_VALUES})),
                  st.binary(max_size=600))))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_fuzzed_file_is_read_or_rejected(self, tmp_path, blob):
        path = tmp_path / "fuzz.raw"
        path.write_bytes(blob)
        for reader, rank in ((read_rvol, 3), (read_rimg, 2)):
            try:
                out = reader(path)
            except RawFormatError:
                continue
            assert np.asarray(getattr(out, "voxels", out)).ndim == rank


class TestPreprocessMri:
    def test_output_grid_and_range(self, rng):
        vol = Volume(voxels=rng.random((40, 50, 30)).astype(np.float32))
        out = preprocess_mri(vol, target=(32, 32, 16))
        assert out.voxels.shape == (32, 32, 16)
        assert out.voxels.min() >= 0.0 and out.voxels.max() <= 1.0

    def test_constant_volume_goes_to_zeros(self):
        # aspect-matched input: no zero padding, so min == max at the
        # normalization step and the degenerate rule fires
        vol = Volume(voxels=np.full((16, 16, 8), 3.0, np.float32))
        out = preprocess_mri(vol, target=(32, 32, 16))
        np.testing.assert_array_equal(out.voxels, np.zeros((32, 32, 16), np.float32))
        np.testing.assert_array_equal(minmax_unit(np.full((4, 4), 7.0)),
                                      np.zeros((4, 4), np.float32))

    def test_halving_with_depth_padding(self, rng):
        # 256x256x64 at target 128x128x64: scale 0.5 -> content 128x128x32,
        # 16 zero voxels padded on each depth side
        vol = Volume(voxels=(rng.random((256, 256, 64)) + 0.5).astype(np.float32))
        out = preprocess_mri(vol, target=(128, 128, 64))
        assert out.voxels.shape == (128, 128, 64)
        np.testing.assert_array_equal(out.voxels[:, :, :16], 0.0)
        np.testing.assert_array_equal(out.voxels[:, :, 48:], 0.0)
        assert out.voxels[:, :, 16:48].max() > 0.0

    def test_axis_reorder(self, rng):
        base = rng.random((10, 12, 8)).astype(np.float32)
        as_dwh = Volume(voxels=np.transpose(base, (2, 1, 0)), axis_order="DWH")
        direct = Volume(voxels=base, axis_order="HWD")
        out1 = preprocess_mri(as_dwh, target=(16, 16, 8))
        out2 = preprocess_mri(direct, target=(16, 16, 8))
        np.testing.assert_allclose(out1.voxels, out2.voxels, atol=1e-6)

    def test_catmull_rom_interpolates_exactly_at_samples(self):
        # kernel weights sum to 1 and the kernel is interpolating: a linear
        # ramp resampled at 2x stays a linear ramp
        ramp = np.arange(16, dtype=np.float64).reshape(16, 1, 1) * np.ones((16, 4, 4))
        from pasfusion.datapipe import resample_volume_cubic
        out = resample_volume_cubic(ramp, (32, 4, 4))
        interior = out[4:-4, 0, 0]      # away from the clamped borders
        diffs = np.diff(interior)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-9)

    @pytest.mark.parametrize("values", [1, 7, 100, 1 << 20])
    @pytest.mark.parametrize("shape,extents", [((9, 6, 5), (14, 4, 5)), ((5,), (12,)),
                                               ((3, 1), (1, 1)), ((6, 4), (6, 9))])
    def test_blocked_resample_is_bitwise_one_block(self, monkeypatch, rng, shape, extents, values):
        vox = rng.random(shape)
        monkeypatch.setattr(preprocess, "_BLOCK_VALUES", 1 << 30)
        whole = preprocess.resample(vox, extents, preprocess.cubic_taps)
        monkeypatch.setattr(preprocess, "_BLOCK_VALUES", values)
        blocked = preprocess.resample(vox, extents, preprocess.cubic_taps)
        assert blocked.shape == whole.shape and blocked.tobytes() == whole.tobytes()

    def test_resample_holds_one_block_of_taps(self, monkeypatch, rng):
        # four taps of a 48-position axis over 64 x 64 float64 values: 6 MB
        # gathered at once; in 128 KB blocks the peak is about the 1.5 MB output
        vox = rng.random((64, 64, 64))
        monkeypatch.setattr(preprocess, "_BLOCK_VALUES", 1 << 14)
        x = preprocess._centred_positions(64, 48)
        tracemalloc.start()
        try:
            out = preprocess._resample_axis(vox, x, 0, preprocess.cubic_taps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


class TestNonFiniteInput:
    def test_nan_voxel_rejected(self, rng):
        vox = rng.random((16, 16, 8)).astype(np.float32)
        vox[3, 4, 5] = np.nan
        with pytest.raises(PreprocessError, match="non-finite"):
            preprocess_mri(Volume(voxels=vox), target=(32, 32, 16))

    def test_inf_pixel_rejected(self, rng):
        img = rng.random((64, 48)).astype(np.float32)
        img[10, 7] = np.inf
        with pytest.raises(PreprocessError, match="non-finite"):
            preprocess_us(img, target=(56, 56))


class TestPreprocessUs:
    def test_output_shape_and_replication(self, rng):
        img = rng.random((64, 48)).astype(np.float32)
        out = preprocess_us(img, target=(56, 56))
        assert out.shape == (3, 56, 56)
        np.testing.assert_array_equal(out[0], out[1])
        np.testing.assert_array_equal(out[1], out[2])
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_identity_size_keeps_channels_identical(self, rng):
        img = rng.random((224, 224)).astype(np.float32)
        out = preprocess_us(img, target=(224, 224))
        assert out.shape == (3, 224, 224)
        np.testing.assert_array_equal(out[0], out[2])

    def test_minmax_and_round_half_up(self):
        from pasfusion.datapipe import quantize_u8
        img = np.array([[10.0, 20.0], [15.0, 10.0]])
        u8 = quantize_u8(img)
        # value 15 -> normalized 0.5 -> 127.5 -> rounds half up to 128
        assert u8[1, 0] == 128
        assert u8[0, 0] == 0 and u8[0, 1] == 255


class TestManifest:
    def _tiny(self, tmp_path):
        samples = [
            Sample("p1", "mri", 0, "a.rvol", "train"),
            Sample("p1", "us", 0, "a.rimg", "train"),
            Sample("p2", "mri", 1, "b.rvol", "test"),
            Sample("p2", "us", 1, "b.rimg", "test"),
        ]
        pairing = [Pairing("p1", "a.rvol", "a.rimg", 0),
                   Pairing("p2", "b.rvol", "b.rimg", 1)]
        return SampleManifest(samples=samples, pairing=pairing)

    def test_round_trip(self, tmp_path):
        man = self._tiny(tmp_path).validate()
        path = tmp_path / "m.json"
        man.save(path)
        back = SampleManifest.load(path)
        assert len(back.samples) == 4 and len(back.pairing) == 2

    def test_patient_split_conflict_rejected(self, tmp_path):
        man = self._tiny(tmp_path)
        man.samples[1].split = "val"
        with pytest.raises(ManifestError, match="splits"):
            man.validate()

    def test_pairing_label_mismatch_rejected(self, tmp_path):
        man = self._tiny(tmp_path)
        man.pairing[0].label = 1
        with pytest.raises(ManifestError, match="label"):
            man.validate()

    def test_bad_label_rejected(self):
        with pytest.raises(ManifestError):
            Sample("p", "mri", 2, "x").validate()

    @pytest.mark.parametrize("field, value", [
        ("label", "x"), ("label", None), ("label", float("inf")),
        ("version", "abc"), ("version", None), ("version", [1]),
        ("uri", ["a.rvol"]), ("uri", 3), ("patient_id", {"p": 1}), ("patient_id", ""),
    ])
    def test_malformed_field_is_manifest_error(self, field, value):
        data = {"version": 1, "samples": [
            {"patient_id": "p", "modality": "mri", "label": 0, "uri": "a.rvol"}]}
        if field == "version":
            data["version"] = value
        else:
            data["samples"][0][field] = value
        with pytest.raises(ManifestError):
            SampleManifest.from_dict(data)

    @given(data=st.one_of(JSON_VALUES, st.fixed_dictionaries(
        {"samples": st.lists(st.fixed_dictionaries(
            {}, optional={"patient_id": st.sampled_from(["p1", "p2", ""]) | JSON_VALUES,
                          "modality": st.sampled_from(["mri", "us"]) | JSON_VALUES,
                          "label": st.sampled_from([0, 1, "1", 2]) | JSON_VALUES,
                          "uri": st.sampled_from(["a", "b"]) | JSON_VALUES,
                          "split": st.sampled_from(["train", "test"]) | JSON_VALUES}),
            max_size=4) | JSON_VALUES},
        optional={"version": JSON_VALUES,
                  "pairing": st.lists(st.fixed_dictionaries(
                      {}, optional={"patient_id": st.sampled_from(["p1", "p2"]) | JSON_VALUES,
                                    "mri": st.sampled_from(["a", "b"]) | JSON_VALUES,
                                    "us": st.sampled_from(["a", "b"]) | JSON_VALUES,
                                    "label": st.sampled_from([0, 1]) | JSON_VALUES}),
                      max_size=3) | JSON_VALUES})))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_dict_is_loaded_or_manifest_error(self, data):
        try:
            SampleManifest.from_dict(data)
        except ManifestError:
            pass


def _make_manifest(n0: int, n1: int) -> SampleManifest:
    samples = [Sample(f"n{i:04d}", "mri", 0, f"n{i}.rvol") for i in range(n0)]
    samples += [Sample(f"p{i:04d}", "mri", 1, f"p{i}.rvol") for i in range(n1)]
    return SampleManifest(samples=samples)


class TestStratifiedSplit:
    def test_table_counts_mri(self):
        man = stratified_split(_make_manifest(853, 280), (0.7, 0.1, 0.2), seed=0)
        counts = {s: sum(1 for x in man.samples if x.split == s)
                  for s in ("train", "val", "test")}
        assert counts == {"train": 793, "val": 113, "test": 227}
        per_class = {(s.label, s.split) for s in man.samples}
        by = lambda lb, sp: sum(1 for s in man.samples
                                if s.label == lb and s.split == sp)
        assert (by(0, "train"), by(0, "val"), by(0, "test")) == (597, 85, 171)
        assert (by(1, "train"), by(1, "val"), by(1, "test")) == (196, 28, 56)

    def test_table_counts_multimodal(self):
        man = stratified_split(_make_manifest(100, 60), (0.6, 0.15, 0.25), seed=3)
        counts = {s: sum(1 for x in man.samples if x.split == s)
                  for s in ("train", "val", "test")}
        assert counts == {"train": 96, "val": 24, "test": 40}

    def test_all_train_ratio(self):
        man = stratified_split(_make_manifest(10, 5), (1.0, 0.0, 0.0), seed=0)
        assert all(s.split == "train" for s in man.samples)

    def test_determinism(self):
        a = stratified_split(_make_manifest(50, 20), (0.7, 0.1, 0.2), seed=9)
        b = stratified_split(_make_manifest(50, 20), (0.7, 0.1, 0.2), seed=9)
        assert [s.split for s in a.samples] == [s.split for s in b.samples]

    def test_empty_class_errors(self):
        with pytest.raises(ManifestError):
            stratified_split(_make_manifest(10, 0), (0.7, 0.1, 0.2), seed=0)

    @given(n0=st.integers(5, 80), n1=st.integers(5, 80),
           seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_stratification_within_one_sample(self, n0, n1, seed):
        man = stratified_split(_make_manifest(n0, n1), (0.7, 0.1, 0.2),
                               seed=seed)
        for label, n_class in ((0, n0), (1, n1)):
            for split, ratio in zip(("train", "val", "test"), (0.7, 0.1, 0.2)):
                got = sum(1 for s in man.samples
                          if s.label == label and s.split == split)
                assert abs(got - n_class * ratio) <= 1.0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_patient_disjointness(self, seed):
        man = _make_manifest(30, 12)
        # multi-modality per patient: add a us sample per patient
        extra = [Sample(s.patient_id, "us", s.label, s.uri + ".rimg")
                 for s in man.samples]
        man = SampleManifest(samples=man.samples + extra)
        stratified_split(man, (0.6, 0.15, 0.25), seed=seed)
        seen: dict[str, str] = {}
        for s in man.samples:
            assert seen.setdefault(s.patient_id, s.split) == s.split


class TestOversampling:
    def test_paper_counts(self):
        samples = ([Sample(f"n{i}", "mri", 0, f"n{i}") for i in range(597)]
                   + [Sample(f"p{i}", "mri", 1, f"p{i}") for i in range(196)])
        out = oversample_minority(samples, seed=0)
        counts = np.bincount([s.label for s in out])
        assert counts.tolist() == [597, 597]
        assert len(out) == 1194
        assert sum(1 for s in out if s.force_augment) == 597 - 196

    def test_balanced_input_unchanged(self):
        samples = ([Sample("a", "mri", 0, "a")] + [Sample("b", "mri", 1, "b")])
        assert oversample_minority(samples, 0) == samples

    def test_single_class_errors(self):
        with pytest.raises(ManifestError):
            oversample_minority([Sample("a", "mri", 0, "a")], 0)

    @given(n0=st.integers(2, 40), n1=st.integers(2, 40), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_histogram_flat_after(self, n0, n1, seed):
        samples = ([Sample(f"n{i}", "mri", 0, f"n{i}") for i in range(n0)]
                   + [Sample(f"p{i}", "mri", 1, f"p{i}") for i in range(n1)])
        out = oversample_minority(samples, seed)
        counts = np.bincount([s.label for s in out], minlength=2)
        assert counts[0] == counts[1] == max(n0, n1)
        # all originals retained
        assert all(s in out for s in samples)


class TestClassWeights:
    def test_balanced_all_ones(self):
        np.testing.assert_allclose(class_weights([10, 10]), [1.0, 1.0])

    def test_us_train_row(self):
        w = class_weights([473, 214])
        np.testing.assert_allclose(w, [0.7263, 1.6051], atol=1e-4)

    def test_weighted_mean_is_one(self, rng):
        counts = rng.integers(1, 500, size=2)
        w = class_weights(counts)
        total = counts.sum()
        assert abs((w * counts).sum() / total - 1.0) < 1e-12

    def test_zero_count_errors(self):
        with pytest.raises(ManifestError):
            class_weights([5, 0])


class TestLargestRemainder:
    def test_exact_cases(self):
        assert largest_remainder(853, (0.7, 0.1, 0.2)) == [597, 85, 171]
        assert largest_remainder(280, (0.7, 0.1, 0.2)) == [196, 28, 56]
        assert largest_remainder(100, (0.6, 0.15, 0.25)) == [60, 15, 25]
        assert largest_remainder(60, (0.6, 0.15, 0.25)) == [36, 9, 15]

    @given(total=st.integers(1, 2000))
    @settings(max_examples=50, deadline=None)
    def test_sums_preserved(self, total):
        assert sum(largest_remainder(total, (0.7, 0.1, 0.2))) == total
