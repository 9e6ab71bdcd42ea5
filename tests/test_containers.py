import io
import tracemalloc
import zipfile

import numpy as np
import pytest

from driftbeam import beamform, containers, covest, scene
from driftbeam.covmath import HermitianSpectrum, pack
from driftbeam.stft import StftConfig

CFG = StftConfig(fft_size=256)
FS = 16000


@pytest.fixture(scope="module")
def trained():
    motion = scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=2.0, state_count=4)
    geometry = scene.ArrayGeometry(scene.linear_positions(3, 0.04))
    samples = 2 * FS
    signals = scene.pseudorandom_signals(2, samples, 0)
    spec = scene.SceneSpec(
        geometry=geometry,
        sources=(scene.Source(30.0, signals[0]), scene.Source(120.0, signals[1])),
        motion=motion,
        noise_level_db=-30.0,
        pilot=scene.Pilot(7000.0),
    )
    renders, noise = covest.training_renders(spec, 2.0, CFG, FS, seed=10)
    return covest.train(renders, noise), noise.pilot_bins


def test_covariance_round_trip(trained, tmp_path):
    covs, pilot_bins = trained
    path = tmp_path / "covs.npz"
    containers.save_covariances(path, covs)
    loaded = containers.load_covariances(path)
    assert loaded.state_count == covs.state_count
    for name in ("cells", "frame_counts", "noise", "frequencies", "ensemble"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(covs, name))
        assert getattr(loaded, name).dtype == getattr(covs, name).dtype
    np.testing.assert_array_equal(covest.pilot_templates(loaded, pilot_bins),
                                  covest.pilot_templates(covs, pilot_bins))
    with zipfile.ZipFile(path) as zf:
        assert not any(name.startswith(("template", "ensemble")) for name in zf.namelist())


def test_one_state_container_stores_each_covariance_once(tmp_path):
    motion = scene.MotionModel.gaussian_jitter(0.005)
    spec = scene.SceneSpec(
        geometry=scene.ArrayGeometry(scene.linear_positions(3, 0.04)),
        sources=tuple(scene.Source(az, sig) for az, sig in
                      zip((30.0, 120.0), scene.pseudorandom_signals(2, FS, 1))),
        motion=motion,
        noise_level_db=-30.0,
    )
    covs = covest.train(*covest.training_renders(spec, 1.0, CFG, FS, seed=30))
    path = tmp_path / "covs.npz"
    containers.save_covariances(path, covs)
    with zipfile.ZipFile(path) as zf:
        assert "ensemble.npy" not in zf.namelist()
    loaded = containers.load_covariances(path)
    assert loaded.ensemble.shape[0] == 2
    np.testing.assert_array_equal(loaded.ensemble, covs.ensemble)


def test_bank_round_trip(trained, tmp_path):
    covs, _ = trained
    bank = beamform.build(covs, "dynamic")
    path = tmp_path / "bank.npz"
    containers.save_bank(path, bank)
    loaded = containers.load_bank(path)
    assert loaded.mode == "dynamic"
    assert loaded.reference == bank.reference
    np.testing.assert_array_equal(loaded.weights, bank.weights)


def test_bank_weight_states_must_count_from_zero(trained, tmp_path):
    covs, _ = trained
    path, bad = tmp_path / "bank.npz", tmp_path / "bad.npz"
    containers.save_bank(path, beamform.build(covs, "dynamic"))
    rewrite_entries(path, bad, {"weight_states": lambda states: states[::-1]})
    with pytest.raises(ValueError, match=r"weight_states must be 0\.\.S-1"):
        containers.load_bank(bad)


def test_containers_are_byte_stable(trained, tmp_path):
    covs, _ = trained
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    containers.save_covariances(a, covs)
    containers.save_covariances(b, covs)
    assert a.read_bytes() == b.read_bytes()


def test_kind_mismatch_rejected(trained, tmp_path):
    covs, _ = trained
    path = tmp_path / "covs.npz"
    containers.save_covariances(path, covs)
    with pytest.raises(ValueError, match="bank"):
        containers.load_bank(path)


def rewrite_entries(src, dst, edits):
    """Copy a container with each array named in edits replaced by
    edits[name](array)."""
    with np.load(src) as data:
        arrays = {key: data[key] for key in data.files}
    for name, edit in edits.items():
        arrays[name] = edit(arrays[name])
    with zipfile.ZipFile(dst, "w") as zf:
        for key, value in arrays.items():
            with zf.open(key + ".npy", "w") as fh:
                np.lib.format.write_array(fh, value)


def truncate_entry(src, dst, name):
    """Copy a container with array `name` cut one row short."""
    rewrite_entries(src, dst, {name: lambda value: value[:-1]})


@pytest.mark.parametrize("name", ["cells", "frame_counts"])
def test_truncated_covariance_container_rejected(trained, tmp_path, name):
    covs, _ = trained
    path, cut = tmp_path / "covs.npz", tmp_path / "cut.npz"
    containers.save_covariances(path, covs)
    truncate_entry(path, cut, name)
    with pytest.raises(ValueError, match=f"truncated container.*{name}"):
        containers.load_covariances(cut)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_old_covariance_container_rejected(trained, tmp_path, version):
    covs, _ = trained
    path, old = tmp_path / "covs.npz", tmp_path / "old.npz"
    containers.save_covariances(path, covs)
    rewrite_entries(path, old, {"format_version": lambda value: np.asarray(version)})
    with pytest.raises(ValueError, match=f"unsupported container version {version}"):
        containers.load_covariances(old)


def with_matrix(index, matrix):
    """An edit that replaces the entry or matrix at index of a copy with
    matrix(its old value)."""
    def edit(values):
        values = values.copy()
        values[index] = matrix(values[index])
        return values

    return edit


def indefinite(packed):
    """A packed indefinite 3 x 3 matrix as large as the packed matrix given."""
    return pack(np.abs(packed).max() * np.diag([1.0, -1.0, 1.0]))


def zero_first(counts):
    counts = counts.copy()
    counts[0, 0] = 0
    return counts


def zero_source_1(values):
    values = values.copy()
    values[1] = 0
    return values


def zero_cell_1_2(values):
    values = values.copy()
    values[1, 2] = 0
    return values


@pytest.mark.parametrize("edits, message", [
    ({"frame_counts": zero_first},
     r"no training frames for \(source, state\) pairs: \[\(0, 0\)\]"),
    ({"frame_counts": zero_source_1, "cells": zero_source_1},
     r"no training frames for \(source, state\) pairs: \[\(1, 0\), \(1, 1\), \(1, 2\), "
     r"\(1, 3\)\]"),
    # A zero count over an all-zero cell: how format 4 once stored an untrained state.
    ({"frame_counts": zero_cell_1_2, "cells": zero_cell_1_2},
     r"no training frames for \(source, state\) pairs: \[\(1, 2\)\]"),
    # Content: HermitianSpectrum's check of the packed members, made as the
    # container is read. Packed entry 0 is a matrix's (0, 0) entry, the one
    # place besides the rest of the diagonal where it can fail to be Hermitian.
    ({"cells": with_matrix((1, 2, 40, 0), lambda value: np.nan)},
     "bins contain non-finite entries"),
    ({"cells": with_matrix((1, 2, 40, 0), lambda value: value + 1j * abs(value))},
     r"bins not Hermitian at indices \[\(1, 2, 40\)\]"),
    ({"cells": with_matrix((1, 2, 40), indefinite)},
     r"bins not positive semidefinite at indices \[\(1, 2, 40\)\]"),
    ({"noise": with_matrix(40, indefinite)}, r"bins not positive semidefinite at indices \[40\]"),
], ids=["zero_frame_count", "source_without_frames", "missing_cell", "nan_cell",
        "non_hermitian_cell", "indefinite_cell", "indefinite_noise"])
def test_inconsistent_cells_rejected(trained, tmp_path, edits, message):
    covs, _ = trained
    path, bad = tmp_path / "covs.npz", tmp_path / "bad.npz"
    containers.save_covariances(path, covs)
    rewrite_entries(path, bad, edits)
    with pytest.raises(ValueError, match=message):
        containers.load_covariances(bad)


@pytest.mark.parametrize("motion", [
    scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=3.0, state_count=4),
    scene.MotionModel.gaussian_jitter(0.005),
], ids=["rotation", "jitter"])
def test_trained_covariances_pass_the_load_check(tmp_path, motion):
    # A CovarianceSet does not check its matrices, so what train returns must
    # pass the check that loading makes. The packed cells hold zgemm's upper
    # triangles, so only their diagonals' imaginary parts, which BLAS kernels
    # may leave by host, meet the Hermitian tolerance. Three seconds give each
    # jitter source, and the
    # noise, 374 frames: enough for two bin chunks of _outer_sums, one on
    # each thread; the rotation's four states alternate between them.
    spec = scene.SceneSpec(
        geometry=scene.ArrayGeometry(scene.linear_positions(3, 0.04)),
        sources=tuple(scene.Source(az, sig) for az, sig in
                      zip((30.0, 120.0), scene.pseudorandom_signals(2, 3 * FS, 2))),
        motion=motion,
        noise_level_db=-30.0,
    )
    covs = covest.train(*covest.training_renders(spec, 3.0, CFG, FS, seed=40))
    HermitianSpectrum(covs.cells, covs.frequencies)
    HermitianSpectrum(covs.noise, covs.frequencies)
    path = tmp_path / "covs.npz"
    containers.save_covariances(path, covs)
    loaded = containers.load_covariances(path)
    for name in ("cells", "frame_counts", "noise", "frequencies"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(covs, name))


def test_truncated_bank_rejected(trained, tmp_path):
    covs, _ = trained
    path, cut = tmp_path / "bank.npz", tmp_path / "cut.npz"
    containers.save_bank(path, beamform.build(covs, "dynamic"))
    truncate_entry(path, cut, "weights")
    with pytest.raises(ValueError, match="truncated container.*weights"):
        containers.load_bank(cut)


def write_through_copies(path, arrays):
    """The container as written with an in-memory .npy copy of each member."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(value), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


@pytest.mark.parametrize("kind", ["covariances", "bank"])
def test_streamed_members_match_in_memory_copies(trained, tmp_path, monkeypatch, kind):
    covs, _ = trained
    members = {}
    write = containers._write_npz

    def capture(path, arrays):
        members.update(arrays)
        write(path, arrays)

    monkeypatch.setattr(containers, "_write_npz", capture)
    path = tmp_path / "streamed.npz"
    if kind == "covariances":
        containers.save_covariances(path, covs)
    else:
        containers.save_bank(path, beamform.build(covs, "dynamic"))
    assert members
    expected = tmp_path / "copied.npz"
    write_through_copies(expected, members)
    assert path.read_bytes() == expected.read_bytes()


class TestPackedMemory:
    """The cells exist only packed: neither training nor loading ever holds
    as many bytes as the full (N, S, F, M, M) complex128 tensor. numpy reports
    its buffers to tracemalloc, so these peaks are exact."""

    @pytest.fixture(scope="class")
    def spec(self):
        # 12 microphones, 513 bins, 5 sources and 10 states: the full tensor
        # takes 59.1 MB, the packed one 32.0 MB; 1 s visits every state.
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=1.0, state_count=10)
        azimuths = (0.0, 45.0, 90.0, 135.0, 180.0)
        return scene.SceneSpec(
            geometry=scene.ArrayGeometry(scene.linear_positions(12, 0.05)),
            sources=tuple(scene.Source(az, sig) for az, sig in
                          zip(azimuths, scene.pseudorandom_signals(5, FS, 3))),
            motion=motion,
            noise_level_db=-30.0,
        )

    @staticmethod
    def full_bytes(covs):
        return covs.cells[..., 0].size * covs.mic_count ** 2 * 16

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            value = fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return value, peak

    def test_training_peak_is_below_the_full_tensor(self, spec):
        renders, noise = covest.training_renders(spec, 1.0, StftConfig(1024), FS, seed=50)
        covs, peak = self.traced_peak(covest.train, renders, noise)
        assert covs.cells.shape == (5, 10, 513, 78)
        assert peak < self.full_bytes(covs)

    def test_load_peak_is_below_the_full_tensor(self, spec, tmp_path):
        covs = covest.train(*covest.training_renders(spec, 1.0, StftConfig(1024), FS, seed=50))
        path = tmp_path / "covs.npz"
        containers.save_covariances(path, covs)
        loaded, peak = self.traced_peak(containers.load_covariances, path)
        np.testing.assert_array_equal(loaded.cells, covs.cells)
        assert peak < self.full_bytes(covs)
