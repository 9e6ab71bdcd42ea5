import io
import zipfile

import numpy as np
import pytest

from driftbeam import beamform, containers, covest, scene
from driftbeam.stft import StftConfig

CFG = StftConfig(fft_size=256, hop=128)
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


def test_zero_count_cell_round_trips_as_missing(trained, tmp_path):
    covs, _ = trained
    cells, counts = covs.cells.copy(), covs.frame_counts.copy()
    cells[1, 2] = 0.0
    counts[1, 2] = 0
    path = tmp_path / "covs.npz"
    containers.save_covariances(path, covest.CovarianceSet(cells, counts, covs.noise,
                                                           covs.frequencies))
    loaded = containers.load_covariances(path)
    assert loaded.missing_pairs() == [(1, 2)]
    np.testing.assert_array_equal(loaded.frame_counts, counts)
    assert not loaded.cells[1, 2].any()
    with pytest.raises(beamform.StarvedStateError, match=r"\[\(1, 2\)\]"):
        beamform.build(loaded, "dynamic")


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


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_covariance_container_rejected(trained, tmp_path, version):
    covs, _ = trained
    path, old = tmp_path / "covs.npz", tmp_path / "old.npz"
    containers.save_covariances(path, covs)
    rewrite_entries(path, old, {"format_version": lambda value: np.asarray(version)})
    with pytest.raises(ValueError, match=f"unsupported container version {version}"):
        containers.load_covariances(old)


def zero_first(counts):
    counts = counts.copy()
    counts[0, 0] = 0
    return counts


def zero_source_1(values):
    values = values.copy()
    values[1] = 0
    return values


@pytest.mark.parametrize("edits, message", [
    ({"frame_counts": zero_first}, r"zero frame count must be zero, not \[\(0, 0\)\]"),
    ({"frame_counts": zero_source_1, "cells": zero_source_1},
     r"training frames \(none for sources \[1\]\)"),
], ids=["zero_frame_count", "source_without_frames"])
def test_inconsistent_cells_rejected(trained, tmp_path, edits, message):
    covs, _ = trained
    path, bad = tmp_path / "covs.npz", tmp_path / "bad.npz"
    containers.save_covariances(path, covs)
    rewrite_entries(path, bad, edits)
    with pytest.raises(ValueError, match=message):
        containers.load_covariances(bad)


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
