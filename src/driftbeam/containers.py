"""Versioned on-disk containers for trained covariance sets and beamformer
banks.

Both use the numpy .npz layout (a zip of .npy arrays) written with fixed
zip timestamps so identical content produces identical bytes.

Covariance container (format version 4):
    format_version        ()               int
    kind                  ()               "covariances"
    frequencies           (F,)             rad/s
    noise                 (F, M, M)        complex
    cells                 (N, S, F, M, M)  complex, one matrix per (source, state)
    frame_counts          (N, S)           int; 0 marks a missing, all-zero cell

The ensemble covariances are not stored: CovarianceSet derives them from the
cells and their frame counts. Pilot templates are not stored either:
covest.pilot_templates indexes them from the cells at the test render's
pilot bins. Loading validates cells and noise once each.

Bank container (format version 2):
    format_version, kind="bank", mode (one of beamform.MODES), reference,
    frequencies, weight_states (S,) = 0..S-1, weights (S, F, N, M)
"""

import zipfile

import numpy as np

from .beamform import BeamformerBank
from .covest import CovarianceSet

FORMAT_VERSION = 4  # covariance containers
BANK_FORMAT_VERSION = 2


def _write_npz(path, arrays: dict):
    """Stream each array into a stored .npy member with a fixed timestamp
    (np.savez stamps the time) so re-runs are byte-identical. Each array is
    written from its own buffer behind the .npy header np.save writes, with
    none of the 16 MiB copies np.lib.format.write_array makes for a stream
    that is not a real file."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in arrays.items():
            value = np.require(value, requirements="C")
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.file_size = value.nbytes  # lets zipfile pick ZIP64 above 2 GiB
            with zf.open(info, "w") as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(value))
                fh.write(memoryview(value).cast("B"))


def _read_npz(path, kind, version, fields, rows):
    """Check a container's kind and format version and decode each member
    named in fields or rows once (every np.load lookup decodes the member
    again). rows maps member names to a count of leading axes that those
    members share; a truncated member disagrees on them."""
    with np.load(path) as data:
        found = str(data["kind"])
        if found != kind:
            raise ValueError(f"expected a {kind} container, found {found!r}")
        found = int(data["format_version"])
        if found != version:
            raise ValueError(f"unsupported container version {found}")
        arrays = {name: data[name] for name in (*fields, *rows)}
    shapes = {name: arrays[name].shape[:axes] for name, axes in rows.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"truncated container: leading shapes {shapes} disagree")
    return arrays


def save_covariances(path, covs: CovarianceSet):
    """Serialize a CovarianceSet to path."""
    _write_npz(path, {
        "format_version": FORMAT_VERSION,
        "kind": "covariances",
        "frequencies": covs.frequencies,
        "noise": covs.noise,
        "cells": covs.cells,
        "frame_counts": covs.frame_counts,
    })


def load_covariances(path) -> CovarianceSet:
    """Load a CovarianceSet written by save_covariances."""
    data = _read_npz(path, "covariances", FORMAT_VERSION, ("frequencies", "noise"),
                     {"cells": 2, "frame_counts": 2})
    return CovarianceSet(data["cells"], data["frame_counts"], data["noise"], data["frequencies"])


def save_bank(path, bank: BeamformerBank):
    """Serialize a BeamformerBank to path."""
    _write_npz(path, {
        "format_version": BANK_FORMAT_VERSION,
        "kind": "bank",
        "mode": bank.mode,
        "reference": bank.reference,
        "frequencies": bank.frequencies,
        "weight_states": np.arange(len(bank.weights), dtype=np.int64),
        "weights": bank.weights,
    })


def load_bank(path) -> BeamformerBank:
    data = _read_npz(path, "bank", BANK_FORMAT_VERSION, ("mode", "reference", "frequencies"),
                     {"weight_states": 1, "weights": 1})
    if not np.array_equal(data["weight_states"], np.arange(len(data["weights"]))):
        raise ValueError(f"bank weight_states must be 0..S-1, got {data['weight_states']}")
    return BeamformerBank(
        mode=str(data["mode"]),
        weights=data["weights"],
        reference=int(data["reference"]),
        frequencies=data["frequencies"],
    )
