"""Versioned on-disk containers for trained covariance sets and beamformer
banks.

Both use the numpy .npz layout (a zip of .npy arrays) written with fixed
zip timestamps so identical content produces identical bytes.

Covariance container (format version 3):
    format_version        ()        int
    kind                  ()        "covariances"
    state_count           ()        int
    frequencies           (F,)      rad/s
    noise                 (F, M, M) complex
    per_state_keys        (K, 2)    (source, state) rows, K >= 1
    per_state             (K, F, M, M)
    frame_counts          (K,)

The ensemble covariances are not stored: CovarianceSet derives them from the
per-state cells and their frame counts. Pilot templates are not stored
either: covest.pilot_templates slices them from the per-state covariances at
the test render's pilot bins.

Bank container (format version 2):
    format_version, kind="bank", mode (one of beamform.MODES), reference,
    frequencies, weight_states (S,), weights (S, F, N, M)
"""

import zipfile

import numpy as np

from .beamform import BeamformerBank
from .covest import CovarianceSet
from .covmath import HermitianSpectrum

FORMAT_VERSION = 3  # covariance containers
BANK_FORMAT_VERSION = 2


def _write_npz(path, arrays: dict):
    """Stream each array into a stored .npy member, with no in-memory copy and a
    fixed timestamp (np.savez stamps the time) so re-runs are byte-identical.
    A list of equal-shape arrays is stored as their stack, written cell after
    cell behind one .npy header, so the stack itself is never built."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            if not isinstance(value, list):
                value = np.asarray(value)
                info.file_size = value.nbytes  # lets zipfile pick ZIP64 above 2 GiB
                with zf.open(info, "w") as fh:
                    np.lib.format.write_array(fh, value, allow_pickle=False)
                continue
            cells = [np.ascontiguousarray(cell) for cell in value]
            if len({(cell.shape, cell.dtype) for cell in cells}) != 1:
                raise ValueError(f"{name}: arrays to stack differ in shape or dtype")
            header = np.lib.format.header_data_from_array_1_0(cells[0])
            header["shape"] = (len(cells),) + cells[0].shape
            info.file_size = sum(cell.nbytes for cell in cells)
            with zf.open(info, "w") as fh:
                np.lib.format.write_array_header_1_0(fh, header)
                for cell in cells:
                    fh.write(memoryview(cell).cast("B"))


def _read_npz(path, kind, version, fields, rows):
    """Check a container's kind and format version and decode each member
    named in fields or rows once (every np.load lookup decodes the member
    again). The members named in rows are parallel arrays and must agree in
    length."""
    with np.load(path) as data:
        found = str(data["kind"])
        if found != kind:
            raise ValueError(f"expected a {kind} container, found {found!r}")
        found = int(data["format_version"])
        if found != version:
            raise ValueError(f"unsupported container version {found}")
        arrays = {name: data[name] for name in fields + rows}
    lengths = {name: len(arrays[name]) for name in rows}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"truncated container: row counts {lengths} disagree")
    return arrays


def save_covariances(path, covs: CovarianceSet):
    """Serialize a CovarianceSet to path."""
    keys = sorted(covs.per_state)
    _write_npz(path, {
        "format_version": FORMAT_VERSION,
        "kind": "covariances",
        "state_count": covs.state_count,
        "frequencies": covs.frequencies,
        "noise": covs.noise.bins,
        "per_state_keys": np.asarray(keys, dtype=np.int64),
        "per_state": [covs.per_state[k].bins for k in keys],
        "frame_counts": np.asarray([covs.frame_counts[k] for k in keys], dtype=np.int64),
    })


def load_covariances(path) -> CovarianceSet:
    """Load a CovarianceSet written by save_covariances."""
    data = _read_npz(path, "covariances", FORMAT_VERSION, ("state_count", "frequencies", "noise"),
                     ("per_state_keys", "per_state", "frame_counts"))
    freqs = data["frequencies"]
    keys = [(int(n), int(state)) for n, state in data["per_state_keys"]]
    if len(set(keys)) != len(keys):
        raise ValueError("covariance container repeats a (source, state) row")
    return CovarianceSet(
        per_state={key: HermitianSpectrum(bins, freqs)
                   for key, bins in zip(keys, data["per_state"])},
        frame_counts={key: int(count) for key, count in zip(keys, data["frame_counts"])},
        noise=HermitianSpectrum(data["noise"], freqs),
        state_count=int(data["state_count"]),
    )


def save_bank(path, bank: BeamformerBank):
    """Serialize a BeamformerBank to path."""
    states = sorted(bank.weights)
    _write_npz(path, {
        "format_version": BANK_FORMAT_VERSION,
        "kind": "bank",
        "mode": bank.mode,
        "reference": bank.reference,
        "frequencies": bank.frequencies,
        "weight_states": np.asarray(states, dtype=np.int64),
        "weights": [bank.weights[s] for s in states],
    })


def load_bank(path) -> BeamformerBank:
    data = _read_npz(path, "bank", BANK_FORMAT_VERSION, ("mode", "reference", "frequencies"),
                     ("weight_states", "weights"))
    return BeamformerBank(
        mode=str(data["mode"]),
        weights={int(state): w for state, w in zip(data["weight_states"], data["weights"])},
        reference=int(data["reference"]),
        frequencies=data["frequencies"],
    )
