"""Versioned on-disk containers for trained covariance sets and beamformer
banks.

Both use the numpy .npz layout (a zip of .npy arrays) written with fixed
zip timestamps so identical content produces identical bytes.

Covariance container (format version 2):
    format_version        ()        int
    kind                  ()        "covariances"
    state_count           ()        int
    frequencies           (F,)      rad/s
    noise                 (F, M, M) complex
    ensemble_sources      (N,)      source indices
    ensemble              (N, F, M, M)
    per_state_keys        (K, 2)    (source, state) rows, may be empty
    per_state             (K, F, M, M)
    frame_counts          (K,)

Pilot templates are not stored: covest.pilot_templates slices them from the
per-state covariances at the test render's pilot bins.

Bank container (format version 2):
    format_version, kind="bank", mode (one of beamform.MODES), reference,
    frequencies, weight_states (S,), weights (S, F, N, M)
"""

import zipfile

import numpy as np

from .beamform import BeamformerBank
from .covest import CovarianceSet
from .covmath import HermitianSpectrum

FORMAT_VERSION = 2


def _write_npz(path, arrays: dict):
    """Stream each array into a stored .npy member, with no in-memory copy and a
    fixed timestamp (np.savez stamps the time) so re-runs are byte-identical."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, value in arrays.items():
            value = np.asarray(value)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.file_size = value.nbytes  # lets zipfile pick ZIP64 above 2 GiB
            with zf.open(info, "w") as fh:
                np.lib.format.write_array(fh, value, allow_pickle=False)


def _check_header(data, kind):
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported container version {version}")
    found = str(data["kind"])
    if found != kind:
        raise ValueError(f"expected a {kind} container, found {found!r}")


def _check_rows(data, *names):
    """Reject a container whose parallel arrays disagree in length."""
    rows = {name: len(data[name]) for name in names}
    if len(set(rows.values())) > 1:
        raise ValueError(f"truncated container: row counts {rows} disagree")


def save_covariances(path, covs: CovarianceSet):
    """Serialize a CovarianceSet to path."""
    sources = sorted(covs.ensemble)
    keys = sorted(covs.per_state)
    _write_npz(path, {
        "format_version": FORMAT_VERSION,
        "kind": "covariances",
        "state_count": covs.state_count,
        "frequencies": covs.frequencies,
        "noise": covs.noise.bins,
        "ensemble_sources": np.asarray(sources, dtype=np.int64),
        "ensemble": np.stack([covs.ensemble[n].bins for n in sources]),
        "per_state_keys": np.asarray(keys, dtype=np.int64).reshape(len(keys), 2),
        "per_state": (
            np.stack([covs.per_state[k].bins for k in keys])
            if keys else np.zeros((0,) + covs.noise.bins.shape, dtype=np.complex128)
        ),
        "frame_counts": np.asarray([covs.frame_counts[k] for k in keys], dtype=np.int64),
    })


def load_covariances(path) -> CovarianceSet:
    """Load a CovarianceSet written by save_covariances."""
    with np.load(path) as data:
        _check_header(data, "covariances")
        _check_rows(data, "ensemble_sources", "ensemble")
        _check_rows(data, "per_state_keys", "per_state", "frame_counts")
        freqs = data["frequencies"]
        ensemble = {
            int(n): HermitianSpectrum(bins, freqs)
            for n, bins in zip(data["ensemble_sources"], data["ensemble"], strict=True)
        }
        per_state = {}
        counts = {}
        for (n, state), bins, count in zip(
            data["per_state_keys"], data["per_state"], data["frame_counts"], strict=True
        ):
            per_state[(int(n), int(state))] = HermitianSpectrum(bins, freqs)
            counts[(int(n), int(state))] = int(count)
        return CovarianceSet(
            per_state=per_state,
            ensemble=ensemble,
            noise=HermitianSpectrum(data["noise"], freqs),
            frame_counts=counts,
            state_count=int(data["state_count"]),
        )


def save_bank(path, bank: BeamformerBank):
    """Serialize a BeamformerBank to path."""
    states = sorted(bank.weights)
    _write_npz(path, {
        "format_version": FORMAT_VERSION,
        "kind": "bank",
        "mode": bank.mode,
        "reference": bank.reference,
        "frequencies": bank.frequencies,
        "weight_states": np.asarray(states, dtype=np.int64),
        "weights": np.stack([bank.weights[s] for s in states]),
    })


def load_bank(path) -> BeamformerBank:
    with np.load(path) as data:
        _check_header(data, "bank")
        _check_rows(data, "weight_states", "weights")
        weights = {
            int(state): w for state, w in zip(data["weight_states"], data["weights"], strict=True)
        }
        return BeamformerBank(
            mode=str(data["mode"]),
            weights=weights,
            reference=int(data["reference"]),
            frequencies=data["frequencies"],
        )
