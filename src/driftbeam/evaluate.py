"""Separation quality and separability metrics.

gain() scores beamformer outputs per frequency bin as the dB improvement in
squared error over the raw reference channel, averaged across sources.
divergence_curve() and theory_curve() trace how distinguishable the source
statistics are across frequency, measured from trained covariances or
predicted in closed form from steering geometry and a delay-jitter model.

Tables are dicts mapping column name to a 1-D array, with "frequency_hz"
first; write_table() emits them as CSV with one header row.
"""

from dataclasses import dataclass

import numpy as np

from .covmath import (DEFAULT_EPSILON_REL, IllConditionedError, check_condition,
                      far_field_divergence, gaussian_divergence, regularize, unpack)
from .covest import CovarianceSet
from .scene import propagation_delays
from .stft import block_length


@dataclass
class GainReport:
    """Per-bin beamforming gain and its squared-error ingredients.

    gain_db[f] = mean_n 10*log10(numerators[n, f] / denominators[n, f]),
    where the numerator is the squared error of the raw reference channel and
    the denominator that of output n. Bins where any source has a zero
    denominator (or numerator) are flagged and reported as infinite rather
    than silently dropped.
    """

    frequencies_hz: np.ndarray
    gain_db: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray
    flagged: np.ndarray

    def band_mean(self, lo_hz: float, hi_hz: float) -> float:
        """Mean gain over unflagged bins with lo_hz <= f < hi_hz."""
        in_band = (self.frequencies_hz >= lo_hz) & (self.frequencies_hz < hi_hz)
        usable = in_band & ~self.flagged
        if not usable.any():
            return float("nan")
        return float(self.gain_db[usable].mean())

    def table(self) -> dict:
        return {
            "frequency_hz": self.frequencies_hz,
            "gain_db": self.gain_db,
            "flagged": self.flagged.astype(int),
        }


def gain(outputs, mixture_ref, desired, frequencies_hz) -> GainReport:
    """Per-bin squared-error improvement of beamformer outputs over the
    reference channel.

    outputs: (T, F, N) source estimates; mixture_ref: (T, F) reference
    channel; desired: (T, F, N) ground-truth source signals at the reference.
    """
    outputs = np.asarray(outputs)
    desired = np.asarray(desired)
    mixture_ref = np.asarray(mixture_ref)
    if outputs.shape != desired.shape:
        raise ValueError(f"outputs {outputs.shape} vs desired {desired.shape}")
    if mixture_ref.shape != outputs.shape[:2]:
        raise ValueError(f"reference {mixture_ref.shape} vs outputs {outputs.shape}")
    if outputs.shape[2] < 1:
        raise ValueError("at least one source is required")

    # Running float64 (F, N) sums over cache-sized blocks, frame after frame like
    # np.sum(axis=0); complex64 inputs give float32 squared errors, added as float64.
    num, den = np.zeros((2, *outputs.shape[1:]))
    rows = block_length(outputs[:1].nbytes)
    for lo in range(0, len(outputs), rows):
        for acc, estimate in ((num, mixture_ref[lo:lo + rows, :, None]), (den, outputs[lo:lo + rows])):
            for frame in np.abs(estimate - desired[lo:lo + rows]) ** 2:
                acc += frame
    num, den = num.T, den.T  # (N, F)
    finite = np.isfinite(num).all(axis=0) & np.isfinite(den).all(axis=0)
    flagged = (den == 0).any(axis=0) | (num == 0).any(axis=0) | ~finite
    gain_db = np.where(finite, np.inf, np.nan)
    ok = ~flagged
    gain_db[ok] = np.mean(10.0 * np.log10(num[:, ok] / den[:, ok]), axis=0)
    return GainReport(
        frequencies_hz=np.asarray(frequencies_hz, dtype=np.float64),
        gain_db=gain_db,
        numerators=num,
        denominators=den,
        flagged=flagged,
    )


def _slot_covariance(covs: CovarianceSet, slot, bins: slice):
    """The unpacked (F', M, M) covariance of a (source, state) slot at bins."""
    source, state = slot
    if not (0 <= source < covs.source_count and (state is None or 0 <= state < covs.state_count)):
        raise ValueError(f"no trained covariance for (source, state) = {slot}")
    return unpack((covs.ensemble[source] if state is None else covs.cells[source, state])[bins])


def divergence_curve(covs: CovarianceSet, named_pairs: dict,
                     epsilon_rel: float = DEFAULT_EPSILON_REL) -> dict:
    """Divergence versus frequency between trained covariance slots.

    named_pairs maps a column name to a list of slot pairs; each slot is
    (source, state) with state None selecting the ensemble covariance. The
    column holds the mean curve over its pairs, so a single pair gives that
    pair's curve and several pairs give a convenience aggregate (for example
    every outer source against the central one). Matrices are diagonally loaded
    by epsilon_rel, and each distinct second slot is inverted once per column
    and bin: the pairs that share it are solved together, one cache-sized
    block of bins at a time, each block of each slot unpacked as it is used.
    """
    f_count = covs.frequencies.shape[0]
    table = {"frequency_hz": covs.frequencies / (2.0 * np.pi)}
    for name, pairs in named_pairs.items():
        if not pairs:
            raise ValueError(f"no slot pairs given for column {name!r}")
        rows = np.empty((len(pairs), f_count))
        for slot2 in dict.fromkeys(tuple(second) for _, second in pairs):
            group = [p for p, (_, second) in enumerate(pairs) if tuple(second) == slot2]
            step = block_length(len(group) * covs.mic_count ** 2 * 16)
            for lo in range(0, f_count, step):
                bins = slice(lo, lo + step)
                r1 = regularize(np.stack([_slot_covariance(covs, pairs[p][0], bins)
                                          for p in group]), epsilon_rel)
                r2 = regularize(_slot_covariance(covs, slot2, bins), epsilon_rel)
                try:
                    rows[group, bins] = gaussian_divergence(r1, r2)
                except IllConditionedError:
                    # Name the bad bins of the whole slot, not of the block.
                    check_condition(regularize(_slot_covariance(covs, slot2, slice(None)),
                                               epsilon_rel), "r2")
                    raise
        table[name] = rows.sum(axis=0) / len(pairs)  # summed in pair order
    return table


def outer_vs_central_pairs(source_count: int, state=None):
    """Slot pairs of every outer source against the central source."""
    central = source_count // 2
    return [
        ((n, state), (central, state))
        for n in range(source_count)
        if n != central
    ]


def theory_curve(positions, named_pairs: dict, sigmas, freqs_hz,
                 c: float = 343.0) -> dict:
    """Closed-form divergence versus frequency for delay jitter of std sigma.

    named_pairs maps a column base name to a list of azimuth pairs (degrees);
    each azimuth's arrival delays at the positions enter the closed form over
    the whole frequency grid.
    One column is emitted per (name, sigma), named f"{name}_sigma_{sigma:g}".
    sigmas are delay standard deviations in seconds, positive and distinct as :g.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=np.float64)
    if (freqs_hz <= 0).any():
        raise ValueError("theory curves need strictly positive frequencies")
    if len({f"{sigma:g}" for sigma in sigmas}) != len(sigmas):
        raise ValueError(f"sigmas {list(sigmas)!r} repeat a column name")
    omega = 2.0 * np.pi * freqs_hz
    table = {"frequency_hz": freqs_hz}
    for sigma in sigmas:
        for name, pairs in named_pairs.items():
            acc = np.zeros(freqs_hz.shape[0])
            for az1, az2 in pairs:
                acc += far_field_divergence(propagation_delays(positions, az1, c),
                                            propagation_delays(positions, az2, c), omega, sigma)
            table[f"{name}_sigma_{sigma:g}"] = acc / len(pairs)
    return table


def write_table(path, table: dict):
    """Write a table as CSV with a header row; floats use 12 significant digits."""
    names = list(table)
    columns = [np.asarray(table[name]) for name in names]
    length = columns[0].shape[0]
    if any(col.shape != (length,) for col in columns):
        raise ValueError("all table columns must be 1-D and equally long")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*(col.tolist() for col in columns)):
            fh.write(",".join(map(_format_cell, row)) + "\n")


def _format_cell(value):
    # Infinities are not integers and format as "inf"/"-inf", NaN as "nan".
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.12g}"
