"""Command-line front end: scene configuration, experiment orchestration and
artifact persistence.

Subcommands:
    simulate  render the test scene and write mixture/image WAVs plus the
              true state track
    train     render the training scenes and write the covariance container
    beamform  build banks from a covariance container, filter the test scene,
              write bank containers and enhanced WAVs
    analyze   full pipeline: train, build every requested mode, filter,
              write gain and divergence CSVs, banks and manifests
    theory    closed-form divergence-vs-frequency curves for the configured
              geometry over a list of delay-jitter sigmas
    report    merge the gain CSVs in an output directory into report.csv

Configuration is a JSON file; every field has a default except the seed,
which must be given (in the file or with --seed) so runs are reproducible.
CLI flags override config fields. WAV files must match the configured sample
rate; mismatched rates are rejected, never resampled.
"""

import argparse
import copy
import dataclasses
import hashlib
import json
import struct
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import beamform, containers, covest, evaluate, scene
from .stft import SpectralFrameTensor, StftConfig, synthesize
from .worker import Worker


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage label for diagnostics."""

    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@contextmanager
def stage(label):
    """Run a block as the pipeline stage `label`: any exception raised in it
    becomes a StageError carrying the label. A StageError from an inner stage
    passes through unchanged, so the innermost label wins."""
    try:
        yield
    except StageError:
        raise
    except Exception as err:
        raise StageError(label, err) from err


# Kinds: (what an error says a value must be, its test). type() keeps True from ints, 1 from bools.
_NUMBER = "a finite number", lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                        and bool(np.isfinite(v)))
_POSITIVE = "a finite positive number", lambda v: _NUMBER[1](v) and v > 0
_BOOL = "true or false", lambda v: type(v) is bool
_STR = "a string", lambda v: type(v) is str


def _int(least):
    return f"an int >= {least}", lambda v: type(v) is int and v >= least


def _enum(*names):
    return f"one of {list(names)}", lambda v: isinstance(v, str) and v in names


def _null_or(kind):
    return f"null or {kind[0]}", lambda v: v is None or kind[1](v)


def _list(wanted, item, least=0, distinct=False):
    return wanted, lambda v: (isinstance(v, list) and len(v) >= least and all(map(item, v))
                              and not (distinct and len(set(v)) < len(v)))


# Every config key by dotted path: its default and its kind, checked before any other use.
CONFIG = {
    "seed": (None, ("an int >= 0 (config key 'seed' or --seed)", _int(0)[1])),
    "sample_rate": (16000, ("a positive whole number of Hz (a WAV header holds an int)",
                            lambda v: _POSITIVE[1](v) and float(v).is_integer())),
    "speed_of_sound": (343.0, _POSITIVE),
    "stft.fft_size": (1024, _int(1)),
    "stft.hop": (512, _int(1)),
    "geometry.mic_count": (12, _int(1)),
    "geometry.spacing": (0.05, _NUMBER),
    "geometry.reference": (0, _int(0)),
    "geometry.positions": (None, _null_or(_list(
        "a non-empty list of [x, y] pairs of finite numbers",
        lambda p: isinstance(p, list) and len(p) == 2 and all(map(_NUMBER[1], p)), 1))),
    "sources.azimuths_deg": ([0.0, 45.0, 90.0, 135.0, 180.0],
                             _list("a non-empty list of finite numbers", _NUMBER[1], 1)),
    "sources.wav_paths": (None, _null_or(_list("a list of strings", _STR[1]))),
    "noise_level_db": (-30.0, _null_or(_NUMBER)),
    "motion.kind": ("static", _enum("static", "gaussian_jitter", "rotation_sweep")),
    "motion.sigma_pos_m": (0.0, ("a finite nonnegative number",
                                 lambda v: _NUMBER[1](v) and v >= 0)),
    "motion.jitter_reference": (False, _BOOL),
    "motion.min_deg": (-45.0, _NUMBER),
    "motion.max_deg": (45.0, _NUMBER),
    "motion.period_s": (20.0, _POSITIVE),
    "motion.state_count": (10, _int(1)),
    "pilot.enabled": (True, _BOOL),
    "pilot.frequency_hz": (7000.0, _POSITIVE),
    "pilot.level_db": (-20.0, _NUMBER),
    "train_duration_s": (20.0, _POSITIVE),
    "test_duration_s": (20.0, _POSITIVE),
    "modes": (["static"], _list(f"a list of distinct names from {list(beamform.MODES)}",
                                _enum(*beamform.MODES)[1], distinct=True)),
    "state_oracle": (False, _BOOL),
    "theory.sigmas_s": ([1e-5, 2e-5, 5e-5],
                        _list("a non-empty list of finite positive numbers", _POSITIVE[1], 1)),
    "theory.points": (128, _int(1)),
    "out_dir": ("out", _STR),
}
_SECTIONS = {key.rpartition(".")[0] for key in CONFIG} - {""}


def _flatten(values, flat, unknown, prefix=""):
    """Put each value of the nested dict values into flat by dotted key; a key
    CONFIG lacks goes to unknown, and a section must be an object."""
    for key, value in values.items():
        dotted = prefix + key
        if dotted in _SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"{dotted} must be an object, got {value!r}")
            _flatten(value, flat, unknown, dotted + ".")
        elif dotted in CONFIG:
            flat[dotted] = value
        else:
            unknown.add(dotted)


def load_config(path=None, overrides=None):
    """Defaults, the optional JSON config file and CLI overrides, merged and checked.
    The first error wins in this order: a section given as a non-object, the
    unknown keys, a value of the wrong kind (in CONFIG order), the cross-field checks."""
    flat, unknown = {}, set()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                values = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"{path}: {err}") from err
        if not isinstance(values, dict):
            raise ValueError(f"{path} must hold a JSON object, got {type(values).__name__}")
        _flatten(values, flat, unknown)
    _flatten(overrides or {}, flat, unknown)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    config = {}
    for key, (default, (wanted, test)) in CONFIG.items():
        value = flat[key] if key in flat else copy.deepcopy(default)
        if not test(value):
            raise ValueError(f"{key} must be {wanted}, got {value!r}")
        section, _, name = key.rpartition(".")
        (config.setdefault(section, {}) if section else config)[name] = value
    cfg = _stft_config(config)
    for key in ("train_duration_s", "test_duration_s"):
        if int(round(config[key] * config["sample_rate"])) < cfg.fft_size:
            raise ValueError(f"{key} {config[key]!r} s is shorter than one frame")
    azimuths = config["sources"]["azimuths_deg"]
    scene.pilot_bins(_pilot(config), len(azimuths), cfg, config["sample_rate"])
    # Signal-free sources check the azimuths, geometry and motion of the scene.
    _scene_spec(config, [()] * len(azimuths))
    sigmas = config["theory"]["sigmas_s"]
    if len({f"{sigma:g}" for sigma in sigmas}) != len(sigmas):
        raise ValueError(f"theory.sigmas_s {sigmas!r} repeat a theory.csv column name")
    wavs = _input_files(config)
    for p in wavs:
        if not Path(p).is_file():
            raise ValueError(f"source WAV not found: {p}")
    if wavs and len(wavs) != len(azimuths):
        raise ValueError(f"sources.wav_paths lists {len(wavs)} WAVs for {len(azimuths)} azimuths")
    return config


def _stft_config(config):
    s = config["stft"]
    return StftConfig(fft_size=s["fft_size"], hop=s["hop"])


def _motion(config):
    m = config["motion"]
    if m["kind"] == "static":
        return scene.MotionModel.static()
    if m["kind"] == "gaussian_jitter":
        return scene.MotionModel.gaussian_jitter(m["sigma_pos_m"], m["jitter_reference"])
    return scene.MotionModel.rotation_sweep(m["min_deg"], m["max_deg"], m["period_s"],
                                            m["state_count"])


def _geometry(config):
    g = config["geometry"]
    if g["positions"] is not None:
        base = np.asarray(g["positions"], dtype=np.float64)
    else:
        base = scene.linear_positions(g["mic_count"], g["spacing"], g["reference"])
    return scene.ArrayGeometry(base, g["reference"])


def _pilot(config):
    p = config["pilot"]
    if not p["enabled"]:
        return None
    return scene.Pilot(frequency_hz=p["frequency_hz"], level_db=p["level_db"])


def read_wav(path, expected_rate):
    # scipy parses every PCM, float and extensible WAV variant; it is imported
    # here so that commands which read no WAV never load it.
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    if rate != expected_rate:
        raise ValueError(
            f"{path}: sample rate {rate} Hz does not match the configured "
            f"{expected_rate} Hz (resampling is not performed)"
        )
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        data = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    if data.ndim != 1:
        raise ValueError(f"{path}: expected a mono WAV, got {data.shape[1]} channels")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: WAV contains non-finite samples")
    return data


def write_wav(path, data, sample_rate):
    """Write data, (T,) or (T, channels), as a 32-bit IEEE-float WAV (fmt chunk
    with cbSize, fact chunk, interleaved little-endian samples): the bytes
    scipy.io.wavfile.write produces for float32 data."""
    data = np.ascontiguousarray(data, dtype="<f4")
    channels = 1 if data.ndim == 1 else data.shape[1]
    rate = int(sample_rate)
    fmt = struct.pack("<HHIIHHH", 3, channels, rate, 4 * channels * rate, 4 * channels, 32, 0)
    header = (b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<II", 4, data.shape[0])
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header)
        fh.write(data)


def _scene_spec(config, signals):
    azimuths = config["sources"]["azimuths_deg"]
    sources = tuple(
        scene.Source(azimuth_deg=float(az), signal=sig)
        for az, sig in zip(azimuths, signals)
    )
    return scene.SceneSpec(
        geometry=_geometry(config),
        sources=sources,
        motion=_motion(config),
        noise_level_db=config["noise_level_db"],
        pilot=_pilot(config),
        speed_of_sound=config["speed_of_sound"],
    )


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path, config, inputs, outputs, known=None):
    """Record the config snapshot and the hash of every input/output file;
    known maps files hashed already to their digests. Returns the digests of
    the outputs."""
    known = known or {}
    manifest = {
        "config": config,
        "inputs": {str(p): known.get(str(p)) or _sha256(p) for p in inputs},
        "outputs": {str(p): known.get(str(p)) or _sha256(p) for p in outputs},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest["outputs"]


def _output(config, name):
    """The path of output file name, making the output directory first: no
    command makes it before its first write, so a failure before that leaves
    no directory."""
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def run_simulate(config):
    """Render the test scene; write mixture and image WAVs, the state track
    and a manifest. Returns the list of written paths."""
    spec = _test_spec(config, _source_wavs(config))
    cfg = _stft_config(config)
    rate = config["sample_rate"]
    rendered = _test_render(config, spec)

    outputs = []
    mixture_path = _output(config, "mixture.wav")
    write_wav(mixture_path, synthesize(rendered.mixture, cfg), rate)
    outputs.append(mixture_path)
    # A noiseless render of one source is exactly that source's image.
    noiseless = dataclasses.replace(spec, noise_level_db=None)
    for n in rendered.active_sources:
        image = _test_render(config, noiseless, active_sources=[n]).mixture
        path = _output(config, f"image_{n:02d}.wav")
        write_wav(path, synthesize(image, cfg), rate)
        outputs.append(path)
    states_path = _output(config, "states.csv")
    evaluate.write_table(states_path, {
        "frame": np.arange(rendered.truth_states.frame_count),
        "state": rendered.truth_states.labels,
    })
    outputs.append(states_path)
    manifest = _output(config, "simulate_manifest.json")
    write_manifest(manifest, config, _input_files(config), outputs)
    return outputs + [manifest]


def _input_files(config):
    return list(config["sources"]["wav_paths"] or [])


def _train(config):
    """covest.train on the training renders of the configured scene's seeded signals."""
    duration, rate, seed = config["train_duration_s"], config["sample_rate"], config["seed"]
    signals = scene.pseudorandom_signals(len(config["sources"]["azimuths_deg"]),
                                         int(round(duration * rate)), seed)
    return covest.train(*covest.training_renders(_scene_spec(config, signals), duration,
                                                 _stft_config(config), rate, seed))


def run_train(config):
    """Train covariances and write the container; returns (covs, path)."""
    covs = _train(config)
    path, _ = _save_training(config, covs)
    return covs, path


def _save_training(config, covs):
    """Write the covariance container and its manifest; returns the container's
    path and {path: digest}."""
    path = _output(config, "covariances.npz")
    containers.save_covariances(path, covs)
    digests = write_manifest(_output(config, "train_manifest.json"), config,
                             _input_files(config), [path])
    return path, digests


def _source_wavs(config):
    """Each source WAV's signal, read once and checked to last the test scene."""
    samples = int(round(config["test_duration_s"] * config["sample_rate"]))
    wavs = []
    for path in _input_files(config):
        wav = read_wav(path, config["sample_rate"])
        if len(wav) < samples:
            raise ValueError(f"{path}: {len(wav)} samples, the test scene needs {samples}")
        wavs.append(wav)
    return wavs


def _test_spec(config, wavs):
    samples = int(round(config["test_duration_s"] * config["sample_rate"]))
    return _scene_spec(config, wavs or scene.pseudorandom_signals(
        len(config["sources"]["azimuths_deg"]), samples, config["seed"], scene.TEST_SIGNAL_STREAM))


def _test_render(config, spec, active_sources=None):
    return scene.render(spec, config["test_duration_s"], _stft_config(config),
                        config["sample_rate"], seed=config["seed"],
                        active_sources=active_sources)


def _run_modes(config, covs, rendered, command, write):
    """For each mode, as stage beamform:<mode>: build its bank, pick the test
    scene's state track when the bank is dynamic with more than one state
    (matched against the pilot templates of covs at the test render's pilot
    bins) and filter the test mixture. Then, as stage <command>:<mode>: save
    the bank and pass the (T, F, N) estimates to write(config, rendered, mode,
    estimates), which returns the paths it wrote. One mode's estimates are
    alive at a time. Returns the paths."""
    outputs = []
    for mode in config["modes"]:
        with stage(f"beamform:{mode}"):
            bank = beamform.build(covs, mode, reference=config["geometry"]["reference"])
            states = None
            if mode == "dynamic" and covs.state_count > 1:
                states = rendered.truth_states if config["state_oracle"] else \
                    covest.estimate_states(rendered.mixture,
                                           covest.pilot_templates(covs, rendered.pilot_bins),
                                           rendered.pilot_bins)
            estimates = beamform.apply_bank(bank, rendered.mixture, states)
        with stage(f"{command}:{mode}"):
            bank_path = _output(config, f"bank_{mode}.npz")
            containers.save_bank(bank_path, bank)
            outputs += [bank_path] + write(config, rendered, mode, estimates)
        del bank, estimates
    return outputs


def _gain_table(config, rendered, mode, estimates):
    """Write the mode's gain table, gain_<mode>.csv; returns its path."""
    mixture_ref = rendered.mixture.frames[:, :, config["geometry"]["reference"]]
    report = evaluate.gain(estimates, mixture_ref, rendered.desired, rendered.mixture.bin_hz)
    path = _output(config, f"gain_{mode}.csv")
    evaluate.write_table(path, report.table())
    return [path]


def _enhanced_wavs(config, rendered, mode, estimates):
    """Write each source's enhanced estimate, enhanced_<mode>_<NN>.wav, as a
    mono WAV; returns the paths."""
    cfg = _stft_config(config)
    paths = []
    for col, n in enumerate(rendered.active_sources):
        mono = SpectralFrameTensor(
            estimates[:, :, col:col + 1], rendered.mixture.sample_rate,
            rendered.mixture.fft_size, rendered.mixture.hop,
        )
        path = _output(config, f"enhanced_{mode}_{n:02d}.wav")
        write_wav(path, synthesize(mono, cfg), config["sample_rate"])
        paths.append(path)
    return paths


def run_pipeline(config):
    """Full experiment: train, build each requested mode, filter the test
    scene, and write gain/divergence CSVs, banks and manifests. Once the test
    render, which keeps both cores busy, has returned, a worker writes the
    covariance container and its manifest while this thread runs the modes."""
    if len(config["sources"]["azimuths_deg"]) < 2:
        raise ValueError("divergence curves need at least two source azimuths")
    wavs = _source_wavs(config)
    with stage("train"):
        covs = _train(config)
    saving = None
    try:
        with stage("simulate"):
            rendered = _test_render(config, _test_spec(config, wavs))
        saving = Worker(_save_training, config, covs)
        outputs = _run_modes(config, covs, rendered, "analyze", _gain_table)
    finally:
        # Joined whatever happens, and run here if the render failed; a failed
        # save came first in serial order, so its train error wins over any
        # error of the modes.
        with stage("train"):
            cov_path, digests = saving.join() if saving else _save_training(config, covs)

    with stage("analyze:divergence"):
        div_path = _output(config, "divergence.csv")
        evaluate.write_table(div_path, _divergence_table(covs))
    outputs = [cov_path] + outputs + [div_path]
    manifest = _output(config, "pipeline_manifest.json")
    write_manifest(manifest, config, _input_files(config), outputs, known=digests)
    return outputs + [manifest]


def _divergence_table(covs):
    """Default separability curves: between-source ensemble divergence, and
    when the scene has more than one state, the same pairs within the middle
    state plus the extreme-state divergence of source 0."""
    n = covs.source_count
    named = {"div_between_source_ensemble": evaluate.outer_vs_central_pairs(n)}
    if covs.state_count > 1:
        mid = covs.state_count // 2
        named["div_between_source_state"] = evaluate.outer_vs_central_pairs(n, state=mid)
        named["div_between_state"] = [((0, 0), (0, covs.state_count - 1))]
    return evaluate.divergence_curve(covs, named)


def run_beamform(config, covariances_path=None):
    """Build banks from a covariance container, filter the test scene, and
    write enhanced WAVs alongside the bank containers."""
    wavs = _source_wavs(config)
    cov_path = Path(covariances_path or Path(config["out_dir"]) / "covariances.npz")
    if not cov_path.is_file():
        raise ValueError(f"covariance container not found: {cov_path}")
    # Render before loading: the buffers the render frees let the allocator
    # serve the load's many 1 MB validation temporaries from its heap, where
    # loading first maps each one afresh (2.5x the page faults on rotation).
    rendered = _test_render(config, _test_spec(config, wavs))
    # The manifest's hash of the container reads it beside the load and the
    # modes, which leave the second core idle.
    hashing = Worker(_sha256, cov_path)
    try:
        covs = containers.load_covariances(cov_path)
        if covs.source_count != len(rendered.active_sources):
            raise ValueError(
                f"covariance container holds {covs.source_count} sources, "
                f"the scene has {len(rendered.active_sources)}"
            )
        outputs = _run_modes(config, covs, rendered, "beamform", _enhanced_wavs)
    except BaseException:
        # Joined whatever happens; the hash came last in serial order, so
        # any other error wins over its own.
        with suppress(Exception):
            hashing.join()
        raise
    write_manifest(_output(config, "beamform_manifest.json"), config,
                   [cov_path] + _input_files(config), outputs,
                   known={str(cov_path): hashing.join()})
    return outputs


def run_theory(config):
    """Closed-form divergence curves for the array's start pose: the
    configured geometry, rotated to min_deg for a rotation sweep."""
    azimuths = config["sources"]["azimuths_deg"]
    if len(azimuths) < 2:
        raise ValueError("theory curves need at least two source azimuths")
    positions = scene.start_pose(_geometry(config), _motion(config))
    central = len(azimuths) // 2
    pairs = [
        (azimuths[i], azimuths[central]) for i in range(len(azimuths)) if i != central
    ]
    nyquist = config["sample_rate"] / 2.0
    points = config["theory"]["points"]
    freqs = np.linspace(nyquist / points, nyquist, points)
    table = evaluate.theory_curve(
        positions, {"div_outer_vs_central": pairs},
        config["theory"]["sigmas_s"], freqs, config["speed_of_sound"],
    )
    path = _output(config, "theory.csv")
    evaluate.write_table(path, table)
    write_manifest(_output(config, "theory_manifest.json"), config, [], [path])
    return [path]


def run_report(config):
    """Merge the per-mode gain CSVs in the output directory, which must share
    one frequency grid, into report.csv."""
    out = Path(config["out_dir"])
    merged, first = {}, None
    for mode_arg in config["modes"]:
        path = out / f"gain_{mode_arg}.csv"
        if not path.is_file():
            raise ValueError(f"missing gain CSV: {path}")
        rows = np.genfromtxt(path, delimiter=",", names=True, ndmin=1)
        if first is None:
            first, merged["frequency_hz"] = path, rows["frequency_hz"]
        elif not np.array_equal(rows["frequency_hz"], merged["frequency_hz"]):
            raise ValueError(f"{path} and {first} hold different frequency_hz grids")
        merged[f"gain_db_{mode_arg}"] = rows["gain_db"]
        merged[f"flagged_{mode_arg}"] = rows["flagged"]
    path = _output(config, "report.csv")
    evaluate.write_table(path, merged)
    return [path]


def _parser():
    parser = argparse.ArgumentParser(
        prog="driftbeam",
        description="Simulate and analyze beamforming with deformable microphone arrays",
    )
    parser.add_argument("--config", type=str, default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="random seed (required)")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--mode", type=str, default=None,
        help="comma-separated beamformer modes: static,dynamic,rank1",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="render the test scene to WAV files")
    sub.add_parser("train", help="estimate covariances from training renders")
    beam = sub.add_parser("beamform", help="build banks and write enhanced WAVs")
    beam.add_argument("--covariances", type=str, default=None,
                      help="path to a covariance container (default: OUT/covariances.npz)")
    sub.add_parser("analyze", help="run the full train/beamform/analyze pipeline")
    sub.add_parser("theory", help="write closed-form divergence curves")
    sub.add_parser("report", help="merge gain CSVs into report.csv")
    return parser


def _overrides(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.mode is not None:
        overrides["modes"] = args.mode.split(",")
    return overrides


COMMANDS = {
    "simulate": lambda config, args: run_simulate(config),
    "train": lambda config, args: run_train(config),
    "beamform": lambda config, args: run_beamform(config, args.covariances),
    "analyze": lambda config, args: run_pipeline(config),
    "theory": lambda config, args: run_theory(config),
    "report": lambda config, args: run_report(config),
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        with stage("config"):
            config = load_config(args.config, _overrides(args))
        with stage(args.command):
            COMMANDS[args.command](config, args)
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
