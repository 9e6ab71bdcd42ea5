"""Beamforming simulation and analysis for deformable microphone arrays.

Simulates far-field sources captured by arrays whose microphones move
relative to each other, trains static and dynamic multichannel Wiener
filters from sample spatial covariances, and measures how array deformation
erodes the spatial separability of sources across frequency.

The public names are exported lazily (PEP 562): `import driftbeam` loads no
numpy, and each name imports its module on first use. So the `driftbeam`
command (`driftbeam.cli`) can choose OpenBLAS's thread count before numpy
loads OpenBLAS.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_EXPORTS = {name: module for module, names in {
    "beamform": ("BeamformerBank", "apply_bank", "build", "mwf_weights"),
    "containers": ("load_bank", "load_covariances", "save_bank", "save_covariances"),
    "covest": ("CovarianceSet", "estimate_states", "pilot_templates", "train",
               "training_renders"),
    "covmath": ("HermitianSpectrum", "IllConditionedError", "far_field_divergence",
                "gaussian_divergence", "perturbed_covariance", "regularize"),
    "evaluate": ("GainReport", "divergence_curve", "gain", "theory_curve", "write_table"),
    "scene": ("ArrayGeometry", "MotionModel", "Pilot", "RenderedScene", "SceneSpec", "Source",
              "StateSequence", "linear_positions", "render", "state_sequence"),
    "stft": ("SpectralFrameTensor", "StftConfig", "analyze", "synthesize"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the module that defines a public name and cache the name here.
    Any other name raises AttributeError, so `from driftbeam import cli`
    imports the submodule."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
