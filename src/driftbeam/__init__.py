"""Beamforming simulation and analysis for deformable microphone arrays.

Simulates far-field sources captured by arrays whose microphones move
relative to each other, trains static and dynamic multichannel Wiener
filters from sample spatial covariances, and measures how array deformation
erodes the spatial separability of sources across frequency.
"""

from .beamform import BeamformerBank, apply_bank, build, mwf_weights
from .containers import load_bank, load_covariances, save_bank, save_covariances
from .covest import CovarianceSet, estimate_states, pilot_templates, train, training_renders
from .covmath import (
    HermitianSpectrum,
    IllConditionedError,
    far_field_divergence,
    gaussian_divergence,
    perturbed_covariance,
    regularize,
)
from .evaluate import GainReport, divergence_curve, gain, theory_curve, write_table
from .scene import (
    ArrayGeometry,
    MotionModel,
    Pilot,
    RenderedScene,
    SceneSpec,
    Source,
    StateSequence,
    linear_positions,
    render,
    state_sequence,
)
from .stft import SpectralFrameTensor, StftConfig, analyze, synthesize

__version__ = "0.1.0"

__all__ = [
    "ArrayGeometry",
    "BeamformerBank",
    "CovarianceSet",
    "GainReport",
    "HermitianSpectrum",
    "IllConditionedError",
    "MotionModel",
    "Pilot",
    "RenderedScene",
    "SceneSpec",
    "Source",
    "SpectralFrameTensor",
    "StateSequence",
    "StftConfig",
    "analyze",
    "apply_bank",
    "build",
    "divergence_curve",
    "estimate_states",
    "far_field_divergence",
    "gain",
    "gaussian_divergence",
    "linear_positions",
    "load_bank",
    "load_covariances",
    "mwf_weights",
    "perturbed_covariance",
    "pilot_templates",
    "regularize",
    "render",
    "save_bank",
    "save_covariances",
    "state_sequence",
    "synthesize",
    "theory_curve",
    "train",
    "training_renders",
    "write_table",
]
