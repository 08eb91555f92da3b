"""Generative stochastic model and high-throughput array simulator for
resistive-memory synapses."""

from .array import CellArray, PulseReport, ReadoutConfig, init_array
from .conduction import (
    ConductionModel,
    current,
    eval_poly,
    state_from_point,
    state_from_resistance,
    transition_current,
)
from .paramfile import ParameterBundle, SimDefaults, load, save
from .svar import SvarModel, fit_svar, generate, mix_lower_triangular, spectral_radius, step
from .transform import NormalizingMap, fit_map, forward_map, inverse_map
from .waveform import RawTrace, extract_features

__version__ = "0.1.0"
