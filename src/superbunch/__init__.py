"""Monte Carlo simulation and analysis of intensity-modulated pseudothermal light.

The chain mirrors a tabletop experiment: a periodic or stochastic
intensity modulation multiplies a rotating ground-glass speckle field, two
detectors split the light, and the cross-correlation histogram of their
timestamps yields g2(tau).  Closed-form curves for the same chain support
fitting and validation.
"""

from ._version import __version__
from ._kernels import COMPILED
from .analytic import (
    FitModel,
    FitResult,
    fit_g2,
    g2_noise,
    g2_sinusoid,
    g2_speckle,
    g2_zero_sinusoid,
    gamma_noise,
)
from .config import RunConfig, SweepSpec, build_config, load_config
from .correlator import (
    CoincidenceHistogram,
    G2Curve,
    PeakBackground,
    coincidence_histogram,
    g2_zero_estimate,
    merge,
    normalize_g2,
    peak_background_ratio,
    write_g2_csv,
    write_histogram_csv,
)
from .detection import (
    DetectorConfig,
    PhotonStream,
    detect_photons,
    read_photon_stream,
    write_photon_stream,
)
from .errors import ConfigError, DataError, ResolutionError
from .pipeline import RunResult, run_analysis, run_pipeline, run_sweep
from .seeding import substream, substream_seed
from .signal import (
    BandNoise,
    Constant,
    EomDrive,
    EomTransfer,
    IntensityTrace,
    Sinusoid,
    eom_transfer,
    sample_intensity,
    write_intensity_csv,
)
from .speckle import SpeckleParams, apply_speckle, generate_speckle_field

__all__ = [
    "__version__",
    "COMPILED",
    "BandNoise",
    "CoincidenceHistogram",
    "ConfigError",
    "Constant",
    "DataError",
    "DetectorConfig",
    "EomDrive",
    "EomTransfer",
    "FitModel",
    "FitResult",
    "G2Curve",
    "IntensityTrace",
    "PeakBackground",
    "PhotonStream",
    "ResolutionError",
    "RunConfig",
    "RunResult",
    "Sinusoid",
    "SpeckleParams",
    "SweepSpec",
    "apply_speckle",
    "build_config",
    "coincidence_histogram",
    "detect_photons",
    "eom_transfer",
    "fit_g2",
    "g2_noise",
    "g2_sinusoid",
    "g2_speckle",
    "g2_zero_estimate",
    "g2_zero_sinusoid",
    "gamma_noise",
    "generate_speckle_field",
    "load_config",
    "merge",
    "normalize_g2",
    "peak_background_ratio",
    "read_photon_stream",
    "run_analysis",
    "run_pipeline",
    "run_sweep",
    "sample_intensity",
    "substream",
    "substream_seed",
    "write_g2_csv",
    "write_histogram_csv",
    "write_intensity_csv",
    "write_photon_stream",
]
