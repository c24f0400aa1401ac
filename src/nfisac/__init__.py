"""Near-field wideband ISAC simulation toolkit.

Spherical-wavefront array responses, beam-squint analysis, delay-phase
front-end fitting, polar-domain and wavenumber-domain localization, and
joint communication/sensing subcarrier allocation, with a deterministic
experiment runner on top.
"""

__version__ = "0.1.0"

from .arrays import (
    ArrayGeometry,
    CarrierGrid,
    PolarPoint,
    far_field_steering,
    near_field_steering,
    rayleigh_distance,
)
from .codebook import Beamformer, PolarGrid, dft_codeword, polar_codeword
from .delay_phase import (
    Arc,
    DelayPhaseConfig,
    TrajectorySpec,
    apply_delay_phase,
    arc_trajectory_spec,
    fit_trajectory,
)
from .errors import (
    AliasingError,
    BoundaryPeakWarning,
    CalibrationError,
    HardwareBoundError,
    IllConditionedSpecError,
    InfeasibleAllocationError,
    OutOfCalibrationError,
)
from .music import (
    SampleCovariance,
    collect_snapshots,
    music_localize,
    music_peaks,
    music_spectra,
    music_spectrum,
    sample_covariance,
)
from .squint import SquintTrajectory, focal_points, squint_deviation
from .tracking import TrackState, kalman_predict_update, predict_arc
from .wavenumber import (
    PlanarArray,
    RadiusRangeTable,
    calibrate_radius_range,
    estimate_position,
    extract_support,
    upa_snapshot,
    wavenumber_transform,
)

__all__ = [
    "__version__",
    "AliasingError",
    "Arc",
    "ArrayGeometry",
    "Beamformer",
    "BoundaryPeakWarning",
    "CalibrationError",
    "CarrierGrid",
    "DelayPhaseConfig",
    "HardwareBoundError",
    "IllConditionedSpecError",
    "InfeasibleAllocationError",
    "OutOfCalibrationError",
    "PlanarArray",
    "PolarGrid",
    "PolarPoint",
    "RadiusRangeTable",
    "SampleCovariance",
    "SquintTrajectory",
    "TrackState",
    "TrajectorySpec",
    "apply_delay_phase",
    "arc_trajectory_spec",
    "calibrate_radius_range",
    "collect_snapshots",
    "dft_codeword",
    "estimate_position",
    "extract_support",
    "far_field_steering",
    "fit_trajectory",
    "focal_points",
    "kalman_predict_update",
    "music_localize",
    "music_peaks",
    "music_spectra",
    "music_spectrum",
    "near_field_steering",
    "polar_codeword",
    "predict_arc",
    "rayleigh_distance",
    "sample_covariance",
    "squint_deviation",
    "upa_snapshot",
    "wavenumber_transform",
]
