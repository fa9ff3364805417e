"""Numerical toolkit for anisotropic Gelfand-Shilov wave front sets of sampled signals."""

__version__ = "0.1.0"

from .chirp import WFPrediction, compare_wf, predict_chirp_wf
from .errors import (AliasingError, ConfigError, DomainError,
                     GraphConditionError, ResolutionError, ToolkitError,
                     TruncationError, UnsupportedRegimeError)
from .estimator import (RateFit, WFEntry, WFEstimate, check_graph_condition,
                        cone_constant, curve_reach, curve_table, estimate_kernel_wf,
                        estimate_wf, fit_rate_arrays)
from .evolution import (EvolutionSpec, kernel_signal, predict_transport, propagate,
                        propagator_kernel)
from .geometry import (AnisoIndex, PhasePoint, SphereDirection, log_lambda_many,
                       nearest_angles, project_many, scale_point)
from .poly import PolynomialData, eval_grad, eval_poly, poly_1d, principal_part
from .relation import PointSet, compose, compose_via_projection
from .signals import (AnalyticSignal, ConvolutionKernel, SampledSignal, WindowSpec,
                      chirp_signal, delta_signal, fourier, gaussian_signal, make_chirp,
                      make_gaussian, one_signal, tensor_signal)
from .stft import (StftGrid, istft, moyal_error, stft_grid, stft_point, stft_points,
                   stft_seminorm)
