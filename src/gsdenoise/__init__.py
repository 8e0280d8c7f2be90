"""Graph signal denoising on large sparse graphs.

Spectral graph wavelet decomposition in a tight frame, Chebyshev polynomial
filter application with optional Jackson damping, Monte-Carlo estimation of
the SURE divergence weights, James-Stein coefficient thresholding with
level-dependent SURE-optimal thresholds, and Gaussian privacy mechanisms as
the calibrated noise source.
"""

from .graph import (
    LaplacianOperator,
    SparseGraph,
    build_graph,
    estimate_spectral_bound,
    from_csr,
    grid_graph,
    is_connected,
    laplacian,
    random_connected_graph,
    random_geometric_graph,
    read_edgelist,
    write_edgelist,
)
from .frame import (
    EigenDecomposition,
    FrameCoefficients,
    PartitionOfUnity,
    exact_eigendecomposition,
    frame_matrix_exact,
    sgwt_forward_exact,
    sgwt_inverse_exact,
)
from .chebyshev import (
    apply_filter,
    band_coefficients,
    chebyshev_coefficients,
    jackson_damping,
    sgwt_forward_fast,
    sgwt_inverse_fast,
)
from .sure import (
    WeightEstimate,
    estimate_diagonal_weights,
    exact_weights,
    gamma_variance_exact,
    load_weights,
    save_weights,
    sure_value,
    sure_variance_exact,
)
from .threshold import (
    ThresholdPolicy,
    apply_policy,
    js_derivative,
    js_threshold,
    select_thresholds_sure,
)
from .privacy import (
    PrivacyParams,
    analytic_sigma,
    calibrate_sigma,
    classical_sigma,
    gaussian_cdf,
    sanitize,
)
from .signals import (
    SignalSpec,
    mse,
    read_signal,
    snr,
    synth_signal,
    write_signal,
)
from .pipeline import (PipelineConfig, denoise_pipeline, frame_and_weights,
                       weight_fingerprint)

__version__ = "0.1.0"
