"""Fractional time-frequency analysis toolkit.

Fractional Fourier, Stockwell and wavelet transforms with synthesis and
reconstruction operators, distribution pairing oracles, and numerical
checkers for the scaling laws their asymptotic theory predicts.
"""

from .errors import (
    AngleOutsideTheoremRange,
    DegenerateSequence,
    DerivativeOrderTooHigh,
    DivergentAdmissibility,
    DomainError,
    FracspecError,
    GridTooCoarse,
    InvalidExponent,
    MalformedCSV,
    MomentOrderTooHigh,
    NonPositiveScale,
    NonUniformGrid,
    NotAWavelet,
    PairingDiverged,
    SingularAngle,
    UndersampledChirp,
    ZeroAdmissibility,
)
from .fraccore import (
    AngleKind,
    CLASSICAL_FT_PARAM,
    ComposeReport,
    FracParam,
    SampledSignal,
    frft,
    frft_compose_check,
    gaussian_signal,
    kernel_eval,
    make_frac_param,
)
from .windows import (
    AdmissibilityConstant,
    SeminormEstimate,
    Window,
    admissibility_cg,
    admissibility_cgpsi,
    dilate,
    gaussian_window,
    hermite_wavelet_window,
    mexican_hat_window,
    modulate,
    moment,
    seminorm_rho,
    seminorm_sigma,
    window_by_name,
)
from .distributions import (
    ChirpEquivalenceReport,
    DistributionDescriptor,
    ScaleSequence,
    SlowlyVarying,
    SV_ONE,
    TestFunction,
    chirp_factor_check,
    pair,
    quasi_degree_estimate,
    scaled_pair,
    probe_battery,
)
from .frst import (
    ReconstructionReport,
    TFGrid,
    frst_forward,
    frst_point,
    frst_reconstruct,
    frst_synthesis,
    grid_from_csv,
    grid_to_csv,
    positive_log_xi_axis,
    st_point,
    symmetric_log_xi_axis,
)
from .frwt import (
    BridgeReport,
    ViaFrftReport,
    frst_frwt_bridge,
    frwt_forward,
    frwt_point,
    frwt_reconstruct,
    frwt_synthesis,
    frwt_via_frft,
    wt_point,
)
from .asymptotics import (
    AsymptoticFixture,
    AsymptoticReport,
    Te1HypothesesReport,
    check_rez1,
    check_te1_hypotheses,
    check_te3,
    check_te4,
    check_te5,
    check_teab1,
    delta_fixture,
    log_sqrt_abs_fixture,
    sqrt_abs_fixture,
)

__version__ = "0.1.0"
