"""Simulator and analysis toolkit for the ideal KLJN secure key exchange.

Two parties encode key bits by switching between a low and a high resistor
while injecting band-limited noise whose amplitude follows the Johnson
square-root-of-resistance law. The package simulates the shared line,
models an eavesdropper who tests resistor hypotheses against the public
signals, and quantifies how much information leaks when the noise sources
deviate from Gaussian shape or from the required amplitude ratio.
"""

__version__ = "0.1.0"

from .noise import (
    DistributionKind,
    NoiseSpec,
    ResistorPair,
    johnson_sigma,
    sample,
    scaled_sigma_high,
    security_sigma_ratio,
    stream,
)
from .line import (
    line_signals,
    theoretical_line_variance,
)
from .density import (
    HypothesisWeights,
    PdfGrid,
    TruncationError,
    analytic_pdf,
    closure_pair,
    closure_residual,
    convolve_scaled,
    weights,
)
from .eve import (
    BlockAttack,
    VERDICTS,
    credits,
    wrong_hypothesis_variance,
)
from .protocol import (
    AttackTrialSummary,
    SessionConfig,
    SessionOutcome,
    SweepPoint,
    attack_trials,
    leak_sweep,
    run_session,
)

__all__ = [
    "AttackTrialSummary",
    "BlockAttack",
    "DistributionKind",
    "HypothesisWeights",
    "NoiseSpec",
    "PdfGrid",
    "ResistorPair",
    "SessionConfig",
    "SessionOutcome",
    "SweepPoint",
    "TruncationError",
    "VERDICTS",
    "analytic_pdf",
    "attack_trials",
    "closure_pair",
    "closure_residual",
    "convolve_scaled",
    "credits",
    "johnson_sigma",
    "leak_sweep",
    "line_signals",
    "run_session",
    "sample",
    "scaled_sigma_high",
    "security_sigma_ratio",
    "stream",
    "theoretical_line_variance",
    "weights",
    "wrong_hypothesis_variance",
    "__version__",
]
