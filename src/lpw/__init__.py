"""Spectral workbench on the periodic torus.

Dyadic (ring-based) frequency decompositions, numerical symbol calculus for
variable-coefficient Fourier operators, paraproduct frequency-zone splittings,
exponent bookkeeping for critical-regularity estimates, and an end-to-end
"regularity probe" that measures dyadic decay gains on manufactured solutions
of model elliptic equations.
"""

from .grid import GridSpec, SpectralField
from .grid import lp_norm, l2_norm, dealiased_product
from .lp import LPPartition, build_partition, project, project_window
from .lp import bernstein_ratio, shell_norms
from .symbols import Symbol, apply, quantize_direct, resolve_symbol, leray_projector
from .exponents import RegularityParams, GainReport, check_hypotheses, critical_exponent
from .exponents import lift_parameters, bootstrap_exponents, epsilon_gain, theta_exponent
from .iteration import DecaySequence, IterationParams, hypothesis_holds, decay_bound
from .iteration import convolution_majorant

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "SpectralField",
    "lp_norm", "l2_norm", "dealiased_product",
    "LPPartition", "build_partition", "project", "project_window",
    "bernstein_ratio", "shell_norms",
    "Symbol", "apply", "quantize_direct", "resolve_symbol", "leray_projector",
    "RegularityParams", "GainReport", "check_hypotheses", "critical_exponent",
    "lift_parameters", "bootstrap_exponents", "epsilon_gain", "theta_exponent",
    "DecaySequence", "IterationParams", "hypothesis_holds", "decay_bound",
    "convolution_majorant",
]
