"""Quantum-noise budget modeling for squeezed-light interferometers.

The package propagates a squeezed vacuum state through optical losses
and phase jitter, folds the resulting quadrature variance into a
frequency-domain strain noise budget, and checks the closed-form
algebra against a Monte-Carlo sampler.

Importing the package does not import numpy: each module imports it
inside the functions that build or read arrays, and scalar rules use
``math``, so the command-line subcommands that never touch an array
start without it. ``cli`` and this module still import their package
names at module level rather than inside the subcommands, so a tool
that wraps those names from outside, such as the per-layer tracer in
``perfbench/spans.py``, finds every one of them.
"""

from .budget import (
    BudgetReport,
    NoiseSpectrum,
    SweepRow,
    build_report,
    detection_rate_gain,
    improvement_db,
    required_efficiency_for_improvement,
    shot_limited_improvement_db,
    sweep,
    total_noise,
)
from .config import (
    RunConfig,
    default_config_text,
    default_run_config,
    load_config,
    parse_config,
)
from .errors import ConfigError, DomainError
from .ifo import (
    GEO600,
    FrequencyGrid,
    IfoConfig,
    anchored_flat_level,
    first_principles_flat_level,
    shot_noise_asd,
    squeezing_factor,
    technical_noise_asd,
)
from .losses import (
    DegradationRow,
    LossElement,
    chain_efficiency,
    degradation_report,
)
from .oracle import (
    OracleVerdict,
    SampleRun,
    oracle_compare,
    sample_lossy_squeezed,
    sample_two_stage,
    standard_suite,
)
from .quadrature import (
    QuadratureState,
    SqueezeLevel,
    apply_loss,
    db_to_variance,
    dephase,
    readout_variance,
    rotate,
    state_from_db,
    vacuum,
    variance_to_db,
)

__version__ = "0.1.0"
