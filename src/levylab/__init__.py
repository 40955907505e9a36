"""levylab: spectral laboratory for Levy semigroups and entropy inequalities."""

from .cli import triplet_from_config
from .entropy import (
    DecayReport,
    PhiFunction,
    WeightedMeasure,
    decay_track,
    dissipation,
    entropy_production_check,
    modified_lsi_check,
    phi_entropy,
)
from .fields import gaussian_field, generate_test_fields
from .fokker_planck import (
    SteadyState,
    build_steady_state,
    check_domination,
    check_log_tail,
    check_radial_decay,
    drift_correction,
    fp_evolve,
    limit_density,
    limit_levy_density,
    steady_exponent,
)
from .heat import (
    heat_evolve,
    kato_check,
    lsi_constant,
    lsi_gap,
    ultracontractivity_constant,
    verify_hypercontractivity,
)
from .levy import (
    LevyDensity,
    LevyTriplet,
    jump_symbol,
    stable_density,
)
from .spectral import Grid, SpectralField, apply_multiplier, lp_norm

__version__ = "0.1.0"
