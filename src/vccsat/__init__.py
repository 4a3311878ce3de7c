"""Vector coded caching for multi-beam satellite downlinks.

Closed-form average sum rate and effective spectral-efficiency gain under
Rician-shadowed fading with matched-filter precoding and imperfect CSIT, a
combinatorial placement/delivery scheduler, and a deterministic Monte Carlo
engine that validates every closed form.
"""

__version__ = "0.1.0"

from .analysis import (
    GainResult,
    Moments,
    alpha2_closed_form,
    avg_sum_rate_closed_form,
    effective_gain_closed_form,
    intra_interference_term,
    xi_moments_closed_form,
)
from .caching import CacheLayout, DeliverySchedule, build_schedule, verify_completeness
from .channel import (
    SCENARIOS,
    DynamicScenario,
    ShadowingParams,
    elevation_angle,
    los_probability,
    scenario,
    substream,
)
from .experiments import (
    Estimate,
    SweepRow,
    mc_gain_table,
    mc_moment_oracle,
    mc_sum_rate,
    mc_transmit_power,
    oracle_suite,
    sweep,
)
from .linkphy import SystemConfig
