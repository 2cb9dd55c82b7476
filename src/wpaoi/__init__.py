"""Average age of information for a wireless-powered charge-and-transmit link.

A sensor harvests RF energy into a capacitor of size B and sends a status
update with full discharge each time the capacitor fills. This package
evaluates the closed-form average age of the delivered updates and checks
it against Monte Carlo simulation. It also sizes the capacitor to minimize
that age.
"""

from .analytics import (
    AnalyticReport,
    analytic_report,
    aoi_limit_fixed_B,
    aoi_limit_ratio,
    average_aoi,
    interarrival_moments,
    mean_peak_area,
    recharge_moments,
    recharge_pmf,
)
from .experiments import (
    SweepRow,
    ValidationReport,
    ValidationRow,
    sweep_aoi_vs_B,
    sweep_minaoi_vs_P,
    validation_report,
)
from .model import (
    DerivedParams,
    SystemParams,
    beta_pi,
    build_params,
    channel_rate_from_distance,
    dbm_to_watts,
    derive,
)
from .optimizer import OptResult, optimize_capacitor, optimize_capacitors
from .simulator import (
    EventLog,
    NoSuccessError,
    SimConfig,
    SimStats,
    batch_ci,
    sample_events,
    simulate,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticReport",
    "DerivedParams",
    "EventLog",
    "NoSuccessError",
    "OptResult",
    "SimConfig",
    "SimStats",
    "SweepRow",
    "SystemParams",
    "ValidationReport",
    "ValidationRow",
    "analytic_report",
    "aoi_limit_fixed_B",
    "aoi_limit_ratio",
    "average_aoi",
    "batch_ci",
    "beta_pi",
    "build_params",
    "channel_rate_from_distance",
    "dbm_to_watts",
    "derive",
    "interarrival_moments",
    "mean_peak_area",
    "optimize_capacitor",
    "optimize_capacitors",
    "recharge_moments",
    "recharge_pmf",
    "sample_events",
    "simulate",
    "sweep_aoi_vs_B",
    "sweep_minaoi_vs_P",
    "validation_report",
    "write_trace",
]
