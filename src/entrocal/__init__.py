"""Entropic calibration difference and companion calibration metrics.

Library surface:

- :mod:`entrocal.metrics`: per-datum and aggregate scores (binary and
  discrete ECD, NLL, entropy, Brier, the score curve).
- :mod:`entrocal.binning`: reliability-diagram binning and the calibration
  report (ECE, ESCE and ECD).
- :mod:`entrocal.gaussian`: NEES and Gaussian ECD for state estimates.
- :mod:`entrocal.simulation`: seeded generator of miscalibrated datasets.
- :mod:`entrocal.report_io`: CSV ingestion/export, report rendering, SVG
  plots.
- :mod:`entrocal.cli`: the ``entrocal`` command.
"""

from .binning import (
    BinSpec,
    BinStats,
    CalibrationReport,
    bin_stats,
    build_report,
    reliability_points,
)
from .gaussian import (
    GaussianPrediction,
    ecd_gaussian,
    gaussian_log_density,
    gaussian_negative_entropy,
    mahalanobis_sq,
    nees,
)
from .metrics import (
    ECD_BINARY_LOWER_BOUND,
    ClipPolicy,
    Dataset,
    DiscreteDistribution,
    brier,
    ecd_binary,
    ecd_curve,
    ecd_discrete,
    ecd_sample_binary,
    ecd_sample_scores,
    log_likelihood,
    negative_entropy,
    nll,
)
from .report_io import (
    ReportDocument,
    load_csv,
    render_ecd_curve_svg,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    report_from_json,
    write_dataset_csv,
    write_simulated_csv,
)
from .simulation import (
    SigmaRun,
    SimulatedDataset,
    SimulationConfig,
    derive_run_seed,
    logistic,
    run_noise_suite,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BinSpec",
    "BinStats",
    "CalibrationReport",
    "ClipPolicy",
    "Dataset",
    "DiscreteDistribution",
    "ECD_BINARY_LOWER_BOUND",
    "GaussianPrediction",
    "ReportDocument",
    "SigmaRun",
    "SimulatedDataset",
    "SimulationConfig",
    "bin_stats",
    "brier",
    "build_report",
    "derive_run_seed",
    "ecd_binary",
    "ecd_curve",
    "ecd_discrete",
    "ecd_gaussian",
    "ecd_sample_binary",
    "ecd_sample_scores",
    "gaussian_log_density",
    "gaussian_negative_entropy",
    "load_csv",
    "log_likelihood",
    "logistic",
    "mahalanobis_sq",
    "nees",
    "negative_entropy",
    "nll",
    "reliability_points",
    "render_ecd_curve_svg",
    "render_histogram_svg",
    "render_reliability_svg",
    "render_report",
    "report_from_json",
    "run_noise_suite",
    "simulate",
    "write_dataset_csv",
    "write_simulated_csv",
]
