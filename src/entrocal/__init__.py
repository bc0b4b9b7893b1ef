"""Entropic calibration difference and companion calibration metrics.

Library surface:

- :mod:`entrocal.metrics`: per-datum and aggregate scores (binary ECD over
  (N,) probabilities, K-class ECD and its entropy and log-likelihood terms
  over (N, K) rows, NLL, Brier, the score curve).
- :mod:`entrocal.binning`: reliability-diagram binning and the calibration
  report (ECE, ESCE and ECD).
- :mod:`entrocal.gaussian`: NEES and Gaussian ECD for state estimates.
- :mod:`entrocal.simulation`: seeded generator of miscalibrated datasets.
- :mod:`entrocal.report_io`: CSV ingestion/export, report rendering, SVG
  plots.
- :mod:`entrocal.cli`: the ``entrocal`` command.

Each library module's ``__all__`` is its part of the package surface: the
package re-exports exactly those names, and names a module keeps out of its
``__all__`` (such as ``metrics.DEFAULT_CLIP``) are imported from the module.
"""

from . import binning, gaussian, metrics, report_io, simulation
from .binning import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .metrics import *  # noqa: F403
from .report_io import *  # noqa: F403
from .simulation import *  # noqa: F403

__version__ = "0.2.0"

__all__ = [
    "__version__",
    *binning.__all__,
    *gaussian.__all__,
    *metrics.__all__,
    *report_io.__all__,
    *simulation.__all__,
]
