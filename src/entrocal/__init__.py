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
  plots. Gaussian JSON, read by ``gaussian`` alone, is in ``_gaussian_io``.
- :mod:`entrocal.cli`: the ``entrocal`` command.

Each library module's ``__all__`` is its part of the package surface: the
package re-exports exactly those names, and names a module keeps out of its
``__all__`` (such as ``metrics.DEFAULT_CLIP``) are imported from the module.

The package imports lazily (PEP 562): ``import entrocal`` loads neither numpy
nor a library module. The first access to a public name, to ``__all__`` or to
a library module imports the five modules and binds their names here, so the
command line can choose numpy's thread settings before numpy loads.
"""

__version__ = "0.4.0"

_MODULES = ("binning", "gaussian", "metrics", "report_io", "simulation")


def _load() -> None:
    """Import the library modules and bind their public names and ``__all__`` here."""
    import importlib

    names = ["__version__"]
    for name in _MODULES:
        module = importlib.import_module(f".{name}", __name__)
        names += module.__all__
        globals().update((n, getattr(module, n)) for n in module.__all__)
    globals()["__all__"] = names  # last: its presence marks the load as done


def __getattr__(name: str):
    # Private names never load (the import system probes ``_floattext`` and
    # the like before importing them as submodules).
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    if "__all__" not in globals():
        _load()
    return list(globals())
