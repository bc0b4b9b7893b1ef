"""Synthetic generator of miscalibrated binary predictions.

Protocol for one dataset of size n:

1. Draw raw log-odds u' ~ Uniform(-h, h) with half-width h (default 10).
2. Scale by the sharpness weight: u = W * u' (default W = 0.5, which piles
   most probabilities into the outer bins).
3. True probability via the standard logistic: p = 1 / (1 + exp(-u)).
4. Label L ~ Bernoulli(p).
5. Per-sample noise e ~ Normal(mu, sigma^2) added in log-odds space; the
   estimated probability is logistic(u + e). With sigma = 0 (and mu = 0)
   the estimates equal the true probabilities exactly and the dataset is
   well calibrated by construction.

Reproducibility contract
------------------------
The uniform source is numpy's PCG64, seeded as
``PCG64(SeedSequence(seed))``, consumed only through ``Generator.random``
(53-bit uniforms in [0, 1)). Draw order is fixed: n uniforms for step 1,
n uniforms for the Bernoulli compares in step 4 (L = 1 iff the uniform is
strictly below p), and, only when sigma > 0, n uniforms mapped through the
inverse normal CDF (``scipy.special.ndtri``) for step 5; a uniform equal to
0.0 is replaced by 2^-53 before the inverse CDF. Runs inside a suite use
one derived stream each: run k of base seed s is seeded with the first
64-bit word of ``SeedSequence((s, k))`` (see :func:`derive_run_seed`).
Identical seeds therefore give bit-identical datasets, across platforms.

scipy is imported inside :func:`simulate`, and only when sigma > 0, so
``import entrocal`` and every command that does not simulate noise start
without it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .binning import BinSpec, CalibrationReport, build_report
from .metrics import DEFAULT_CLIP, ClipPolicy, Dataset

__all__ = [
    "SimulationConfig",
    "SimulatedDataset",
    "SigmaRun",
    "logistic",
    "simulate",
    "derive_run_seed",
    "run_noise_suite",
]


def logistic(u):
    """Standard logistic 1 / (1 + exp(-u)), stable for large |u|.

    Accepts a scalar or array; strictly monotone, with
    logistic(-u) = 1 - logistic(u) up to rounding.
    """
    arr = np.asarray(u, dtype=np.float64)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    eu = np.exp(arr[~pos])
    out[~pos] = eu / (1.0 + eu)
    return float(out) if np.isscalar(u) else out


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimulationConfig:
    """Generator parameters; defaults match the bundled noise study."""

    seed: int
    n: int = 10_000
    logodds_halfwidth: float = 10.0
    weight: float = 0.5
    noise_mean: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not _is_integer(self.n) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        for name in ("logodds_halfwidth", "weight", "noise_mean", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.logodds_halfwidth > 0:
            raise ValueError(f"logodds_halfwidth must be > 0, got {self.logodds_halfwidth}")
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True, eq=False)
class SimulatedDataset:
    """Arrays produced by one generator run, plus the config that made them."""

    config: SimulationConfig
    true_logodds: np.ndarray
    true_probs: np.ndarray
    labels: np.ndarray
    estimated_probs: np.ndarray

    def __post_init__(self) -> None:
        n = self.config.n
        for name in ("true_logodds", "true_probs", "labels", "estimated_probs"):
            arr = getattr(self, name)
            if arr.size != n:
                raise ValueError(f"{name} has length {arr.size}, expected {n}")
            arr.setflags(write=False)
        for name in ("true_probs", "estimated_probs"):
            arr = getattr(self, name)
            if arr.min() <= 0.0 or arr.max() >= 1.0:
                raise ValueError(
                    f"{name} left (0, 1); log-odds magnitudes too large for float64"
                )

    def dataset(self) -> Dataset:
        """The (estimated probability, label) view the metrics consume."""
        return Dataset(self.estimated_probs, self.labels)


def simulate(config: SimulationConfig) -> SimulatedDataset:
    """Run the generator; fully deterministic given ``config.seed``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    n = config.n
    # Log-odds that overflow to +-inf give true probabilities of exactly 0 or 1
    # (and possibly NaN estimates from inf - inf), which SimulatedDataset rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        u = config.weight * (config.logodds_halfwidth * (2.0 * rng.random(n) - 1.0))
        true_probs = logistic(u)
        labels = (rng.random(n) < true_probs).astype(np.int64)
        if config.noise_sigma > 0:
            from scipy.special import ndtri  # about 0.3 s to import; only noisy runs need it

            v = np.maximum(rng.random(n), 2.0 ** -53)
            eps = config.noise_mean + config.noise_sigma * ndtri(v)
        else:
            eps = np.full(n, config.noise_mean)
        estimated = logistic(u + eps)
    return SimulatedDataset(
        config=config,
        true_logodds=u,
        true_probs=true_probs,
        labels=labels,
        estimated_probs=estimated,
    )


def derive_run_seed(base_seed: int, index: int) -> int:
    """Deterministic child seed for run ``index`` of a suite."""
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True, eq=False)
class SigmaRun:
    """One noise level of a suite: its sigma, derived config, data, report."""

    sigma: float
    config: SimulationConfig
    data: SimulatedDataset
    report: CalibrationReport


def run_noise_suite(
    base: SimulationConfig,
    sigmas: Sequence[float],
    spec: BinSpec = BinSpec(),
    policy: ClipPolicy = DEFAULT_CLIP,
) -> list[SigmaRun]:
    """One simulate + report per noise level, with derived per-run seeds.

    Each run owns its own RNG stream (``derive_run_seed(base.seed, k)`` for
    the k-th sigma), so runs are independent and individually replayable.
    """
    if len(sigmas) < 1:
        raise ValueError("sigma list must be non-empty")
    runs: list[SigmaRun] = []
    for k, sigma in enumerate(sigmas):
        cfg = replace(base, noise_sigma=float(sigma), seed=derive_run_seed(base.seed, k))
        data = simulate(cfg)
        report = build_report(data.dataset(), spec, policy)
        runs.append(SigmaRun(sigma=float(sigma), config=cfg, data=data, report=report))
    return runs
