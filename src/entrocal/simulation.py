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
inverse normal CDF for step 5; a uniform equal to 0.0 is replaced by 2^-53
before the inverse CDF. That inverse CDF is S. L. Moshier's Cephes ``ndtri``
(*Methods and Programs for Mathematical Functions*, 1989) in numpy, bit-identical
to ``scipy.special.ndtri``, which ships the same algorithm. Runs inside a suite
use one derived stream each: run k of base seed s is seeded with the first
64-bit word of ``SeedSequence((s, k))`` (see :func:`derive_run_seed`).
Identical seeds therefore give bit-identical datasets, across platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

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


# Cephes ndtri's coefficients, highest power first. P0/Q0 approximate the
# centre, e^-2 < y < 1 - e^-2; P1/Q1 and P2/Q2 the tails in z = 1/x,
# x = sqrt(-2 ln y), below and from x = 8 (y = e^-32). Cephes evaluates Q*
# with p1evl, an implied leading 1; here the 1 is written out, and x * 1.0 is
# exact, so polevl gives the same bits.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    """Cephes ``polevl``: Horner's rule, one multiply and one add per step."""
    ans = x * coef[0] + coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _rational(v: np.ndarray, p, q) -> np.ndarray:
    """v * P(v) / Q(v), in Cephes' order of operations."""
    return v * _polevl(v, p) / _polevl(v, q)


def _log(x: np.ndarray) -> np.ndarray:
    # The C library's log, as Cephes calls it. np.log differs from it by 1-3
    # ulps often enough that about 6 in 10^5 draws would lose scipy's bits.
    return np.fromiter(map(math.log, memoryview(x)), np.float64, x.size)


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF of a float64 array, Cephes ``ndtri``.

    Gives ``scipy.special.ndtri``'s bits on (0, 1); -inf at 0, +inf at 1 and
    nan at nan or outside [0, 1].
    """
    out = np.full(y.shape, np.nan)
    out[y == 0.0] = -np.inf
    out[y == 1.0] = np.inf
    upper = y > 1.0 - _EXPM2
    t = np.where(upper, 1.0 - y, y)
    central = t > _EXPM2
    c = y[central] - 0.5
    c2 = c * c
    out[central] = (c + c * _rational(c2, _P0, _Q0)) * _S2PI
    tail = (t > 0.0) & (t <= _EXPM2)
    x = np.sqrt(-2.0 * _log(t[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    x1 = np.empty_like(x)
    near = x < 8.0
    for part, p, q in ((near, _P1, _Q1), (~near, _P2, _Q2)):
        x1[part] = _rational(z[part], p, q)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


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
            v = np.maximum(rng.random(n), 2.0 ** -53)
            eps = config.noise_mean + config.noise_sigma * _ndtri(v)
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


def run_noise_suite(base: SimulationConfig, sigmas: Sequence[float], spec: BinSpec = BinSpec(),
                    policy: ClipPolicy = DEFAULT_CLIP) -> Iterator[SigmaRun]:
    """One simulate + report per noise level, with derived per-run seeds.

    Each run owns its own RNG stream (``derive_run_seed(base.seed, k)`` for
    the k-th sigma), so runs are independent and individually replayable.
    An iterator from 0.4.0: every config is checked here; each run is simulated
    when reached (a ``ValueError`` if its log-odds overflow), and not held once
    yielded.
    """
    if len(sigmas) < 1:
        raise ValueError("sigma list must be non-empty")

    def run(cfg):
        data = simulate(cfg)
        return SigmaRun(cfg.noise_sigma, cfg, data, build_report(data.dataset(), spec, policy))

    return map(run, [replace(base, noise_sigma=float(sigma), seed=derive_run_seed(base.seed, k))
                     for k, sigma in enumerate(sigmas)])
