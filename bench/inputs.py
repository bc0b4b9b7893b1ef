"""Seeded input generator for the benchmark, independent of ``entrocal``.

Every input is drawn here with plain numpy from the workload seed and
written to disk before any timed pass, so a change to the package's own
simulator or writers cannot change what the program is asked to read.

Binary data: raw log-odds u' ~ Uniform(-10, 10), scaled by 0.5; labels
~ Bernoulli(logistic(u)); estimates logistic(u + e) with e ~ Normal(0,
sigma) log-odds noise. Gaussian data: per-record random SPD covariances
(A A^T + 0.5 I), means ~ Normal(0, 10) and truths drawn from N(mean, C),
so the estimator is consistent and NEES sits near d.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Log-odds noise of the binary inputs; large enough that every bin of the
#: report is populated and ECE is clearly non-zero.
BINARY_NOISE_SIGMA = 1.0


@dataclass(frozen=True)
class BinaryInput:
    probs: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class GaussianInput:
    means: np.ndarray  # (N, d)
    covs: np.ndarray  # (N, d, d)
    truths: np.ndarray  # (N, d)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent PCG64 stream ``stream`` of the workload seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, stream))))


def binary_input(rng: np.random.Generator, n: int) -> BinaryInput:
    u = 0.5 * rng.uniform(-10.0, 10.0, n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-u))).astype(np.int64)
    noisy = u + rng.normal(0.0, BINARY_NOISE_SIGMA, n)
    probs = 1.0 / (1.0 + np.exp(-noisy))
    return BinaryInput(probs=probs, labels=labels)


def gaussian_input(rng: np.random.Generator, n: int, d: int) -> GaussianInput:
    a = rng.normal(0.0, 1.0, (n, d, d))
    covs = a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(d)
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))  # exactly symmetric
    means = rng.normal(0.0, 10.0, (n, d))
    z = rng.normal(0.0, 1.0, (n, d))
    truths = means + np.einsum("nij,nj->ni", np.linalg.cholesky(covs), z)
    return GaussianInput(means=means, covs=covs, truths=truths)


def write_binary_csv(data: BinaryInput, path: Path) -> None:
    """``prob,label`` CSV; 17 significant digits reproduce every float64."""
    rows = "\n".join(f"{p:.17g},{y}" for p, y in zip(data.probs.tolist(), data.labels.tolist()))
    path.write_text("prob,label\n" + rows + "\n", encoding="utf-8")


def write_binary_npz(data: BinaryInput, path: Path) -> None:
    np.savez(path, probs=data.probs, labels=data.labels)


def write_gaussian_json(data: GaussianInput, path: Path) -> None:
    """JSON array of ``{mean, covariance, truth}`` records (floats round-trip)."""
    records = [
        {"mean": m, "covariance": c, "truth": t}
        for m, c, t in zip(data.means.tolist(), data.covs.tolist(), data.truths.tolist())
    ]
    path.write_text(json.dumps(records), encoding="utf-8")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
