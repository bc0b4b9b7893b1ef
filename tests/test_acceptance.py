"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also asserts, so the pytest verdict matches the printed
line. Runtime budgets are asserted on process CPU time so external machine
load cannot flake them.

Criterion 6 is the bundled noise study (log-odds noise, W = 0.5, h = 10,
n = 10^4, M = 10, epsilon = 1e-4) over seeds 0-99 at sigma = 0, 0.5, 2:

- 6a and 6d read the ensemble ``run_noise_suite`` builds, one derived seed
  per noise level.
- 6b compares the levels seed by seed, so it builds a paired ensemble:
  ``simulate`` with one seed at every sigma. The noise stream is drawn last,
  so those runs share their truths and labels and differ only in the noise.
  ECD is monotone on 100/100 seeds. ECE is monotone on 76/100 (82/100 with
  ``derive_run_seed(s, 1)`` as the shared seed, 83/100 on the unpaired suite
  ensemble), short of the 99/100 the criterion asks, so 6b fails on its ECE
  clause alone. From sigma = 0 to 0.5 the expected ECE at n = 10^4 rises by
  only 0.0022 (0.0079 to 0.0101, mostly the small-sample bias of binned ECE;
  the population ECE goes 0 to 0.0062), while the paired difference has a
  per-seed standard deviation of 0.0025-0.0029, so only about 80% of seeds
  can be expected to be monotone. The documents do not say whether
  "monotone" is meant per seed or in expectation; the threshold stays.
- 6c's targets are the study's expected ECD and expected ECE at n = 10^4,
  computed by ``noise_quadrature``, which integrates the documented
  generator without importing the package. The band is +/-25% around the
  100-seed median. The four targets pinned before (ECD 1.2901 and 4.2405,
  ECE 0.1702 and 0.4042 at sigma = 0.5 and 2) are 5x to 96x the study's
  values, were never reproduced, and have no known source; 6c prints them
  next to the derived ones.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from entrocal import (
    BinSpec,
    Dataset,
    GaussianPrediction,
    SimulationConfig,
    build_report,
    ecd_binary,
    ecd_discrete,
    ecd_gaussian,
    gaussian_log_density,
    gaussian_negative_entropy,
    load_csv,
    mahalanobis_sq,
    nees,
    negative_entropy,
    nll,
    report_from_json,
    run_noise_suite,
    simulate,
    write_dataset_csv,
)
from entrocal._accumulate import pairwise_mean
from entrocal.cli import main as cli_main
from noise_quadrature import noise_study_moments

DATA_DIR = Path(__file__).parent / "data"


def report_line(num: str, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def random_dataset(rng, n):
    return Dataset(rng.random(n), rng.integers(0, 2, n))


# ---------------------------------------------------------------------------
# 1. Oracle equivalence: binary formula vs discrete ECD with K=2
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.process_time()
    worst = 0.0
    for _ in range(1000):
        probs = rng.random(100)
        labels = rng.integers(0, 2, 100)
        binary = ecd_binary(Dataset(probs, labels))
        discrete = ecd_discrete(np.column_stack([1.0 - probs, probs]), labels)
        worst = max(worst, abs(binary - discrete))
    elapsed = time.process_time() - t0
    report_line(
        "1", "oracle equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst |diff| {worst:.3e}, {elapsed:.2f}s cpu",
    )


# ---------------------------------------------------------------------------
# 2. Gaussian identity: ECD == (NEES - d)/2, generic == closed form
# ---------------------------------------------------------------------------


def test_criterion_2_gaussian_identity():
    rng = np.random.default_rng(1002)
    t0 = time.process_time()
    worst_identity = 0.0
    worst_generic = 0.0
    for d in (1, 2, 3):
        records = []
        for _ in range(500):
            a = rng.normal(size=(d, d))
            cov = a @ a.T + (0.05 + rng.random()) * np.eye(d)
            records.append((rng.normal(size=d), cov, rng.normal(size=d)))
        mean, cov, truth = map(np.array, zip(*records))
        pred = GaussianPrediction(mean=mean, covariance=cov, truth=truth)
        generic = gaussian_negative_entropy(cov) - gaussian_log_density(pred)
        closed = 0.5 * mahalanobis_sq(pred) - d / 2.0
        worst_generic = max(worst_generic, float(np.abs(generic - closed).max()))
        worst_identity = max(
            worst_identity, abs(ecd_gaussian(pred) - (nees(pred) - d) / 2.0)
        )
    elapsed = time.process_time() - t0
    report_line(
        "2", "gaussian identity",
        worst_identity <= 1e-12 and worst_generic <= 1e-10 and elapsed < 1.0,
        f"identity {worst_identity:.3e}, generic {worst_generic:.3e}, {elapsed:.2f}s cpu",
    )


# ---------------------------------------------------------------------------
# 3. Decomposition: ecd == nll + mean negative entropy
# ---------------------------------------------------------------------------


def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 200))
        data = random_dataset(rng, n)
        neg_ent = pairwise_mean(negative_entropy(np.column_stack([1.0 - data.probs, data.probs])))
        worst = max(worst, abs(ecd_binary(data) - (nll(data) + neg_ent)))
    report_line("3", "decomposition identity", worst <= 1e-12, f"worst |diff| {worst:.3e}")


# ---------------------------------------------------------------------------
# 4. Per-datum lower bound
# ---------------------------------------------------------------------------


def test_criterion_4_lower_bound():
    grid = np.linspace(1e-4, 1.0 - 1e-4, 2_000_001)
    log_odds = np.log(grid) - np.log(1.0 - grid)
    minimum = min(
        float(np.min((grid - 0.0) * log_odds)),
        float(np.min((grid - 1.0) * log_odds)),
    )
    report_line(
        "4", "per-datum lower bound",
        -0.2790 <= minimum <= -0.2780,
        f"min {minimum:.6f}",
    )


# ---------------------------------------------------------------------------
# 5. ECD bin invariance (and ECE bin sensitivity)
# ---------------------------------------------------------------------------


def test_criterion_5_bin_invariance():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        data = random_dataset(rng, int(rng.integers(1, 500)))
        global_mean = ecd_binary(data)
        for m in (5, 10, 20):
            report = build_report(data, BinSpec(m))
            worst = max(worst, abs(report.ecd - global_mean))
    fixture = simulate(SimulationConfig(seed=2, n=2000, noise_sigma=2.0)).dataset()
    ece_gap = abs(build_report(fixture, BinSpec(5)).ece - build_report(fixture, BinSpec(20)).ece)
    report_line(
        "5", "ECD bin invariance",
        worst <= 1e-12 and ece_gap > 1e-3,
        f"worst ECD drift {worst:.3e}, ECE gap across M {ece_gap:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. Noise-study statistical bands (100-seed ensemble)
# ---------------------------------------------------------------------------

SIGMAS = (0.0, 0.5, 2.0)
N_SEEDS = 100


def _ensemble(reports):
    """Per-sigma arrays of ECE, ESCE and ECD from (sigma, report) pairs."""
    metrics = {s: {"ece": [], "esce": [], "ecd": []} for s in SIGMAS}
    for sigma, report in reports:
        for key, values in metrics[sigma].items():
            values.append(getattr(report, key))
    return {
        s: {k: np.asarray(v) for k, v in per.items()} for s, per in metrics.items()
    }


@pytest.fixture(scope="module")
def noise_ensemble():
    t0 = time.process_time()
    arrays = _ensemble(
        (run.sigma, run.report)
        for seed in range(N_SEEDS)
        for run in run_noise_suite(SimulationConfig(seed=seed, n=10_000), SIGMAS, BinSpec(10))
    )
    return arrays, time.process_time() - t0


@pytest.fixture(scope="module")
def paired_noise_ensemble():
    # One seed for every sigma: the runs share truths and labels.
    return _ensemble(
        (
            sigma,
            build_report(
                simulate(SimulationConfig(seed=seed, n=10_000, noise_sigma=sigma)).dataset(),
                BinSpec(10),
            ),
        )
        for seed in range(N_SEEDS)
        for sigma in SIGMAS
    )


def test_criterion_6a_clean_noise_level_bands(noise_ensemble):
    ens, elapsed = noise_ensemble
    clean = ens[0.0]
    hits = int(
        np.sum(
            (clean["ece"] <= 0.03)
            & (np.abs(clean["esce"]) <= 0.015)
            & (np.abs(clean["ecd"]) <= 0.05)
        )
    )
    report_line(
        "6a", "clean-generator bands",
        hits >= 95 and elapsed < 60.0,
        f"{hits}/100 seeds in band, ensemble built in {elapsed:.1f}s cpu",
    )


def test_criterion_6b_monotone_degradation(paired_noise_ensemble):
    ens = paired_noise_ensemble

    def monotone(key):
        return int(
            np.sum((ens[2.0][key] > ens[0.5][key]) & (ens[0.5][key] > ens[0.0][key]))
        )

    mono_ecd, mono_ece = monotone("ecd"), monotone("ece")
    report_line(
        "6b", "monotone degradation",
        mono_ecd >= 99 and mono_ece >= 99,
        f"paired draws: ECD monotone {mono_ecd}/100, ECE monotone {mono_ece}/100",
    )


# Pinned before the targets were derived; unreproduced, printed for reference.
OLD_PINNED_TARGETS = {
    (0.5, "ecd"): 1.2901,
    (2.0, "ecd"): 4.2405,
    (0.5, "ece"): 0.1702,
    (2.0, "ece"): 0.4042,
}


def test_criterion_6c_magnitude_bands(noise_ensemble):
    ens, _ = noise_ensemble
    targets = {}
    for sigma in (0.5, 2.0):
        moments = noise_study_moments(sigma)
        targets[sigma, "ecd"] = moments.ecd
        targets[sigma, "ece"] = moments.expected_ece
    details = []
    ok = True
    for (sigma, key), old in OLD_PINNED_TARGETS.items():
        target = targets[sigma, key]
        med = float(np.median(ens[sigma][key]))
        inside = 0.75 * target <= med <= 1.25 * target
        ok &= inside
        details.append(
            f"{key}(sigma={sigma:g}) median {med:.4f} vs target {target:.4f}"
            f" (old pinned {old:.4f})"
        )
    report_line("6c", "magnitude bands", ok, "; ".join(details))


def test_criterion_6d_signed_cancellation(noise_ensemble):
    ens, _ = noise_ensemble
    noisy = ens[2.0]
    hits = int(np.sum(np.abs(noisy["esce"]) < 0.1 * noisy["ece"]))
    report_line("6d", "signed-gap cancellation", hits >= 90, f"{hits}/100 seeds")


# ---------------------------------------------------------------------------
# 7. Calibrated-sampling consistency
# ---------------------------------------------------------------------------


def test_criterion_7_calibrated_sampling():
    t0 = time.process_time()
    ok = True
    details = []
    n = 100_000
    for d in (1, 2):
        rng = np.random.default_rng(1700 + d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.5 * np.eye(d)
        chol = np.linalg.cholesky(cov)
        means = rng.normal(size=(n, d))
        truths = means + rng.normal(size=(n, d)) @ chol.T
        pred = GaussianPrediction(mean=means, covariance=np.broadcast_to(cov, (n, d, d)),
                                  truth=truths)
        nees_val = nees(pred)
        ecd_val = ecd_gaussian(pred)
        nees_tol = 5.0 * math.sqrt(2.0 * d / n)
        ecd_tol = 2.5 * math.sqrt(2.0 * d / n)
        ok &= abs(nees_val - d) <= nees_tol and abs(ecd_val) <= ecd_tol
        details.append(
            f"d={d}: NEES {nees_val:.4f} (tol {nees_tol:.4f}), ECD {ecd_val:.5f} "
            f"(tol {ecd_tol:.4f})"
        )
    elapsed = time.process_time() - t0
    ok &= elapsed < 5.0
    report_line("7", "calibrated sampling", ok, "; ".join(details) + f"; {elapsed:.1f}s cpu")


# ---------------------------------------------------------------------------
# 8. Round trips: CSV and CLI byte-identity
# ---------------------------------------------------------------------------


def test_criterion_8_round_trips(tmp_path, capsys):
    sim = simulate(SimulationConfig(seed=808, n=10_000, noise_sigma=0.5))
    in_memory = build_report(sim.dataset())
    csv_path = tmp_path / "sim.csv"
    write_dataset_csv(sim.dataset(), csv_path)
    reloaded = build_report(load_csv(csv_path))
    csv_ok = reloaded == in_memory  # dataclass equality: bit-for-bit floats

    args = ["suite", "--sigmas", "0,0.5,2", "--seed", "808", "--n", "2000"]
    dirs = [tmp_path / "one", tmp_path / "two"]
    for out_dir in dirs:
        assert cli_main(args + ["--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    trees = [
        {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }
        for root in dirs
    ]
    cli_ok = trees[0] == trees[1] and len(trees[0]) == 16
    report_line(
        "8", "round trips",
        csv_ok and cli_ok,
        f"csv report equal: {csv_ok}, cli reruns byte-identical: {cli_ok}",
    )


# ---------------------------------------------------------------------------
# 9. Frozen sample fixture (stands in for external-model workflows)
# ---------------------------------------------------------------------------


def test_criterion_9_frozen_sample_fixture():
    data = load_csv(DATA_DIR / "sample_predictions.csv")
    frozen = report_from_json((DATA_DIR / "sample_report.json").read_text())
    rebuilt = build_report(data)
    ok = len(data) == 200 and rebuilt.n_total == frozen.n_total
    worst = 0.0
    for field in ("ece", "esce", "ecd", "brier", "nll"):
        worst = max(worst, abs(getattr(rebuilt, field) - getattr(frozen, field)))
    for got, want in zip(rebuilt.bins, frozen.bins):
        ok &= (got.index, got.count, got.populated) == (want.index, want.count, want.populated)
        for field in ("conf", "frac_pos", "ece_bin", "esce_bin", "ecd_bin"):
            g, w = getattr(got, field), getattr(want, field)
            if (g is None) != (w is None):
                ok = False
            elif g is not None:
                worst = max(worst, abs(g - w))
    # Frozen at first computation; 1e-12 absorbs libm variation across
    # platforms (same-platform reruns reproduce the bits exactly).
    ok &= worst <= 1e-12
    report_line("9", "frozen sample fixture", ok, f"worst |drift| {worst:.3e}")
