import math
from dataclasses import replace

import numpy as np
import pytest

from entrocal import (
    BinSpec,
    SimulationConfig,
    build_report,
    derive_run_seed,
    logistic,
    run_noise_suite,
    simulate,
)
from entrocal.simulation import _ndtri
from ndtri_table import edges, read_table


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------


def test_logistic_values():
    assert logistic(0.0) == 0.5
    assert logistic(5.0) == pytest.approx(0.9933071490757153, abs=1e-15)
    assert logistic(-5.0) == pytest.approx(0.006692850924284856, abs=1e-15)


def test_logistic_complement_symmetry():
    u = np.linspace(-30, 30, 1001)
    np.testing.assert_allclose(logistic(-u), 1.0 - logistic(u), atol=1e-15)


def test_logistic_monotone_and_stable():
    u = np.linspace(-700, 700, 2001)
    p = logistic(u)
    assert np.all(np.diff(p) >= 0.0)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)
    assert logistic(-745.0) >= 0.0


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"logodds_halfwidth": 0.0},
        {"logodds_halfwidth": -1.0},
        {"weight": 0.0},
        {"noise_sigma": -0.5},
        {"logodds_halfwidth": float("nan")},
        {"logodds_halfwidth": float("inf")},
        {"weight": float("nan")},
        {"weight": float("inf")},
        {"noise_mean": float("nan")},
        {"noise_mean": float("inf")},
        {"noise_mean": float("-inf")},
        {"noise_sigma": float("nan")},
        {"noise_sigma": float("inf")},
        {"n": 2.5},
        {"n": float("nan")},
        {"n": "10"},
        {"n": True},
        {"seed": -1},
        {"seed": None},
        {"seed": 1.5},
        {"seed": True},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError) as excinfo:
        SimulationConfig(**{"seed": 1, **kwargs})
    (name, value), = kwargs.items()
    low = {"seed": 0, "n": 1}.get(name)
    if low is not None:
        assert str(excinfo.value) == f"{name} must be an integer >= {low}, got {value!r}"


# ---------------------------------------------------------------------------
# the inverse normal CDF (the port of Cephes ndtri)
# ---------------------------------------------------------------------------


def _bits(x: np.ndarray) -> list:
    return x.view(np.uint64).tolist()


def test_ndtri_matches_scipy_bits_on_seeded_draws():
    from scipy.special import ndtri

    for seed in (1, 2, 3):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        y = np.maximum(rng.random(1_000_000), 2.0 ** -53)  # as simulate feeds it
        assert np.array_equal(_ndtri(y).view(np.uint64), ndtri(y).view(np.uint64)), seed


def test_ndtri_matches_scipy_bits_on_the_edges():
    from scipy.special import ndtri

    y = edges()
    # Both sides of the x = 8 tail switch (y = e^-32), in both tails.
    for t in (y[y < 0.5], 1.0 - y[y > 0.5]):
        x = np.sqrt(-2.0 * np.log(t[(t > 0.0) & (t < 1e-13)]))
        assert x.min() < 8.0 <= x.max()
    assert _bits(_ndtri(y)) == _bits(ndtri(y))


def test_ndtri_matches_the_committed_table():
    # Fixed bits from scipy, so the check does not move with a later scipy.
    y, expected = read_table()
    assert y.size == 1426
    assert _bits(_ndtri(y)) == _bits(expected)


def test_ndtri_at_zero_one_and_outside():
    got = _ndtri(np.array([0.0, -0.0, 1.0, math.nan, -0.5, 1.5, -math.inf, math.inf]))
    assert got[:3].tolist() == [-math.inf, -math.inf, math.inf]
    assert np.isnan(got[3:]).all()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_deterministic():
    cfg = SimulationConfig(seed=99, n=500, noise_sigma=0.5)
    a = simulate(cfg)
    b = simulate(cfg)
    for name in ("true_logodds", "true_probs", "labels", "estimated_probs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_simulate_sigma_zero_estimates_equal_truth():
    sim = simulate(SimulationConfig(seed=7, n=1000, noise_sigma=0.0))
    assert np.array_equal(sim.estimated_probs, sim.true_probs)


def test_simulate_noise_stream_is_appended():
    # The uniform draws for log-odds and labels come first, so runs that
    # differ only in sigma share their truths and labels exactly.
    clean = simulate(SimulationConfig(seed=11, n=800, noise_sigma=0.0))
    noisy = simulate(SimulationConfig(seed=11, n=800, noise_sigma=1.0))
    assert np.array_equal(clean.true_probs, noisy.true_probs)
    assert np.array_equal(clean.labels, noisy.labels)
    assert not np.array_equal(clean.estimated_probs, noisy.estimated_probs)


def test_simulate_default_range():
    sim = simulate(SimulationConfig(seed=3, n=20_000))
    lo, hi = logistic(-5.0), logistic(5.0)
    assert sim.true_probs.min() >= lo
    assert sim.true_probs.max() <= hi
    assert np.array_equal(sim.true_probs, logistic(sim.true_logodds))


def test_simulate_nonzero_noise_mean():
    sim = simulate(SimulationConfig(seed=5, n=4000, noise_mean=1.0, noise_sigma=0.0))
    np.testing.assert_allclose(
        sim.estimated_probs, logistic(sim.true_logodds + 1.0), atol=0
    )


def test_simulate_labels_match_binomial_variance():
    sim = simulate(SimulationConfig(seed=13, n=10_000))
    gap = abs(sim.labels.mean() - sim.true_probs.mean())
    band = 4.0 * math.sqrt(float(np.sum(sim.true_probs * (1 - sim.true_probs)))) / len(sim.labels)
    assert gap <= band


def test_simulate_label_frequency_tracks_truth_locally():
    sim = simulate(SimulationConfig(seed=17, n=50_000))
    sel = sim.true_probs > 0.9
    assert sim.labels[sel].mean() == pytest.approx(sim.true_probs[sel].mean(), abs=0.01)


def test_simulated_dataset_view():
    sim = simulate(SimulationConfig(seed=23, n=100, noise_sigma=2.0))
    data = sim.dataset()
    assert np.array_equal(data.probs, sim.estimated_probs)
    assert np.array_equal(data.labels, sim.labels)


def test_simulated_dataset_rejects_an_array_of_the_wrong_length():
    sim = simulate(SimulationConfig(seed=23, n=100))
    with pytest.raises(ValueError, match="^labels has length 99, expected 100$"):
        replace(sim, labels=sim.labels[:99])


# ---------------------------------------------------------------------------
# Derived streams / suite
# ---------------------------------------------------------------------------


def test_derive_run_seed_deterministic_and_distinct():
    seeds = [derive_run_seed(1234, k) for k in range(10)]
    assert seeds == [derive_run_seed(1234, k) for k in range(10)]
    assert len(set(seeds)) == 10
    assert derive_run_seed(1235, 0) != seeds[0]


def test_run_noise_suite_structure():
    base = SimulationConfig(seed=42, n=400)
    runs = list(run_noise_suite(base, [0.0, 0.5, 2.0], BinSpec(10)))
    assert [r.sigma for r in runs] == [0.0, 0.5, 2.0]
    for k, run in enumerate(runs):
        assert run.config.seed == derive_run_seed(42, k)
        assert run.config.noise_sigma == run.sigma
        assert run.report.n_total == 400
        # Each run is individually replayable from its recorded config.
        again = simulate(run.config)
        assert np.array_equal(again.estimated_probs, run.data.estimated_probs)


def test_run_noise_suite_empty_sigmas():
    with pytest.raises(ValueError):
        run_noise_suite(SimulationConfig(seed=1), [])


# ---------------------------------------------------------------------------
# Statistical behavior of the generator (ensemble checks)
# ---------------------------------------------------------------------------


def test_generator_is_calibrated_at_sigma_zero():
    # Global signed gap has mean 0; check the 100-seed ensemble mean
    # against 4 standard errors.
    values = []
    for seed in range(100):
        report = build_report(simulate(SimulationConfig(seed=seed, n=2000)).dataset())
        values.append(report.esce)
    values = np.asarray(values)
    se = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) <= 4.0 * se


def test_noise_strictly_degrades_calibration_sigma0_vs_2():
    for seed in range(20):
        runs = list(run_noise_suite(SimulationConfig(seed=seed, n=4000), [0.0, 2.0]))
        assert runs[1].report.ecd > runs[0].report.ecd
        assert runs[1].report.ece > runs[0].report.ece


def test_esce_cancellation_at_high_noise():
    # Noise is sign-symmetric in log-odds, so signed gaps mostly cancel:
    # |ESCE| << ECE for the large majority of seeds.
    hits = 0
    for seed in range(50):
        report = build_report(
            simulate(SimulationConfig(seed=seed, n=10_000, noise_sigma=2.0)).dataset()
        )
        hits += abs(report.esce) < 0.1 * report.ece
    # Measured exceedance rate is ~6%; allow 3 binomial sigmas of slack.
    assert hits >= 42


def test_bin_gap_antisymmetry_over_seeds():
    # Mean signed gap of bin m mirrors bin M+1-m (sign flipped) within
    # sampling error, because the generator is symmetric around p = 0.5.
    per_bin = np.zeros((60, 10))
    for seed in range(60):
        report = build_report(
            simulate(SimulationConfig(seed=seed, n=4000, noise_sigma=0.5)).dataset()
        )
        per_bin[seed] = [b.esce_bin if b.populated else 0.0 for b in report.bins]
    mean = per_bin.mean(axis=0)
    se = per_bin.std(axis=0, ddof=1) / math.sqrt(per_bin.shape[0])
    for m in range(5):
        combined = math.hypot(se[m], se[9 - m])
        assert abs(mean[m] + mean[9 - m]) <= 5.0 * combined
