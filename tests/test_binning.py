import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrocal.binning
from entrocal import (
    BinSpec,
    BinStats,
    Dataset,
    bin_stats,
    build_report,
    ecd_binary,
    reliability_points,
    render_histogram_svg,
)
from entrocal._accumulate import pairwise_mean, pairwise_sum
from entrocal.binning import ECD_CONSISTENCY_TOL, bin_indices
from entrocal.metrics import ecd_sample_scores
from entrocal.simulation import SimulationConfig, simulate

probs_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
labels_st = st.integers(min_value=0, max_value=1)
dataset_st = st.lists(st.tuples(probs_st, labels_st), min_size=1, max_size=80).map(
    lambda pairs: Dataset([p for p, _ in pairs], [x for _, x in pairs])
)


def test_bin_spec_validation():
    for num_bins in (0, float("nan"), 2.5, 10.0, "10", True, False):
        with pytest.raises(ValueError, match="num_bins must be an integer >= 1, got "):
            BinSpec(num_bins)
    assert BinSpec(1).interior_edges.size == 0


@pytest.mark.parametrize("index", [-1, 10])
def test_bin_interval_rejects_an_index_outside_the_bins(index):
    with pytest.raises(ValueError, match=f"^bin index {index} out of range for M=10$"):
        BinSpec(10).interval(index)


@pytest.mark.parametrize(
    "prob,expected",
    [(0.0, 0), (0.05, 0), (0.1, 1), (0.19999999, 1), (0.6, 6), (0.95, 9), (1.0, 9)],
)
def test_assign_bin_ten_bins(prob, expected):
    # Bin assignment of one score is bin_indices over a one-element array.
    assert bin_indices(np.array([prob]), BinSpec(10)).tolist() == [expected]


@settings(max_examples=200)
@given(probs=st.lists(probs_st, min_size=1, max_size=20),
       num_bins=st.integers(min_value=1, max_value=30))
def test_assign_bin_partition(probs, num_bins):
    spec = BinSpec(num_bins)
    for prob, idx in zip(probs, bin_indices(np.array(probs), spec).tolist()):
        lo, hi = spec.interval(idx)
        assert 0 <= idx < num_bins
        assert lo <= prob
        assert prob < hi or (idx == num_bins - 1 and prob <= 1.0)


def test_bin_stats_always_correct_mid_confidence():
    # A model that always says 0.6 and is always right is badly calibrated.
    data = Dataset([0.6] * 50, [1] * 50)
    stats = bin_stats(data)
    populated = [b for b in stats if b.populated]
    assert len(populated) == 1
    b = populated[0]
    assert b.index == 6
    assert b.conf == pytest.approx(0.6, abs=1e-12)
    assert b.frac_pos == 1.0
    assert b.ece_bin == pytest.approx(0.4, abs=1e-12)
    assert b.esce_bin == pytest.approx(0.4, abs=1e-12)


def test_bin_stats_perfectly_calibrated_bin():
    data = Dataset([0.25] * 4, [1, 0, 0, 0])
    b = [s for s in bin_stats(data) if s.populated][0]
    assert b.ece_bin == pytest.approx(0.0, abs=1e-15)
    assert b.esce_bin == pytest.approx(0.0, abs=1e-15)


def test_bin_stats_two_records_frozen():
    data = Dataset([0.9, 0.9], [0, 1])
    b = bin_stats(data)[9]
    assert b.count == 2
    assert b.conf == pytest.approx(0.9, abs=1e-15)
    assert b.frac_pos == 0.5
    assert b.esce_bin == pytest.approx(-0.4, abs=1e-12)
    assert b.ecd_bin == pytest.approx(0.8788898309344879, abs=1e-12)


def test_bin_stats_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        bin_stats(Dataset([], []))


def test_bin_stats_empty_bins_flagged():
    stats = bin_stats(Dataset([0.95], [1]))
    for b in stats[:9]:
        assert not b.populated
        assert b.count == 0
        assert b.conf is None and b.frac_pos is None
        assert b.ece_bin is None and b.esce_bin is None and b.ecd_bin is None


def test_ece_esce_cancellation():
    # Two equal-count bins with signed gaps +0.125 and -0.125 (exact floats).
    probs = [0.125] * 100 + [0.375] * 100
    labels = [1] * 25 + [0] * 75 + [1] * 25 + [0] * 75
    report = build_report(Dataset(probs, labels))
    assert report.ece == pytest.approx(0.125, abs=1e-15)
    assert report.esce == pytest.approx(0.0, abs=1e-15)


def test_ece_perfectly_calibrated_zero():
    assert build_report(Dataset([0.25] * 4, [1, 0, 0, 0])).ece == pytest.approx(0.0, abs=1e-15)


def test_esce_sign_coherence_all_over_confident():
    probs = [0.95] * 10 + [0.85] * 10
    labels = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0] * 2
    report = build_report(Dataset(probs, labels))
    assert report.esce == pytest.approx(-report.ece, abs=1e-15)


@settings(max_examples=100)
@given(data=dataset_st)
def test_partition_and_sign_coherence(data):
    stats = bin_stats(data)
    assert sum(b.count for b in stats) == len(data)
    for b in stats:
        if b.populated:
            lo, hi = BinSpec(10).interval(b.index)
            assert lo - 1e-12 <= b.conf <= (1.0 if b.index == 9 else hi) + 1e-12
            assert b.ece_bin == abs(b.esce_bin)


@settings(max_examples=100)
@given(data=dataset_st)
def test_ece_esce_bounds(data):
    report = build_report(data)
    e, s = report.ece, report.esce
    assert -1.0 <= s <= 1.0
    assert abs(s) <= e <= 1.0


@settings(max_examples=100)
@given(data=dataset_st)
def test_conf_monotone_across_bins(data):
    confs = [b.conf for b in bin_stats(data) if b.populated]
    for lo, hi in zip(confs, confs[1:]):
        assert lo <= hi + 1e-12


@settings(max_examples=60, deadline=None)
@given(data=dataset_st, num_bins=st.sampled_from([1, 5, 10, 20]))
def test_report_ecd_bin_invariance(data, num_bins):
    report = build_report(data, BinSpec(num_bins))
    assert report.ecd == pytest.approx(ecd_binary(data), abs=ECD_CONSISTENCY_TOL)


def test_report_ecd_identical_across_bin_counts():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 400))
        data = Dataset(rng.random(n), rng.integers(0, 2, n))
        values = [build_report(data, BinSpec(m)).ecd for m in (5, 10, 20)]
        assert max(values) - min(values) <= 1e-12


def test_ece_is_bin_count_sensitive():
    # Fixed regression fixture: a noisy simulated dataset where the ECE
    # (unlike ECD) moves by more than 1e-3 between 5 and 20 bins.
    data = simulate(SimulationConfig(seed=2, n=2000, noise_sigma=2.0)).dataset()
    ece5 = build_report(data, BinSpec(5)).ece
    ece20 = build_report(data, BinSpec(20)).ece
    assert abs(ece5 - ece20) > 1e-3


def test_report_fields_consistent():
    data = Dataset([0.1, 0.4, 0.9, 0.9], [0, 1, 1, 1])
    report = build_report(data)
    assert report.n_total == 4
    assert report.num_bins == 10
    assert sum(b.count for b in report.bins) == 4
    assert report.ece >= abs(report.esce)
    assert report.bins == tuple(bin_stats(data))
    populated = [b for b in report.bins if b.populated]
    assert report.ece == pairwise_sum([b.count * b.ece_bin for b in populated]) / 4
    assert report.esce == pairwise_sum([b.count * b.esce_bin for b in populated]) / 4


def test_reliability_points():
    data = Dataset([0.6] * 5 + [0.95] * 5, [1] * 5 + [1, 1, 1, 0, 0])
    points = reliability_points(bin_stats(data))
    assert len(points) == 2
    (conf1, frac1, n1), (conf2, frac2, n2) = points
    assert (conf1, frac1, n1) == (pytest.approx(0.6), 1.0, 5)
    assert (conf2, frac2, n2) == (pytest.approx(0.95), pytest.approx(0.6), 5)


def test_reliability_points_empty_bins_omitted():
    points = reliability_points(bin_stats(Dataset([0.6], [1])))
    assert len(points) == 1


def test_bin_indices_vectorized_matches_scalar():
    rng = np.random.default_rng(3)
    probs = rng.random(500)
    spec = BinSpec(7)
    idx = bin_indices(probs, spec)
    for p, i in zip(probs, idx):
        # The first bin whose upper edge lies above p; 1.0 would go to the last.
        assert i == next(m for m in range(7) if p < (m + 1) / 7)


# Every M from 1 to 64, and each side of the uint8, uint16 and uint32 limits.
ORACLE_BIN_COUNTS = [*range(1, 65), 255, 256, 257, 1000, 4096, 65535, 65536, 65537]


@pytest.mark.parametrize("num_bins", ORACLE_BIN_COUNTS)
def test_bin_indices_match_a_binary_search(num_bins):
    # Every edge fl(k/M) with both float neighbours, the extremes of [0, 1]
    # and seeded uniforms, against numpy's binary search over the same edges.
    spec = BinSpec(num_bins)
    edges = np.arange(1, num_bins) / num_bins
    probs = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        [0.0, 5e-324, np.nextafter(1.0, 0.0), 1.0],
        np.random.default_rng(num_bins).random(10**5),
    ])
    idx = bin_indices(probs, spec)
    assert idx.dtype == np.min_scalar_type(num_bins)
    np.testing.assert_array_equal(idx, np.searchsorted(edges, probs, side="right"))
    np.testing.assert_array_equal(bin_indices(probs.tolist(), spec), idx)


def test_bin_indices_memory_stays_near_its_result():
    # The index is built in slices: its temporaries stay far below the 8 MB
    # of one intp per row.
    probs = np.random.default_rng(11).random(10**6)
    tracemalloc.start()
    try:
        idx = bin_indices(probs, BinSpec(1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= idx.nbytes + 2**20


def _reference_bin_stats(data, spec):
    """The original grouping: a binary search, then one full mask pass per bin."""
    idx = np.searchsorted(np.arange(1, spec.num_bins) / spec.num_bins, data.probs, side="right")
    scores = ecd_sample_scores(data)
    out = []
    for m in range(spec.num_bins):
        members = np.nonzero(idx == m)[0]
        if members.size == 0:
            out.append(BinStats(index=m, count=0, populated=False))
            continue
        conf = pairwise_mean(data.probs[members])
        frac = pairwise_mean(data.labels[members])
        out.append(BinStats(m, int(members.size), True, conf, frac, abs(frac - conf),
                            frac - conf, pairwise_mean(scores[members])))
    return out


def _bits(stats):
    """Each field of each bin, with every float as its exact bit pattern."""
    return [
        [(type(v).__name__, v.hex() if isinstance(v, float) else v) for v in astuple(b)]
        for b in stats
    ]


def _label_sets(probs, num_bins, rng):
    """Random labels, all 0, all 1, and whole bins alternately all 0 and all 1."""
    parity = np.searchsorted(np.arange(1, num_bins) / num_bins, probs, side="right") % 2
    n = probs.size
    return [rng.integers(0, 2, n), np.zeros(n, np.int64), np.ones(n, np.int64), parity]


@pytest.mark.parametrize("num_bins", [1, 2, 10, 255, 256, 257, 1000])
def test_bin_stats_matches_mask_loop(num_bins):
    rng = np.random.default_rng(num_bins)
    spec = BinSpec(num_bins)
    for n in (1, 2, 37, 5000):
        probs = rng.random(n)
        for labels in _label_sets(probs, num_bins, rng):
            data = Dataset(probs, labels)
            assert _bits(bin_stats(data, spec)) == _bits(_reference_bin_stats(data, spec))


@pytest.mark.parametrize("num_bins", [1, 3, 7, 10, 256, 1000])
def test_bin_stats_matches_mask_loop_on_edges(num_bins):
    # Probabilities exactly 0, 1 and on every edge m/M, shuffled; the short
    # prefixes (n = 1 and 3) leave most bins empty.
    rng = np.random.default_rng(7)
    edges = np.arange(num_bins + 1) / num_bins
    probs = rng.permutation(np.concatenate([edges, edges, [0.0, 1.0]]))
    spec = BinSpec(num_bins)
    for labels in _label_sets(probs, num_bins, rng):
        for n in (1, 3, probs.size):
            data = Dataset(probs[:n], labels[:n])
            assert _bits(bin_stats(data, spec)) == _bits(_reference_bin_stats(data, spec))


def test_histogram_counts_match_report():
    rng = np.random.default_rng(5)
    data = Dataset(rng.random(2000) ** 3, rng.integers(0, 2, 2000))
    for num_bins in (1, 10, 37):
        svg = render_histogram_svg(data, num_bins)
        counts = [int(c) for c in re.findall(r'data-count="(\d+)"', svg)]
        assert counts == [b.count for b in build_report(data, BinSpec(num_bins)).bins]


def test_build_report_scores_each_datum_once(monkeypatch):
    calls = []
    real = entrocal.binning.ecd_sample_scores

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(entrocal.binning, "ecd_sample_scores", counting)
    build_report(Dataset([0.1, 0.5, 0.9], [0, 1, 1]), BinSpec(4))
    assert len(calls) == 1


def test_bin_stats_checks_ecd_identity(monkeypatch):
    # A per-bin mean that drifts from the global mean must trip the check.
    monkeypatch.setattr(entrocal.binning, "pairwise_mean",
                        lambda x: pairwise_mean(x) + (1e-9 if len(x) == 2 else 0.0))
    with pytest.raises(AssertionError, match="diverged from the global mean"):
        build_report(Dataset([0.1, 0.15, 0.9], [0, 1, 1]))
