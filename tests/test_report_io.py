import io
import math
import os
import re

import numpy as np
import pytest

from entrocal import (
    BinSpec,
    Dataset,
    SimulationConfig,
    bin_stats,
    build_report,
    ecd_curve,
    load_csv,
    reliability_points,
    render_ecd_curve_svg,
    render_histogram_svg,
    render_reliability_svg,
    render_report,
    report_from_json,
    report_to_json,
    simulate,
    write_dataset_csv,
    write_simulated_csv,
)

CIRCLE_RE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="4"[^>]*'
                       r'data-conf="([^"]+)" data-frac="([^"]+)" data-count="(\d+)"')


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def test_load_csv_minimal():
    data = load_csv(io.BytesIO(b"prob,label\n0.9,1\n"))
    assert data == Dataset([0.9], [1])


def test_load_csv_crlf_and_id_column():
    text = "id,prob,label\r\na,0.25,0\r\nb,0.75,1\r\n"
    data = load_csv(io.BytesIO(text.encode()))
    assert data == Dataset([0.25, 0.75], [0, 1])


def test_load_csv_ignores_extra_columns():
    text = "prob,label,true_prob\n0.5,1,0.4\n"
    assert load_csv(io.BytesIO(text.encode())) == Dataset([0.5], [1])


def test_load_csv_preserves_order():
    text = "prob,label\n0.9,1\n0.1,0\n0.5,1\n"
    data = load_csv(io.BytesIO(text.encode()))
    assert list(data.probs) == [0.9, 0.1, 0.5]


@pytest.mark.parametrize(
    "body,message",
    [
        ("prob,label\n1.5,1\n", r"row 2: prob out of range"),
        ("prob,label\n0.5,1\nnan,0\n", r"row 3: prob out of range"),
        ("prob,label\nabc,1\n", r"row 2: invalid prob value"),
        ("prob,label\n0.5,2\n", r"row 2: label must be 0 or 1"),
        ("prob,label\n0.5,1.0\n", r"row 2: label must be 0 or 1"),
        ("prob,label\n0.5\n", r"row 2: expected 2 fields"),
        ("prob,outcome\n0.5,1\n", r"row 1: missing required column 'label'"),
        ("p,label\n0.5,1\n", r"row 1: missing required column 'prob'"),
        ("", r"row 1: missing header"),
    ],
)
def test_load_csv_errors(body, message):
    with pytest.raises(ValueError, match=message):
        load_csv(io.BytesIO(body.encode()))


def test_load_csv_from_path(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("prob,label\n0.5,0\n")
    assert load_csv(path) == Dataset([0.5], [0])
    assert load_csv(str(path)) == Dataset([0.5], [0])


def test_write_then_load_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(rng.random(500), rng.integers(0, 2, 500))
    path = tmp_path / "rt.csv"
    write_dataset_csv(data, path)
    assert load_csv(path) == data


def test_path_writes_are_atomic(tmp_path, monkeypatch):
    data = Dataset([0.25, 0.75], [0, 1])
    fresh = tmp_path / "new" / "dir" / "d.csv"
    write_dataset_csv(data, fresh)  # creates missing parent directories
    assert load_csv(fresh) == data
    umask = os.umask(0o022)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask

    path = tmp_path / "d.csv"
    path.write_bytes(b"old contents\n")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_dataset_csv(data, path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "new"]


def test_simulated_csv_round_trip_and_true_column(tmp_path):
    sim = simulate(SimulationConfig(seed=21, n=300, noise_sigma=0.5))
    path = tmp_path / "sim.csv"
    write_simulated_csv(sim, path, include_true_probs=True)
    header = path.read_text().splitlines()[0]
    assert header == "prob,label,true_prob"
    loaded = load_csv(path)
    assert loaded == sim.dataset()
    # Report computed from the file equals the in-memory one bit for bit.
    assert build_report(loaded) == build_report(sim.dataset())


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


@pytest.fixture
def sparse_report():
    return build_report(Dataset([0.05, 0.05, 0.95, 0.95], [0, 1, 1, 1]))


def test_render_markdown_layout(sparse_report):
    content = render_report(sparse_report, "markdown").content
    lines = content.splitlines()
    assert [c.strip() for c in lines[0].split("|")[1:7]] == [
        "Threshold", "Bin", "ECE", "ESCE", "ECD", "Count",
    ]
    assert "N/A" in content  # eight empty bins
    data_rows = [l for l in lines if l.startswith("|")][2:]
    assert len(data_rows) == 11
    assert "Weighted Sum" in data_rows[-1]
    assert "Brier =" in lines[-1] and "NLL =" in lines[-1]


def test_render_markdown_four_decimals(sparse_report):
    content = render_report(sparse_report, "markdown").content
    row = [l for l in content.splitlines() if l.startswith("| 0.9")][0]
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[2] == "0.0500"
    assert cells[3] == "0.0500"


def test_render_csv_layout(sparse_report):
    content = render_report(sparse_report, "csv").content
    lines = content.splitlines()
    assert lines[0] == "threshold,bin,ece,esce,ecd,count"
    assert len(lines) == 12
    assert lines[-1].startswith('"Weighted Sum"')
    empty_row = lines[2]
    assert empty_row.count("N/A") == 3


def test_render_unknown_format(sparse_report):
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(sparse_report, "yaml")


def test_report_json_round_trip(sparse_report):
    text = report_to_json(sparse_report)
    assert report_from_json(text) == sparse_report
    assert render_report(sparse_report, "json").content == text


def test_report_json_round_trip_full(tmp_path):
    sim = simulate(SimulationConfig(seed=4, n=2000, noise_sigma=0.5))
    report = build_report(sim.dataset())
    assert report_from_json(report_to_json(report)) == report


def test_report_json_rejects_unknown_schema(sparse_report):
    text = report_to_json(sparse_report).replace('"schema_version": 1', '"schema_version": 99')
    with pytest.raises(ValueError, match="schema_version"):
        report_from_json(text)


def test_rendered_weighted_sum_consistent_with_rendered_bins():
    # Recompute the weighted sums from the rendered 4-decimal per-bin values;
    # they must agree with the rendered weighted sums to one unit in the
    # fourth decimal place.
    sim = simulate(SimulationConfig(seed=31, n=5000, noise_sigma=2.0))
    report = build_report(sim.dataset())
    lines = render_report(report, "csv").content.splitlines()
    bins = [l.split(",") for l in lines[1:-1]]
    weighted = lines[-1].split(",")
    n_total = int(weighted[5])
    for col in (2, 3, 4):
        recomputed = sum(
            float(row[col]) * int(row[5]) / n_total for row in bins if row[col] != "N/A"
        )
        assert abs(recomputed - float(weighted[col])) <= 1e-4 + 1e-12


# ---------------------------------------------------------------------------
# SVG emitters
# ---------------------------------------------------------------------------


def test_reliability_svg_deterministic():
    points = [(0.1, 0.2, 30), (0.9, 0.8, 50)]
    assert render_reliability_svg(points) == render_reliability_svg(list(points))


def test_reliability_svg_geometry():
    # Above the diagonal (cy smaller than the diagonal's y) iff frac > conf.
    points = [(0.2, 0.6, 10), (0.8, 0.3, 10), (0.5, 0.5, 10)]
    svg = render_reliability_svg(points)
    matches = CIRCLE_RE.findall(svg)
    assert len(matches) == 3
    for cx, cy, conf, frac, count in matches:
        conf, frac = float(conf), float(frac)
        diag = render_reliability_svg([(conf, conf, 1)])
        (dx, dy, _, _, _) = CIRCLE_RE.findall(diag)[0]
        assert float(dx) == pytest.approx(float(cx), abs=0.02)
        if frac > conf:
            assert float(cy) < float(dy)
        elif frac < conf:
            assert float(cy) > float(dy)
        else:
            assert float(cy) == pytest.approx(float(dy), abs=0.02)


def test_reliability_svg_empty_keeps_frame():
    svg = render_reliability_svg([])
    assert "<circle" not in svg
    assert "stroke-dasharray" in svg  # the reference diagonal
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_reliability_svg_from_report_points():
    sim = simulate(SimulationConfig(seed=8, n=2000, noise_sigma=0.5))
    points = reliability_points(bin_stats(sim.dataset()))
    svg = render_reliability_svg(points)
    assert svg.count("<circle") == len(points)


def test_histogram_svg_single_full_bar():
    svg = render_histogram_svg(Dataset([0.5] * 7, [1] * 7), 10)
    counts = [int(m) for m in re.findall(r'data-count="(\d+)"', svg)]
    assert len(counts) == 10
    assert counts[5] == 7
    assert sum(counts) == 7


def test_histogram_svg_outer_bins_dominate():
    sim = simulate(SimulationConfig(seed=12, n=20_000))
    svg = render_histogram_svg(sim.dataset(), 10)
    counts = [int(m) for m in re.findall(r'data-count="(\d+)"', svg)]
    assert counts[0] > max(counts[1:9])
    assert counts[9] > max(counts[1:9])


def test_histogram_svg_errors():
    with pytest.raises(ValueError):
        render_histogram_svg(Dataset([0.5], [1]), 0)
    with pytest.raises(ValueError, match="empty dataset"):
        render_histogram_svg(Dataset([], []), 10)


def test_histogram_svg_deterministic():
    data = Dataset([0.2, 0.8], [0, 1])
    assert render_histogram_svg(data, 5) == render_histogram_svg(data, 5)


def test_curve_svg_annotation_and_shape():
    curve = ecd_curve(2001)
    svg = render_ecd_curve_svg(curve)
    min_text = re.search(r"min (-0\.\d+)</text>", svg)
    assert min_text is not None
    assert float(min_text.group(1)) == pytest.approx(-0.2785, abs=5e-4)
    raw = float(re.search(r'data-min-score="([^"]+)"', svg).group(1))
    assert raw == pytest.approx(min(min(c[1], c[2]) for c in curve), abs=0)
    assert svg.count("<polyline") == 2
    assert render_ecd_curve_svg(curve) == svg


def test_curve_svg_empty_curve():
    with pytest.raises(ValueError, match="empty curve"):
        render_ecd_curve_svg([])


def test_all_svg_emitters_are_well_formed_xml():
    import xml.etree.ElementTree as ET

    sim = simulate(SimulationConfig(seed=14, n=500, noise_sigma=0.5))
    documents = [
        render_reliability_svg(reliability_points(bin_stats(sim.dataset()))),
        render_reliability_svg([]),
        render_histogram_svg(sim.dataset(), 10),
        render_ecd_curve_svg(ecd_curve(101)),
    ]
    for doc in documents:
        root = ET.fromstring(doc)
        assert root.tag.endswith("svg")
        assert root.attrib["viewBox"].startswith("0 0 ")
