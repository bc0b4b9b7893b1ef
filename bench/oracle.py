"""Independent plain-numpy oracle for the benchmark's output checks.

Nothing here imports ``entrocal``: scores are recomputed from the generated
arrays with numpy sums (not the package's pairwise tree), and the program's
markdown, JSON and SVG outputs are parsed back and compared.

Tolerances: full-precision JSON floats must agree within ``FLOAT_TOL``
relative to max(1, |expected|); markdown cells carry 4 decimals, so they
must agree within half a unit of the 4th decimal plus ``FLOAT_TOL``.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

FLOAT_TOL = 1e-9
CELL_TOL = 0.5e-4 + FLOAT_TOL
CLIP_EPSILON = 1e-4

_FIELDS = ("conf", "frac_pos", "ece_bin", "esce_bin", "ecd_bin")
_SCALARS = ("ece", "esce", "ecd", "brier", "nll")


def binary_report(probs: np.ndarray, labels: np.ndarray, num_bins: int,
                  epsilon: float = CLIP_EPSILON) -> dict:
    """Binned report with the same keys as the program's report JSON."""
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n = p.size
    q = np.clip(p, epsilon, 1.0 - epsilon)
    scores = (q - y) * np.log(q / (1.0 - q))
    idx = np.minimum(np.floor(p * num_bins).astype(np.int64), num_bins - 1)
    counts = np.bincount(idx, minlength=num_bins)
    sum_p = np.bincount(idx, weights=p, minlength=num_bins)
    sum_y = np.bincount(idx, weights=y, minlength=num_bins)
    sum_s = np.bincount(idx, weights=scores, minlength=num_bins)
    bins = []
    ece = esce = 0.0
    for m in range(num_bins):
        c = int(counts[m])
        if c == 0:
            bins.append({"index": m, "count": 0, "populated": False,
                         **{f: None for f in _FIELDS}})
            continue
        conf, frac = sum_p[m] / c, sum_y[m] / c
        gap = frac - conf
        ece += c * abs(gap)
        esce += c * gap
        bins.append({"index": m, "count": c, "populated": True, "conf": conf,
                     "frac_pos": frac, "ece_bin": abs(gap), "esce_bin": gap,
                     "ecd_bin": sum_s[m] / c})
    return {
        "num_bins": num_bins,
        "n_total": n,
        "ece": ece / n,
        "esce": esce / n,
        "ecd": float(scores.mean()),
        "brier": float(((p - y) ** 2).mean()),
        "nll": float(-(y * np.log(q) + (1.0 - y) * np.log(1.0 - q)).mean()),
        "bins": bins,
    }


def gaussian_scores(means: np.ndarray, covs: np.ndarray, truths: np.ndarray) -> dict:
    """NEES via batched solves, and Gaussian ECD = (NEES - d) / 2."""
    r = truths - means
    z = np.linalg.solve(covs, r[..., None])[..., 0]
    nees = float(np.einsum("ni,ni->n", r, z).mean())
    d = int(means.shape[1])
    return {"n": int(means.shape[0]), "d": d, "nees": nees, "ecd": (nees - d) / 2.0}


def _close(got, want, tol: float = FLOAT_TOL) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def check_report_json(text: str, want: dict) -> list[str]:
    """Compare a report JSON document with :func:`binary_report` output."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report JSON does not parse: {exc}"]
    problems = []
    for key in ("num_bins", "n_total"):
        if doc.get(key) != want[key]:
            problems.append(f"{key}: got {doc.get(key)!r}, want {want[key]!r}")
    for key in _SCALARS:
        if not _close(doc.get(key), want[key]):
            problems.append(f"{key}: got {doc.get(key)!r}, want {want[key]!r}")
    bins = doc.get("bins", [])
    if len(bins) != len(want["bins"]):
        return problems + [f"bins: got {len(bins)}, want {len(want['bins'])}"]
    for got, exp in zip(bins, want["bins"]):
        if (got.get("index"), got.get("count"), got.get("populated")) != (
            exp["index"], exp["count"], exp["populated"]
        ):
            problems.append(f"bin {exp['index']}: count/populated mismatch")
            continue
        for f in _FIELDS:
            if not _close(got.get(f), exp[f]):
                problems.append(f"bin {exp['index']} {f}: got {got.get(f)!r}, want {exp[f]!r}")
    return problems


def _cell_ok(cell: str, want) -> bool:
    if want is None:
        return cell == "N/A"
    try:
        return abs(float(cell) - want) <= CELL_TOL
    except ValueError:
        return False


def check_markdown(text: str, want: dict) -> list[str]:
    """Compare the markdown table (4-decimal cells) and the Global line."""
    rows = [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.startswith("|") and not line.startswith("|-")
    ][1:]  # drop the header row
    problems = []
    if len(rows) != want["num_bins"] + 1:
        return [f"markdown: got {len(rows)} table rows, want {want['num_bins'] + 1}"]
    for row, exp in zip(rows, want["bins"]):
        _, _, ece_c, esce_c, ecd_c, count_c = row
        if count_c != str(exp["count"]):
            problems.append(f"markdown bin {exp['index']}: count {count_c} != {exp['count']}")
        for cell, f in ((ece_c, "ece_bin"), (esce_c, "esce_bin"), (ecd_c, "ecd_bin")):
            if not _cell_ok(cell, exp[f]):
                problems.append(f"markdown bin {exp['index']} {f}: {cell} vs {exp[f]!r}")
    total = rows[-1]
    for cell, key in ((total[2], "ece"), (total[3], "esce"), (total[4], "ecd")):
        if not _cell_ok(cell, want[key]):
            problems.append(f"markdown weighted {key}: {cell} vs {want[key]!r}")
    m = re.search(r"Global: N = (\d+), Brier = (\S+), NLL = (\S+)", text)
    if not m:
        return problems + ["markdown: Global line missing"]
    if int(m.group(1)) != want["n_total"]:
        problems.append(f"markdown N: {m.group(1)} != {want['n_total']}")
    for cell, key in ((m.group(2), "brier"), (m.group(3), "nll")):
        if not _cell_ok(cell, want[key]):
            problems.append(f"markdown {key}: {cell} vs {want[key]!r}")
    return problems


def check_comparison_row(text: str, sigma: float, want: dict) -> list[str]:
    """Find the suite comparison row for ``sigma`` and compare its cells."""
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if cells and cells[0] == format(sigma, "g"):
            keys = ("ece", "esce", "ecd", "brier", "nll")
            return [
                f"comparison sigma={sigma:g} {k}: {c} vs {want[k]!r}"
                for c, k in zip(cells[2:], keys)
                if not _cell_ok(c, want[k])
            ]
    return [f"comparison: no row for sigma={sigma:g}"]


def check_histogram_svg(text: str, want: dict) -> list[str]:
    counts = [int(c) for c in re.findall(r'<rect [^>]*data-count="(\d+)"', text)]
    expected = [b["count"] for b in want["bins"]]
    return [] if counts == expected else [f"histogram counts differ ({len(counts)} bars)"]


def check_reliability_svg(text: str, want: dict) -> list[str]:
    points = re.findall(
        r'data-conf="([^"]+)" data-frac="([^"]+)" data-count="(\d+)"', text
    )
    expected = [b for b in want["bins"] if b["populated"]]
    if len(points) != len(expected):
        return [f"reliability: {len(points)} points, want {len(expected)}"]
    for (conf, frac, count), b in zip(points, expected):
        if int(count) != b["count"] or not (
            _close(float(conf), b["conf"]) and _close(float(frac), b["frac_pos"])
        ):
            return [f"reliability point for bin {b['index']} differs"]
    return []


def check_gaussian_json(text: str, want: dict) -> list[str]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"gaussian output does not parse: {exc}"]
    problems = [
        f"{k}: got {doc.get(k)!r}, want {want[k]!r}" for k in ("n", "d") if doc.get(k) != want[k]
    ]
    if not _close(doc.get("nees"), want["nees"]):
        problems.append(f"nees: got {doc.get('nees')!r}, want {want['nees']!r}")
    # ECD is near 0, so compare it on the scale of NEES.
    got_ecd = doc.get("ecd")
    if got_ecd is None or abs(got_ecd - want["ecd"]) > FLOAT_TOL * max(1.0, want["nees"]):
        problems.append(f"ecd: got {got_ecd!r}, want {want['ecd']!r}")
    return problems
