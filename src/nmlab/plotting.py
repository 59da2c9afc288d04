"""Minimal static SVG rendering of the figure CSVs.

The CSV files remain the authoritative artifact; these plots exist for a
quick visual check. The header picks the kind of plot:

* line:    (t, D), (p, t, D) grouped by p, or (p, <series...>) without t
* heatmap: (t, p, <value columns...>), one SVG per value column

Everything is written by hand with fixed coordinate formatting, so plot
output is as deterministic as the CSV it came from.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN = 56

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")

# five-stop blue-to-yellow map for heatmaps
_STOPS = np.array(
    [[68, 1, 84], [59, 82, 139], [33, 145, 140], [94, 201, 98], [253, 231, 37]],
    dtype=float,
)


def read_csv(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Header names and finite float data of a figure CSV (comment lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: no data")
    header, *rows = [ln.split(",") for ln in lines]
    if not rows or any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: malformed rows")
    try:
        data = np.array([[float(v) for v in row] for row in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value")
    return header, data


def _coord(x: float) -> str:
    return format(x, ".2f")


def _scale(vals: np.ndarray, lo_px: float, hi_px: float):
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        hi = lo + 1.0
    return lambda v: lo_px + (np.asarray(v) - lo) / (hi - lo) * (hi_px - lo_px), lo, hi


def _escape(text: str) -> str:
    """`text` as XML character data: a file or column name may hold &, < or >."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]


def _axes(parts: list[str], xlabel, ylabel, x_lo, x_hi, y_lo, y_hi) -> None:
    parts.append(
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="black"/>'
    )
    font = 'font-size="11" font-family="sans-serif"'
    parts.append(f'<text x="{WIDTH / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" {font}>{xlabel}</text>')
    parts.append(
        f'<text x="14" y="{HEIGHT / 2:.0f}" text-anchor="middle" {font} '
        f'transform="rotate(-90 14 {HEIGHT / 2:.0f})">{ylabel}</text>'
    )
    parts.append(f'<text x="{MARGIN}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" {font}>{x_lo:.4g}</text>')
    parts.append(f'<text x="{WIDTH - MARGIN}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" {font}>{x_hi:.4g}</text>')
    parts.append(f'<text x="{MARGIN - 6}" y="{HEIGHT - MARGIN + 4}" text-anchor="end" {font}>{y_lo:.4g}</text>')
    parts.append(f'<text x="{MARGIN - 6}" y="{MARGIN + 4}" text-anchor="end" {font}>{y_hi:.4g}</text>')


def _line_svg(path: Path, series: list[tuple[str, np.ndarray, np.ndarray]],
              xlabel: str, ylabel: str, title: str) -> Path:
    xs = np.concatenate([s[1] for s in series])
    ys = np.concatenate([s[2] for s in series])
    sx, x_lo, x_hi = _scale(xs, MARGIN, WIDTH - MARGIN)
    sy, y_lo, y_hi = _scale(ys, HEIGHT - MARGIN, MARGIN)
    parts = _svg_header(title)
    _axes(parts, xlabel, ylabel, x_lo, x_hi, y_lo, y_hi)
    for k, (name, x, y) in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_coord(px)},{_coord(py)}" for px, py in zip(sx(x), sy(y)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 4}" y="{MARGIN + 14 + 13 * k}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif" fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def _colormap(vals: np.ndarray) -> list[str]:
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo if hi > lo else 1.0
    u = np.clip((vals - lo) / span, 0.0, 1.0) * (len(_STOPS) - 1)
    idx = np.minimum(u.astype(int), len(_STOPS) - 2)
    frac = (u - idx)[:, None]
    rgb = _STOPS[idx] * (1 - frac) + _STOPS[idx + 1] * frac
    return ["#%02x%02x%02x" % tuple(int(round(c)) for c in row) for row in rgb]


def _heatmap_svg(path: Path, ts, ps, vals, column: str, title: str) -> Path:
    t_ax = np.unique(ts)
    p_ax = np.unique(ps)
    sx, t_lo, t_hi = _scale(t_ax, MARGIN, WIDTH - MARGIN)
    sy, p_lo, p_hi = _scale(p_ax, HEIGHT - MARGIN, MARGIN)
    w = (WIDTH - 2 * MARGIN) / max(len(t_ax) - 1, 1)
    h = (HEIGHT - 2 * MARGIN) / max(len(p_ax) - 1, 1)
    colors = _colormap(vals)
    parts = _svg_header(f"{title} [{vals.min():.4g}, {vals.max():.4g}]")
    for t, p, c in zip(ts, ps, colors):
        x = sx(t) - w / 2
        y = sy(p) - h / 2
        parts.append(
            f'<rect x="{_coord(x)}" y="{_coord(y)}" width="{_coord(w)}" '
            f'height="{_coord(h)}" fill="{c}"/>'
        )
    _axes(parts, "t", "p", t_lo, t_hi, p_lo, p_hi)
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path


def emit_plot(csv_path: str | Path) -> list[Path]:
    """Render a known-schema CSV as SVG, the kind read off its header; returns the written paths."""
    csv_path = Path(csv_path)
    header, data = read_csv(csv_path)
    stem = csv_path.with_suffix("")
    if header == ["t", "D"]:
        series = [("D", data[:, 0], data[:, 1])]
        return [_line_svg(csv_path.with_suffix(".svg"), series, "t", "D", csv_path.stem)]
    if header == ["p", "t", "D"]:
        series = [
            (f"p={format(p, 'g')}", data[data[:, 0] == p][:, 1], data[data[:, 0] == p][:, 2])
            for p in np.unique(data[:, 0])
        ]
        return [_line_svg(csv_path.with_suffix(".svg"), series, "t", "D", csv_path.stem)]
    if header[0] == "p" and len(header) >= 2 and "t" not in header:
        series = [(name, data[:, 0], data[:, k + 1]) for k, name in enumerate(header[1:])]
        return [_line_svg(csv_path.with_suffix(".svg"), series, "p", "value", csv_path.stem)]
    if header[:2] == ["t", "p"] and len(header) >= 3:
        return [
            _heatmap_svg(Path(f"{stem}_{col}.svg"), data[:, 0], data[:, 1], data[:, k + 2],
                         col, f"{csv_path.stem}: {col}")
            for k, col in enumerate(header[2:])
        ]
    raise ValueError(f"{csv_path}: no plot schema matches columns {header}")
