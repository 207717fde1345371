"""Report emitters: JSON tables, CSV rows and dependency-free SVG plots."""
from __future__ import annotations

import json

from ..atomic import write_atomic


def write_json(path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=1, sort_keys=True))


def write_metrics_csv(path, rows: list[dict], columns: list[str]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c, "")) for c in columns))
    write_atomic(path, "\n".join(lines) + "\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


_SVG_W, _SVG_H, _MARGIN = 480, 360, 48


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]


_COLORS = ("#3366cc", "#dc3912", "#109618", "#ff9900", "#990099")


def roc_svg(curves: dict[str, list[tuple[float, float, float]]],
            title: str = "ROC") -> str:
    """``curves`` maps a series name to its (fpr, tpr, threshold) points."""
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    def sx(fpr):
        return _MARGIN + fpr * plot_w

    def sy(tpr):
        return _SVG_H - _MARGIN - tpr * plot_h

    parts = _svg_header(title)
    parts.append(f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(0)}" stroke="black"/>')
    parts.append(f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(0)}" y2="{sy(1)}" stroke="black"/>')
    parts.append(f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
                 f'stroke="#bbbbbb" stroke-dasharray="4,4"/>')
    for i, (name, points) in enumerate(curves.items()):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{sx(fpr):.2f},{sy(tpr):.2f}" for fpr, tpr, _ in points)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_MARGIN + 8}" y="{_MARGIN + 16 * (i + 1)}" '
                     f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>')
    parts.append(f'<text x="{_SVG_W / 2}" y="{_SVG_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">false positive rate</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def grouped_bar_svg(groups: list[str], series: dict[str, list[float]],
                    title: str = "metrics") -> str:
    """Grouped bars: one cluster per group, one bar per series member."""
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN
    n_groups = len(groups)
    n_series = max(len(series), 1)
    cluster = plot_w / max(n_groups, 1)
    bar_w = cluster * 0.8 / n_series

    parts = _svg_header(title)
    base_y = _SVG_H - _MARGIN
    parts.append(f'<line x1="{_MARGIN}" y1="{base_y}" x2="{_SVG_W - _MARGIN}" '
                 f'y2="{base_y}" stroke="black"/>')
    for s_idx, (name, values) in enumerate(series.items()):
        color = _COLORS[s_idx % len(_COLORS)]
        for g_idx, value in enumerate(values):
            h = max(0.0, min(1.0, value)) * plot_h
            x = _MARGIN + g_idx * cluster + cluster * 0.1 + s_idx * bar_w
            parts.append(f'<rect x="{x:.2f}" y="{base_y - h:.2f}" width="{bar_w:.2f}" '
                         f'height="{h:.2f}" fill="{color}"/>')
        parts.append(f'<text x="{_MARGIN + 8}" y="{_MARGIN + 16 * (s_idx + 1)}" '
                     f'font-family="sans-serif" font-size="12" fill="{color}">{name}</text>')
    for g_idx, label in enumerate(groups):
        x = _MARGIN + g_idx * cluster + cluster / 2
        parts.append(f'<text x="{x:.2f}" y="{base_y + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
