"""Standalone SVG drawings: heatmaps of grid fields and Whitney cube layouts.

Both drawings share one frame: the ``<svg>`` header with its pixel size, a
title, a white background, the drawn elements, and the closing tag, written
as UTF-8 lines.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Annulus, Box, Disk, Polygon
from .grid import ScalarField
from .whitney import WhitneyDecomposition

__all__ = ["field_to_svg", "decomposition_to_svg"]


def _write_svg(path, width: float, height: float, title: str, body: list[str]) -> None:
    """Write body elements inside the shared frame, sized width x height px."""
    w, h = f"{width:.0f}", f"{height:.0f}"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f"<title>{title}</title>",
        '<rect width="100%" height="100%" fill="white"/>',
        *body,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))


def field_to_svg(field: ScalarField, path, title: str = "", max_px: int = 640) -> None:
    """Rect-per-cell heatmap of an interior-node field, with a caption line
    giving its value range."""
    full = field.grid.scatter(field.values, fill=np.nan)
    stride = max(1, int(math.ceil(max(full.shape) / max_px)))
    sub = full[::stride, ::stride]
    finite = np.isfinite(sub)
    lo = float(np.nanmin(sub)) if finite.any() else 0.0
    hi = float(np.nanmax(sub)) if finite.any() else 1.0
    span = hi - lo if hi > lo else 1.0
    cell = 4
    H, W = sub.shape[1] * cell, sub.shape[0] * cell
    body = []
    for i in range(sub.shape[0]):
        for j in range(sub.shape[1]):
            val = sub[i, j]
            if not np.isfinite(val):
                continue
            t = (val - lo) / span
            rr = int(255 * t)
            bb = int(255 * (1.0 - t))
            gg = int(90 + 80 * (1 - abs(2 * t - 1)))
            y = H - (j + 1) * cell
            body.append(
                f'<rect x="{i * cell}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({rr},{gg},{bb})"/>'
            )
    body.append(
        f'<text x="4" y="{H + 14}" font-size="11" font-family="monospace">'
        f"{title} range [{lo:.4g}, {hi:.4g}]</text>"
    )
    _write_svg(path, W, H + 20, title, body)


def decomposition_to_svg(decomp: WhitneyDecomposition, path, max_cubes: int = 60000):
    """Cube layout (coarsest cubes first, one hue per level) under the
    domain outline."""
    if decomp.params.dim != 2:
        raise ValueError("SVG rendering is two-dimensional")
    lo, hi = decomp.domain.bounding_box()
    span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
    scale = 900.0 / span
    pad = 30.0

    def sx(x):
        return pad + (x - lo[0]) * scale

    def sy(y):
        return pad + (hi[1] - y) * scale

    body = []
    ks = sorted(decomp.levels)
    drawn = 0
    for k in ks:
        hue = (37 * (k - ks[0])) % 360
        s = 2.0 ** (-k)
        for row in decomp.levels[k]:
            if drawn >= max_cubes:
                break
            x, y = row[0] * s, row[1] * s
            body.append(
                f'<rect x="{sx(x):.2f}" y="{sy(y + s):.2f}" width="{s*scale:.2f}"'
                f' height="{s*scale:.2f}" fill="hsl({hue},70%,60%)" fill-opacity="0.35"'
                f' stroke="hsl({hue},70%,35%)" stroke-width="0.4"/>'
            )
            drawn += 1
    body.append(_domain_outline_svg(decomp.domain, sx, sy, scale))
    if drawn >= max_cubes:
        body.append(
            f'<text x="{pad}" y="{pad-10:.0f}" font-size="14">truncated to {max_cubes} cubes</text>'
        )
    width = 2 * pad + (hi[0] - lo[0]) * scale
    height = 2 * pad + (hi[1] - lo[1]) * scale
    _write_svg(path, width, height, "Whitney cube layout", body)


def _domain_outline_svg(domain, sx, sy, scale) -> str:
    style = 'fill="none" stroke="black" stroke-width="1.5"'
    if isinstance(domain, Disk):
        c = domain.center
        return f'<circle cx="{sx(c[0]):.2f}" cy="{sy(c[1]):.2f}" r="{domain.radius*scale:.2f}" {style}/>'
    if isinstance(domain, Annulus):
        c = domain.center
        return (
            f'<circle cx="{sx(c[0]):.2f}" cy="{sy(c[1]):.2f}" r="{domain.outer_radius*scale:.2f}" {style}/>'
            f'<circle cx="{sx(c[0]):.2f}" cy="{sy(c[1]):.2f}" r="{domain.inner_radius*scale:.2f}" {style}/>'
        )
    if isinstance(domain, Box):
        a, b = domain.corner_min, domain.corner_max
        return (
            f'<rect x="{sx(a[0]):.2f}" y="{sy(b[1]):.2f}" width="{(b[0]-a[0])*scale:.2f}"'
            f' height="{(b[1]-a[1])*scale:.2f}" {style}/>'
        )
    if isinstance(domain, Polygon):
        pts = " ".join(f"{sx(v[0]):.2f},{sy(v[1]):.2f}" for v in domain.vertices)
        return f'<polygon points="{pts}" {style}/>'
    return ""
