"""Minimal standalone SVG charts (no plotting dependencies).

Output is always well-formed XML, even with zero data points.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

WIDTH, HEIGHT = 640, 480
MARGIN = 56

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _limits(values: list[float]) -> tuple[float, float]:
    finite = [v for v in values if v == v]  # drop NaN
    if not finite:
        return 0.0, 1.0
    lo, hi = min(finite), max(finite)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


class _Frame:
    def __init__(self, xs: list[float], ys: list[float], x_label: str, y_label: str):
        self.x_lo, self.x_hi = _limits(xs)
        self.y_lo, self.y_hi = _limits(ys)
        self.x_label = x_label
        self.y_label = y_label

    def px(self, x: float) -> float:
        span = self.x_hi - self.x_lo
        return MARGIN + (x - self.x_lo) / span * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN - (y - self.y_lo) / span * (HEIGHT - 2 * MARGIN)

    def axes(self) -> list[str]:
        parts = [
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>'
        ]
        for frac in (0.0, 0.5, 1.0):
            xv = self.x_lo + frac * (self.x_hi - self.x_lo)
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            parts.append(
                f'<text x="{self.px(xv):.1f}" y="{HEIGHT - MARGIN + 18}" '
                f'font-size="11" text-anchor="middle">{xv:.3g}</text>'
            )
            parts.append(
                f'<text x="{MARGIN - 6}" y="{self.py(yv):.1f}" font-size="11" '
                f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>'
            )
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" font-size="13" '
            f'text-anchor="middle">{escape(self.x_label)}</text>'
        )
        parts.append(
            f'<text x="16" y="{HEIGHT / 2:.1f}" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 16 {HEIGHT / 2:.1f})">'
            f'{escape(self.y_label)}</text>'
        )
        return parts


def _document(body: list[str]) -> str:
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        '<rect width="100%" height="100%" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def chart_svg(
    series: dict[str, list[tuple[float, float]]],
    x_label: str,
    y_label: str,
    path: str,
    lines: bool = False,
    reference: tuple[float, float, str] | None = None,
) -> None:
    """One colour per labelled series, in insertion order: a polyline through
    its points with ``lines``, else a dot per point; NaN points are skipped.
    ``reference`` (x, y, label) is a black diamond with its own legend entry.
    """
    points = [p for pts in series.values() for p in pts]
    if reference is not None:
        points.append(reference[:2])
    frame = _Frame([x for x, _ in points], [y for _, y in points],
                   x_label, y_label)
    body = frame.axes()
    colors = {label: PALETTE[i % len(PALETTE)] for i, label in enumerate(series)}
    for label, pts in series.items():
        drawn = [(frame.px(x), frame.py(y)) for x, y in pts
                 if x == x and y == y]
        if not lines:
            body += [f'<circle cx="{px:.1f}" cy="{py:.1f}" r="4" '
                     f'fill="{colors[label]}" fill-opacity="0.8"/>'
                     for px, py in drawn]
        elif drawn:
            coords = " ".join(f"{px:.1f},{py:.1f}" for px, py in drawn)
            body.append(f'<polyline points="{coords}" fill="none" '
                        f'stroke="{colors[label]}" stroke-width="1.5"/>')
    if reference is not None and reference[0] == reference[0]:
        rx, ry = frame.px(reference[0]), frame.py(reference[1])
        body.append(
            f'<path d="M {rx:.1f} {ry - 7:.1f} L {rx + 7:.1f} {ry:.1f} '
            f'L {rx:.1f} {ry + 7:.1f} L {rx - 7:.1f} {ry:.1f} Z" '
            'fill="black"/>'
        )
        colors[reference[2]] = "black"
    for i, (label, color) in enumerate(colors.items()):
        ly = MARGIN + 8 + 16 * i
        body.append(
            f'<rect x="{WIDTH - MARGIN - 130}" y="{ly - 8}" width="10" '
            f'height="10" fill="{color}"/>'
        )
        body.append(
            f'<text x="{WIDTH - MARGIN - 114}" y="{ly + 1}" font-size="11">'
            f'{escape(label)}</text>'
        )
    with open(path, "w") as fh:
        fh.write(_document(body))
