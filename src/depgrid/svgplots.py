"""Static SVG charts written without a rendering dependency.

Two chart types: a grouped bar chart comparing predicted (light) and observed
(bold) metrics per condition, and scatter plots of failure scenarios.
Successes are green, task failures blue, harmful failures pink.
"""

from __future__ import annotations

from typing import Sequence

from .domain import DomainSpace
from .errors import ConfigError
from .estimator import (METRICS, BehaviorMode, DependabilityReport,
                        TestCampaign)

GREEN = "#2ca02c"
BLUE = "#1f77b4"
PINK = "#e377c2"

_METRICS = tuple(zip(METRICS, (GREEN, BLUE, PINK)))

# pixels: the bar chart's size, and a scatter panel's side and margin
_BAR_WIDTH, _BAR_HEIGHT = 760, 360
_PANEL, _MARGIN = 300, 56


def _svg_header(width: int, height: int) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
    )


def _escape(s: str) -> str:
    """s with &, < and > written as XML entities, & first, as
    xml.sax.saxutils.escape writes them; that module would import urllib,
    http, email and ssl into every process that imports this one."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "middle",
          rotate: float | None = None) -> str:
    transform = f' transform="rotate({rotate} {x:.1f} {y:.1f})"' if rotate else ""
    return (
        f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
        f'font-family="sans-serif" text-anchor="{anchor}"{transform}>'
        f"{_escape(s)}</text>\n"
    )


def comparison_bar_svg(pairs: Sequence[tuple[str, DependabilityReport,
                                             DependabilityReport]]) -> str:
    """Grouped bars of (label, predicted, observed) report pairs.

    Within each group the three metrics appear side by side; the predicted
    bar (light fill) stands left of the observed bar (bold fill).
    """
    if not pairs:
        raise ConfigError("no report pairs to plot")
    m_left, m_right, m_top, m_bottom = 52, 16, 28, 58
    plot_w = _BAR_WIDTH - m_left - m_right
    plot_h = _BAR_HEIGHT - m_top - m_bottom
    parts = [_svg_header(_BAR_WIDTH, _BAR_HEIGHT)]
    # y gridlines at 0, 25, 50, 75, 100 percent
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = m_top + plot_h * (1 - frac)
        parts.append(
            f'<line x1="{m_left}" y1="{y:.1f}" x2="{m_left + plot_w}" '
            f'y2="{y:.1f}" stroke="#dddddd" stroke-width="1"/>\n'
        )
        parts.append(_text(m_left - 6, y + 4, f"{frac * 100:.0f}%", anchor="end"))
    group_w = plot_w / len(pairs)
    slot_w = group_w / 3.0
    bar_w = slot_w * 0.38
    for g, (label, predicted, observed) in enumerate(pairs):
        gx = m_left + g * group_w
        for s, (metric, color) in enumerate(_METRICS):
            sx = gx + s * slot_w + slot_w / 2.0
            for k, (report, opacity) in enumerate(
                    ((predicted, 0.45), (observed, 1.0))):
                v = report.metrics()[metric]
                bh = plot_h * v
                bx = sx - bar_w + k * bar_w
                parts.append(
                    f'<rect x="{bx:.1f}" y="{m_top + plot_h - bh:.1f}" '
                    f'width="{bar_w:.1f}" height="{bh:.1f}" fill="{color}" '
                    f'fill-opacity="{opacity}"/>\n'
                )
        parts.append(_text(gx + group_w / 2.0, m_top + plot_h + 16, label, size=12))
    # axis line and legend
    parts.append(
        f'<line x1="{m_left}" y1="{m_top + plot_h}" x2="{m_left + plot_w}" '
        f'y2="{m_top + plot_h}" stroke="black" stroke-width="1"/>\n'
    )
    lx = m_left
    ly = _BAR_HEIGHT - 26
    for metric, color in _METRICS:
        name = metric.replace("_", " ")
        parts.append(
            f'<rect x="{lx}" y="{ly - 9}" width="10" height="10" fill="{color}"/>\n'
        )
        parts.append(_text(lx + 14, ly, name, anchor="start"))
        lx += 14 + 7 * len(name) + 18
    parts.append(_text(lx, ly, "light = predicted, bold = observed",
                       anchor="start"))
    parts.append("</svg>\n")
    return "".join(parts)


def failure_scatter_svg(campaign: TestCampaign, space: DomainSpace,
                        dims: Sequence[str]) -> str:
    """Scatter of failure scenarios projected onto the named dimensions.

    Two names give one panel; three give the three pairwise projections side
    by side. Successful scenarios are omitted.
    """
    if len(dims) not in (2, 3):
        raise ConfigError(f"need two or three dimension names, got {len(dims)}")
    if len(set(dims)) != len(dims):
        raise ConfigError(f"dimension names must differ, got {list(dims)}")
    axes = [space.index_of(name) for name in dims]
    if len(dims) == 2:
        panels = [(axes[0], axes[1])]
    else:
        panels = [(axes[0], axes[1]), (axes[0], axes[2]), (axes[1], axes[2])]
    failed = campaign.modes != BehaviorMode.SUCCESS.code
    points = list(zip(campaign.scenarios[failed].tolist(),
                      campaign.modes[failed].tolist()))
    width = _MARGIN + len(panels) * (_PANEL + _MARGIN)
    height = _PANEL + 2 * _MARGIN
    parts = [_svg_header(width, height)]
    for p, (dx, dy) in enumerate(panels):
        ox = _MARGIN + p * (_PANEL + _MARGIN)
        oy = _MARGIN
        xdim, ydim = space.dims[dx], space.dims[dy]
        parts.append(
            f'<rect x="{ox}" y="{oy}" width="{_PANEL}" height="{_PANEL}" '
            f'fill="none" stroke="black" stroke-width="1"/>\n'
        )
        for x, m in points:
            color = BLUE if m == BehaviorMode.TASK_FAILURE.code else PINK
            vx = (x[dx] - xdim.min) / xdim.width
            vy = (x[dy] - ydim.min) / ydim.width
            cx = ox + vx * _PANEL
            cy = oy + (1 - vy) * _PANEL
            parts.append(
                f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="2" fill="{color}" '
                f'fill-opacity="0.6"/>\n'
            )
        parts.append(_text(ox + _PANEL / 2.0, oy + _PANEL + 30, xdim.label,
                           size=12))
        parts.append(_text(ox - 34, oy + _PANEL / 2.0, ydim.label, size=12,
                           rotate=-90.0))
        for frac in (0.0, 1.0):
            parts.append(_text(ox + frac * _PANEL, oy + _PANEL + 14,
                               f"{xdim.min + frac * xdim.width:g}", size=10))
            parts.append(_text(ox - 8, oy + (1 - frac) * _PANEL + 4,
                               f"{ydim.min + frac * ydim.width:g}", size=10,
                               anchor="end"))
    parts.append(_text(width / 2.0, 18,
                       "failures: task (blue), harmful (pink)", size=12))
    parts.append("</svg>\n")
    return "".join(parts)
