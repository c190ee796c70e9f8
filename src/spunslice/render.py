"""Deterministic SVG 1.1 renderers.

Four drawable things: a chord diagram on an interval, a doubled spun-sphere
grid (latitude circles as horizontal lines) with an optional slice curve, a
plat word as a crossing ladder, and a PD code as a circular schematic.
Every renderer builds the byte string from fixed iteration orders and
fixed-precision coordinates, so rendering the same object twice yields
identical bytes -- golden tests rely on that.
"""

from __future__ import annotations

from .decker import NORTH, SOUTH, DeckerSet, SliceCurve
from .diagrams import ChordDiagram, PDCode, PlatWord, validate_plat

OVER_COLOR = "#1a6fb4"
UNDER_COLOR = "#c23b22"
CURVE_COLOR = "#111111"


def _fmt(x: float) -> str:
    s = f"{x:.2f}"
    s = s.rstrip("0").rstrip(".")
    return s if s else "0"


def _svg(width: float, height: float, body: list[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _line(x1, y1, x2, y2, stroke, width=1.5, dash: str | None = None) -> str:
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>'
    )


def _dot(x, y, r, fill, stroke="none") -> str:
    return (
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
        f'fill="{fill}" stroke="{stroke}"/>'
    )


def _text(x, y, s, size=10, anchor="middle", fill="#333333") -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}" fill="{fill}">{s}</text>'
    )


# ---------------------------------------------------------------------------
# chord diagram on an interval


def render_chord_diagram(cd: ChordDiagram) -> str:
    step, margin = 28.0, 24.0
    points = 2 * cd.n
    width = 2 * margin + step * max(points + 1, 4)
    max_span = max((abs(a - b) for a, b in cd.chords), default=1)
    apex = max_span * step / 2
    base_y = margin + apex + 24
    height = base_y + 40
    body = [_line(margin, base_y, width - margin, base_y, "#444444", 2)]

    def px(p: int) -> float:
        return margin + p * step

    for i, (a, b) in enumerate(cd.chords):
        lo, hi = sorted((a, b))
        r = (hi - lo) * step / 2
        dashed = "" if cd.signs[i] == 1 else ' stroke-dasharray="5,4"'
        body.append(
            f'<path d="M {_fmt(px(lo))} {_fmt(base_y)} A {_fmt(r)} {_fmt(r)} 0 0 1 '
            f'{_fmt(px(hi))} {_fmt(base_y)}" fill="none" stroke="{OVER_COLOR}" '
            f'stroke-width="1.5"{dashed}/>'
        )
        body.append(_text((px(lo) + px(hi)) / 2, base_y - r - 5, str(i + 1), 9))
    for i, (a, b) in enumerate(cd.chords):
        body.append(_dot(px(a), base_y, 3.4, CURVE_COLOR))
        body.append(_dot(px(b), base_y, 3.4, "white", CURVE_COLOR))
    for p in range(1, points + 1):
        body.append(_text(px(p), base_y + 16, str(p), 8))
    return _svg(width, height, body)


# ---------------------------------------------------------------------------
# doubled spun-sphere grid with optional curve


def render_decker(ds: DeckerSet, curve: SliceCurve | None = None) -> str:
    cell, band, margin = 18.0, 42.0, 30.0
    label_w = 64.0
    grid_w = ds.m * cell
    width = margin + label_w + grid_w + margin
    height = 2 * margin + (ds.l + 1) * band
    x0 = margin + label_w
    cx = x0 + grid_w / 2

    def circle_y(c: int) -> float:
        return margin + c * band

    north = (cx, circle_y(0))
    south = (cx, circle_y(ds.l + 1))

    body: list[str] = []
    for c in range(1, ds.l + 1):
        over = ds.is_over(c)
        color = OVER_COLOR if over else UNDER_COLOR
        dash = None if over else "6,4"
        y = circle_y(c)
        body.append(_line(x0, y, x0 + grid_w, y, color, 2, dash))
        tag = f"{c} {'over' if over else 'under'} pair {ds.pair_of(c)}"
        body.append(_text(x0 - 6, y + 3, tag, 9, anchor="end"))
    body.append(_dot(*north, 4, CURVE_COLOR))
    body.append(_dot(*south, 4, CURVE_COLOR))
    body.append(_text(north[0], north[1] - 8, "N", 10))
    body.append(_text(south[0], south[1] + 14, "S", 10))

    if curve is not None:
        def pos(v):
            if v == NORTH:
                return north
            if v == SOUTH:
                return south
            region, row, k = v
            frac = (row + 1) / (curve.rows[region] + 1)
            return (x0 + (k + 0.5) * cell, circle_y(region) + frac * band)

        segs: list[str] = []
        marks: list[str] = []
        for u, v in curve.edges():
            (ux, uy), (vx, vy) = pos(u), pos(v)
            if u[:2] == v[:2] and abs(ux - vx) > grid_w / 2:
                # wrap-around: leave one side, re-enter the other
                if ux < vx:
                    segs.append(_line(ux, uy, x0 - cell / 2, uy, CURVE_COLOR, 2.4))
                    segs.append(_line(x0 + grid_w + cell / 2, vy, vx, vy, CURVE_COLOR, 2.4))
                else:
                    segs.append(_line(ux, uy, x0 + grid_w + cell / 2, uy, CURVE_COLOR, 2.4))
                    segs.append(_line(x0 - cell / 2, vy, vx, vy, CURVE_COLOR, 2.4))
                continue
            segs.append(_line(ux, uy, vx, vy, CURVE_COLOR, 2.4))
            if len(u) == len(v) == 3 and u[0] != v[0]:  # an X step crosses circle max(u[0], v[0])
                marks.append(_dot(ux, circle_y(max(u[0], v[0])), 3.2, "white", CURVE_COLOR))
        body.extend(segs)
        body.extend(marks)
    return _svg(width, height, body)


# ---------------------------------------------------------------------------
# plat word as a crossing ladder


def render_plat(plat: PlatWord) -> str:
    validate_plat(plat)
    step, row_h, cap_h, margin = 34.0, 34.0, 26.0, 24.0
    cols = plat.strands
    width = 2 * margin + (cols - 1) * step
    height = 2 * (margin + cap_h) + max(len(plat.word), 1) * row_h

    def cx(c: int) -> float:  # columns are 1-based
        return margin + (c - 1) * step

    y_top = margin + cap_h
    body: list[str] = []
    for j in range(cols // 2):
        a, b = cx(2 * j + 1), cx(2 * j + 2)
        mid = (a + b) / 2
        body.append(
            f'<path d="M {_fmt(a)} {_fmt(y_top)} Q {_fmt(mid)} {_fmt(y_top - 2 * cap_h)} '
            f'{_fmt(b)} {_fmt(y_top)}" fill="none" stroke="{CURVE_COLOR}" stroke-width="2"/>'
        )
        y_bot = height - margin - cap_h
        body.append(
            f'<path d="M {_fmt(a)} {_fmt(y_bot)} Q {_fmt(mid)} {_fmt(y_bot + 2 * cap_h)} '
            f'{_fmt(b)} {_fmt(y_bot)}" fill="none" stroke="{CURVE_COLOR}" stroke-width="2"/>'
        )

    rows = max(len(plat.word), 1)
    for i in range(rows):
        y0, y1 = y_top + i * row_h, y_top + (i + 1) * row_h
        letter = plat.word[i] if i < len(plat.word) else None
        busy = set()
        if letter is not None:
            k, s = letter
            busy = {k, k + 1}
            xl, xr = cx(k), cx(k + 1)
            # letter (k, +1): the NW-SE strand passes over
            over = ((xl, y0, xr, y1), (xr, y0, xl, y1))[0 if s == 1 else 1]
            under = ((xr, y0, xl, y1), (xl, y0, xr, y1))[0 if s == 1 else 1]
            ux0, uy0, ux1, uy1 = under
            for t0, t1 in ((0.0, 0.38), (0.62, 1.0)):
                body.append(
                    _line(
                        ux0 + (ux1 - ux0) * t0,
                        uy0 + (uy1 - uy0) * t0,
                        ux0 + (ux1 - ux0) * t1,
                        uy0 + (uy1 - uy0) * t1,
                        CURVE_COLOR,
                        2,
                    )
                )
            body.append(_line(*over, CURVE_COLOR, 2))
        for c in range(1, cols + 1):
            if c not in busy:
                body.append(_line(cx(c), y0, cx(c), y1, CURVE_COLOR, 2))
    return _svg(width, height, body)


# ---------------------------------------------------------------------------
# PD code as a circular schematic


def render_pd(pd: PDCode) -> str:
    import math

    pd.validate()
    n = pd.n_crossings
    size = max(260.0, 90.0 + 34.0 * n)
    c0 = size / 2
    radius = size / 2 - 60
    body: list[str] = []
    if n == 0:
        body.append(
            f'<circle cx="{_fmt(c0)}" cy="{_fmt(c0)}" r="{_fmt(radius)}" '
            f'fill="none" stroke="{CURVE_COLOR}" stroke-width="2"/>'
        )
        return _svg(size, size, body)

    def vpos(i: int):
        ang = 2 * math.pi * i / n - math.pi / 2
        return (c0 + radius * math.cos(ang), c0 + radius * math.sin(ang))

    ends: dict[int, list[tuple[int, bool]]] = {}
    for i, (a, b, c, d, _s) in enumerate(pd.crossings):
        # slots a, c carry the under-strand; their ends stop short of the dot
        for label, under in ((a, True), (b, False), (c, True), (d, False)):
            ends.setdefault(label, []).append((i, under))

    curves: list[str] = []
    labels: list[str] = []
    for label in sorted(ends):
        (i, under_i), (j, under_j) = ends[label]
        (x1, y1), (x2, y2) = vpos(i), vpos(j)
        if i == j:
            ox, oy = x1 - c0, y1 - c0
            norm = math.hypot(ox, oy) or 1.0
            px, py = ox / norm, oy / norm
            qx, qy = -py, px
            d_attr = (
                f"M {_fmt(x1)} {_fmt(y1)} "
                f"C {_fmt(x1 + 46 * px + 26 * qx)} {_fmt(y1 + 46 * py + 26 * qy)} "
                f"{_fmt(x1 + 46 * px - 26 * qx)} {_fmt(y1 + 46 * py - 26 * qy)} "
                f"{_fmt(x1)} {_fmt(y1)}"
            )
            mx, my = x1 + 50 * px, y1 + 50 * py
        else:
            gap = 13.0
            dx, dy = x2 - x1, y2 - y1
            norm = math.hypot(dx, dy) or 1.0
            if under_i:
                x1, y1 = x1 + gap * dx / norm, y1 + gap * dy / norm
            if under_j:
                x2, y2 = x2 - gap * dx / norm, y2 - gap * dy / norm
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            pull = 0.25 * math.hypot(x2 - x1, y2 - y1)
            ux, uy = c0 - mx, c0 - my
            norm2 = math.hypot(ux, uy) or 1.0
            qx, qy = mx + pull * ux / norm2, my + pull * uy / norm2
            d_attr = f"M {_fmt(x1)} {_fmt(y1)} Q {_fmt(qx)} {_fmt(qy)} {_fmt(x2)} {_fmt(y2)}"
            mx, my = (mx + qx) / 2, (my + qy) / 2
        curves.append(
            f'<path d="{d_attr}" fill="none" stroke="{OVER_COLOR}" stroke-width="1.6"/>'
        )
        labels.append(_text(mx, my - 3, str(label), 8))
    body.extend(curves)
    for i, (_a, _b, _c, _d, s) in enumerate(pd.crossings):
        x, y = vpos(i)
        body.append(_dot(x, y, 3.6, CURVE_COLOR))
        body.append(_text(x, y - 8, f"x{i + 1}{'+' if s == 1 else '-'}", 9))
    body.extend(labels)
    return _svg(size, size, body)
