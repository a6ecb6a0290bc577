"""Deterministic SVG 1.1 figures for plane (d = 2) instances.

Points are colored by class, piece hulls are drawn as translucent
polygons, and a certificate adds either a crosshair at the common point
or the certified line.  All arithmetic stays rational until the final
fixed-precision formatting, so the byte output is a pure function of
the inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .solver import TransversalCertificate, TverbergCertificate

WIDTH = 640
HEIGHT = 480
MARGIN = 40

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#b07aa1",
    "#76b7b2",
    "#edc948",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)
ACCENT = "#111111"

_SHAPES = ("circle", "square", "diamond")


def _fmt(x: Fraction) -> str:
    """Fixed three-decimal rendering, computed exactly."""
    scaled = round(Fraction(x) * 1000)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 1000}.{scaled % 1000:03d}"


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Counterclockwise hull via the monotone chain; collinear points dropped."""
    pts = sorted(set((Fraction(p[0]), Fraction(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


class _Frame:
    """Affine data-to-canvas map with uniform scale and a flipped y axis."""

    def __init__(self, points):
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        self.xmin, self.xmax = min(xs), max(xs)
        self.ymin, self.ymax = min(ys), max(ys)
        if self.xmin == self.xmax:
            self.xmin -= 1
            self.xmax += 1
        if self.ymin == self.ymax:
            self.ymin -= 1
            self.ymax += 1
        avail_w = Fraction(WIDTH - 2 * MARGIN)
        avail_h = Fraction(HEIGHT - 2 * MARGIN)
        self.scale = min(
            avail_w / (self.xmax - self.xmin), avail_h / (self.ymax - self.ymin)
        )
        self.xpad = (avail_w - (self.xmax - self.xmin) * self.scale) / 2
        self.ypad = (avail_h - (self.ymax - self.ymin) * self.scale) / 2

    def to_canvas(self, point):
        sx = MARGIN + self.xpad + (Fraction(point[0]) - self.xmin) * self.scale
        sy = HEIGHT - MARGIN - self.ypad - (Fraction(point[1]) - self.ymin) * self.scale
        return sx, sy

    def data_window(self):
        """The data-coordinate rectangle covering the whole canvas."""
        slack_x = (MARGIN + self.xpad) / self.scale
        slack_y = (MARGIN + self.ypad) / self.scale
        return (
            self.xmin - slack_x,
            self.xmax + slack_x,
            self.ymin - slack_y,
            self.ymax + slack_y,
        )


def _line_window_range(base, direction, window):
    """Parameter interval where base + t*direction stays inside the window."""
    xlo, xhi, ylo, yhi = window
    tlo = thi = None
    for c, lo, hi in ((0, xlo, xhi), (1, ylo, yhi)):
        if direction[c] == 0:
            if not lo <= base[c] <= hi:
                return None
            continue
        t1 = (lo - base[c]) / direction[c]
        t2 = (hi - base[c]) / direction[c]
        if t1 > t2:
            t1, t2 = t2, t1
        tlo = t1 if tlo is None else max(tlo, t1)
        thi = t2 if thi is None else min(thi, t2)
    if tlo is None or tlo > thi:
        return None
    return tlo, thi


def _marker(shape: str, sx: Fraction, sy: Fraction, fill: str) -> str:
    style = f'fill="{fill}" stroke="#333333" stroke-width="1"'
    if shape == "square":
        return (
            f'<rect x="{_fmt(sx - 4)}" y="{_fmt(sy - 4)}" width="8" height="8" '
            f"{style} />"
        )
    if shape == "diamond":
        pts = " ".join(
            f"{_fmt(px)},{_fmt(py)}"
            for px, py in (
                (sx, sy - 5),
                (sx + 5, sy),
                (sx, sy + 5),
                (sx - 5, sy),
            )
        )
        return f'<polygon points="{pts}" {style} />'
    return f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" {style} />'


def _hull_elements(frame, points, color: str) -> list[str]:
    hull = convex_hull(points)
    if len(hull) < 2:
        return []
    coords = [frame.to_canvas(p) for p in hull]
    if len(hull) == 2:
        (ax, ay), (bx, by) = coords
        return [
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{color}" stroke-width="2" stroke-opacity="0.7" />'
        ]
    pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in coords)
    return [
        f'<polygon points="{pts}" fill="{color}" fill-opacity="0.15" '
        f'stroke="{color}" stroke-width="1.5" stroke-opacity="0.7" />'
    ]


def _partition_hulls(frame, config, partition, palette_offset: int) -> list[str]:
    elements = []
    for j, piece in enumerate(partition.pieces):
        if not piece:
            continue
        color = PALETTE[(palette_offset + j) % len(PALETTE)]
        elements.extend(_hull_elements(frame, [config.points[i] for i in piece], color))
    return elements


def _line(a, b, width: str) -> str:
    """An accent segment between canvas points a and b."""
    (ax, ay), (bx, by) = a, b
    return (
        f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
        f'stroke="{ACCENT}" stroke-width="{width}" />'
    )


def render_svg(instance, certificate=None) -> str:
    """Render an instance (and optionally its certificate) to an SVG document."""
    if instance.d != 2:
        raise PreconditionError("plots require a d = 2 instance")
    # what a certificate draws: piece hulls, a plane, witness dots, a common point
    if certificate is None:
        partitions, plane, witnesses, common = (), None, (), ()
    elif isinstance(certificate, TverbergCertificate):
        partitions, plane, witnesses = (certificate.partition,), None, ()
        common = (certificate.point,)
    elif isinstance(certificate, TransversalCertificate):
        partitions, plane, common = certificate.partitions, certificate.plane, ()
        witnesses = [p for col in certificate.witness_points for p in col]
    else:
        raise TypeError(f"not a certificate: {certificate!r}")

    frame = _Frame([p for cfg in instance.collections for p in cfg.points] + [*witnesses, *common])

    body: list[str] = [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff" />'
    ]

    # hull polygons under everything else
    offset = 0
    for cfg, partition in zip(instance.collections, partitions):
        body.extend(_partition_hulls(frame, cfg, partition, offset))
        offset += len(partition.pieces)

    # the certified plane
    if plane is not None and plane.dim >= 2:
        body.append(
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" '
            f'fill="{ACCENT}" fill-opacity="0.08" />'
        )
    elif plane is not None and plane.dim == 1:
        span = _line_window_range(plane.base, plane.directions[0], frame.data_window())
        if span is not None:
            ends = [
                tuple(b + t * v for b, v in zip(plane.base, plane.directions[0])) for t in span
            ]
            body.append(_line(*map(frame.to_canvas, ends), "2"))
    for p in witnesses:
        sx, sy = frame.to_canvas(p)
        body.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="2.5" fill="{ACCENT}" />')

    # instance points, colored by class, one marker shape per collection
    class_color = 0
    for ell, cfg in enumerate(instance.collections):
        shape = _SHAPES[ell % len(_SHAPES)]
        for cls in cfg.classes:
            color = PALETTE[class_color % len(PALETTE)]
            class_color += 1
            for i in cls:
                sx, sy = frame.to_canvas(cfg.points[i])
                body.append(_marker(shape, sx, sy, color))

    # the common point, drawn last so it sits on top
    for sx, sy in map(frame.to_canvas, common):
        body.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="5" fill="none" '
            f'stroke="{ACCENT}" stroke-width="1.5" />'
        )
        body.append(_line((sx - 8, sy), (sx + 8, sy), "1.5"))
        body.append(_line((sx, sy - 8), (sx, sy + 8), "1.5"))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        *body,
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
