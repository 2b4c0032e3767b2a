"""SVG rendering of tessellations and shaded hulls.

Chambers and walls are exact in their type's lattice frame; they become
float Cartesian coordinates only here, when a scene is built for
serialization.  A hexagonal frame point (a, b) is drawn at
(a + b/2, b*sqrt3/2), and a frame line n1*a + n2*b = c is the Cartesian
line n1*X + (2*n2 - n1)/sqrt3 * Y = c.  Each drawn polygon carries exactly
one class: hull-uv, hull-vw, hull-uvw (membership precedence in that
order) or plain for the surrounding belt.  Walls are clipped line
segments, one per family offset crossing the viewport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .convexity import ChamberSet
from .coxeter import TypeTag
from .tessellation import Chamber, GroupContext

_MARGIN = 0.05
_ROOT3 = math.sqrt(3.0)


@dataclass
class SvgScene:
    viewbox: tuple  # (min_x, min_y, width, height) in plane coordinates
    polygons: list  # (points, css_class)
    lines: list     # ((x1, y1), (x2, y2))
    labels: list    # (text, (x, y))

    def filled_count(self) -> int:
        return sum(1 for _, cls in self.polygons if cls != "plain")

    def to_svg(self) -> str:
        min_x, min_y, w, h = self.viewbox
        # Flip y so the plane's upward direction points up on screen.
        def pt(p):
            return f"{float(p[0]):.5f},{-float(p[1]):.5f}"

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{min_x:.5f} {-(min_y + h):.5f} {w:.5f} {h:.5f}">',
            "<style>",
            ".hull-uv{fill:#9a9a9a}.hull-vw{fill:#bfbfbf}.hull-uvw{fill:#e3e3e3}",
            ".plain{fill:#ffffff}",
            "polygon{stroke:#555555;stroke-width:0.015}",
            "line{stroke:#aaaaaa;stroke-width:0.01}",
            "text{font-size:0.32px;font-family:sans-serif;text-anchor:middle;"
            "dominant-baseline:middle}",
            "</style>",
        ]
        for (x1, y1), (x2, y2) in self.lines:
            out.append(f'<line x1="{x1:.5f}" y1="{-y1:.5f}" '
                       f'x2="{x2:.5f}" y2="{-y2:.5f}"/>')
        for points, cls in self.polygons:
            body = " ".join(pt(p) for p in points)
            out.append(f'<polygon class="{cls}" points="{body}"/>')
        for text, (x, y) in self.labels:
            out.append(f'<text x="{float(x):.5f}" y="{-float(y):.5f}">{text}</text>')
        out.append("</svg>")
        return "\n".join(out) + "\n"


def _clip_line_to_box(n1, n2, c, box):
    """Segment of the line n1*x + n2*y = c inside an axis-aligned box."""
    min_x, min_y, max_x, max_y = box
    pts = []
    if abs(n2) > 1e-12:
        for x in (min_x, max_x):
            y = (c - n1 * x) / n2
            if min_y - 1e-9 <= y <= max_y + 1e-9:
                pts.append((x, y))
    if abs(n1) > 1e-12:
        for y in (min_y, max_y):
            x = (c - n2 * y) / n1
            if min_x - 1e-9 <= x <= max_x + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-7 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def _plane_maps(ctx: GroupContext):
    """Float Cartesian image of a frame point, and the Cartesian normal of
    a frame line's normal covector, for the context's frame."""
    if ctx.tag in (TypeTag.A2Tilde, TypeTag.G2Tilde):
        return (lambda p: (float(p[0] + p[1] / 2), float(p[1]) * _ROOT3 / 2),
                lambda n: (float(n[0]), float(2 * n[1] - n[0]) / _ROOT3))
    return (lambda p: (float(p[0]), float(p[1])),
            lambda n: (float(n[0]), float(n[1])))


def hull_scene(ctx: GroupContext,
               u: Chamber, v: Chamber, w: Chamber,
               hull_uv: ChamberSet, hull_vw: ChamberSet,
               hull_uvw: ChamberSet) -> SvgScene:
    """Scene with the triple hull shaded and its pair hulls emphasized."""
    point, normal = _plane_maps(ctx)
    drawn = {}
    for c in hull_uvw:
        if c in hull_uv:
            cls = "hull-uv"
        elif c in hull_vw:
            cls = "hull-vw"
        else:
            cls = "hull-uvw"
        drawn[c] = cls
    belt = {}
    for c in list(drawn):
        for _, nb in c.neighbors():
            if nb not in drawn and nb not in belt:
                belt[nb] = "plain"

    polygons = []
    xs, ys = [], []
    for c, cls in list(drawn.items()) + list(belt.items()):
        verts = [point(p) for p in c.vertices()]
        xs.extend(x for x, _ in verts)
        ys.extend(y for _, y in verts)
        polygons.append((verts, cls))

    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    pad = _MARGIN * max(max_x - min_x, max_y - min_y, 1.0)
    box = (min_x - pad, min_y - pad, max_x + pad, max_y + pad)
    viewbox = (box[0], box[1], box[2] - box[0], box[3] - box[1])

    lines = []
    corners = [(box[0], box[1]), (box[0], box[3]), (box[2], box[1]), (box[2], box[3])]
    for *fam_normal, r, gap in ctx.families:
        n1, n2 = normal(fam_normal)
        values = [(n1 * x + n2 * y - r) / gap for x, y in corners]
        for k in range(math.ceil(min(values)), math.floor(max(values)) + 1):
            seg = _clip_line_to_box(n1, n2, float(r + k * gap), box)
            if seg:
                lines.append(seg)

    labels = []
    for text, ch in (("u", u), ("v", v), ("w", w)):
        labels.append((text, point(ch.barycenter)))

    return SvgScene(viewbox, polygons, lines, labels)
