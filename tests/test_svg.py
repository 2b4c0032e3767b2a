import xml.etree.ElementTree as ET

from coxhull.convexity import halfspace_hull
from coxhull.svg import hull_scene

SVG_NS = "{http://www.w3.org/2000/svg}"


def scene_for(ctx, u_word, v_word, w_word):
    u = ctx.chamber_from_word(int(d) - 1 for d in u_word)
    v = ctx.chamber_from_word(int(d) - 1 for d in v_word)
    w = ctx.chamber_from_word(int(d) - 1 for d in w_word)
    hull_uv = halfspace_hull([u, v])
    hull_vw = halfspace_hull([v, w])
    hull_uvw = halfspace_hull([u, v, w])
    return hull_scene(u, v, w, hull_uv, hull_vw, hull_uvw), hull_uvw


def test_filled_polygon_count_matches_hull(a2):
    scene, hull_uvw = scene_for(a2, "", "121", "2313")
    assert scene.filled_count() == hull_uvw.size


def test_svg_is_valid_xml_with_expected_elements(a2):
    scene, hull_uvw = scene_for(a2, "", "121", "2313")
    root = ET.fromstring(scene.to_svg())
    polygons = root.findall(f"{SVG_NS}polygon")
    filled = [p for p in polygons if p.get("class") != "plain"]
    assert len(filled) == hull_uvw.size
    assert all(p.get("class") in {"hull-uv", "hull-vw", "hull-uvw", "plain"}
               for p in polygons)
    assert root.findall(f"{SVG_NS}line")
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert sorted(texts) == ["u", "v", "w"]


def test_membership_classes_partition(c2):
    scene, _ = scene_for(c2, "", "131", "12321")
    classes = [cls for _, cls in scene.polygons]
    assert classes.count("hull-uv") >= 2
    assert classes.count("hull-vw") >= 2
    assert "plain" in classes


def test_viewbox_covers_polygons(g2):
    scene, _ = scene_for(g2, "", "12", "321")
    min_x, min_y, w, h = scene.viewbox
    for points, _ in scene.polygons:
        for x, y in points:
            assert min_x <= x <= min_x + w
            assert min_y <= y <= min_y + h
