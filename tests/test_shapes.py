import math

import numpy as np
import pytest

from pompeiu.shapes import (Annulus, Ball, DisjointUnion, MeridianRule, Polytope,
                            load_set_spec, parse_set, set_to_spec)


def test_volumes():
    assert Ball(1.0, 2).volume == math.pi
    assert abs(Ball(2.0, 3).volume - 32.0 * math.pi / 3.0) < 1e-12
    assert abs(Annulus(1.0, 2.0, 2).volume - 3.0 * math.pi) < 1e-12
    assert abs(Polytope([[0, 0], [1, 0], [1, 1], [0, 1]]).volume - 1.0) < 1e-14
    assert abs(Polytope([[0, 0], [1, 0], [0, 1]]).volume - 0.5) < 1e-14
    cube = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert abs(cube.volume - 1.0) < 1e-12


def test_shape_invariants_rejected():
    with pytest.raises(ValueError):
        Ball(-1.0, 2)
    with pytest.raises(ValueError):
        Ball(1.0, 4)
    with pytest.raises(ValueError):
        Annulus(2.0, 1.0, 2)
    with pytest.raises(ValueError):
        Annulus(0.0, 1.0, 2)
    with pytest.raises(ValueError, match="degenerate"):
        Polytope([[0, 0], [1, 1], [2, 2]])    # collinear
    # finite radii whose volume overflows a float
    for make in (lambda: Ball(1e155, 2), lambda: Ball(1e103, 3), lambda: Annulus(1.0, 1e155, 2)):
        with pytest.raises(ValueError, match="volume overflows"):
            make()


def test_union_disjointness():
    # concentric rings are radially disjoint even though boxes overlap
    rings = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
    assert rings.is_radial
    assert abs(rings.volume - (math.pi + 5 * math.pi)) < 1e-12
    # separated boxes
    shifted = DisjointUnion([
        Polytope([[0, 0], [1, 0], [1, 1], [0, 1]]),
        Polytope([[2, 2], [3, 2], [3, 3], [2, 3]]),
    ])
    assert not shifted.is_radial
    with pytest.raises(ValueError, match="overlap"):
        DisjointUnion([Ball(1.0, 2), Annulus(0.5, 3.0, 2)])
    with pytest.raises(ValueError, match="overlap"):
        DisjointUnion([Polytope([[0, 0], [2, 0], [2, 2], [0, 2]]),
                       Polytope([[1, 1], [3, 1], [3, 3], [1, 3]])])
    with pytest.raises(ValueError, match="dimension"):
        DisjointUnion([Ball(1.0, 2), Ball(1.0, 3)])


def test_polytope_canonicalization():
    # interior points are dropped; vertex order comes from the hull
    p = Polytope([[0, 0], [1, 0], [0.5, 0.2], [1, 1], [0, 1]])
    assert len(p.vertices) == 4
    assert abs(p.volume - 1.0) < 1e-14


def test_polytope_transforms():
    p = Polytope([[0, 0], [1, 0], [0, 1]])
    shifted = p.translated([2.0, -1.0])
    assert abs(shifted.volume - p.volume) < 1e-14
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    turned = p.rotated(rot)
    assert abs(turned.volume - p.volume) < 1e-14


@pytest.mark.parametrize("shape", [
    Ball(1.0, 2),
    Ball(0.75, 3),
    Annulus(1.0, 2.0, 2),
    Annulus(0.5, 1.0, 3),
    Polytope([[0, 0], [1, 0], [1, 1], [0, 1]]),
    Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]),
])
def test_quad_nodes_integrate_one_to_volume(shape):
    pts, wts = shape.quad_nodes(24)
    assert pts.shape[1] == shape.dim
    assert abs(wts.sum() - shape.volume) < 1e-9 * max(1.0, shape.volume)


RADIAL = [Ball(1.0, 2), Ball(1.0, 3), Annulus(1.0, 2.0, 2), Annulus(2.0, 3.0, 3),
          DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])]


@pytest.mark.parametrize("shape", RADIAL, ids=["disk", "ball3", "annulus", "annulus3", "rings"])
def test_meridian_weights_sum_to_the_volume(shape):
    """At every order up to 64 the meridian rule's weights sum to those of
    the full rule, and to the volume once the Gauss radial rule is exact
    for r^(dim - 1) (one node in the plane, two in 3-space); its nodes lie
    on the shape's half of the meridian plane."""
    rule = MeridianRule(shape)
    assert rule.dim == 2
    for order in range(1, 65):
        pts, wts = rule.quad_nodes(order)
        full = shape.quad_nodes(order)[1].sum()
        assert pts.shape == (len(wts), 2) and (wts > 0).all()
        assert (pts[:, 1] > -1e-12).all()       # sin(pi) rounds either way
        assert abs(wts.sum() - full) < 1e-12 * full
        if order >= shape.dim - 1:
            assert abs(wts.sum() - shape.volume) < 1e-12 * shape.volume, order
    r = np.hypot(*pts.T)
    members = getattr(shape, "members", (shape,))
    inside = [(m.radial_interval()[0] - 1e-12 <= r) & (r <= m.radial_interval()[1] + 1e-12)
              for m in members]
    assert np.logical_or.reduce(inside).all()


def test_meridian_rule_is_the_full_rule_folded():
    """At order 4 the disk's meridian rule has 4 x 5 nodes, its folded
    angles 0, pi/4, ..., pi; the 3-D ball's has 4 x 4, one per radius and
    polar node.  At order 8 the annulus (1, 2), half as wide as its outer
    radius, has 4 radii: 4 x 9 meridian nodes, 4 x 16 in the full rule."""
    pts, _ = MeridianRule(Ball(1.0, 2)).quad_nodes(4)
    assert len(pts) == 20 and len(Ball(1.0, 2).quad_nodes(4)[0]) == 32
    angles = np.unique(np.round(np.arctan2(pts[:, 1], pts[:, 0]), 12))
    assert np.allclose(angles, np.pi * np.arange(5) / 4)
    assert len(MeridianRule(Ball(1.0, 3)).quad_nodes(4)[0]) == 16
    pts, _ = MeridianRule(Annulus(1.0, 2.0, 2)).quad_nodes(8)
    assert len(pts) == 4 * 9 and len(Annulus(1.0, 2.0, 2).quad_nodes(8)[0]) == 4 * 16
    assert len(np.unique(np.round(np.hypot(*pts.T), 12))) == 4


# (inner, outer) at widths 1, 1/2, 1/3 and 1/151 of the outer radius: the
# radial order is halved 0, 1, 1 and 2 times
SHELLS = [(0.0, 1.0, 0), (1.0, 2.0, 1), (2.0, 3.0, 1), (3.0, 3.02, 2)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("inner,outer,halvings", SHELLS, ids=["1", "1/2", "1/3", "1/151"])
def test_radial_count_doubles_with_the_order(inner, outer, halvings, dim):
    """From the integrator's start order 8 to 512, both rules have
    8 >> halvings radii at order 8 and twice as many at every doubling,
    so two successive estimates never share a radial rule (the 3-D full
    rule to order 64: at 128 it is millions of nodes).  The angular and
    polar rules keep the order."""
    shape = Ball(outer, dim) if inner == 0.0 else Annulus(inner, outer, dim)
    meridian = {2: lambda n: n + 1, 3: lambda n: n}[dim]   # angles (or polar nodes) per radius
    full = {2: lambda n: 2 * n, 3: lambda n: 2 * n * n}[dim]
    for rule, per_radius, top in ((MeridianRule(shape), meridian, 512),
                                  (shape, full, 512 if dim == 2 else 64)):
        orders = [8 << i for i in range(top.bit_length() - 3)]
        assert orders[-1] == top
        counts = [len(rule.quad_nodes(n)[0]) / per_radius(n) for n in orders]
        assert counts == [(8 >> halvings) << i for i in range(len(orders))], counts


def test_nested_unions_are_flattened():
    """The members of a member union join the union: the disjointness
    check and the rules see balls and annuli only, and the spec is the
    flat one."""
    nested = DisjointUnion([DisjointUnion([Ball(1.0, 2)]), Annulus(2.0, 3.0, 2)])
    flat = DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)])
    assert [type(m) for m in nested.members] == [Ball, Annulus]
    assert set_to_spec(nested) == set_to_spec(flat)
    assert nested.is_radial and nested.volume == flat.volume
    with pytest.raises(ValueError, match="overlap"):
        DisjointUnion([DisjointUnion([Ball(1.0, 2)]), Annulus(0.5, 3.0, 2)])


def test_bounding_boxes():
    lo, hi = Annulus(1.0, 2.0, 2).bounding_box()
    assert np.allclose(lo, [-2, -2]) and np.allclose(hi, [2, 2])
    lo, hi = Polytope([[0, 0], [3, 0], [0, 2]]).bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [3, 2])


def test_json_roundtrip():
    shapes = [
        Ball(1.5, 2),
        Annulus(1.0, 2.0, 3),
        Polytope([[0, 0], [1, 0], [1, 1], [0, 1]]),
        DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]),
    ]
    for shape in shapes:
        spec = set_to_spec(shape)
        again = parse_set(spec)
        assert type(again) is type(shape)
        assert abs(again.volume - shape.volume) < 1e-12


def test_load_set_spec_from_file(tmp_path):
    path = tmp_path / "disk.json"
    path.write_text('{"dim": 2, "shape": "ball", "radius": 1.0}')
    shape = load_set_spec(path)
    assert isinstance(shape, Ball)
    assert shape.radius == 1.0
    with pytest.raises(ValueError, match="unknown shape"):
        parse_set({"shape": "mug", "dim": 2})


def test_parse_set_takes_tuples_and_numpy_numbers():
    shape = parse_set({"dim": np.int64(2), "shape": "polytope",
                       "vertices": ((0, 0), (np.float64(1.0), 0), (0, 1))})
    assert shape.volume == 0.5
    assert parse_set({"shape": "ball", "radius": np.float32(2.0)}).radius == 2.0


@pytest.mark.parametrize("spec,field", [
    ({"shape": "ball", "radius": "1"}, "radius must be a number"),
    ({"shape": "annulus", "inner": 1, "outer": True}, "outer must be a number"),
    ({"shape": "ball", "radius": 1, "dim": 2.0}, "dim must be an integer"),
    ({"shape": "polytope", "vertices": {"0": [0, 0]}}, "vertices must be a list"),
    ({"shape": "polytope", "vertices": [[0, 0], 1, [0, 1]]}, "vertex must be a list"),
    ({"shape": "polytope", "vertices": [[0, 0], [1, "0"], [0, 1]]}, "vertex coordinate"),
    ({"shape": "union", "members": {"shape": "ball", "radius": 1}}, "members must be a list"),
    ({"shape": "union", "members": ["ball"]}, "union member must be an object"),
    (["ball"], "shape spec must be an object"),
    ({"shape": "ball", "radius": math.inf}, "radius must be positive and finite"),
    ({"shape": "annulus", "inner": 1, "outer": math.inf}, "need 0 < inner < outer < inf"),
])
def test_spec_fields_of_the_wrong_type_are_refused(spec, field):
    with pytest.raises(ValueError, match=field):
        parse_set(spec)
