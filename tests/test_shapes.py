import math

import numpy as np
import pytest

from pompeiu.shapes import (Annulus, Ball, DisjointUnion, PolarRule, Polytope,
                            load_set_spec, parse_set, set_to_spec)

from references import simplex_nodes


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


@pytest.mark.parametrize("vertices", [
    [[0, 0], [1, 0], [0, 1]],
    [[np.cos(a), np.sin(a)] for a in np.linspace(0, 2 * np.pi, 41)[:-1]],
    [[0.3, -1.2], [2.5, 0.1], [1.7, 2.2], [-0.4, 1.9], [-1.1, 0.4]],
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]],
    [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
], ids=["triangle", "40-gon", "pentagon", "tetrahedron", "cube"])
def test_polytope_rule_equals_the_rules_of_its_simplices(vertices):
    """The rule on the whole simplex stack is, bit for bit, the rules of
    its simplices one at a time, stacked in order, at orders 8 to 64 (up
    to 2^20 points: the cube stops at 32)."""
    p = Polytope(vertices)
    for order in (8, 16, 24, 32, 64):
        if len(p.simplices()) * order ** p.dim > 2 ** 20:
            continue
        pts, wts = p.quad_nodes(order)
        want = [simplex_nodes(simplex, order) for simplex in p.simplices()]
        assert np.array_equal(pts, np.vstack([w[0] for w in want]))
        assert np.array_equal(wts, np.concatenate([w[1] for w in want]))


RADIAL = [Ball(1.0, 2), Ball(1.0, 3), Annulus(1.0, 2.0, 2), Annulus(2.0, 3.0, 3),
          DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]),
          DisjointUnion([Ball(1.0, 3), Annulus(2.0, 3.0, 3)])]


def _sample_radii(shape):
    """a = 0 and 1e-9, each boundary radius, the middle of each member and
    of each gap between members (the hole of an annulus), and a = R_max + 1
    and 10 outside."""
    ends = sorted({0.0} | {r for m in getattr(shape, "members", (shape,))
                           for r in m.radial_interval()})
    middles = [(lo + hi) / 2.0 for lo, hi in zip(ends, ends[1:])]
    return np.array([0.0, 1e-9] + ends[1:] + middles + [ends[-1] + 1.0, 10.0])


@pytest.mark.parametrize("shape", RADIAL,
                         ids=["disk", "ball3", "annulus", "annulus3", "rings", "rings3"])
def test_polar_weights_sum_to_the_volume(shape):
    """At every order from 8 to 512 the polar rule's weights sum, for every
    sample radius, to the volume within 1e-12 relative: the measures of the
    spheres about -x inside the shape integrate to its volume wherever x
    is, on a boundary or not.  Its radii lie in [0, a + R_max]."""
    radii = _sample_radii(shape)
    rule = PolarRule(shape, radii)
    assert rule.dim == 1
    top = max(m.radial_interval()[1] for m in getattr(shape, "members", (shape,)))
    for order in (8 << i for i in range(7)):
        r, w = rule.quad_nodes(order)
        assert r.shape == w.shape == (len(radii), r.shape[1])
        assert (r >= 0).all() and (r <= (radii + top)[:, None] * (1 + 1e-15)).all()
        assert np.abs(w.sum(axis=1) / shape.volume - 1.0).max() < 1e-12, order


def test_polar_rule_splits_at_the_tangent_radii():
    """[0, a + R_max] is split at 0 and at |a - R| and a + R for every
    boundary radius R, 2K pieces for K radii (some may be empty), each of
    4 order nodes, so the node count doubles with the order.  Off the
    shape's support the weights vanish: the disk about a point at
    distance 2 takes nothing from r < 1."""
    rule = PolarRule(Ball(1.0, 2), [0.5, 2.0])
    assert rule.edges.tolist() == [[0.0, 0.5, 1.5], [0.0, 1.0, 3.0]]
    rings = PolarRule(DisjointUnion([Ball(1.0, 2), Annulus(2.0, 3.0, 2)]), [2.5])
    # |a - 2| = |a - 3|: a piece of width zero, whose weights are zero
    assert rings.edges.tolist() == [[0.0, 0.5, 0.5, 1.5, 3.5, 4.5, 5.5]]
    for order in (8 << i for i in range(7)):
        assert rule.quad_nodes(order)[0].shape == (2, 2 * 4 * order)
        assert rings.quad_nodes(order)[0].shape == (1, 6 * 4 * order)
    r, w = rule.quad_nodes(8)
    assert (w[1, r[1] < 1.0] == 0.0).all() and (w[1, r[1] > 1.0] > 0.0).all()


# (inner, outer) at widths 1, 1/2, 1/3 and 1/151 of the outer radius: the
# radial order is halved 0, 1, 1 and 2 times
SHELLS = [(0.0, 1.0, 0), (1.0, 2.0, 1), (2.0, 3.0, 1), (3.0, 3.02, 2)]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("inner,outer,halvings", SHELLS, ids=["1", "1/2", "1/3", "1/151"])
def test_radial_count_doubles_with_the_order(inner, outer, halvings, dim):
    """From the integrator's start order 8 to 512 (64 in 3-space: at 128
    the rule is millions of nodes), the full rule has 8 >> halvings radii
    at order 8 and twice as many at every doubling, so two successive
    estimates never share a radial rule.  The angular and polar rules
    keep the order."""
    shape = Ball(outer, dim) if inner == 0.0 else Annulus(inner, outer, dim)
    per_radius = {2: lambda n: 2 * n, 3: lambda n: 2 * n * n}[dim]
    top = 512 if dim == 2 else 64
    orders = [8 << i for i in range(top.bit_length() - 3)]
    assert orders[-1] == top
    counts = [len(shape.quad_nodes(n)[0]) / per_radius(n) for n in orders]
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
