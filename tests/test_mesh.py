import numpy as np
import pytest

import oracles
from wgconvect import mesh as m

UNIT = (0.0, 1.0, 0.0, 1.0)
TWO_BY_ONE = (-1.0, 1.0, 0.0, 1.0)


def test_single_cell_counts_and_euler():
    msh = m.build_structured_mesh(1, 1, UNIT, UNIT)
    assert msh.n_vertices == 4
    assert msh.n_elems == 2
    assert msh.n_faces == 5
    assert msh.n_vertices - msh.n_faces + msh.n_elems == 1


def test_counts_4x2_with_solid_half():
    # fluid occupies the right half of a 2x1 domain
    msh = m.build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    assert msh.n_elems == 16
    assert np.sum(msh.elem_subdomain == m.FLUID) == 8
    assert np.sum(msh.elem_subdomain == m.SOLID) == 8


def test_counts_8x4():
    msh = m.build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)
    assert msh.n_elems == 64
    assert np.sum(msh.elem_subdomain == m.FLUID) == 32


def test_mesh_size_values():
    # h_K = sqrt(2 |K|) equals the square-cell edge length on these grids
    msh = m.build_structured_mesh(1, 1, UNIT, UNIT)
    assert m.mesh_size(msh) == pytest.approx(1.0, abs=1e-15)
    msh = m.build_structured_mesh(8, 8, UNIT, UNIT)
    assert m.mesh_size(msh) == pytest.approx(1.0 / 8, abs=1e-15)
    # square cells of size 1/4 on the 2x1 domain
    msh = m.build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)
    assert m.mesh_size(msh) == pytest.approx(1.0 / 4, abs=1e-15)


def test_refinement_halves_h_exactly():
    for nx, ny in [(2, 2), (4, 2), (8, 4)]:
        h1 = m.mesh_size(m.build_structured_mesh(nx, ny, TWO_BY_ONE, UNIT))
        h2 = m.mesh_size(m.build_structured_mesh(2 * nx, 2 * ny, TWO_BY_ONE, UNIT))
        assert h2 == h1 / 2


def test_all_elements_ccw_and_area():
    msh = m.build_structured_mesh(6, 3, TWO_BY_ONE, UNIT)
    assert np.all(msh.det_b > 0)
    assert 0.5 * msh.det_b.sum() == pytest.approx(2.0, rel=1e-14)


def test_affine_map_reproduces_vertices():
    msh = m.build_structured_mesh(3, 2, UNIT, UNIT)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elems = np.arange(msh.n_elems)
    mapped = msh.map_points(elems, ref)
    expect = msh.vertices[msh.triangles]
    assert np.allclose(mapped, expect, atol=1e-14)


def test_to_reference_inverts_map_points():
    msh = m.build_structured_mesh(4, 2, TWO_BY_ONE, UNIT)
    ref = np.random.default_rng(3).random((5, 2)) * 0.5
    elems = np.arange(msh.n_elems)
    back = msh.to_reference(elems, msh.map_points(elems, ref))
    assert back.shape == (msh.n_elems, 5, 2)
    assert np.max(np.abs(back - ref)) < 1e-13


def test_element_maps_match_einsum_oracle():
    msh = m.build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)
    rng = np.random.default_rng(4)
    elems = rng.permutation(msh.n_elems)[:40]
    ref = rng.random((9, 2)) * 0.5
    mapped = msh.map_points(elems, ref)
    want = oracles.map_points(msh, elems, ref)
    assert np.max(np.abs(mapped - want)) <= 1e-14 * np.max(np.abs(want))
    pts = rng.uniform(-1.0, 1.0, (len(elems), 9, 2))
    back = msh.to_reference(elems, pts)
    want = oracles.to_reference(msh, elems, pts)
    assert np.max(np.abs(back - want)) <= 1e-14 * np.max(np.abs(want))


def test_face_normal_points_away_from_first_element():
    msh = m.build_structured_mesh(4, 3, UNIT, UNIT)
    mid = 0.5 * (msh.vertices[msh.faces[:, 0]] + msh.vertices[msh.faces[:, 1]])
    first = msh.face_elems[:, 0]
    centroid = msh.vertices[msh.triangles[first]].mean(axis=1)
    dots = np.einsum("fd,fd->f", msh.normals, mid - centroid)
    assert np.all(dots > 0)
    # interior faces: first adjacent element has the lower index
    interior = msh.face_elems[:, 1] >= 0
    assert np.all(msh.face_elems[interior, 0] < msh.face_elems[interior, 1])


def test_elem_face_normals_are_outward():
    msh = m.build_structured_mesh(3, 3, UNIT, UNIT)
    centroid = msh.vertices[msh.triangles].mean(axis=1)
    for e in range(msh.n_elems):
        for lf in range(3):
            f = msh.elem_faces[e, lf]
            mid = 0.5 * (msh.vertices[msh.faces[f, 0]] + msh.vertices[msh.faces[f, 1]])
            assert np.dot(msh.elem_face_normal[e, lf], mid - centroid[e]) > 0


def test_local_face_matches_vertex_pair():
    msh = m.build_structured_mesh(2, 2, UNIT, UNIT)
    for e in range(msh.n_elems):
        tri = msh.triangles[e]
        for lf in range(3):
            pair = {tri[lf], tri[(lf + 1) % 3]}
            f = msh.elem_faces[e, lf]
            assert pair == set(msh.faces[f])
            # flip flag is set exactly when the sorted pair reverses the edge
            flipped = msh.faces[f, 0] != tri[lf]
            assert msh.elem_face_flip[e, lf] == flipped


def test_face_tags_partition():
    msh = m.build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)
    tags = msh.face_tag
    # interface faces lie on x = 0 between fluid and solid
    iface = np.flatnonzero(tags == m.INTERFACE)
    mid = 0.5 * (msh.vertices[msh.faces[iface, 0]] + msh.vertices[msh.faces[iface, 1]])
    assert np.allclose(mid[:, 0], 0.0, atol=1e-14)
    assert len(iface) == 4
    # no interior-solid face touches a fluid element
    for f in np.flatnonzero(tags == m.INTERIOR_SOLID):
        for e in msh.face_elems[f]:
            assert msh.elem_subdomain[e] == m.SOLID
    # boundary faces have exactly one neighbour
    outer = tags == m.OUTER
    assert np.all(msh.face_elems[outer, 1] == -1)
    assert np.all(msh.face_elems[~outer, 1] >= 0)


def test_velocity_dirichlet_faces_enclose_fluid():
    msh = m.build_structured_mesh(8, 4, TWO_BY_ONE, UNIT)
    fixed = np.flatnonzero(msh.vel_dirichlet_mask)
    # boundary of the unit fluid box: 4 faces per side on this grid
    assert len(fixed) == 16
    mid = 0.5 * (msh.vertices[msh.faces[fixed, 0]] + msh.vertices[msh.faces[fixed, 1]])
    on_edge = (np.isclose(mid[:, 0], 0.0) | np.isclose(mid[:, 0], 1.0)
               | np.isclose(mid[:, 1], 0.0) | np.isclose(mid[:, 1], 1.0))
    assert np.all(on_edge)


def test_face_wall_classification():
    msh = m.build_structured_mesh(4, 4, UNIT, UNIT)
    wall = msh.face_wall()
    outer = msh.face_tag == m.OUTER
    assert np.all(wall[outer] != "")
    assert np.all(wall[~outer] == "")
    assert np.sum(wall == "left") == 4
    assert np.sum(wall == "top") == 4


def test_misaligned_fluid_rect_rejected():
    with pytest.raises(ValueError, match="x1"):
        m.build_structured_mesh(4, 2, TWO_BY_ONE, (0.0, 0.9, 0.0, 1.0))
    with pytest.raises(ValueError, match="y0"):
        m.build_structured_mesh(4, 2, TWO_BY_ONE, (0.0, 1.0, 0.3, 1.0))


def test_fluid_rect_outside_domain_rejected():
    with pytest.raises(ValueError, match="contained"):
        m.build_structured_mesh(2, 2, UNIT, (0.0, 2.0, 0.0, 1.0))
