"""The batched element kernels against their einsum oracles.

weakops.gradient_matrix and forms.face_projection_matrix multiply, and
never sum, apart from the two-term interior product, so they must match
their oracles bit for bit.  The diffusion and transport blocks and the
triple norm sum in another order than their oracles, so they are held to
1e-14 relative to the largest oracle entry.
"""

import numpy as np
import pytest

from wgconvect import forms
from wgconvect import linsys
from wgconvect import postproc
from wgconvect import problems
from wgconvect import weakops as wo
from wgconvect.mesh import build_structured_mesh

import oracles

REL = 1e-14
METHODS = [("wg1", 1), ("wg2", 1), ("wg3", 1),
           ("wg1", 2), ("wg2", 2), ("wg3", 2)]
MESHES = {"structured": build_structured_mesh,
          "alternating": oracles.alternating_mesh}


def setup(mesh_kind, variant, degree, nx=8, ny=4):
    prob = problems.manufactured_convection()
    mesh = MESHES[mesh_kind](nx, ny, prob.domain, prob.fluid_rect)
    return mesh, forms.MethodParams.from_variant(variant, degree)


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("mesh_kind", sorted(MESHES))
@pytest.mark.parametrize("variant,degree", METHODS)
def test_gradient_and_face_projection_are_their_oracles_bitwise(
        mesh_kind, variant, degree):
    mesh, p = setup(mesh_kind, variant, degree)
    elems = np.arange(mesh.n_elems)
    k, l, m = p.degree, p.trace_degree, p.grad_degree
    # the forms' weak gradient, and the pressure's (forms.pressure_blocks)
    for degrees in ((k, l, m), (k - 1, k, k)):
        assert np.array_equal(
            wo.gradient_matrix(mesh, elems, *degrees),
            oracles.gradient_matrix(mesh, elems, *degrees))
    assert np.array_equal(forms.face_projection_matrix(mesh, elems, k, l),
                          oracles.face_projection_matrix(mesh, elems, k, l))


@pytest.mark.parametrize("mesh_kind", sorted(MESHES))
@pytest.mark.parametrize("variant,degree", METHODS)
def test_diffusion_blocks_match_their_oracle(mesh_kind, variant, degree):
    mesh, p = setup(mesh_kind, variant, degree)
    elems = np.arange(mesh.n_elems)
    assert_close(forms.scalar_laplacian_blocks(mesh, elems, p),
                 oracles.scalar_laplacian_blocks(mesh, elems, p))


@pytest.mark.parametrize("mesh_kind", sorted(MESHES))
@pytest.mark.parametrize("variant,degree", METHODS)
def test_transport_blocks_match_their_oracle(mesh_kind, variant, degree):
    mesh, p = setup(mesh_kind, variant, degree)
    fe = mesh.fluid_elems
    rng = np.random.default_rng(27 + degree)
    for _ in range(3):
        w0 = rng.standard_normal((len(fe), 2, p.interior_dim))
        wb = rng.standard_normal((len(fe), 3, 2, p.trace_dim))
        assert_close(forms.skew_convection_blocks(mesh, fe, p, w0, wb),
                     oracles.skew_convection_blocks(mesh, fe, p, w0, wb))


@pytest.mark.parametrize("mesh_kind", sorted(MESHES))
@pytest.mark.parametrize("variant,degree", METHODS)
def test_triple_norm_matches_its_oracle(mesh_kind, variant, degree):
    mesh, p = setup(mesh_kind, variant, degree)
    dm = linsys.DofMap(mesh, p)
    rng = np.random.default_rng(270 + degree)
    for kind in ("velocity", "temperature"):
        mats = postproc.norm_matrices(mesh, p, kind)
        for _ in range(3):
            fields = postproc.WgFields(dm, rng.standard_normal(dm.n_dofs))
            want = oracles.triple_norm(fields, kind, mats)
            got = postproc.triple_norm(fields, kind, matrices=mats)
            assert abs(got - want) <= REL * want


@pytest.mark.parametrize("mesh_kind", sorted(MESHES))
@pytest.mark.parametrize("variant,degree", [("wg1", 1), ("wg1", 2),
                                            ("wg3", 2)])
def test_velocity_norm_blocks_are_fluid_rows_of_temperature_blocks(
        mesh_kind, variant, degree):
    # oseen_solve builds the diffusion blocks once and takes the velocity
    # norm's from the temperature norm's fluid rows; they must be the
    # blocks a separate build gives, bit for bit
    mesh, p = setup(mesh_kind, variant, degree, 16, 8)
    blocks = postproc.norm_matrices(mesh, p, "temperature")
    assert np.array_equal(blocks[mesh.fluid_elems],
                          postproc.norm_matrices(mesh, p, "velocity"))
