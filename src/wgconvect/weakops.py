"""Reference tables and the batched discrete weak gradient.

A weak function on an element is a pair (interior polynomial, one trace
polynomial per face).  Its weak gradient of target degree r is the field in
[P_r(K)]^2 whose moments against every test field reproduce the
integration-by-parts formula

    (grad_w v, tau)_K = -(v0, div tau)_K + <vb, tau . n>_{dK}.

Because all bases are orthonormal pullbacks, it reduces to one dense matrix
per element built from a handful of reference-element tables that only
depend on the degrees, not on the element: the geometry enters through
inv(B)^T, det(B), face lengths, outward normals, and the face-orientation
flips.  gradient_matrix builds those matrices for a batch of elements; the
forms, the norms and the error reports all take the weak gradient from it.

Face-trace coefficients are always taken in the global face orientation
(from the face's lower-index vertex to the higher one); the orientation flip
relative to the element's own traversal is folded into the matrices using
the edge-basis parity psi_g(1 - t) = (-1)^g psi_g(t).
"""

from functools import lru_cache

import numpy as np

from . import polybasis as pb

# local edge lf of the reference triangle runs from vertex lf to vertex
# (lf + 1) % 3, with vertices (0,0), (1,0), (0,1)
_REF_EDGE = np.array([
    [[0.0, 0.0], [1.0, 0.0]],
    [[1.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [0.0, 0.0]],
])


def ref_edge_points(lf, s):
    """Reference coordinates along local edge lf at parameters s in [0, 1]."""
    a, b = _REF_EDGE[lf]
    s = np.asarray(s, dtype=float)
    return a + s[:, None] * (b - a)


def flip_signs(trace_degree):
    """Per-member sign picked up when a face is traversed backwards."""
    return (-1.0) ** np.arange(trace_degree + 1)


def face_signs(mesh, elems, trace_degree):
    """FS[e, lf, g], (E, 3, l+1): flip_signs on the faces that element e
    traverses backwards, 1 on the others."""
    return np.where(mesh.elem_face_flip[elems][:, :, None],
                    flip_signs(trace_degree), 1.0)


# ----------------------------------------------------------------------
# reference tables (geometry-independent, cached per degree tuple)


@lru_cache(maxsize=None)
def deriv_table(target_degree, interior_degree):
    """D[dp, a, b] = integral over That of d_dp(phi^r_a) phi^k_b."""
    quad = pb.quad_rule(target_degree + interior_degree, "triangle")
    gr = pb.scalar_basis(target_degree, "triangle").grad(quad.points)
    phi = pb.scalar_basis(interior_degree, "triangle").eval(quad.points)
    return np.einsum("q,qap,qb->pab", quad.weights, gr, phi)


@lru_cache(maxsize=None)
def edge_table(target_degree, trace_degree):
    """E[lf, a, g] = integral over [0,1] of phi^r_a(edge_lf(s)) psi_g(s)."""
    quad = pb.quad_rule(target_degree + trace_degree + 2, "edge")
    psi = pb.scalar_basis(trace_degree, "edge").eval(quad.points)
    tri = pb.scalar_basis(target_degree, "triangle")
    out = np.empty((3, tri.dim, trace_degree + 1))
    for lf in range(3):
        phi = tri.eval(ref_edge_points(lf, quad.points))
        out[lf] = np.einsum("q,qa,qg->ag", quad.weights, phi, psi)
    return out


@lru_cache(maxsize=None)
def conv_volume_table(degree):
    """T[a, b, g, dp] = integral of phi_a d_dp(phi_b) phi_g, all degree k."""
    quad = pb.quad_rule(3 * degree + 1, "triangle")
    basis = pb.scalar_basis(degree, "triangle")
    phi = basis.eval(quad.points)
    gr = basis.grad(quad.points)
    return np.einsum("q,qa,qbp,qg->abgp", quad.weights, phi, gr, phi)


@lru_cache(maxsize=None)
def conv_face_table(interior_degree, trace_degree):
    """F[lf, ap, b, gp] = integral of psi_ap(s) phi_b(edge_lf(s)) psi_gp(s)."""
    quad = pb.quad_rule(interior_degree + 2 * trace_degree + 2, "edge")
    psi = pb.scalar_basis(trace_degree, "edge").eval(quad.points)
    tri = pb.scalar_basis(interior_degree, "triangle")
    out = np.empty((3, trace_degree + 1, tri.dim, trace_degree + 1))
    for lf in range(3):
        phi = tri.eval(ref_edge_points(lf, quad.points))
        out[lf] = np.einsum("q,qa,qb,qg->abg", quad.weights, psi, phi, psi)
    return out


# ----------------------------------------------------------------------
# the batched weak gradient


def gradient_matrix(mesh, elems, interior_degree, trace_degree,
                    target_degree):
    """Weak gradient as one matrix per element, (E, 2*dim_r, ns).

    Columns follow the scalar local layout [interior | face 0 | face 1 |
    face 2] of length ns = dim_k + 3 (l+1), with traces in the global face
    orientation; rows are component-major [P_r]^2 coefficients.  The weak
    gradient of the local vector v has coefficients
    g[d * dim_r + a] = sum_s G[d * dim_r + a, s] v[s].
    """
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    D = deriv_table(target_degree, interior_degree)      # (2, dim_r, dim_k)
    E = edge_table(target_degree, trace_degree)          # (3, dim_r, l+1)
    ne = len(elems)
    dim_r, dim_k = D.shape[1:]
    nt = trace_degree + 1
    # interior columns: -sum_p inv_bt[e, d, p] D[p, a, b], one product
    M_int = -(mesh.inv_bt[elems].reshape(-1, 2) @ D.reshape(2, -1))
    # face columns: M_face[e, lf, d, a, g] = |e_lf| / det n_d E[lf, a, g]
    # FS[e, lf, g]
    fac = mesh.elem_face_len[elems] / mesh.det_b[elems][:, None]   # (E, 3)
    fn = fac[:, :, None] * mesh.elem_face_normal[elems]          # (E, 3, 2)
    FS = face_signs(mesh, elems, trace_degree)
    M_face = fn[:, :, :, None, None] * E[:, None] * FS[:, :, None, None]
    return np.concatenate(
        [M_int.reshape(ne, 2 * dim_r, dim_k),
         M_face.transpose(0, 2, 3, 1, 4).reshape(ne, 2 * dim_r, 3 * nt)],
        axis=2)
