"""Element-local blocks of the coupled momentum/heat scheme.

Local degree-of-freedom layout used throughout (per element):

* scalar weak function (temperature, or one velocity component):
  ``[interior P_k coefficients | face 0 trace | face 1 trace | face 2 trace]``
  of length ``ns = dim P_k + 3 (l+1)``;
* velocity: component-major, two scalar layouts back to back (length 2 ns);
* pressure: ``[interior P_{k-1} | three P_k face traces]``.

Face-trace coefficients are always in the global face orientation.  Blocks
are returned dense; matrices are laid out ``M[test, trial]`` so a form value
is ``test_vec @ M @ trial_vec``.

The viscous and conduction blocks realize

    coef * [ (grad_w u, grad_w v)_K + h_K^{-1} <Q_b u0 - ub, Q_b v0 - vb>_dK ],

with the weak gradient of target degree m.  The convective blocks realize
the skew form built from the weak divergence of the product function
(interior u0 w0, trace ub wb): with

    B(u, v) = sum_i [ -(u0_i w0, grad v0_i)_K + <ub_i (wb . n), v0_i>_dK ]

the block is (B^T - B)/2, antisymmetric by construction, so the convective
energy of any field against itself vanishes identically.
"""

import numpy as np

from . import polybasis as pb
from . import weakops as wo

# each variant's trace and weak-gradient degrees, as offsets from k
VARIANT_OFFSETS = {"WG-I": (0, 0), "WG-II": (0, -1), "WG-III": (-1, -1)}
VARIANTS = {"wg1": "WG-I", "wg2": "WG-II", "wg3": "WG-III",
            "wg-i": "WG-I", "wg-ii": "WG-II", "wg-iii": "WG-III"}


class MethodParams:
    """Polynomial degrees of the method.

    Parameters
    ----------
    degree : int
        Interior degree k >= 1 of velocity components and temperature
        (pressure interiors use k - 1 and pressure traces k).
    trace_degree : int
        Face degree l of velocity/temperature traces, k - 1 or k.
    grad_degree : int
        Target degree m of the weak gradient, k - 1 <= m <= l.

    The variant name ("WG-I", "WG-II" or "WG-III") follows from the
    degrees, by VARIANT_OFFSETS.
    """

    def __init__(self, degree, trace_degree=None, grad_degree=None):
        if trace_degree is None:
            trace_degree = degree
        if grad_degree is None:
            grad_degree = trace_degree
        if degree < 1:
            raise ValueError("degree must be at least 1")
        if trace_degree not in (degree - 1, degree):
            raise ValueError("trace_degree must be degree or degree - 1")
        if not degree - 1 <= grad_degree <= trace_degree:
            raise ValueError("grad_degree must lie in [degree-1, trace_degree]")
        self.degree = degree
        self.trace_degree = trace_degree
        self.grad_degree = grad_degree
        offsets = (trace_degree - degree, grad_degree - degree)
        self.variant = next(name for name, o in VARIANT_OFFSETS.items()
                            if o == offsets)

    @classmethod
    def from_variant(cls, label, degree):
        name = VARIANTS.get(str(label).lower())
        if name is None:
            raise ValueError("unknown method variant %r" % (label,))
        dl, dm = VARIANT_OFFSETS[name]
        return cls(degree, degree + dl, degree + dm)

    @property
    def interior_dim(self):
        return pb.tri_dim(self.degree)

    @property
    def trace_dim(self):
        return self.trace_degree + 1

    @property
    def scalar_size(self):
        return self.interior_dim + 3 * self.trace_dim

    @property
    def pressure_interior_dim(self):
        return pb.tri_dim(self.degree - 1)

    @property
    def pressure_trace_dim(self):
        return self.degree + 1

    @property
    def pressure_size(self):
        return self.pressure_interior_dim + 3 * self.pressure_trace_dim

    def __repr__(self):
        return ("MethodParams(degree=%d, trace_degree=%d, grad_degree=%d, %s)"
                % (self.degree, self.trace_degree, self.grad_degree,
                   self.variant))


# ----------------------------------------------------------------------
# local blocks, batched over elements


def face_projection_matrix(mesh, elems, interior_degree, trace_degree):
    """P[e, lf, g, b]: global-orientation face-projection coefficients of the
    interior basis, so (P @ v0 - vb) is the stabilization jump."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    E = wo.edge_table(interior_degree, trace_degree)       # (3, dim_k, l+1)
    FS = wo.face_signs(mesh, elems, trace_degree)
    return np.einsum("elg,lbg->elgb", FS, E)


def scalar_laplacian_blocks(mesh, elems, params):
    """Weak-gradient mass plus h^-1 jump stabilization, (E, ns, ns)."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k, l, m = params.degree, params.trace_degree, params.grad_degree
    G = wo.gradient_matrix(mesh, elems, k, l, m)
    S = np.einsum("e,eia,eib->eab", mesh.det_b[elems], G, G)

    P = face_projection_matrix(mesh, elems, k, l)
    nk = params.interior_dim
    nt = params.trace_dim
    fac = mesh.elem_face_len[elems] / mesh.h_K[elems][:, None]   # (E, 3)
    # interior-interior, interior-trace, trace-trace pieces of the jump form
    S[:, :nk, :nk] += np.einsum("el,elga,elgb->eab", fac, P, P)
    for lf in range(3):
        c0 = nk + lf * nt
        cross = np.einsum("e,ega->eag", fac[:, lf], P[:, lf])
        S[:, :nk, c0:c0 + nt] -= cross
        S[:, c0:c0 + nt, :nk] -= np.swapaxes(cross, 1, 2)
        S[:, c0:c0 + nt, c0:c0 + nt] += fac[:, lf][:, None, None] * np.eye(nt)
    return S


def _blockdiag2(S):
    ne, ns, _ = S.shape
    out = np.zeros((ne, 2 * ns, 2 * ns))
    out[:, :ns, :ns] = S
    out[:, ns:, ns:] = S
    return out


def viscous_blocks(mesh, elems, params, pr):
    """Velocity-velocity momentum diffusion blocks, (E, 2ns, 2ns)."""
    return pr * _blockdiag2(scalar_laplacian_blocks(mesh, elems, params))


def conduction_blocks(mesh, elems, params, kappa):
    """Temperature-temperature blocks, (E, ns, ns)."""
    return kappa * scalar_laplacian_blocks(mesh, elems, params)


def pressure_blocks(mesh, elems, params):
    """(grad_w q, v0) coupling, (E, 2, nk, np): component d of the pressure
    weak gradient tested against the component-d interior velocity basis."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k = params.degree
    Gq = wo.gradient_matrix(mesh, elems, k - 1, k, k)       # (E, 2*nk, np)
    nk = params.interior_dim
    ne = len(elems)
    return (mesh.det_b[elems][:, None, None, None]
            * Gq.reshape(ne, 2, nk, params.pressure_size))


def buoyancy_factor(mesh, elems, pr, ra):
    """Coefficient of the identity coupling upward velocity to temperature."""
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    return pr * ra * mesh.det_b[elems]


def skew_convection_blocks(mesh, elems, params, w_interior, w_traces):
    """Skew transport blocks against a frozen advecting field, (E, ns, ns).

    Parameters
    ----------
    w_interior : (E, 2, nk)
        Interior coefficients of the advecting velocity on each element.
    w_traces : (E, 3, 2, l+1)
        Its global-orientation vector trace coefficients per local face.

    The same scalar block serves each velocity component and the
    temperature equation (the advected quantity's degrees match).
    """
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k, l = params.degree, params.trace_degree
    nk = params.interior_dim
    nt = params.trace_dim
    ns = params.scalar_size
    ne = len(elems)

    T = wo.conv_volume_table(k)                            # (a, b, g, p)
    W1 = np.einsum("edg,edp->epg", w_interior, mesh.inv_bt[elems])
    B = np.zeros((ne, ns, ns))
    B[:, :nk, :nk] = -np.einsum("e,epg,abgp->eab",
                                mesh.det_b[elems], W1, T)

    F = wo.conv_face_table(k, l)                           # (lf, ap, b, gp)
    FS = wo.face_signs(mesh, elems, l)
    wn = np.einsum("eld,eldg->elg", mesh.elem_face_normal[elems], w_traces)
    for lf in range(3):
        r0 = nk + lf * nt
        rows = np.einsum("e,eg,ea,abg->eab",
                         mesh.elem_face_len[elems, lf],
                         wn[:, lf] * FS[:, lf], FS[:, lf], F[lf])
        B[:, r0:r0 + nt, :nk] = rows
    return 0.5 * (np.swapaxes(B, 1, 2) - B)


def skew_convection_coupling(mesh, elems, params, x):
    """The skew transport blocks differentiated in the advecting slot and
    applied to frozen advected fields, (E, X, ns, 2 ns).

    Parameters
    ----------
    x : (E, X, ns)
        Advected scalar fields in the scalar local layout on each element
        (a velocity component, or the temperature).

    The skew form is bilinear, so for every advecting field dw in the
    velocity local layout (component-major, length 2 ns)

        J[e, c] @ dw == skew_convection_blocks(dw)[e] @ x[e, c],

    which puts c(dw; u, v) and cbar(dw; T, s), the Newton coupling terms,
    into element matrices.  With S = (B^T - B)/2 (see the module
    docstring), B's volume part is linear in the interior of w and its
    face-lf rows in w's trace on face lf.
    """
    elems = np.atleast_1d(np.asarray(elems, dtype=np.int64))
    k, l = params.degree, params.trace_degree
    nk = params.interior_dim
    nt = params.trace_dim
    ns = params.scalar_size
    ne, nx = x.shape[:2]
    x0 = x[..., :nk]
    J = np.zeros((ne, nx, ns, 2, ns))

    # interior rows b, interior columns (d, g): B x and B^T x both reach
    # them through B's volume part, dB[a, b] / dw0[d, g] = -det
    # inv_bt[d, p] T[a, b, g, p], so their difference takes T - T^T in (a, b)
    T = wo.conv_volume_table(k)                            # (a, b, g, p)
    Tw = (T - T.swapaxes(0, 1)).transpose(3, 0, 1, 2).reshape(2, -1)
    M = mesh.det_b[elems][:, None, None] * mesh.inv_bt[elems]   # (E, d, p)
    W = (M @ Tw).reshape(ne, 2, nk, nk, nk).transpose(0, 2, 3, 1, 4)
    J[:, :, :nk, :, :nk] = -0.5 * (x0 @ W.reshape(ne, nk, -1)).reshape(
        ne, nx, nk, 2, nk)

    # face lf: its rows of B, dB[(lf, a), b] / dwb[lf, d, g] =
    # |e| n_d FS_g FS_a F[lf, a, b, g], enter the interior rows through
    # B^T x and the face's own rows through - B x
    F = wo.conv_face_table(k, l)                           # (lf, a, b, g)
    FS = wo.face_signs(mesh, elems, l)
    coef = (0.5 * mesh.elem_face_len[elems][:, None, None, :, None, None]
            * mesh.elem_face_normal[elems][:, None, None, :, :, None]
            * FS[:, None, None, :, None, :])       # (E, 1, 1, lf, d, g)
    xf = x[..., nk:].reshape(ne, nx, 3, nt) * FS[:, None]
    for lf in range(3):
        c0 = nk + lf * nt
        into = (xf[:, :, lf] @ F[lf].reshape(nt, -1)).reshape(ne, nx, nk, 1,
                                                                 nt)
        J[:, :, :nk, :, c0:c0 + nt] = into * coef[:, :, :, lf]
        own = (x0 @ F[lf].transpose(1, 0, 2).reshape(nk, -1)).reshape(
            ne, nx, nt, 1, nt) * FS[:, None, lf, :, None, None]
        J[:, :, c0:c0 + nt, :, c0:c0 + nt] = -own * coef[:, :, :, lf]
    return J.reshape(ne, nx, ns, 2 * ns)
