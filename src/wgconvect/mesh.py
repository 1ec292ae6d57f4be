"""Conforming triangulations of a rectangle with a rectangular fluid zone.

The solver works on a rectangular domain split into a fluid subdomain (an
axis-aligned rectangle) and the remaining solid part.  Every grid cell of a
structured nx-by-ny partition is cut along the same diagonal (upper-left to
lower-right) into two triangles, so refining (nx, ny) -> (2nx, 2ny) exactly
halves the mesh size.

Conventions baked into the rest of the package:

* faces are stored as sorted vertex pairs (a, b) with a < b, ordered
  lexicographically; the face's unit normal points away from its first
  (lower-index) adjacent element, and outward on the boundary;
* local face ``i`` of a triangle joins its local vertices ``i`` and
  ``(i+1) % 3``; triangles are counterclockwise;
* each element carries the affine map x = B xhat + v0 from the reference
  triangle (0,0), (1,0), (0,1).
"""

import numpy as np

# element subdomain tags
FLUID = 0
SOLID = 1

# face tags
INTERIOR_FLUID = 0
INTERIOR_SOLID = 1
INTERFACE = 2
OUTER = 3

WALLS = ("left", "right", "bottom", "top")


class Mesh:
    """Immutable triangulation with face topology and affine element maps.

    Parameters
    ----------
    vertices : (V, 2) float array
    triangles : (N_K, 3) int array
        Counterclockwise vertex triples.
    elem_subdomain : (N_K,) int array
        FLUID or SOLID per element.
    domain, fluid_rect : tuple (x0, x1, y0, y1)
        Bounding rectangles of the whole domain and of the fluid zone.
    """

    def __init__(self, vertices, triangles, elem_subdomain, domain, fluid_rect):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        self.elem_subdomain = np.asarray(elem_subdomain, dtype=np.int64)
        self.domain = tuple(float(c) for c in domain)
        self.fluid_rect = tuple(float(c) for c in fluid_rect)

        self.n_vertices = len(self.vertices)
        self.n_elems = len(self.triangles)

        self._build_geometry()
        self._build_faces()
        self._build_face_geometry()
        self._validate()

    # ------------------------------------------------------------------
    # construction

    def _build_geometry(self):
        tri_xy = self.vertices[self.triangles]          # (Ne, 3, 2)
        v0 = tri_xy[:, 0]
        e1 = tri_xy[:, 1] - v0
        e2 = tri_xy[:, 2] - v0
        # columns of B are the two edge vectors out of vertex 0
        B = np.stack([e1, e2], axis=-1)                 # (Ne, 2, 2)
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0):
            bad = int(np.argmax(det <= 0))
            raise ValueError(
                "element %d has non-positive area (vertices must be CCW)" % bad)
        inv_b = np.empty_like(B)
        inv_b[:, 0, 0] = B[:, 1, 1]
        inv_b[:, 0, 1] = -B[:, 0, 1]
        inv_b[:, 1, 0] = -B[:, 1, 0]
        inv_b[:, 1, 1] = B[:, 0, 0]
        inv_b /= det[:, None, None]

        self.elem_origin = v0
        self.B = B
        self.det_b = det                                # = 2 * area
        self.inv_bt = np.swapaxes(inv_b, 1, 2)          # B^{-T}

        # element length scale sqrt(2 |K|), the grid cell size on structured
        # right-triangle meshes; the face stabilization factor is 1/h_K
        self.h_K = np.sqrt(det)

        self.is_fluid = self.elem_subdomain == FLUID
        self.fluid_elems = np.flatnonzero(self.is_fluid)

    def _build_faces(self):
        ne = self.n_elems
        local_pairs = self.triangles[:, [[0, 1], [1, 2], [2, 0]]]   # (Ne, 3, 2)
        flat = local_pairs.reshape(-1, 2)
        flat_sorted = np.sort(flat, axis=1)
        faces, inverse = np.unique(flat_sorted, axis=0, return_inverse=True)
        inverse = inverse.reshape(ne, 3)

        self.faces = faces
        self.n_faces = len(faces)
        self.elem_faces = inverse
        # True where the global (a, b) orientation runs against the local edge
        self.elem_face_flip = flat[:, 0].reshape(ne, 3) != faces[inverse, 0]

        face_elems = np.full((self.n_faces, 2), -1, dtype=np.int64)
        rep_elem = np.repeat(np.arange(ne), 3)
        order = np.lexsort((rep_elem, inverse.ravel()))
        fids = inverse.ravel()[order]
        # first occurrence of each face id in the sorted stream goes to slot 0
        first = np.ones(len(fids), dtype=bool)
        first[1:] = fids[1:] != fids[:-1]
        slots = np.where(first, 0, 1)
        face_elems[fids, slots] = rep_elem[order]
        self.face_elems = face_elems

        counts = np.bincount(inverse.ravel(), minlength=self.n_faces)
        if counts.max() > 2:
            raise ValueError("non-manifold face detected")
        is_boundary = counts == 1

        tag = np.empty(self.n_faces, dtype=np.int64)
        tag[is_boundary] = OUTER
        interior = ~is_boundary
        sub0 = self.elem_subdomain[face_elems[:, 0]]
        sub1 = np.where(interior, self.elem_subdomain[face_elems[:, 1]], sub0)
        tag[interior & (sub0 == FLUID) & (sub1 == FLUID)] = INTERIOR_FLUID
        tag[interior & (sub0 == SOLID) & (sub1 == SOLID)] = INTERIOR_SOLID
        tag[interior & (sub0 != sub1)] = INTERFACE
        self.face_tag = tag

    def _build_face_geometry(self):
        va = self.vertices[self.faces[:, 0]]
        vb = self.vertices[self.faces[:, 1]]
        tangent = vb - va
        self.h_e = np.linalg.norm(tangent, axis=1)
        normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / self.h_e[:, None]

        # orient away from the first adjacent element
        first = self.face_elems[:, 0]
        centroid = self.vertices[self.triangles[first]].mean(axis=1)
        mid = 0.5 * (va + vb)
        flip = np.einsum("fd,fd->f", normal, mid - centroid) < 0
        normal[flip] *= -1.0
        self.normals = normal

        # outward normal of each (element, local face)
        fid = self.elem_faces
        sign = np.where(self.face_elems[fid, 0] == np.arange(self.n_elems)[:, None],
                        1.0, -1.0)
        self.elem_face_normal = self.normals[fid] * sign[:, :, None]
        self.elem_face_len = self.h_e[fid]

        # faces with at least one fluid neighbour carry velocity/pressure traces
        adj_fluid = np.zeros(self.n_faces, dtype=bool)
        for col in (0, 1):
            e = self.face_elems[:, col]
            ok = e >= 0
            adj_fluid[ok] |= self.is_fluid[e[ok]]
        self.fluid_faces = np.flatnonzero(adj_fluid)

        # velocity Dirichlet faces: the whole boundary of the fluid zone
        vel_fixed = (self.face_tag == INTERFACE) | (
            (self.face_tag == OUTER) & adj_fluid)
        self.vel_dirichlet_mask = vel_fixed

    def _validate(self):
        if self.n_vertices - self.n_faces + self.n_elems != 1:
            raise ValueError("triangulation fails the Euler check V - E + F = 1")
        iface = self.face_tag == INTERFACE
        if np.any(iface):
            s0 = self.elem_subdomain[self.face_elems[iface, 0]]
            s1 = self.elem_subdomain[self.face_elems[iface, 1]]
            if np.any(s0 == s1):
                raise ValueError("interface face with same-subdomain neighbours")

    # ------------------------------------------------------------------
    # queries

    def face_wall(self):
        """Which domain wall each OUTER face lies on ('' for interior faces)."""
        x0, x1, y0, y1 = self.domain
        mid = 0.5 * (self.vertices[self.faces[:, 0]] + self.vertices[self.faces[:, 1]])
        tol = 1e-12 * max(x1 - x0, y1 - y0)
        wall = np.full(self.n_faces, "", dtype=object)
        outer = self.face_tag == OUTER
        wall[outer & (np.abs(mid[:, 0] - x0) < tol)] = "left"
        wall[outer & (np.abs(mid[:, 0] - x1) < tol)] = "right"
        wall[outer & (np.abs(mid[:, 1] - y0) < tol)] = "bottom"
        wall[outer & (np.abs(mid[:, 1] - y1) < tol)] = "top"
        return wall

    def face_points(self, fids, t):
        """Physical points on faces `fids` at arc parameters `t` in [0, 1]."""
        va = self.vertices[self.faces[fids, 0]]
        vb = self.vertices[self.faces[fids, 1]]
        return va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]

    def map_points(self, elems, ref_points):
        """Map reference-triangle points to physical coordinates, per element."""
        return (ref_points @ np.swapaxes(self.B[elems], 1, 2)
                + self.elem_origin[elems][:, None, :])

    def to_reference(self, elems, points):
        """Map (E, q, 2) physical points back to reference coordinates, per
        element; the inverse of map_points."""
        return ((points - self.elem_origin[elems][:, None])
                @ self.inv_bt[elems])


def _grid_index(value, start, step, n, name):
    """Index of `value` on the grid start + i*step, or raise naming the culprit."""
    i = (value - start) / step
    j = int(round(i))
    if not (0 <= j <= n) or abs(i - j) > 1e-9:
        raise ValueError(
            "fluid rectangle coordinate %s=%g does not lie on a grid line"
            % (name, value))
    return j


def build_structured_mesh(nx, ny, domain, fluid_region):
    """Uniform triangulation of `domain` with fluid/solid tags.

    Each of the nx*ny grid cells is split along its upper-left to lower-right
    diagonal.  `fluid_region` must be a sub-rectangle of `domain` whose sides
    lie on grid lines.
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be positive")
    x0, x1, y0, y1 = (float(c) for c in domain)
    fx0, fx1, fy0, fy1 = (float(c) for c in fluid_region)
    if x1 <= x0 or y1 <= y0 or fx1 <= fx0 or fy1 <= fy0:
        raise ValueError("rectangles must be nonempty")
    if fx0 < x0 - 1e-12 or fx1 > x1 + 1e-12 or fy0 < y0 - 1e-12 or fy1 > y1 + 1e-12:
        raise ValueError("fluid rectangle must be contained in the domain")

    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    ix0 = _grid_index(fx0, x0, dx, nx, "x0")
    ix1 = _grid_index(fx1, x0, dx, nx, "x1")
    iy0 = _grid_index(fy0, y0, dy, ny, "y0")
    iy1 = _grid_index(fy1, y0, dy, ny, "y1")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(ix, iy):
        return ix + (nx + 1) * iy

    cix, ciy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    cix = cix.ravel()
    ciy = ciy.ravel()
    v00 = vid(cix, ciy)
    v10 = vid(cix + 1, ciy)
    v01 = vid(cix, ciy + 1)
    v11 = vid(cix + 1, ciy + 1)

    lower = np.column_stack([v00, v10, v01])
    upper = np.column_stack([v10, v11, v01])
    triangles = np.empty((2 * nx * ny, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    in_fluid_cell = (ix0 <= cix) & (cix < ix1) & (iy0 <= ciy) & (ciy < iy1)
    subdomain = np.where(np.repeat(in_fluid_cell, 2), FLUID, SOLID)

    return Mesh(vertices, triangles, subdomain,
                (x0, x1, y0, y1), (fx0, fx1, fy0, fy1))


def mesh_size(mesh):
    """Largest element length scale h_K of the mesh."""
    return float(mesh.h_K.max())
