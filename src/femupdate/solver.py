"""Linear elastic forward solver for patched coupon meshes.

Isoparametric QUAD4 (plane stress) and HEX8 elements with full Gauss
integration, displacement-controlled boundary conditions applied by
elimination, and strain sampling at surface Gauss points. ``ForwardModel``
is the one forward path: it assembles the free-free stiffness per patch
once and then factors K(E) = sum_k E_k A_k afresh for every solve.

Shear convention: the xy strain reported everywhere is the engineering
shear gamma_xy = du/dy + dv/dx (twice the tensor component), matching the
output convention of DIC software.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import _shape
from .errors import NumericalError, SingularSystemError
from .geometry import Mesh, PatchMap

_EQUILIBRIUM_RTOL = 1e-8
# Smallest |U_ii| / max |U_ii| of the unit-moduli factorization accepted as
# nonsingular.
_PIVOT_RTOL = 1e-12


def _check_poisson(nu: float) -> None:
    if not (0.0 <= nu < 0.5):
        raise ValueError(f"poisson_ratio must satisfy 0 <= nu < 0.5, got {nu}")


@dataclass(frozen=True)
class BoundaryConditions:
    """Displacement control: one face held, the opposite face displaced.

    The loaded face gets its normal displacement component prescribed to
    ``u_applied``; tangential components stay free. The fixed face is held
    either fully clamped (``clamp_fixed=True``) or, by default, on rollers:
    only the normal component is pinned, plus the minimal set of corner
    pins that removes the remaining rigid modes. Rollers reproduce the
    uniaxial analytic state exactly; clamping adds end constraint effects.
    """

    fixed_face: str
    loaded_face: str
    u_applied: float
    clamp_fixed: bool = False

    def prescribed_dofs(self, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """Return (dof indices, prescribed values), sorted by dof index."""
        if not np.isfinite(self.u_applied):
            raise ValueError("u_applied must be finite")
        fixed_nodes = mesh.face_nodes(self.fixed_face)
        loaded_nodes = mesh.face_nodes(self.loaded_face)
        if fixed_nodes.size == 0 or loaded_nodes.size == 0:
            raise ValueError("fixed and loaded faces must be nonempty")
        if np.intersect1d(fixed_nodes, loaded_nodes).size:
            raise ValueError(
                f"fixed face {self.fixed_face!r} and loaded face {self.loaded_face!r} share nodes"
            )
        dim = mesh.dimension
        axis_fixed = "xyz".index(self.fixed_face[0])
        axis_loaded = "xyz".index(self.loaded_face[0])

        entries: dict[int, float] = {}
        for n in loaded_nodes:
            entries[dim * n + axis_loaded] = float(self.u_applied)
        if self.clamp_fixed:
            for n in fixed_nodes:
                for a in range(dim):
                    entries[dim * n + a] = 0.0
        else:
            for n in fixed_nodes:
                entries[dim * n + axis_fixed] = 0.0
            for node, axes in self._corner_pins(mesh, fixed_nodes, axis_fixed):
                for a in axes:
                    entries[dim * node + a] = 0.0

        dofs = np.array(sorted(entries), dtype=np.int64)
        values = np.array([entries[d] for d in dofs])
        return dofs, values

    def _corner_pins(self, mesh, fixed_nodes, axis_fixed):
        """Minimal pins on the fixed face killing tangential rigid modes."""
        tangent = [a for a in range(mesh.dimension) if a != axis_fixed]
        coords = mesh.nodes[fixed_nodes]
        if mesh.dimension == 2:
            a = fixed_nodes[np.lexsort((coords[:, tangent[0]],))[0]]
            return [(a, tangent)]
        t1, t2 = tangent
        order = np.lexsort((coords[:, t2], coords[:, t1]))
        corner_a = fixed_nodes[order[0]]  # min t1, then min t2
        order_b = np.lexsort((coords[:, t2], -coords[:, t1]))
        corner_b = fixed_nodes[order_b[0]]  # max t1, then min t2
        return [(corner_a, (t1, t2)), (corner_b, (t2,))]


@dataclass(frozen=True)
class StrainField:
    """In-plane strain samples: exx, eyy and engineering shear in the exy slot."""

    points: np.ndarray
    exx: np.ndarray
    eyy: np.ndarray
    exy: np.ndarray

    def __post_init__(self):
        n = self.points.shape[0]
        if not (self.exx.size == self.eyy.size == self.exy.size == n):
            raise ValueError("strain component arrays must match the point count")
        for a in (self.points, self.exx, self.eyy, self.exy):
            if not np.all(np.isfinite(a)):
                raise ValueError("strain field contains non-finite entries")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def elastic_matrix(modulus: float, nu: float, dimension: int) -> np.ndarray:
    """Constitutive matrix for engineering-shear Voigt strain vectors."""
    _check_poisson(nu)
    if modulus <= 0:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if dimension == 2:  # plane stress
        c = modulus / (1.0 - nu * nu)
        return c * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]])
    lam = modulus * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = modulus / (2.0 * (1.0 + nu))
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[np.arange(3), np.arange(3)] = lam + 2.0 * mu
    d[np.arange(3, 6), np.arange(3, 6)] = mu
    return d


def _element_stiffnesses(coords: np.ndarray, d: np.ndarray, scale: float, element_ids=None):
    """Stiffness matrices of many elements, shape (n_elements, n_dofs, n_dofs).

    ``coords`` is (n_elements, n_nodes, dim); ``d`` the constitutive matrix
    and ``scale`` the plate thickness (1 for HEX8).
    """
    k = 0.0
    for gp in _shape.gauss_points(coords.shape[2]):
        b, detj = _shape.strain_displacement(coords, gp, element_ids)
        k = k + (scale * detj)[:, None, None] * (b.transpose(0, 2, 1) @ d @ b)
    return k


def element_stiffness(
    element_nodes: np.ndarray,
    modulus: float,
    nu: float,
    thickness: float | None = None,
    element_id: int | None = None,
) -> np.ndarray:
    """Isoparametric element stiffness, 8x8 for QUAD4 or 24x24 for HEX8.

    Full Gauss integration (2x2 or 2x2x2). ``thickness`` is required for
    QUAD4 and ignored for HEX8. Raises DegenerateElementError unless the
    Jacobian determinant is positive at every integration point.
    """
    coords = np.asarray(element_nodes, dtype=float)
    if coords.shape == (4, 2):
        if thickness is None or thickness <= 0:
            raise ValueError("QUAD4 stiffness requires a positive thickness")
        scale = float(thickness)
    elif coords.shape == (8, 3):
        scale = 1.0
    else:
        raise ValueError(f"element_nodes must be (4, 2) or (8, 3), got {coords.shape}")
    d = elastic_matrix(modulus, nu, coords.shape[1])
    return _element_stiffnesses(coords[None], d, scale, [element_id])[0]


def _element_dofs(mesh: Mesh) -> np.ndarray:
    """Global dof indices per element, node-major: (n_elements, dim*nodes)."""
    dim = mesh.dimension
    conn = mesh.elements
    return (dim * conn[:, :, None] + np.arange(dim)[None, None, :]).reshape(conn.shape[0], -1)


def _surface_sampling(mesh: Mesh, surface: str | None):
    """Surface element ids and their parent-space sample points.

    2D meshes sample every element at its 2x2 in-plane Gauss points
    ("midplane"); 3D meshes sample the z = T face ("front") at the 2x2
    face Gauss points of the top element layer.
    """
    if mesh.dimension == 2:
        if surface not in (None, "midplane"):
            raise ValueError(f"2D meshes expose only the 'midplane' surface, got {surface!r}")
        element_ids = np.arange(mesh.n_elements)
        parent_points = _shape.gauss_points_2d()
    else:
        if surface not in (None, "front"):
            raise ValueError(f"3D meshes expose only the 'front' (z = T) surface, got {surface!r}")
        nx, ny, nz = mesh.divisions
        element_ids = np.arange((nz - 1) * nx * ny, nz * nx * ny)
        face = _shape.gauss_points_2d()
        parent_points = np.column_stack([face, np.ones(face.shape[0])])
    if element_ids.size == 0:
        raise ValueError("surface selection is empty")
    return element_ids, parent_points


class ForwardModel:
    """The forward operator: patch moduli to displacements and surface strains.

    K(E) = sum_k E_k A_k is linear in the patch moduli, so construction
    builds the free-free sparsity pattern once (CSC, int32 indices) with one
    column of slot weights per patch, and the matching per-patch right-hand
    sides of the prescribed displacements. Every solve fills the pattern,
    factors afresh and checks the result; ``strains_with_pullback`` reuses
    that factor for the adjoint solve of an exact gradient. The rank is
    checked once, at construction: for positive moduli the null space of
    K(E) is the intersection of those of the A_k, so one factorization at
    unit moduli shows whether any solve can be singular.

    ``bcs`` may be any object whose ``prescribed_dofs(mesh)`` returns
    (sorted dof indices, values). Instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(
        self,
        mesh: Mesh,
        patch_map: PatchMap,
        poisson_ratio: float,
        bcs: BoundaryConditions,
        surface: str | None = None,
    ):
        _check_poisson(poisson_ratio)
        surface_elements, parent_points = _surface_sampling(mesh, surface)
        self.mesh = mesh
        self.patch_map = patch_map
        self.poisson_ratio = poisson_ratio
        self.bcs = bcs
        self._dofs, self._dof_values = bcs.prescribed_dofs(mesh)
        n_dofs = mesh.dimension * mesh.n_nodes
        self._n_dofs = n_dofs
        self._free = np.setdiff1d(np.arange(n_dofs, dtype=np.int64), self._dofs)
        edofs = _element_dofs(mesh)
        self._build_patch_weights(edofs)
        self._check_rank()
        self._init_strain_sampling(edofs, surface_elements, parent_points)

    def _build_patch_weights(self, edofs: np.ndarray) -> None:
        """Fill the slot map (``_indices``, ``_indptr``), ``_weights`` and ``_rhs_per_patch``."""
        mesh, patch = self.mesh, self.patch_map.patch_of_element
        n_patches = self.patch_map.patch_count
        n_free = self._free.size
        d = elastic_matrix(1.0, self.poisson_ratio, mesh.dimension)
        scale = mesh.thickness if mesh.dimension == 2 else 1.0
        ke = _element_stiffnesses(mesh.nodes[mesh.elements], d, scale)

        free_of = np.full(self._n_dofs, -1, dtype=np.int32)  # free index, -1 if prescribed
        free_of[self._free] = np.arange(n_free, dtype=np.int32)
        fe = free_of[edofs]
        rows = np.broadcast_to(fe[:, :, None], ke.shape)
        cols = np.broadcast_to(fe[:, None, :], ke.shape)
        keep = (rows >= 0) & (cols >= 0)
        # One slot per structural free-free (row, col) pair, in CSC order.
        pattern, slot = np.unique(cols[keep].astype(np.int64) * n_free + rows[keep], return_inverse=True)
        entry_patch = np.broadcast_to(patch[:, None, None], ke.shape)[keep]
        self._weights = _sum_at(slot, entry_patch, ke[keep], (pattern.size, n_patches))
        self._indices = (pattern % n_free).astype(np.int32)
        self._col_of_slot = (pattern // n_free).astype(np.int32)
        self._indptr = np.zeros(n_free + 1, dtype=np.int32)
        np.cumsum(np.bincount(self._col_of_slot, minlength=n_free), out=self._indptr[1:])

        # rhs = -(sum_k E_k A_k)[free, prescribed] @ values = -B @ E
        u0 = np.zeros(self._n_dofs)
        u0[self._dofs] = self._dof_values
        f = (ke @ u0[edofs][:, :, None])[:, :, 0]
        free_row = fe >= 0
        row_patch = np.broadcast_to(patch[:, None], fe.shape)[free_row]
        self._rhs_per_patch = _sum_at(fe[free_row], row_patch, f[free_row], (n_free, n_patches))

    def _check_rank(self) -> None:
        udiag = np.abs(_factor(self.stiffness(np.ones(self.patch_map.patch_count))).U.diagonal())
        if not udiag.min() >= _PIVOT_RTOL * udiag.max():
            raise SingularSystemError(
                "stiffness is numerically singular; boundary conditions leave rigid modes"
            )

    def _init_strain_sampling(self, edofs, element_ids, parent_points) -> None:
        coords = self.mesh.nodes[self.mesh.elements[element_ids]]
        rows = [0, 1, 2] if self.mesh.dimension == 2 else [0, 1, 3]
        b = [_shape.strain_displacement(coords, gp, element_ids)[0][:, rows] for gp in parent_points]
        pts = [(_shape.shape_values(gp) @ coords)[:, :2] for gp in parent_points]
        self._surface_edofs = edofs[element_ids]
        self._surface_b = np.stack(b, axis=1)  # (elements, points, 3, element dofs)
        self._surface_points = np.stack(pts, axis=1).reshape(-1, 2)

    @property
    def surface_points(self) -> np.ndarray:
        """Physical (x, y) coordinates of the strain sample points."""
        return self._surface_points

    def _check_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.patch_map.patch_count,):
            raise ValueError(
                f"expected patch_count = {self.patch_map.patch_count} moduli, got shape {values.shape}"
            )
        if not np.all(values > 0):
            raise ValueError("all patch moduli must be positive")
        return values

    def stiffness(self, values: np.ndarray) -> sp.csc_matrix:
        """Free-free stiffness K(E) = sum_k E_k A_k, rows and columns in free-dof order."""
        return self._stiffness(self._check_values(values))

    def _stiffness(self, values: np.ndarray) -> sp.csc_matrix:
        n_free = self._free.size
        data = self._weights @ values
        return sp.csc_matrix((data, self._indices, self._indptr), shape=(n_free, n_free))

    def rhs(self, values: np.ndarray) -> np.ndarray:
        """Free-dof right-hand side -K(E)[free, prescribed] @ prescribed values."""
        return -(self._rhs_per_patch @ self._check_values(values))

    def _solve(self, values: np.ndarray):
        """Free-dof displacements and the factor of K(E) for checked moduli."""
        k = self._stiffness(values)
        rhs = -(self._rhs_per_patch @ values)
        lu = _factor(k)
        uf = lu.solve(rhs)
        if not np.all(np.isfinite(uf)):
            raise SingularSystemError("solution is non-finite")
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm > 0:
            rel = np.linalg.norm(k @ uf - rhs) / rhs_norm
            if rel > _EQUILIBRIUM_RTOL:
                raise NumericalError(f"equilibrium residual {rel:.3e} exceeds {_EQUILIBRIUM_RTOL:.1e}")
        return uf, lu

    def _full(self, uf: np.ndarray) -> np.ndarray:
        u = np.zeros(self._n_dofs)
        u[self._dofs] = self._dof_values
        u[self._free] = uf
        return u

    def solve_displacement(self, values: np.ndarray) -> np.ndarray:
        """Flat displacement vector for the given patch moduli."""
        return self._full(self._solve(self._check_values(values))[0])

    def sample_strains(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exx, eyy, gamma_xy) of a flat displacement vector at the surface points."""
        eps = np.einsum("egij,ej->egi", self._surface_b, u[self._surface_edofs]).reshape(-1, 3)
        return eps[:, 0], eps[:, 1], eps[:, 2]

    def strains_with_pullback(self, values: np.ndarray):
        """Surface strains of one fresh solve, and their pullback to the moduli.

        Returns ((exx, eyy, gamma_xy), pullback). ``pullback(d_exx, d_eyy,
        d_exy)`` maps the gradient of a scalar with respect to the sampled
        strains to its gradient with respect to the patch moduli by the
        adjoint method: with K u_f = -R E, the adjoint solve K^T lam = dF/du_f
        on the same factor gives dF/dE_k = -lam^T (A_k u_f + R_k).
        """
        values = self._check_values(values)
        uf, lu = self._solve(values)
        strains = self.sample_strains(self._full(uf))

        def pullback(d_exx, d_eyy, d_exy):
            lam = lu.solve(self._sample_strains_transpose(d_exx, d_eyy, d_exy)[self._free], trans="T")
            a_u = self._weights.T @ (lam[self._indices] * uf[self._col_of_slot])
            return -(a_u + lam @ self._rhs_per_patch)

        return strains, pullback

    def _sample_strains_transpose(self, d_exx, d_eyy, d_exy) -> np.ndarray:
        """Transpose of ``sample_strains``: per-point strain weights to a flat dof vector."""
        n_elements, n_points = self._surface_b.shape[:2]
        d = np.column_stack([d_exx, d_eyy, d_exy]).reshape(n_elements, n_points, 3)
        local = np.einsum("egij,egi->ej", self._surface_b, d)
        return np.bincount(self._surface_edofs.ravel(), weights=local.ravel(), minlength=self._n_dofs)

    def surface_strain_arrays(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exx, eyy, gamma_xy) at the surface sample points; one fresh solve."""
        return self.sample_strains(self.solve_displacement(values))

    def strain_field(self, values: np.ndarray) -> StrainField:
        return StrainField(self._surface_points, *self.surface_strain_arrays(values))


def _sum_at(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Dense array of ``shape`` holding the sum of ``values`` landing on each (row, col)."""
    flat = rows.astype(np.int64) * shape[1] + cols
    return np.bincount(flat, weights=values, minlength=shape[0] * shape[1]).reshape(shape)


def _factor(k: sp.csc_matrix):
    try:
        return splu(k)
    except RuntimeError as exc:
        raise SingularSystemError(f"stiffness factorization failed: {exc}") from exc
