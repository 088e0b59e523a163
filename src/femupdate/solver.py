"""Linear elastic forward solver for patched coupon meshes.

Isoparametric QUAD4 (plane stress) and HEX8 elements with full Gauss
integration, displacement-controlled boundary conditions applied by
elimination, and strain sampling at surface Gauss points. ``ForwardModel``
is the one forward path: it assembles the unit-modulus stiffness of each
patch once, all patches in one sparse matrix, and solves
K(E) = sum_k E_k A_k by static condensation onto the patch interfaces.
The interior of each patch scales with its one modulus, so the interior
blocks are factored, and the prescribed-displacement load condensed, once
per model; a solve factors only the Schur complement on the interface
dofs, S(E) = sum_k E_k S_k, without pivoting (K(E) and S(E) are
symmetric positive definite for positive moduli), and recovers the
interior with one banded solve. K(E) is never assembled per solve: the
equilibrium check and the displacement sensitivities du/dE use the
per-patch products A_k u, and the sensitivities of all P moduli are one
multi-right-hand-side solve on the factors of the forward solve, as is the
second derivative of the displacements along a path of moduli. Surface
strain sampling is one sparse matrix from displacements to strains,
built once with the model; it maps displacement sensitivities to strain
sensitivities too.

Shear convention: the xy strain reported everywhere is the engineering
shear gamma_xy = du/dy + dv/dx (twice the tensor component), matching the
output convention of DIC software.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dtbtrs
from scipy.sparse.linalg import splu

from . import _shape
from .errors import NumericalError, SingularSystemError
from .geometry import Mesh, PatchMap

_EQUILIBRIUM_RTOL = 1e-8
# Smallest pivot / largest pivot of K(1) in the condensed order accepted as
# nonsingular.
_PIVOT_RTOL = 1e-12
# Element-stiffness entries assembled through one COO at most, unless one
# patch holds more; also the slots of S(1) the rank check writes into its
# band at once, unless one column holds more.
_CHUNK_ENTRIES = 2**18


@dataclass(frozen=True)
class BoundaryConditions:
    """Displacement control: ``fixed_face`` held, the opposite face displaced.

    The loaded face is the one opposite ``fixed_face`` (``xmin`` loads
    ``xmax``, ``ymax`` loads ``ymin``, ...). It gets its normal displacement
    component prescribed to ``u_applied``; tangential components stay free.
    The fixed face is held either fully clamped (``clamp_fixed=True``) or,
    by default, on rollers: only the normal component is pinned, plus the
    minimal set of corner pins that removes the remaining rigid modes.
    Rollers reproduce the uniaxial analytic state exactly; clamping adds end
    constraint effects.
    """

    fixed_face: str
    u_applied: float
    clamp_fixed: bool = False

    def prescribed_dofs(self, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
        """Return (dof indices, prescribed values), sorted by dof index."""
        if not np.isfinite(self.u_applied):
            raise ValueError("u_applied must be finite")
        fixed_nodes = mesh.face_nodes(self.fixed_face)  # rejects an unknown face
        letter = self.fixed_face[0]
        loaded_nodes = mesh.face_nodes(letter + ("max" if self.fixed_face.endswith("min") else "min"))
        if fixed_nodes.size == 0 or loaded_nodes.size == 0:
            raise ValueError("fixed and loaded faces must be nonempty")
        dim = mesh.dimension
        axis = "xyz".index(letter)

        loaded = dim * loaded_nodes + axis
        if self.clamp_fixed:
            held = (dim * fixed_nodes[:, None] + np.arange(dim)).ravel()
        else:
            held = np.concatenate([dim * fixed_nodes + axis, self._corner_pins(mesh, fixed_nodes, axis)])
        dofs = np.concatenate([loaded, held])
        values = np.concatenate([np.full(loaded.size, float(self.u_applied)), np.zeros(held.size)])
        # The dofs are distinct; the stable kind is the sort the model build
        # already runs, so no other sort kernel is paged in.
        order = np.argsort(dofs, kind="stable")
        return dofs[order], values[order]

    @staticmethod
    def _corner_pins(mesh, fixed_nodes, axis):
        """Dofs of the minimal pins on the fixed face killing its tangential rigid modes."""
        dim = mesh.dimension
        tangent = [a for a in range(dim) if a != axis]
        coords = mesh.nodes[fixed_nodes]
        if dim == 2:
            a = fixed_nodes[np.lexsort((coords[:, tangent[0]],))[0]]
            return dim * a + np.array(tangent)
        t1, t2 = tangent
        order = np.lexsort((coords[:, t2], coords[:, t1]))
        corner_a = fixed_nodes[order[0]]  # min t1, then min t2
        order_b = np.lexsort((coords[:, t2], -coords[:, t1]))
        corner_b = fixed_nodes[order_b[0]]  # max t1, then min t2
        return dim * np.array([corner_a, corner_a, corner_b]) + np.array([t1, t2, t2])


def elastic_matrix(nu: float, dimension: int) -> np.ndarray:
    """Unit-modulus constitutive matrix for engineering-shear Voigt strain
    vectors (plane stress in 2D); D(E) = E D(1). ``nu`` is not checked here:
    ``ForwardModel`` checks it once per model."""
    if dimension == 2:
        c = 1.0 / (1.0 - nu * nu)
        return c * np.array([[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]])
    lam = nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    mu = 1.0 / (2.0 * (1.0 + nu))
    d = np.zeros((6, 6))
    d[:3, :3] = lam
    d[np.arange(3), np.arange(3)] = lam + 2.0 * mu
    d[np.arange(3, 6), np.arange(3, 6)] = mu
    return d


def _element_stiffnesses(coords: np.ndarray, d: np.ndarray, scale: float):
    """Stiffness matrices of many elements.

    ``coords`` is (n_elements, n_nodes, dim); ``d`` the constitutive matrix
    and ``scale`` the plate thickness (1 for HEX8). Full Gauss integration,
    computed once per distinct element shape. Raises DegenerateElementError,
    naming the first element that fails, unless det J > 0 at every
    integration point. Returns (k, shape): the stiffness of each distinct
    element shape, (n_shapes, n_dofs, n_dofs), and the shape of every
    element, so element e's stiffness is ``k[shape[e]]``.
    """
    shapes, first, inverse = _shape.distinct_shapes(coords)
    k = 0.0
    for gp in _shape.gauss_points(coords.shape[2]):
        b, detj = _shape.strain_displacement(shapes, gp, first)
        k = k + (scale * detj)[:, None, None] * (b.transpose(0, 2, 1) @ d @ b)
    return k, inverse


def _element_dofs(mesh: Mesh) -> np.ndarray:
    """Global dof indices per element, node-major: (n_elements, dim*nodes)."""
    dim = mesh.dimension
    conn = mesh.elements
    return (dim * conn[:, :, None] + np.arange(dim)[None, None, :]).reshape(conn.shape[0], -1)


def _surface_sampling(mesh: Mesh):
    """Surface element ids and their parent-space sample points.

    2D meshes sample every element at its 2x2 in-plane Gauss points (the
    midplane); 3D meshes sample the z = T face at the 2x2 face Gauss points
    of the top element layer.
    """
    face = _shape.gauss_points(2)
    if mesh.dimension == 2:
        return np.arange(mesh.n_elements), face
    nx, ny, nz = mesh.divisions
    return np.arange((nz - 1) * nx * ny, nz * nx * ny), np.column_stack([face, np.ones(face.shape[0])])


class ForwardModel:
    """The forward operator: patch moduli to displacements and surface strains.

    K(E) = sum_k E_k A_k is linear in the patch moduli, so construction
    checks the Poisson ratio, then assembles the A_k once, patch by patch,
    from the unit-modulus element stiffnesses (``_element_stiffnesses``
    with D = ``elastic_matrix(nu, dim)``), into one sparse matrix: its rows are
    (patch k, free dof), its columns the free dofs in ``free_dofs`` order,
    then the prescribed dofs. Its free
    columns are the stacked [A_1; ...; A_P], the one form of the A_k that
    the condensation and every solve read. Its prescribed columns times the
    prescribed values give the per-patch right-hand sides R (the load is
    -R E).

    Every solve is a static condensation onto the patch interfaces. A node
    is interior to patch k when all its elements lie in patch k; the free
    dofs of interior nodes form I_k, those of all other nodes the interface
    G. Interior dofs of different patches never share an element, so
    K(E)[I, I] is block diagonal with blocks E_k A_k[I_k, I_k] and
    K(E)[I_k, G] = E_k A_k[I_k, G]. The free dofs are numbered once, in
    ``free_dofs`` order: the I_k patch by patch, each in coordinate order
    with the mesh axis of most divisions slowest, so that the band of a
    block is about one cross-section of nodes wide, run in the direction
    that puts the side of its rows coupled to G last; then G in the same
    coordinate order. Construction factors the unit-modulus interior
    blocks D = K(1)[I, I] = L L^T once (one banded Cholesky) and condenses
    each patch onto the interface dofs g its elements touch, those with a
    nonzero diagonal in A_k:
    S_k = A_k[g, g] - A_k[g, I_k] A_k[I_k, I_k]^-1 A_k[I_k, g]
    = A_k[g, g] - Y^T Y with Y = L^-1 A_k[I_k, g], which is zero above the
    first row of I_k coupled to G, the first nonempty row of B^T below
    (K(1)[I_k, G] = A_k[I_k, G]); so Y needs only the rows of the factor
    from there to the end of the block. K(1) itself is never formed: an
    interior row of K(1) is that row of the one A_k whose patch holds it,
    so the band of D is filled block by block from the interior rows of
    the A_k, and B = K(1)[G, I] = sum_k A_k[G, I_k] is a sum over the
    patches, whose column ranges I_k are disjoint. The Schur complement is then
    S(E) = sum_k E_k S_k, kept as weights over the slots of its pattern,
    the union of the blocks g x g. The pattern and the slot of every block
    entry come from one stable sort of the blocks' column-major entry keys,
    so the build holds sum_k |g_k|^2 entries for them, never a G x G map
    (at P = 80 on the 3D mesh refined 2x, 6.1 M slots and n_G = 10,445).
    An interior row of R is nonzero only in the column of its own patch, so
    the condensed load is linear in E too: with Z = D^-1 R_I, factored once,
    the interface load is (B Z - R_G) E and the interior load alone gives
    z0 = -Z 1, whatever the moduli. A solve fills and factors S(E)
    (``splu`` with the natural order and no pivoting; S(E) is symmetric
    positive definite), solves S(E) u_G = (B Z - R_G) E and recovers
    u_I = z0 - D^-1 B^T u_G with one banded solve (``_recover``, the one
    place u_I is computed from u_G). A one-patch model is the case of an
    empty interface and takes the same path: its S(E) is 0 x 0, so its u
    is z0 and its du and u'' are 0. Each solution is checked for finite
    values and for its equilibrium residual on the physics,
    sum_k E_k A_k u_f = -R E, from the per-patch products A_k u_f (K(E) is
    not assembled). A stack of designs takes one fill, factorization and
    LU solve of S(E) per design; the interface loads, the banded solve, the
    A_k products and the checks run once for the stack, each result bitwise
    that of its design alone.
    ``displacement_derivatives`` reuses the same factors for the P
    sensitivity solves (K(E) is symmetric): their right-hand sides vanish
    on the interior, so they take one LU solve of S(E) and one banded
    solve, each with P columns. On those factors it also gives the second
    derivative u'' of the displacements along a path of moduli: its
    right-hand side vanishes on the interior too, so it takes one
    single-column LU solve and one banded solve, and no new factorization.

    The surface strains are the sparse linear map ``strain_sampling`` of the
    displacements, sampled on the one measured surface: the midplane of a
    2D mesh, the z = T face of a 3D one (``_surface_sampling``). Each of its
    rows is a row of B of one surface element at one sample point; B is
    computed once per distinct element shape, as for the stiffness, and
    the rows are written straight into CSR (``_init_strain_sampling``).

    The rank is checked once, at construction: for positive moduli the null
    space of K(E) is the intersection of those of the A_k, so the pivots of
    K(1) in the condensed order (the squared diagonal of the interior
    Cholesky factor, then that of a banded Cholesky factor of S(1),
    ``_interface_pivots``) show whether any solve can be singular. The
    build makes no sparse LU factorization.

    A model keeps its last successful one-design solve for one repeat:
    the design's bytes, u_f, the A_k u products (both read-only) and the
    factor of S(E). The next solve of the bitwise-same design, by
    ``solve_displacement`` or ``displacement_derivatives``, is served from
    it with no factorization and uses it up; any other solve (another
    design, or a stack of more than one) drops it before it factors, so the
    model never holds two factors at once. A failed solve is never held.
    So ``invert`` factors once for the residual maps at the initial guess
    and the first Gauss-Newton evaluation there, and once for the last
    evaluation and the maps at the end. ``factorizations`` counts the
    factorizations of S(E) the model has made, one per design of every
    solve that is not a served repeat. The held solve makes a
    model stateful: share one across threads only with a lock around
    every solve (no caller shares one).

    ``bcs`` may be any object whose ``prescribed_dofs(mesh)`` returns
    (sorted dof indices, values). Apart from the held solve and the count,
    a model does not change after construction.
    """

    def __init__(
        self,
        mesh: Mesh,
        patch_map: PatchMap,
        poisson_ratio: float,
        bcs: BoundaryConditions,
    ):
        if not (0.0 <= poisson_ratio < 0.5):
            raise ValueError(f"poisson_ratio must satisfy 0 <= nu < 0.5, got {poisson_ratio}")
        surface_elements, parent_points = _surface_sampling(mesh)
        self.mesh = mesh
        self.patch_map = patch_map
        self.poisson_ratio = poisson_ratio
        self.bcs = bcs
        self._dofs, self._dof_values = bcs.prescribed_dofs(mesh)
        n_dofs = mesh.dimension * mesh.n_nodes
        self._n_dofs = n_dofs
        self._free, self._interior_patch = _condensed_free_dofs(mesh, patch_map, self._dofs)
        edofs = _element_dofs(mesh)
        self._assemble(edofs)
        self._condense()
        self._init_strain_sampling(edofs[surface_elements], surface_elements, parent_points)
        self.factorizations = 0
        self._held = None  # (design bytes, u_f, A_k u, factor) of the last one-design solve

    def _assemble(self, edofs: np.ndarray) -> None:
        """Fill ``_patch_stiffness`` and ``_rhs_per_patch`` from the
        unit-modulus stiffnesses of the distinct element shapes, in one
        sparse matrix whose rows are (patch k, free dof) and whose columns
        are the free dofs in ``free_dofs`` order, then the prescribed dofs.
        Its rows are built a run of consecutive patches at a time, from the
        free rows of those patches' own elements only: the rows of different
        patches are disjoint, and within a row the entries come in element
        order, so duplicates sum as in one whole-mesh assembly. Each run is
        split into its free and prescribed columns before the runs are
        stacked, so no full-width copy of the whole matrix is made."""
        mesh, patch = self.mesh, self.patch_map.patch_of_element
        n_patches, n_free = self.patch_map.patch_count, self._free.size
        d = elastic_matrix(self.poisson_ratio, mesh.dimension)
        scale = mesh.thickness if mesh.dimension == 2 else 1.0
        ke, shape = _element_stiffnesses(mesh.nodes[mesh.elements], d, scale)

        column = np.empty(self._n_dofs, dtype=np.int32)
        column[self._free] = np.arange(n_free)
        column[self._dofs] = np.arange(n_free, self._n_dofs)
        ce = column[edofs]
        by_patch = np.argsort(patch, kind="stable")
        edge = np.concatenate([[0], np.cumsum(np.bincount(patch, minlength=n_patches))])
        # Consecutive patches share one COO while they start in the same run
        # of _CHUNK_ENTRIES element-stiffness entries: each COO-to-CSR
        # conversion costs ~0.1 ms, and a whole-mesh COO more memory than
        # the model keeps.
        first = np.flatnonzero(np.diff(edge[:-1] // max(_CHUNK_ENTRIES // ke[0].size, 1), prepend=-1))
        blocks, r = [], np.empty((n_patches, n_free))
        for p0, p1 in zip(first, np.append(first[1:], n_patches)):
            elements = by_patch[edge[p0]:edge[p1]]
            # Each free row of each element, in (element, row) order, with all its columns.
            e, row = np.nonzero(ce[elements] < n_free)
            e = elements[e]
            key = (patch[e] - p0) * n_free + ce[e, row]
            block = sp.csr_matrix(
                (ke[shape[e], row].ravel(), (np.repeat(key, ce.shape[1]), ce[e].ravel())),
                shape=((p1 - p0) * n_free, self._n_dofs),
            )
            block.eliminate_zeros()  # sums that cancel exactly leave no stored entry
            blocks.append(block[:, :n_free])
            # rhs = -(sum_k E_k A_k)[free, prescribed] @ values = -R @ E
            r[p0:p1] = (block[:, n_free:] @ self._dof_values).reshape(p1 - p0, n_free)
        self._patch_stiffness = sp.vstack(blocks, format="csr")
        self._rhs_per_patch = np.ascontiguousarray(r.T)

    def _condense(self) -> None:
        """Factor the unit-modulus interior blocks, condense the load
        (``_g_rhs``, ``_z0``) and every patch onto the interface
        (``_s_weights`` over the slots ``_s_indices``, ``_s_indptr`` of S)
        and check the rank of K(1). K(1) is never formed: the band of D is
        filled block by block from each patch's own interior rows of
        ``_patch_stiffness``, and B = K(1)[G, I] is the sum over the patches
        of A_k[G, I_k]. The interior rows coupled to the interface are the
        nonempty rows of B^T = K(1)[I, G]."""
        n_patches = self.patch_map.patch_count
        n_free, n_i = self._free.size, self._interior_patch.size
        n_g = n_free - n_i
        a = self._patch_stiffness
        # Row (k, g) of A_k is nonempty exactly when patch k touches
        # interface dof g, and then its diagonal is positive: the mask gives
        # each patch's interface dofs g_k.
        touches = np.diff(a.indptr).reshape(n_patches, n_free)[:, n_i:] > 0
        gs = [np.flatnonzero(row) for row in touches]
        # S is the union of the dense blocks g x g of the patches. Entry
        # (row g[b], column g[a]) of a block has the column-major key
        # g[a] n_g + g[b]: the sorted distinct keys are S's slots in CSC
        # order, and an entry's slot is the rank of its key. Each block's
        # keys are one ascending run, which the stable sort (timsort) merges.
        # The keys outnumber S's slots on a dense interface, so they are
        # sorted before the interior band is allocated.
        keys = np.concatenate([(g[:, None] * n_g + g).ravel() for g in gs])
        order = np.argsort(keys, kind="stable")
        new = np.diff(keys[order], prepend=-1) > 0
        slots = keys[order[new]]
        s_slot = np.empty(keys.size, dtype=np.int32)
        s_slot[order] = np.cumsum(new, dtype=np.int32) - 1
        self._s_indices = (slots % n_g).astype(np.int32)
        self._s_indptr = np.searchsorted(slots, np.arange(n_g + 1) * n_g).astype(np.int32)
        del keys, order, new, slots
        block_start = np.searchsorted(self._interior_patch, np.arange(n_patches))
        block_end = np.append(block_start[1:], n_i)
        # Interior row i of K(1) is row i of A_k, k = _interior_patch[i]: no
        # other patch stores an entry in it. Its first stored column is its
        # lowest (the columns are sorted, and the diagonal is stored).
        rows = self._interior_patch * n_free + np.arange(n_i)
        width = np.arange(n_i) - a.indices[a.indptr[rows]]
        band = np.zeros((int(width.max(initial=0)) + 1, n_i), order="F")  # factored in place
        for k, (start, end) in enumerate(zip(block_start, block_end)):
            ptr = a.indptr[k * n_free + start:k * n_free + end + 1]
            row = np.repeat(np.arange(start, end), np.diff(ptr))
            col = a.indices[ptr[0]:ptr[-1]]
            lower = col <= row
            band[row[lower] - col[lower], col[lower]] = a.data[ptr[0]:ptr[-1]][lower]
        try:
            self._interior = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise SingularSystemError(f"interior stiffness factorization failed: {exc}") from exc
        # B = K(1)[G, I] = sum_k A_k[G, I_k]: the interior columns of the
        # nonempty interface rows of the A_k, whose I_k are disjoint.
        k_of, g_of = np.nonzero(touches)
        g_rows = a[k_of * n_free + n_i + g_of].tocoo()
        inner = g_rows.col < n_i
        self._coupling = sp.csc_matrix(
            (g_rows.data[inner], (g_of[g_rows.row[inner]], g_rows.col[inner])), shape=(n_g, n_i)
        )
        del g_rows, inner
        self._coupling_t = self._coupling.T  # CSR over the same arrays
        # An interior row of R has one nonzero, in the column of its own
        # patch, and D is block diagonal, so row i of Z = D^-1 R_I has one
        # nonzero too, -z0[i] with z0 = -D^-1 R_I 1, in the column of its patch.
        self._z0 = -cho_solve_banded(
            (self._interior, True), self._rhs_per_patch[:n_i].sum(axis=1), check_finite=False
        )
        self._z0.flags.writeable = False  # the interior under the prescribed load alone; every solve adds it
        z = np.zeros((n_i, n_patches))
        z[np.arange(n_i), self._interior_patch] = -self._z0
        self._g_rhs = self._coupling @ z - self._rhs_per_patch[n_i:]

        # Per patch: the rows tail..end-1 of its block from its first
        # interior row coupled to its interface dofs.
        block_tail = block_end.copy()  # a block without coupled rows needs no Y
        coupled_rows = np.flatnonzero(np.diff(self._coupling_t.indptr))
        coupled, first = np.unique(self._interior_patch[coupled_rows], return_index=True)
        block_tail[coupled] = coupled_rows[first]
        # Slot weights of S(E) = _s_weights @ E: column k holds the block S_k.
        s_value = []
        position = np.full(n_free, -1)  # column -> position in g of the current patch, -1 off g
        for k, g in enumerate(gs):
            tail, end = block_tail[k], block_end[k]
            position[n_i + g] = np.arange(g.size)
            s_k = _dense_rows(a, k * n_free + n_i + g, position, np.zeros((g.size, g.size)))
            # dtbtrs aborts the process ("double free or corruption", SciPy
            # 1.17.1) on a band with no columns, so an empty Y is not solved.
            if tail < end:
                # A_k[g, I_k] A_k[I_k, I_k]^-1 A_k[I_k, g] = Y^T Y with Y = L^-1 A_k[I_k, g],
                # and Y is zero above row tail, as A_k[I_k, g] is (L is lower triangular).
                # Fortran order lets dtbtrs solve in place, so Y is the one copy.
                y = np.zeros((end - tail, g.size), order="F")
                _dense_rows(a, k * n_free + np.arange(tail, end), position, y)
                y, _ = dtbtrs(self._interior[:, tail:end], y, uplo="L", overwrite_b=True)
                s_k -= y.T @ y
                del y
            position[n_i + g] = -1
            s_value.append(s_k.T.ravel())
            del s_k  # freed before the next patch's copies
        s_ptr = np.cumsum([0] + [g.size ** 2 for g in gs], dtype=np.int32)
        self._s_weights = sp.csc_matrix((np.concatenate(s_value), s_slot, s_ptr), shape=(self._s_indices.size, n_patches))
        del s_slot, s_value

        pivots = self._interior[0] ** 2
        if n_g:
            pivots = np.concatenate([pivots, self._interface_pivots()])
        if not pivots.min(initial=np.inf) >= _PIVOT_RTOL * pivots.max(initial=0.0):
            raise SingularSystemError(
                "stiffness is numerically singular; boundary conditions leave rigid modes"
            )

    def _interface_pivots(self) -> np.ndarray:
        """Pivots of S(1): the squared diagonal of the banded Cholesky factor
        of its lower band. S's pattern is symmetric and holds its diagonal,
        so the lower band of column j is its slots from row j on; the band
        is filled straight from the slots, a run of columns of about
        ``_CHUNK_ENTRIES`` slots at a time with int32 positions, so no copy
        of S(1) as a sparse matrix and no per-slot index array of all of S
        is made. A failed factorization is a SingularSystemError."""
        ptr, rows = self._s_indptr, self._s_indices
        n_g = ptr.size - 1
        values = self._s_weights @ np.ones(self.patch_map.patch_count)
        band = np.zeros((int(np.max(rows[ptr[1:] - 1] - np.arange(n_g))) + 1, n_g), order="F")
        first = np.flatnonzero(np.diff(ptr[:-1] // _CHUNK_ENTRIES, prepend=-1))
        for j0, j1 in zip(first, np.append(first[1:], n_g)):
            column = np.repeat(np.arange(j0, j1, dtype=np.int32), np.diff(ptr[j0:j1 + 1]))
            offset = rows[ptr[j0]:ptr[j1]] - column
            lower = offset >= 0
            band[offset[lower], column[lower]] = values[ptr[j0]:ptr[j1]][lower]
        del values
        try:
            factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise SingularSystemError(f"interface stiffness factorization failed: {exc}") from exc
        return factor[0] ** 2

    def _init_strain_sampling(self, dofs, element_ids, parent_points) -> None:
        """Fill ``_surface_points`` and ``_strain_sampling`` from the surface
        elements ``element_ids``, their global ``dofs`` and the parent-space
        sample points. B is computed once per distinct element shape, as in
        ``_element_stiffnesses``. Row (strain c, sample (e, p)) of S is row c
        of B of element e at point p; it is written straight into CSR, its
        columns sorted, and the entries B holds as zeros are dropped."""
        coords = self.mesh.nodes[self.mesh.elements[element_ids]]
        shapes, first, shape = _shape.distinct_shapes(coords)
        b = np.stack([_shape.strain_displacement(shapes, gp, element_ids[first])[0] for gp in parent_points], axis=2)
        b = b[:, [0, 1, 2] if self.mesh.dimension == 2 else [0, 1, 3]].transpose(1, 0, 2, 3)  # (3, shapes, points, dofs)
        pts = [(_shape.shape_values(gp) @ coords)[:, :2] for gp in parent_points]
        self._surface_points = np.stack(pts, axis=1).reshape(-1, 2)
        order = np.argsort(dofs, axis=1, kind="stable")  # the sort kind the model build already runs
        # (3, elements, points, dofs): the CSR rows in order, each with its columns sorted.
        data = b[:, shape[:, None, None], np.arange(len(parent_points))[:, None], order[:, None]]
        indices = np.broadcast_to(np.sort(dofs, axis=1, kind="stable").astype(np.int32)[:, None], data.shape)
        indptr = np.arange(0, data.size + 1, dofs.shape[1])
        s = sp.csr_matrix((data.ravel(), indices.ravel(), indptr), shape=(indptr.size - 1, self._n_dofs))
        s.eliminate_zeros()
        self._strain_sampling = s

    @property
    def free_dofs(self) -> np.ndarray:
        """Global indices of the free dofs, in the row and column order of
        each A_k and the rows of ``_rhs_per_patch`` (read-only)."""
        return self._free

    @property
    def surface_points(self) -> np.ndarray:
        """Physical (x, y) coordinates of the strain sample points."""
        return self._surface_points

    @property
    def strain_sampling(self) -> sp.csr_matrix:
        """Surface strain sampling S, a CSR matrix of shape (3 * n_points, n_dofs).

        ``S @ u`` of a flat displacement vector stacks exx, eyy and gamma_xy
        at the ``surface_points``, in that order, component by component.
        Shared by every caller; do not modify it.
        """
        return self._strain_sampling

    def _check_values(self, values: np.ndarray, stack: bool = False) -> np.ndarray:
        """Moduli as floats, shape (P,), or (m, P) when ``stack``; all finite and positive."""
        values = np.asarray(values, dtype=float)
        p = self.patch_map.patch_count
        if values.shape[-1:] != (p,) or values.ndim > (2 if stack else 1):
            raise ValueError(f"expected patch_count = {p} moduli, got shape {values.shape}")
        bad = np.flatnonzero(~np.isfinite(values).reshape(-1, p).all(axis=0))
        if bad.size:
            raise ValueError(
                f"patch moduli must be finite; patches {bad.tolist()} have {values[..., bad].tolist()}"
            )
        if not np.all(values > 0):
            raise ValueError("all patch moduli must be positive")
        return values

    def _solve(self, values: np.ndarray):
        """Solve K(E_j) u_j = -R E_j for each row E_j of checked moduli (m, P).

        Returns (uf, au, errors, lu): the free-dof displacements, one column
        per design (n_free, m); the per-patch products, ``au[k, :, j]`` =
        A_k u_j; ``errors[j]``, the NumericalError of design j or None; and
        the factor of S(E) of a one-design stack (otherwise None). A
        one-design solve that succeeds is held for one repeat, its uf and au
        read-only (see the class docstring); a repeat returns it as is. Each design
        takes the fill of its S(E) (its own product with the slot weights,
        written into one matrix for the stack: ``splu`` reads contiguous
        values, and gathering them from one stacked product costs more than
        the product), one factorization and one LU solve, also when the
        interface is empty (one patch) and S(E) is 0 x 0. The rest runs once
        for the stack: the interface loads are one product, the interior is
        ``_recover`` (one banded solve with m right-hand sides) plus z0, and
        the A_k products and the checks of every design are one product
        each. A design whose solve fails does not stop the others: its
        column is NaN and its error is recorded. Each column is bitwise the
        solution of its design alone.
        """
        m = values.shape[0]
        # The held solve serves one repeat of its design; any other solve
        # drops it before it factors, so two factors are never alive at once.
        held, self._held = self._held, None
        if m == 1 and held is not None and held[0] == values.tobytes():
            return held[1], held[2], [None], held[3]
        del held
        errors = [None] * m
        g_rhs = self._g_rhs @ values.T
        u_g = np.empty_like(g_rhs)
        # One S(E) matrix for the stack: each design writes its slot values
        # into it (a factor keeps no reference to the matrix it was made
        # from), which spares a matrix construction and format check.
        n_g = g_rhs.shape[0]
        s_e = sp.csc_matrix((np.empty(self._s_indices.size), self._s_indices, self._s_indptr), shape=(n_g, n_g))
        for j in range(m):
            s_e.data = self._s_weights @ values[j]
            lu = None  # the previous design's factor is freed before this one is made
            self.factorizations += 1
            try:
                lu = _factor(s_e)
            except SingularSystemError as exc:
                errors[j] = exc
                u_g[:, j] = np.nan
            else:
                u_g[:, j] = lu.solve(g_rhs[:, j])
        uf = self._recover(u_g)
        uf[:self._z0.size] += self._z0[:, None]
        au = (self._patch_stiffness @ uf).reshape(values.shape[1], uf.shape[0], m)
        rhs = -(self._rhs_per_patch @ values.T)
        residual = np.linalg.norm(np.einsum("kfj,jk->fj", au, values) - rhs, axis=0)
        rhs_norm = np.linalg.norm(rhs, axis=0)
        # Fails closed: a NaN residual or load norm does not pass. A
        # non-finite solution has a non-finite residual (every free dof has
        # a nonzero column in K(1)), so it fails here too.
        for j in np.flatnonzero(~(residual <= _EQUILIBRIUM_RTOL * rhs_norm)):
            if errors[j] is None and not np.all(np.isfinite(uf[:, j])):
                errors[j] = SingularSystemError("solution is non-finite")
            elif errors[j] is None:
                errors[j] = NumericalError(
                    f"equilibrium residual {residual[j]:.3e} exceeds {_EQUILIBRIUM_RTOL:.1e} x load norm "
                    f"{rhs_norm[j]:.3e}"
                )
            uf[:, j] = np.nan
        if m != 1:
            return uf, au, errors, None
        if errors[0] is None:
            uf.flags.writeable = au.flags.writeable = False
            self._held = values.tobytes(), uf, au, lu
        return uf, au, errors, lu

    def _full(self, uf: np.ndarray) -> np.ndarray:
        """Flat displacement vectors, one row per column of ``uf``."""
        u = np.empty((uf.shape[1], self._n_dofs))
        u[:, self._dofs] = self._dof_values
        u[:, self._free] = uf.T
        return u

    def solve_displacement(self, values: np.ndarray) -> np.ndarray:
        """Flat displacement vector for the given patch moduli.

        ``values`` is one design (P,) or a stack of designs (m, P); a stack
        gives one row per design, each bitwise the solution of that design
        alone, at one factorization per design (see ``_solve``); a single
        design that repeats the held solve's costs none. A single
        design whose solve fails raises its NumericalError; in a stack, the
        row of a design whose solve fails is NaN and the others are returned.
        """
        values = self._check_values(values, stack=True)
        uf, _, errors, _ = self._solve(np.atleast_2d(values))
        if values.ndim == 1:
            if errors[0] is not None:
                raise errors[0]
            return self._full(uf)[0]
        u = self._full(uf)
        u[[e is not None for e in errors]] = np.nan
        return u

    def sample_strains(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exx, eyy, gamma_xy) of a flat displacement vector at the surface points."""
        return tuple(np.split(self._strain_sampling @ u, 3))

    def displacement_derivatives(self, values: np.ndarray):
        """Displacements of one solve, their sensitivities to the moduli,
        and second derivatives on the same factor.

        Returns (u, du, second): u the flat displacement vector that
        ``solve_displacement`` returns, du = du/dE of shape (n_dofs, P),
        zero at the prescribed dofs, and ``second(rate, acceleration)``,
        below. Differentiating K(E) u_f = -R E gives
        K(E) du_f/dE_k = -(A_k u_f + R_k) (K(E) is symmetric), all P columns
        from the per-patch products A_k u_f of the forward solve. The
        interior rows of these right-hand sides vanish: on I_k only patch k
        contributes, and there E_k (A_k u_f + R_k) is the residual of the
        interior equations, zero. So K(E)^-1 (A_k u_f + R_k) is
        u_G = S(E)^-1 (A_k u_f + R_k)_G, one LU solve on the forward
        solve's factor, and u_I = -D^-1 B^T u_G, one banded solve, each
        with P columns (``_recover``); du is its negative. One
        factorization per call, none when the call repeats the design of the
        model's held solve; the forward solve is checked as in
        ``solve_displacement``.

        ``second(rate, acceleration)`` is the flat vector
        u'' = d^2 u / dt^2 at t = 0 along a path of moduli E(t) through
        E(0) = ``values`` with E'(0) = ``rate`` and E''(0) = ``acceleration``
        (both (P,)); E(t) = E exp(t d) has rate E d and acceleration E d^2.
        Differentiating K(E(t)) u_f(t) = -R E(t) twice gives
        u'' = du E'' - 2 K(E)^-1 q with q = sum_k E'_k A_k u', u' = du E'.
        The interior rows of q vanish for the same reason: there
        A_k u' = 0 is the interior equation of K u' = -sum_k E'_k (A_k u_f + R_k).
        So K(E)^-1 q is one single-column LU solve on this call's factor of
        S(E) and one banded solve: no new factorization. ``second`` holds
        that factor; drop it before the next solve so that two factors are
        never held at once. A one-patch model takes the same path: its
        interface is empty, so du = 0 and u'' = 0.
        """
        values = self._check_values(values)
        uf, au, errors, lu = self._solve(values[None])
        if errors[0] is not None:
            raise errors[0]
        n_i = self._interior_patch.size
        du = np.zeros((self._n_dofs, values.size))
        du[self._free] = -self._recover(lu.solve(au[:, n_i:, 0].T + self._rhs_per_patch[n_i:]))

        def second(rate: np.ndarray, acceleration: np.ndarray) -> np.ndarray:
            u2 = du @ acceleration
            q = self._path_load(rate, (du @ rate)[self._free])
            u2[self._free] -= 2.0 * self._recover(lu.solve(q[n_i:]))
            return u2

        return self._full(uf)[0], du, second

    def _path_load(self, rate: np.ndarray, du_rate: np.ndarray) -> np.ndarray:
        """q = sum_k rate_k A_k u' over the free dofs (``free_dofs`` order),
        u' = ``du_rate``: one product with the stacked A_k."""
        return rate @ (self._patch_stiffness @ du_rate).reshape(rate.size, -1)

    def _recover(self, u_g: np.ndarray) -> np.ndarray:
        """[-D^-1 B^T u_G; u_G] over the free dofs (condensed order): K(E)^-1
        of right-hand sides that vanish on the interior, given u_G, their
        solution on the interface. One banded solve for all columns."""
        u_i = cho_solve_banded((self._interior, True), self._coupling_t @ u_g, check_finite=False)
        return np.concatenate([-u_i, u_g])

    def surface_strain_arrays(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(exx, eyy, gamma_xy) at the surface sample points; one solve."""
        return self.sample_strains(self.solve_displacement(values))


def _condensed_free_dofs(mesh: Mesh, patch_map: PatchMap, prescribed: np.ndarray):
    """Free dofs in the condensed order of ``ForwardModel``.

    Returns (free, interior_patch). ``free`` (read-only int64) lists the
    interior dofs patch by patch, then the interface dofs; ``interior_patch``
    is the patch of each interior dof (nondecreasing). Within a patch the
    interior nodes are sorted by their coordinates, the axis of most
    divisions slowest and that of fewest fastest, so each block's band is
    about one cross-section of nodes wide. Each patch runs that order in the
    direction that leaves more of its nodes ahead of its first touching node
    (one that shares an element with an interface node); touching nodes may
    still come before non-touching ones. Interface nodes follow the same
    coordinate order, ascending. The dofs of a node stay together.
    """
    n_nodes, n_patches = mesh.n_nodes, patch_map.patch_count
    # The distinct (node, patch) pairs: a node in more than one patch is on the interface.
    node_of_pair, patch_of_pair = np.divmod(
        np.unique(mesh.elements * n_patches + patch_map.patch_of_element[:, None]), n_patches
    )
    interface = np.bincount(node_of_pair, minlength=n_nodes) > 1
    node_patch = np.full(n_nodes, n_patches)  # interface nodes sort last
    node_patch[node_of_pair] = patch_of_pair
    node_patch[interface] = n_patches
    touching_node = np.zeros(n_nodes, dtype=bool)
    touching_node[mesh.elements[interface[mesh.elements].any(axis=1)]] = True
    touching_node &= ~interface

    # Coordinate order, then per patch the direction whose first touching
    # node has more of the patch's nodes ahead of it (ties, and so the
    # interface, which has no touching node, ascending).
    axes = np.argsort(mesh.divisions, kind="stable")
    line_rank = np.empty(n_nodes, dtype=np.int64)
    line_rank[np.lexsort(mesh.nodes[:, axes].T)] = np.arange(n_nodes)
    first = np.full(n_patches + 1, n_nodes)
    last = np.full(n_patches + 1, -1)
    np.minimum.at(first, node_patch[touching_node], line_rank[touching_node])
    np.maximum.at(last, node_patch[touching_node], line_rank[touching_node])
    ahead = np.bincount(node_patch[~interface & (line_rank < first[node_patch])], minlength=n_patches + 1)
    behind = np.bincount(node_patch[~interface & (line_rank > last[node_patch])], minlength=n_patches + 1)
    order = np.lexsort((np.where((behind > ahead)[node_patch], -line_rank, line_rank), node_patch))

    dim = mesh.dimension
    dofs = (dim * order[:, None] + np.arange(dim)).ravel()
    keep = ~np.isin(dofs, prescribed)
    free = dofs[keep]
    free.flags.writeable = False
    dof_patch = np.repeat(node_patch[order], dim)[keep]
    return free, dof_patch[dof_patch < n_patches]


def _dense_rows(a: sp.csr_matrix, rows: np.ndarray, position: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ``rows`` of ``a`` (CSR without duplicate entries) into
    ``out``: the entry in column j of rows[i] goes to out[i, position[j]],
    and columns whose position is -1 are left out. Returns ``out``."""
    start = a.indptr[rows]
    count = a.indptr[rows + 1] - start
    entry = np.arange(count.sum()) + np.repeat(start + count - np.cumsum(count), count)
    column = position[a.indices[entry]]
    kept = column >= 0
    out[np.repeat(np.arange(rows.size), count)[kept], column[kept]] = a.data[entry[kept]]
    return out


def _factor(k: sp.csc_matrix):
    """LU of a symmetric positive definite matrix in a fixed order: no
    column reordering, no pivoting and no equilibration."""
    try:
        return splu(
            k, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True, Equil=False)
        )
    except RuntimeError as exc:
        raise SingularSystemError(f"stiffness factorization failed: {exc}") from exc
