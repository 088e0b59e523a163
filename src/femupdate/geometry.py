"""Structured coupon meshes and their partition into modulus patches.

A coupon is a rectangular plate (QUAD4, plane stress) or block (HEX8)
spanning [0, L] x [0, W] (x [0, T]). Patches are groups of elements that
share one unknown elastic modulus: longitudinal sections first, then
rectangular defect regions stamped on top as dedicated patches.
"""

from dataclasses import dataclass

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Mesh:
    """Structured coupon mesh.

    Attributes
    ----------
    dimension : 2 or 3.
    nodes : (n_nodes, dimension) coordinates in mm.
    elements : (n_elements, 4 or 8) connectivity, counterclockwise QUAD4 or
        right-handed HEX8 ordering.
    thickness : plate thickness in mm for QUAD4 meshes, None for HEX8.
    divisions : grid cell counts (nx, ny) or (nx, ny, nz).
    extent : domain size (L, W) or (L, W, T) in mm.
    """

    dimension: int
    nodes: np.ndarray
    elements: np.ndarray
    thickness: float | None
    divisions: tuple
    extent: tuple

    def __post_init__(self):
        _readonly(self.nodes)
        _readonly(self.elements)
        n_nodes = self.nodes.shape[0]
        if self.elements.min() < 0 or self.elements.max() >= n_nodes:
            raise ValueError("element connectivity references out-of-range node ids")
        ordered = np.sort(self.elements, axis=1)
        repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
        if repeats.size:
            raise ValueError(f"element {repeats[0]} repeats a node id")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_centroids(self) -> np.ndarray:
        """Centroid of every element, shape (n_elements, dimension)."""
        return self.nodes[self.elements].mean(axis=1)

    def face_nodes(self, face: str) -> np.ndarray:
        """Node ids on a boundary face: one of xmin/xmax/ymin/ymax/zmin/zmax."""
        axes = {"x": 0, "y": 1, "z": 2}
        if len(face) < 4 or face[0] not in axes or face[1:] not in ("min", "max"):
            raise ValueError(f"unknown face selector {face!r}")
        axis = axes[face[0]]
        if axis >= self.dimension:
            raise ValueError(f"face {face!r} does not exist on a {self.dimension}D mesh")
        target = 0.0 if face.endswith("min") else self.extent[axis]
        tol = 1e-9 * max(self.extent)
        return np.flatnonzero(np.abs(self.nodes[:, axis] - target) < tol)


@dataclass(frozen=True)
class PatchMap:
    """Assignment of every element to exactly one modulus patch."""

    patch_of_element: np.ndarray
    patch_count: int

    def __post_init__(self):
        p = np.asarray(self.patch_of_element, dtype=np.int64)
        object.__setattr__(self, "patch_of_element", _readonly(p))
        if self.patch_count < 1:
            raise ValueError("patch_count must be >= 1")
        if p.min() < 0 or p.max() >= self.patch_count:
            raise ValueError("patch index out of range")
        counts = np.bincount(p, minlength=self.patch_count)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            raise ValueError(f"empty patches not allowed: patch {empty[0]} owns no element")


@dataclass(frozen=True)
class DefectSpec:
    """Axis-aligned rectangular (2D) or cuboidal (3D) defect region in mm."""

    box_min: tuple
    box_max: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.box_min)
        hi = tuple(float(v) for v in self.box_max)
        object.__setattr__(self, "box_min", lo)
        object.__setattr__(self, "box_max", hi)
        if len(lo) != len(hi) or len(lo) not in (2, 3):
            raise ValueError("defect box must have 2 or 3 coordinates per corner")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"defect box must satisfy box_min < box_max, got {lo} .. {hi}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the closed box."""
        lo = np.array(self.box_min)
        hi = np.array(self.box_max)
        if points.shape[1] != lo.size:
            raise ValueError("defect box dimension does not match point dimension")
        return np.all((points >= lo) & (points <= hi), axis=1)


def build_coupon_mesh(
    length_mm: float,
    width_mm: float,
    thickness_mm: float,
    nx: int,
    ny: int,
    nz: int | None = None,
) -> Mesh:
    """Build a structured coupon mesh over [0, L] x [0, W] (x [0, T]).

    With ``nz`` None the mesh is 2D (QUAD4 plane stress, ``thickness_mm``
    stored as the plate thickness); otherwise 3D with HEX8 elements and
    ``thickness_mm`` as the z extent. The element Jacobians are not checked
    here: ``ForwardModel`` checks them where it integrates the stiffness,
    so a size that underflows them (say 1e-170 mm) fails there.
    """
    for name, v in (("length_mm", length_mm), ("width_mm", width_mm), ("thickness_mm", thickness_mm)):
        if not (0 < v < np.inf):
            raise ValueError(f"{name} must be positive and finite, got {v}")
    for name, v in (("nx", nx), ("ny", ny), ("nz", 1 if nz is None else nz)):
        if not (float(v).is_integer() and v >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {v}")
    nx, ny, nz = int(nx), int(ny), None if nz is None else int(nz)

    xs = np.linspace(0.0, length_mm, nx + 1)
    ys = np.linspace(0.0, width_mm, ny + 1)
    # Nodes and elements are numbered x fastest, then y, then z.
    cell = np.arange(nx * ny * (nz or 1))
    layer = (nx + 1) * (ny + 1)
    first = cell % nx + (nx + 1) * (cell // nx % ny) + layer * (cell // (nx * ny))
    quad = np.array([0, 1, nx + 2, nx + 1])  # counterclockwise corners from the first node
    if nz is None:
        xg, yg = np.meshgrid(xs, ys, indexing="xy")
        nodes = np.column_stack([xg.ravel(), yg.ravel()])
        elems = first[:, None] + quad
        return Mesh(2, nodes, elems, float(thickness_mm), (nx, ny), (length_mm, width_mm))
    zs = np.linspace(0.0, thickness_mm, nz + 1)
    zg, yg, xg = np.meshgrid(zs, ys, xs, indexing="ij")
    nodes = np.column_stack([xg.ravel(), yg.ravel(), zg.ravel()])
    elems = first[:, None] + np.concatenate([quad, quad + layer])
    return Mesh(3, nodes, elems, None, (nx, ny, nz), (length_mm, width_mm, thickness_mm))


def partition_longitudinal(mesh: Mesh, n_sections: int) -> PatchMap:
    """Split the coupon into ``n_sections`` equal-width bands along x.

    Elements are assigned by centroid; the last band absorbs centroids at
    exactly x = L. Requires 1 <= n_sections <= nx so no band is empty.
    """
    nx = mesh.divisions[0]
    if not (1 <= n_sections <= nx):
        raise ValueError(
            f"n_sections must be in [1, nx={nx}] to keep every section nonempty, got {n_sections}"
        )
    length = mesh.extent[0]
    cx = mesh.element_centroids()[:, 0]
    section = np.minimum((cx / (length / n_sections)).astype(np.int64), n_sections - 1)
    return PatchMap(section, n_sections)


def stamp_defect_patches(patch_map: PatchMap, mesh: Mesh, defects: list[DefectSpec]) -> PatchMap:
    """Reassign elements inside each defect box to a new dedicated patch.

    Defect k becomes patch ``patch_map.patch_count + k``. Overlapping boxes
    resolve last-wins. Raises ValueError if a box catches no element
    centroid, or if the stamping empties any existing patch.
    """
    if not defects:
        return patch_map
    centroids = mesh.element_centroids()
    assignment = patch_map.patch_of_element.copy()
    for k, defect in enumerate(defects):
        inside = defect.contains(centroids)
        if not inside.any():
            raise ValueError(f"defect {k} contains no element centroid: {defect.box_min}..{defect.box_max}")
        assignment[inside] = patch_map.patch_count + k
    return PatchMap(assignment, patch_map.patch_count + len(defects))

