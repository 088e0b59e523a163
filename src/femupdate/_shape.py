"""Isoparametric shape functions and Gauss rules for QUAD4 and HEX8.

Parent domain is [-1, 1]^d. Node ordering matches the mesh convention:
counterclockwise for QUAD4, bottom face counterclockwise then top face for
HEX8. All routines return plain float64 arrays.
"""

import numpy as np

from .errors import DegenerateElementError

_G = 1.0 / np.sqrt(3.0)

# Corner sign patterns, one row per node.
QUAD4_SIGNS = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
HEX8_SIGNS = np.array(
    [
        (-1, -1, -1),
        (1, -1, -1),
        (1, 1, -1),
        (-1, 1, -1),
        (-1, -1, 1),
        (1, -1, 1),
        (1, 1, 1),
        (-1, 1, 1),
    ],
    dtype=float,
)


def gauss_points_2d() -> np.ndarray:
    """Full 2x2 Gauss rule, xi fastest; weights are all 1."""
    pts = [(x, y) for y in (-_G, _G) for x in (-_G, _G)]
    return np.array(pts)


def gauss_points_3d() -> np.ndarray:
    """Full 2x2x2 Gauss rule, xi fastest, then eta, then zeta."""
    pts = [(x, y, z) for z in (-_G, _G) for y in (-_G, _G) for x in (-_G, _G)]
    return np.array(pts)


def gauss_points(dimension: int) -> np.ndarray:
    """Full Gauss rule of a QUAD4 (2) or HEX8 (3) element."""
    return gauss_points_2d() if dimension == 2 else gauss_points_3d()


def shape_values(point: np.ndarray) -> np.ndarray:
    """Shape function values N_i at a parent point (length 4 or 8)."""
    point = np.asarray(point, dtype=float)
    if point.shape == (2,):
        signs = QUAD4_SIGNS
        return 0.25 * (1 + signs[:, 0] * point[0]) * (1 + signs[:, 1] * point[1])
    if point.shape == (3,):
        signs = HEX8_SIGNS
        return (
            0.125
            * (1 + signs[:, 0] * point[0])
            * (1 + signs[:, 1] * point[1])
            * (1 + signs[:, 2] * point[2])
        )
    raise ValueError(f"parent point must be 2D or 3D, got shape {point.shape}")


def shape_gradients(point: np.ndarray) -> np.ndarray:
    """Parent-space gradients dN_i/dxi_a, shape (n_nodes, dim)."""
    point = np.asarray(point, dtype=float)
    if point.shape == (2,):
        s = QUAD4_SIGNS
        xi, eta = point
        out = np.empty((4, 2))
        out[:, 0] = 0.25 * s[:, 0] * (1 + s[:, 1] * eta)
        out[:, 1] = 0.25 * s[:, 1] * (1 + s[:, 0] * xi)
        return out
    if point.shape == (3,):
        s = HEX8_SIGNS
        xi, eta, zeta = point
        out = np.empty((8, 3))
        out[:, 0] = 0.125 * s[:, 0] * (1 + s[:, 1] * eta) * (1 + s[:, 2] * zeta)
        out[:, 1] = 0.125 * s[:, 1] * (1 + s[:, 0] * xi) * (1 + s[:, 2] * zeta)
        out[:, 2] = 0.125 * s[:, 2] * (1 + s[:, 0] * xi) * (1 + s[:, 1] * eta)
        return out
    raise ValueError(f"parent point must be 2D or 3D, got shape {point.shape}")


# Nonzero entries of the strain-displacement matrix B, as (strain row,
# displacement component, derivative axis). Voigt order xx, yy, xy in 2D and
# xx, yy, zz, xy, yz, zx in 3D, engineering shear.
_B_ENTRIES = {
    2: ((0, 0, 0), (1, 1, 1), (2, 0, 1), (2, 1, 0)),
    3: (
        (0, 0, 0), (1, 1, 1), (2, 2, 2),
        (3, 0, 1), (3, 1, 0), (4, 1, 2), (4, 2, 1), (5, 0, 2), (5, 2, 0),
    ),
}


def strain_displacement(coords: np.ndarray, point: np.ndarray, element_ids=None):
    """B matrices and Jacobian determinants of many elements at one parent point.

    ``coords`` holds the node coordinates of each element, shape
    (n_elements, n_nodes, dim). Returns B of shape (n_elements, 3 or 6,
    dim * n_nodes), node-major dof order, and det J of shape (n_elements,).
    Raises DegenerateElementError unless det J > 0 for every element (NaN
    coordinates included); the error names ``element_ids[i]``, or the batch
    position i when ``element_ids`` is None.
    """
    dnp = shape_gradients(point)
    jac = np.einsum("enx,na->exa", coords, dnp)  # J[e, x, a] = dx/dxi_a
    with np.errstate(invalid="ignore"):  # NaN coordinates fail the check below
        detj = np.linalg.det(jac)
    bad = np.flatnonzero(~(detj > 0.0))
    if bad.size:
        i = bad[0]
        raise DegenerateElementError(i if element_ids is None else element_ids[i], detj[i])
    dnx = dnp @ np.linalg.inv(jac)  # dN/dx, (n_elements, n_nodes, dim)
    n_elements, n_nodes, dim = dnx.shape
    b = np.zeros((n_elements, 3 if dim == 2 else 6, dim * n_nodes))
    for row, component, axis in _B_ENTRIES[dim]:
        b[:, row, component::dim] = dnx[:, :, axis]
    return b, detj
