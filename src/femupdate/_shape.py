"""Isoparametric shape functions and Gauss rules for QUAD4 and HEX8.

Parent domain is [-1, 1]^d. Node ordering matches the mesh convention:
counterclockwise for QUAD4, bottom face counterclockwise then top face for
HEX8. All routines return plain float64 arrays.
"""

import itertools

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


def gauss_points(dimension: int) -> np.ndarray:
    """Full Gauss rule of a QUAD4 (2) or HEX8 (3) element, xi fastest, then
    eta, then zeta; the weights are all 1."""
    return np.array([point[::-1] for point in itertools.product((-_G, _G), repeat=dimension)])


_CORNER_SIGNS = {(2,): QUAD4_SIGNS, (3,): HEX8_SIGNS}


def _signs_and_factors(point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corner signs s (n_nodes, dim) of a parent point's element and the
    factors 1 + s_b xi_b of every node and axis."""
    signs = _CORNER_SIGNS.get(point.shape)
    if signs is None:
        raise ValueError(f"parent point must be 2D or 3D, got shape {point.shape}")
    return signs, 1 + signs * point


def shape_values(point: np.ndarray) -> np.ndarray:
    """Shape function values N_i = 0.5^d prod_b (1 + s_ib xi_b) at a parent
    point (length 4 or 8), the product taken in axis order."""
    point = np.asarray(point, dtype=float)
    _, factors = _signs_and_factors(point)
    values = 0.5**point.size
    for b in range(point.size):
        values = values * factors[:, b]
    return values


def shape_gradients(point: np.ndarray) -> np.ndarray:
    """Parent-space gradients dN_i/dxi_a = 0.5^d s_ia prod_{b != a} (1 + s_ib xi_b),
    the product taken in axis order; shape (n_nodes, dim)."""
    point = np.asarray(point, dtype=float)
    signs, factors = _signs_and_factors(point)
    out = np.empty(signs.shape)
    for a in range(point.size):
        column = 0.5**point.size * signs[:, a]
        for b in range(point.size):
            if b != a:
                column = column * factors[:, b]
        out[:, a] = column
    return out


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


def distinct_shapes(coords: np.ndarray):
    """The distinct shapes of many elements, to compute per-shape data once.

    ``coords`` is (n_elements, n_nodes, dim). An element's shape is its node
    coordinates relative to its first node, compared bit for bit; B and
    det J depend only on it. Returns (shapes, first, inverse): the distinct
    shapes in order of first occurrence, (n_shapes, n_nodes, dim), the
    first element of each (increasing) and the shape of every element, so
    ``per_shape[inverse]`` scatters per-shape data back to the elements.
    In this order the first shape that fails a check is that of the first
    element that fails it.
    """
    relative = coords - coords[:, :1]
    _, first, inverse = np.unique(
        relative.reshape(relative.shape[0], -1), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return relative[first[order]], first[order], rank[inverse.ravel()]
