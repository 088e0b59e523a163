import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

import femupdate as fu
from femupdate.solver import _element_stiffnesses, elastic_matrix

# CI selects "ci" (HYPOTHESIS_PROFILE=ci): the same examples on every run, so
# a property test cannot pass on one run of a change and fail on the next.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def coupon_mesh():
    """The 40x10 plane-stress coupon used across solver tests."""
    return fu.build_coupon_mesh(100.0, 20.0, 2.0, 40, 10)


@pytest.fixture(scope="session")
def uniaxial_bcs():
    return fu.BoundaryConditions("xmin", 0.1)


@pytest.fixture
def single_patch(coupon_mesh):
    return fu.partition_longitudinal(coupon_mesh, 1)


def homogeneous_material(patch_count: int, modulus: float = 200000.0):
    return np.full(patch_count, modulus)


@pytest.fixture
def material_factory():
    return homogeneous_material


class Prescribed:
    """Boundary conditions as an explicit list of prescribed dofs and values."""

    def __init__(self, dofs, values):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)

    def prescribed_dofs(self, mesh):
        order = np.argsort(self.dofs)
        return self.dofs[order], self.values[order]


def element_stiffness(coords, modulus, nu, scale=1.0):
    """One element's stiffness: ``_element_stiffnesses`` with D = E D(1);
    ``scale`` is the plate thickness of a QUAD4 (1 for HEX8)."""
    coords = np.asarray(coords, dtype=float)
    d = modulus * elastic_matrix(nu, coords.shape[1])
    k, shape = _element_stiffnesses(coords[None], d, scale)
    return k[shape[0]]


def stiffness(model, values):
    """Free-free stiffness K(E) = sum_k E_k A_k of a ForwardModel, as CSC;
    rows and columns follow ``model.free_dofs``."""
    weights = sp.kron(np.asarray(values, dtype=float)[None, :], sp.identity(model.free_dofs.size, format="csr"))
    return (weights @ model._patch_stiffness).tocsc()


def interface_stiffness(model, values):
    """Schur complement S(E) = sum_k E_k S_k of a ForwardModel on its
    interface dofs, as CSC over the model's slots of S."""
    n_g = model._s_indptr.size - 1
    weights = model._s_weights @ np.asarray(values, dtype=float)
    return sp.csc_matrix((weights, model._s_indices, model._s_indptr), shape=(n_g, n_g))


def perturb_factors(monkeypatch, at=None):
    """Make ``ForwardModel._factor`` factor S(E) of the moduli scaled by
    1 + 1e-3, which is S(E) scaled by 1 + 1e-3 (S is linear in E): on every
    call, or on call number ``at`` (from 1) alone."""
    real, calls = fu.ForwardModel._factor, []

    def perturbed(self, values):
        calls.append(1)
        return real(self, values * (1.0 + 1e-3) if at in (None, len(calls)) else values)

    monkeypatch.setattr(fu.ForwardModel, "_factor", perturbed)


def dense_stiffness(mesh, patch_map, values, nu=0.3):
    """Global stiffness assembled element by element from element_stiffness."""
    dim = mesh.dimension
    scale = mesh.thickness if dim == 2 else 1.0
    k = np.zeros((dim * mesh.n_nodes, dim * mesh.n_nodes))
    for e in range(mesh.n_elements):
        ke = element_stiffness(mesh.nodes[mesh.elements[e]], values[patch_map.patch_of_element[e]], nu, scale)
        gdofs = (dim * mesh.elements[e][:, None] + np.arange(dim)).ravel()
        k[np.ix_(gdofs, gdofs)] += ke
    return k
