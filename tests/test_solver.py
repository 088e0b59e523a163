"""Element stiffness, assembly, static solves and strain extraction."""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.linalg import eigvalsh
from numpy.testing import assert_allclose
from scipy.linalg import cholesky_banded

import femupdate as fu
from conftest import Prescribed, dense_stiffness, element_stiffness, interface_stiffness, stiffness
from femupdate._shape import (
    HEX8_SIGNS, QUAD4_SIGNS, distinct_shapes, gauss_points, shape_gradients, shape_values, strain_displacement,
)
from femupdate.errors import DegenerateElementError, NumericalError

E_STEEL = 200000.0
NU = 0.3

UNIT_QUAD = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
UNIT_HEX = np.array(
    [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ],
    dtype=float,
)


def quad4_k00_exact_oracle() -> float:
    """Symbolic exact integration of the unit-square QUAD4 K[0][0].

    Independent of the solver: builds the integrand from scratch in sympy
    and integrates it exactly over the parent domain (E=1, nu=0, t=1).
    """
    import sympy as sp

    xi, eta = sp.symbols("xi eta")
    signs = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    n = [sp.Rational(1, 4) * (1 + s[0] * xi) * (1 + s[1] * eta) for s in signs]
    dndx = [sp.diff(f, xi) * 2 for f in n]  # unit square: dxi/dx = 2
    dndy = [sp.diff(f, eta) * 2 for f in n]
    d = sp.Matrix([[1, 0, 0], [0, 1, 0], [0, 0, sp.Rational(1, 2)]])
    b = sp.zeros(3, 8)
    for i in range(4):
        b[0, 2 * i] = dndx[i]
        b[1, 2 * i + 1] = dndy[i]
        b[2, 2 * i] = dndy[i]
        b[2, 2 * i + 1] = dndx[i]
    integrand = (b.T * d * b)[0, 0] * sp.Rational(1, 4)  # times det J
    k00 = sp.integrate(sp.integrate(integrand, (xi, -1, 1)), (eta, -1, 1))
    return float(k00)


def explicit_shape_functions(point):
    """QUAD4 or HEX8 values N_i and gradients dN_i/dxi_a written out per
    dimension, each product taken in axis order."""
    if len(point) == 2:
        s, (xi, eta) = QUAD4_SIGNS, point
        values = 0.25 * (1 + s[:, 0] * xi) * (1 + s[:, 1] * eta)
        gradients = np.stack([0.25 * s[:, 0] * (1 + s[:, 1] * eta), 0.25 * s[:, 1] * (1 + s[:, 0] * xi)], axis=1)
        return values, gradients
    s, (xi, eta, zeta) = HEX8_SIGNS, point
    values = 0.125 * (1 + s[:, 0] * xi) * (1 + s[:, 1] * eta) * (1 + s[:, 2] * zeta)
    gradients = np.stack([
        0.125 * s[:, 0] * (1 + s[:, 1] * eta) * (1 + s[:, 2] * zeta),
        0.125 * s[:, 1] * (1 + s[:, 0] * xi) * (1 + s[:, 2] * zeta),
        0.125 * s[:, 2] * (1 + s[:, 0] * xi) * (1 + s[:, 1] * eta),
    ], axis=1)
    return values, gradients


class TestShapeFunctions:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_bitwise_the_explicit_formulas(self, dimension):
        points = np.vstack([gauss_points(dimension), np.random.default_rng(dimension).uniform(-1, 1, (200, dimension))])
        for point in points:
            values, gradients = explicit_shape_functions(point)
            assert shape_values(point).tobytes() == values.tobytes()
            assert shape_gradients(point).tobytes() == gradients.tobytes()
            assert shape_values(point).sum() == pytest.approx(1.0, rel=1e-15)

    def test_gauss_points_xi_fastest(self):
        g = 1.0 / np.sqrt(3.0)
        quad4 = np.array([(-g, -g), (g, -g), (-g, g), (g, g)])
        hex8 = np.array([(-g, -g, -g), (g, -g, -g), (-g, g, -g), (g, g, -g),
                         (-g, -g, g), (g, -g, g), (-g, g, g), (g, g, g)])
        for dimension, expected in ((2, quad4), (3, hex8)):
            points = gauss_points(dimension)
            assert (points.shape, points.dtype) == (expected.shape, expected.dtype)
            assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(1,), (4,), (2, 2)])
    def test_other_point_shapes_rejected(self, shape):
        for fn in (shape_values, shape_gradients):
            with pytest.raises(ValueError, match="parent point must be 2D or 3D"):
                fn(np.zeros(shape))


class TestElementStiffness:
    def test_quad4_shape_and_symmetry(self):
        k = element_stiffness(UNIT_QUAD, E_STEEL, NU)
        assert k.shape == (8, 8)
        assert np.abs(k - k.T).max() < 1e-12 * np.abs(k).max()

    def test_hex8_shape(self):
        k = element_stiffness(UNIT_HEX, E_STEEL, NU)
        assert k.shape == (24, 24)

    @pytest.mark.parametrize("direction", [0, 1])
    def test_quad4_rigid_translation(self, direction):
        k = element_stiffness(UNIT_QUAD, E_STEEL, NU)
        u = np.zeros(8)
        u[direction::2] = 1.0
        assert np.abs(k @ u).max() < 1e-12 * np.abs(k).max()

    def test_quad4_rigid_rotation(self):
        k = element_stiffness(UNIT_QUAD, E_STEEL, NU)
        u = np.column_stack([-UNIT_QUAD[:, 1], UNIT_QUAD[:, 0]]).ravel()
        assert np.abs(k @ u).max() < 1e-12 * np.abs(k).max()

    def test_quad4_zero_energy_mode_count(self):
        k = element_stiffness(UNIT_QUAD, E_STEEL, NU)
        lam = eigvalsh(k)
        assert np.sum(np.abs(lam) < 1e-9 * np.abs(lam).max()) == 3
        assert np.all(lam > -1e-9 * np.abs(lam).max())  # positive semidefinite

    def test_hex8_zero_energy_mode_count(self):
        k = element_stiffness(UNIT_HEX, E_STEEL, NU)
        lam = eigvalsh(k)
        assert np.sum(np.abs(lam) < 1e-9 * np.abs(lam).max()) == 6
        assert np.all(lam > -1e-9 * np.abs(lam).max())

    def test_k00_matches_exact_integration_oracle(self):
        oracle = quad4_k00_exact_oracle()
        k = element_stiffness(UNIT_QUAD, 1.0, 0.0)
        assert k[0, 0] == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(0.5, rel=1e-15)  # frozen value

    def test_degenerate_element_raises_with_id(self):
        inverted = UNIT_QUAD[::-1]  # clockwise ordering flips the Jacobian sign
        with pytest.raises(DegenerateElementError, match="element 7"):
            strain_displacement(inverted[None], gauss_points(2)[0], [7])

    def test_nan_coordinates_raise(self):
        with pytest.raises(DegenerateElementError):
            element_stiffness(np.full((4, 2), np.nan), E_STEEL, NU)


class TestAssemble:
    def test_single_element_equals_element_matrix(self):
        mesh = fu.build_coupon_mesh(2.0, 1.0, 0.5, 1, 1)
        pmap = fu.partition_longitudinal(mesh, 1)
        # pin node 0 in x and y and node 1 in y: removes the three rigid modes
        prescribed = np.array([0, 1, 3])
        v = np.array([0.01, -0.02, 0.03])
        model = fu.ForwardModel(mesh, pmap, NU, Prescribed(prescribed, v))
        ke = element_stiffness(mesh.nodes[mesh.elements[0]], E_STEEL, NU, mesh.thickness)
        # map local element dofs onto global dofs through the connectivity
        gdofs = np.concatenate([(2 * n, 2 * n + 1) for n in mesh.elements[0]])
        k_global = np.zeros((8, 8))
        k_global[np.ix_(gdofs, gdofs)] = ke
        free = model.free_dofs
        e = np.array([E_STEEL])
        atol = 1e-12 * np.abs(ke).max()
        assert_allclose(stiffness(model, e).toarray(), k_global[np.ix_(free, free)], rtol=0, atol=atol)
        assert_allclose(-(model._rhs_per_patch @ e), -k_global[np.ix_(free, prescribed)] @ v, rtol=0, atol=atol)

    def test_distorted_mesh_matches_element_by_element(self, uniaxial_bcs):
        """Element stiffnesses are computed once per distinct shape: a mesh
        with some shapes repeated and others distorted assembles the same
        K(E) as an element-by-element assembly."""
        mesh = fu.build_coupon_mesh(100, 20, 2, 8, 4)
        nodes = mesh.nodes.copy()
        inner = (nodes[:, 0] > 0) & (nodes[:, 0] < 50) & (nodes[:, 1] > 0) & (nodes[:, 1] < 20)
        nodes[inner] += np.random.default_rng(5).uniform(-2.0, 2.0, (int(inner.sum()), 2))
        mesh = fu.Mesh(2, nodes, mesh.elements, mesh.thickness, mesh.divisions, mesh.extent)
        pmap = fu.partition_longitudinal(mesh, 4)
        values = np.array([1.0, 0.5, 2.0, 1.5]) * E_STEEL
        k_dense = dense_stiffness(mesh, pmap, values, NU)
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        free = model.free_dofs
        k_general = k_dense[np.ix_(free, free)]
        assert np.abs(stiffness(model, values).toarray() - k_general).max() < 1e-12 * np.abs(k_general).max()

    @pytest.mark.parametrize("chunk_entries", [1, 2**12], ids=["patch-by-patch", "few-patches"])
    def test_assembly_bitwise_independent_of_chunks(self, coupon_mesh, uniaxial_bcs, monkeypatch, chunk_entries):
        """The A_k and R are bitwise the same whether each COO holds one
        patch, a few or the whole mesh (the default on this coupon): the
        rows of different patches are disjoint, and within a row the
        entries keep element order, so duplicates sum in the same order."""
        from femupdate import solver

        defects = [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(coupon_mesh, 9), coupon_mesh, defects)
        whole = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", chunk_entries)
        chunked = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(chunked._patch_stiffness, name), getattr(whole._patch_stiffness, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        assert chunked._rhs_per_patch.tobytes() == whole._rhs_per_patch.tobytes()

    def test_first_degenerate_element_named(self, coupon_mesh, uniaxial_bcs):
        """Inverted elements sharing one shape: the error names the first."""
        elements = coupon_mesh.elements.copy()
        for e in (95, 12, 30):
            elements[e] = elements[e][::-1]
        mesh = fu.Mesh(2, coupon_mesh.nodes, elements, coupon_mesh.thickness, coupon_mesh.divisions,
                       coupon_mesh.extent)
        with pytest.raises(DegenerateElementError, match=r"element 12$"):
            fu.ForwardModel(mesh, fu.partition_longitudinal(mesh, 1), NU, uniaxial_bcs)

    def test_assembled_symmetry_random_moduli(self, coupon_mesh, uniaxial_bcs):
        pmap = fu.partition_longitudinal(coupon_mesh, 9)
        rng = np.random.default_rng(3)
        values = rng.uniform(0.5, 3.0, 9) * E_STEEL
        k = stiffness(fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs), values)
        asym = np.abs(k - k.T).max()
        assert asym < 1e-10 * np.abs(k).max()

    def test_doubling_all_moduli_doubles_matrix(self, coupon_mesh, single_patch, uniaxial_bcs):
        v1 = np.array([E_STEEL])
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        k1 = stiffness(model, v1)
        k2 = stiffness(model, 2 * v1)
        assert np.abs(k2 - 2 * k1).max() < 1e-12 * np.abs(k1).max()

    def test_patch_count_mismatch(self, coupon_mesh, single_patch, material_factory, uniaxial_bcs):
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        with pytest.raises(ValueError, match="patch_count"):
            model.solve_displacement(material_factory(3))


class TestBoundaryConditions:
    def test_prescribed_values_exact(self, coupon_mesh, single_patch, material_factory, uniaxial_bcs):
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        u = model.solve_displacement(material_factory(1)).reshape(-1, 2)
        loaded = coupon_mesh.face_nodes("xmax")
        fixed = coupon_mesh.face_nodes("xmin")
        assert np.all(u[loaded, 0] == 0.1)
        assert np.all(u[fixed, 0] == 0.0)

    def test_clamped_mode_pins_all_components(self, coupon_mesh):
        bcs = fu.BoundaryConditions("xmin", 0.1, clamp_fixed=True)
        dofs, values = bcs.prescribed_dofs(coupon_mesh)
        fixed = coupon_mesh.face_nodes("xmin")
        for n in fixed:
            assert 2 * n in dofs and 2 * n + 1 in dofs

    def test_non_finite_u_applied(self, coupon_mesh):
        bcs = fu.BoundaryConditions("xmin", np.nan)
        with pytest.raises(ValueError, match="finite"):
            bcs.prescribed_dofs(coupon_mesh)


def nodal_displacements(mesh, pmap, values, bcs):
    """Nodal displacements, shape (n_nodes, dimension), from one ForwardModel solve."""
    u = fu.ForwardModel(mesh, pmap, NU, bcs).solve_displacement(values)
    return u.reshape(mesh.n_nodes, mesh.dimension)


class TestSolveStatic:
    def test_uniform_bar_analytic(self, coupon_mesh, single_patch, material_factory, uniaxial_bcs):
        u = nodal_displacements(coupon_mesh, single_patch, material_factory(1), uniaxial_bcs)
        expected = 0.001 * coupon_mesh.nodes[:, 0]
        assert np.abs(u[:, 0] - expected).max() < 1e-8 * 0.1

    @pytest.mark.parametrize(
        "dims, face",
        [pytest.param((100, 20, 2, 10, 4), f, id=f"2d-{f}") for f in ("xmin", "xmax", "ymin", "ymax")]
        + [
            pytest.param((100, 20, 8, 10, 4, 2), f, id=f"3d-{f}")
            for f in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")
        ],
    )
    def test_every_load_axis_analytic(self, dims, face):
        """Rollers on any face: the displacement along its axis grows
        linearly from it to ``u_applied`` on the opposite face."""
        mesh = fu.build_coupon_mesh(*dims)
        u_applied = 0.1
        bcs = fu.BoundaryConditions(face, u_applied)
        u = nodal_displacements(mesh, fu.partition_longitudinal(mesh, 1), np.array([E_STEEL]), bcs)
        axis = "xyz".index(face[0])
        length = mesh.extent[axis]
        coord = mesh.nodes[:, axis]
        distance = coord if face.endswith("min") else length - coord
        assert np.abs(u[:, axis] - u_applied * distance / length).max() <= 1e-13 * u_applied

    def test_zero_applied_displacement(self, coupon_mesh, single_patch, material_factory):
        bcs = fu.BoundaryConditions("xmin", 0.0)
        u = nodal_displacements(coupon_mesh, single_patch, material_factory(1), bcs)
        assert np.abs(u).max() == 0.0

    def test_mesh_consistency_for_linear_field(self, material_factory, uniaxial_bcs):
        coarse = fu.build_coupon_mesh(100, 20, 2, 20, 5)
        fine = fu.build_coupon_mesh(100, 20, 2, 40, 10)
        e = material_factory(1)
        uc = nodal_displacements(coarse, fu.partition_longitudinal(coarse, 1), e, uniaxial_bcs)
        uf = nodal_displacements(fine, fu.partition_longitudinal(fine, 1), e, uniaxial_bcs)
        # every coarse node coincides with a fine node
        fine_lookup = {tuple(np.round(p, 9)): i for i, p in enumerate(fine.nodes)}
        for i, p in enumerate(coarse.nodes):
            j = fine_lookup[tuple(np.round(p, 9))]
            assert np.abs(uc[i] - uf[j]).max() < 1e-8 * 0.1

    def test_insufficient_constraints_fail(self):
        mesh = fu.build_coupon_mesh(1, 1, 1, 1, 1)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E_STEEL])
        # only one x-dof prescribed: y-translation and rotation stay free
        with pytest.raises(NumericalError):
            fu.ForwardModel(mesh, pmap, NU, Prescribed([0], [0.1])).solve_displacement(values)

    def test_x_only_face_constraints_fail(self):
        mesh = fu.build_coupon_mesh(1, 1, 1, 1, 1)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E_STEEL])
        # both x faces held in x only: y-translation stays free
        x_dofs = 2 * np.concatenate([mesh.face_nodes("xmin"), mesh.face_nodes("xmax")])
        x_values = np.where(mesh.nodes[x_dofs // 2, 0] > 0, 0.1, 0.0)
        with pytest.raises(NumericalError):
            fu.ForwardModel(mesh, pmap, NU, Prescribed(x_dofs, x_values)).solve_displacement(values)


class TestSurfaceStrains:
    def test_uniform_bar_strains(self, coupon_mesh, single_patch, material_factory, uniaxial_bcs):
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        exx, eyy, exy = model.surface_strain_arrays(material_factory(1))
        assert_allclose(exx, 1e-3, rtol=1e-8)
        assert_allclose(eyy, -NU * 1e-3, rtol=1e-8)
        assert np.abs(exy).max() < 1e-8 * 1e-3

    def test_rigid_rotation_produces_no_strain(self, coupon_mesh, single_patch, uniaxial_bcs):
        angle = 1e-6
        disp = angle * np.column_stack([-coupon_mesh.nodes[:, 1], coupon_mesh.nodes[:, 0]])
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        strains = model.sample_strains(disp.ravel())
        bound = 1e-12 + angle**2
        for comp in strains:
            assert np.abs(comp).max() < bound

    def test_3d_buried_patch_perturbs_front_face(self):
        mesh = fu.build_coupon_mesh(100, 20, 8, 15, 4, 4)
        pmap = fu.partition_longitudinal(mesh, 2)
        pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
        bcs = fu.BoundaryConditions("xmin", 0.1)
        model = fu.ForwardModel(mesh, pmap, NU, bcs)
        homog = model.surface_strain_arrays(np.array([E_STEEL, E_STEEL, E_STEEL]))[0]
        soft = model.surface_strain_arrays(np.array([E_STEEL, E_STEEL, 0.25 * E_STEEL]))[0]
        rel = np.abs(soft - homog) / np.abs(homog)
        assert rel.max() > 0.05

    @pytest.mark.parametrize("dims", [(8, 4), (8, 4, 2)], ids=["2d", "3d"])
    def test_sampling_matches_element_by_element_on_several_shapes(self, dims, uniaxial_bcs):
        """B is computed once per distinct element shape: on a coupon whose
        surface elements take several shapes, some shared by several
        elements, S has the pattern of a per-element build from each
        element's own coordinates and its values to rounding."""
        mesh = fu.build_coupon_mesh(100, 20, 2 if len(dims) == 2 else 8, *dims)
        nodes = mesh.nodes.copy()
        # Two nodes off the coupon's sides, far apart, moved in-plane by one
        # offset (the coordinates stay exact in binary), so each distorted
        # shape occurs twice. In 3D they are on the z = T face: there the
        # in-plane strains do not depend on the nodes below it.
        for point in ((25, 5, 8), (75, 10, 8)):
            node = np.flatnonzero((nodes == point[:len(dims)]).all(axis=1))
            nodes[node, :2] += (1.5, 1.0)
        mesh = fu.Mesh(mesh.dimension, nodes, mesh.elements, mesh.thickness, mesh.divisions, mesh.extent)
        model = fu.ForwardModel(mesh, fu.partition_longitudinal(mesh, 2), NU, uniaxial_bcs)
        elements, points = fu.solver._surface_sampling(mesh)
        _, _, shape = distinct_shapes(mesh.nodes[mesh.elements[elements]])
        assert np.sort(np.bincount(shape)).tolist() == [2, 2, 2, 2, elements.size - 8]

        n_samples = elements.size * len(points)
        rows, cols, values = [], [], []
        for i, e in enumerate(elements):
            dofs = (mesh.dimension * mesh.elements[e][:, None] + np.arange(mesh.dimension)).ravel()
            for p, gp in enumerate(points):
                b = strain_displacement(mesh.nodes[mesh.elements[e]][None], gp)[0][0]
                for c, strain in enumerate([0, 1, 2] if mesh.dimension == 2 else [0, 1, 3]):
                    rows.append(np.full(dofs.size, c * n_samples + i * len(points) + p))
                    cols.append(dofs)
                    values.append(b[strain])
        want = sp.csr_matrix(
            (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))), shape=model.strain_sampling.shape
        )
        want.eliminate_zeros()
        got = model.strain_sampling
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert_allclose(got.data, want.data, rtol=0, atol=1e-12 * np.abs(want.data).max())

    def test_3d_front_face_points_on_top_layer(self):
        mesh = fu.build_coupon_mesh(100, 20, 8, 6, 3, 2)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E_STEEL])
        bcs = fu.BoundaryConditions("xmin", 0.1)
        model = fu.ForwardModel(mesh, pmap, NU, bcs)
        exx, _, _ = model.surface_strain_arrays(values)
        assert model.surface_points.shape[0] == 6 * 3 * 4  # top-layer elements, 2x2 face points each
        assert_allclose(exx, 1e-3, rtol=1e-8)


class TestSolverInvariants:
    def test_patch_test_affine_boundary(self):
        """Affine displacement on the full boundary reproduces constant strain."""
        mesh = fu.build_coupon_mesh(30, 10, 1.0, 6, 4)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E_STEEL])
        a = np.array([[2e-3, 5e-4], [3e-4, -1e-3]])
        boundary = np.unique(
            np.concatenate([mesh.face_nodes(f) for f in ("xmin", "xmax", "ymin", "ymax")])
        )
        dofs = np.concatenate([[2 * n, 2 * n + 1] for n in boundary])
        u_affine = mesh.nodes @ a.T
        prescribed = u_affine[boundary].ravel()
        model = fu.ForwardModel(mesh, pmap, NU, Prescribed(dofs, prescribed))
        exx, eyy, exy = model.surface_strain_arrays(values)
        assert_allclose(exx, a[0, 0], rtol=1e-10)
        assert_allclose(eyy, a[1, 1], rtol=1e-10)
        assert_allclose(exy, a[0, 1] + a[1, 0], rtol=1e-10)

    def test_work_positivity(self):
        mesh = fu.build_coupon_mesh(10, 5, 1, 4, 2)
        pmap = fu.partition_longitudinal(mesh, 1)
        values = np.array([E_STEEL])
        k = dense_stiffness(mesh, pmap, values, NU)
        rigid = np.zeros((3, 2 * mesh.n_nodes))
        rigid[0, 0::2] = 1.0
        rigid[1, 1::2] = 1.0
        rigid[2, 0::2] = -mesh.nodes[:, 1]
        rigid[2, 1::2] = mesh.nodes[:, 0]
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.normal(size=2 * mesh.n_nodes)
            for r in rigid:  # project out the rigid modes
                u -= (u @ r) / (r @ r) * r
            assert u @ (k @ u) > 0

    def test_reaction_balance(self, coupon_mesh, uniaxial_bcs):
        pmap = fu.partition_longitudinal(coupon_mesh, 9)
        pmap = fu.stamp_defect_patches(
            pmap, coupon_mesh, [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]
        )
        rng = np.random.default_rng(5)
        values = rng.uniform(0.3, 2.0, 11) * E_STEEL
        k = dense_stiffness(coupon_mesh, pmap, values, NU)
        u = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs).solve_displacement(values)
        reactions = k @ u
        fixed = coupon_mesh.face_nodes("xmin")
        loaded = coupon_mesh.face_nodes("xmax")
        r_fixed = reactions[2 * fixed].sum()
        r_loaded = reactions[2 * loaded].sum()
        assert abs(r_fixed + r_loaded) < 1e-8 * abs(r_loaded)

    def test_modulus_scaling_leaves_displacement_unchanged(self, coupon_mesh, uniaxial_bcs):
        pmap = fu.partition_longitudinal(coupon_mesh, 9)
        rng = np.random.default_rng(8)
        values = rng.uniform(0.3, 2.0, 9) * E_STEEL
        model = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
        u1 = model.solve_displacement(values)
        u2 = model.solve_displacement(2.0 * values)
        assert np.abs(u1 - u2).max() <= 1e-10 * np.abs(u1).max()

    @pytest.mark.parametrize(
        "dims, n_sections, defects, clamp_fixed",
        [
            ((100.0, 20.0, 2.0, 40, 10), 9, [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))], False),
            ((100, 20, 8, 10, 4, 2), 2, [fu.DefectSpec((40, 5, 0), (60, 15, 4))], True),
        ],
        ids=["2d", "3d_clamped"],
    )
    def test_forward_model_matches_general_path(self, dims, n_sections, defects, clamp_fixed):
        """K(E) and rhs of the cached model against a dense element-by-element assembly."""
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, n_sections), mesh, defects)
        bcs = fu.BoundaryConditions("xmin", 0.1, clamp_fixed=clamp_fixed)
        rng = np.random.default_rng(21)
        values = rng.uniform(0.3, 2.0, pmap.patch_count) * E_STEEL
        k_dense = dense_stiffness(mesh, pmap, values, NU)
        dofs, prescribed = bcs.prescribed_dofs(mesh)
        model = fu.ForwardModel(mesh, pmap, NU, bcs)
        free = model.free_dofs
        k_general = k_dense[np.ix_(free, free)]
        rhs_general = -k_dense[np.ix_(free, dofs)] @ prescribed
        k_fast = stiffness(model, values).toarray()
        rhs_fast = -(model._rhs_per_patch @ values)
        assert np.abs(k_fast - k_general).max() < 1e-12 * np.abs(k_general).max()
        assert_allclose(rhs_fast, rhs_general, rtol=0, atol=1e-12 * np.abs(rhs_general).max())

    @pytest.mark.parametrize(
        "dims, defect",
        [
            ((100, 20, 2, 20, 5), fu.DefectSpec((40, 5), (60, 15))),
            ((100, 20, 8, 10, 4, 2), fu.DefectSpec((40, 5, 0), (60, 15, 4))),
        ],
        ids=["2d", "3d"],
    )
    def test_banded_no_pivot_solve_matches_dense(self, dims, defect, uniaxial_bcs):
        """A 300x modulus contrast, solved in the condensed order without
        pivoting, against a dense solve of the element-by-element stiffness."""
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 2), mesh, [defect])
        values = np.array([3.0, 1.0, 0.01]) * E_STEEL
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        dofs, prescribed = uniaxial_bcs.prescribed_dofs(mesh)
        free = np.setdiff1d(np.arange(mesh.dimension * mesh.n_nodes), dofs)
        assert np.array_equal(np.sort(model.free_dofs), free)
        assert not model.free_dofs.flags.writeable
        k_dense = dense_stiffness(mesh, pmap, values, NU)
        u_ref = np.zeros(k_dense.shape[0])
        u_ref[dofs] = prescribed
        u_ref[free] = np.linalg.solve(k_dense[np.ix_(free, free)], -k_dense[np.ix_(free, dofs)] @ prescribed)
        u = model.solve_displacement(values)
        assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()


def block_patches(mesh, blocks):
    """A grid of equal block patches, ``blocks`` per axis (x first)."""
    shape, counts = mesh.divisions[::-1], blocks[::-1]  # element numbers run x fastest
    index = np.unravel_index(np.arange(mesh.n_elements), shape)
    block = [i * c // n for i, c, n in zip(index, counts, shape)]
    return fu.PatchMap(np.ravel_multi_index(block, counts), int(np.prod(blocks)))


def assert_matches_dense(mesh, pmap, values, bcs):
    """ForwardModel.solve_displacement against a dense solve of the
    element-by-element stiffness, 1e-10 relative in the max norm."""
    model = fu.ForwardModel(mesh, pmap, NU, bcs)
    dofs, prescribed = bcs.prescribed_dofs(mesh)
    free = np.setdiff1d(np.arange(mesh.dimension * mesh.n_nodes), dofs)
    k_dense = dense_stiffness(mesh, pmap, values, NU)
    u_ref = np.zeros(k_dense.shape[0])
    u_ref[dofs] = prescribed
    u_ref[free] = np.linalg.solve(k_dense[np.ix_(free, free)], -k_dense[np.ix_(free, dofs)] @ prescribed)
    u = model.solve_displacement(values)
    assert np.abs(u - u_ref).max() <= 1e-10 * np.abs(u_ref).max()
    return model


class TestCondensation:
    """Static condensation onto the patch interfaces: the edge cases of the
    interior/interface split, each against a dense solve."""

    @pytest.mark.parametrize(
        "dims, defect",
        [
            ((100, 20, 2, 20, 4), fu.DefectSpec((40, 5), (45, 10))),
            ((100, 20, 8, 10, 4, 2), fu.DefectSpec((40, 5, 0), (50, 10, 4))),
        ],
        ids=["2d", "3d"],
    )
    def test_one_element_patch_has_no_interior(self, dims, defect, uniaxial_bcs):
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 2), mesh, [defect])
        assert np.flatnonzero(pmap.patch_of_element == 2).size == 1
        values = np.array([1.5, 0.7, 0.02]) * E_STEEL
        model = assert_matches_dense(mesh, pmap, values, uniaxial_bcs)
        assert not np.any(model._interior_patch == 2)

    @pytest.mark.parametrize("dims", [(100, 20, 2, 12, 4), (100, 20, 8, 6, 3, 2)], ids=["2d", "3d"])
    def test_single_patch_has_empty_interface(self, dims, uniaxial_bcs):
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.partition_longitudinal(mesh, 1)
        model = assert_matches_dense(mesh, pmap, np.array([E_STEEL]), uniaxial_bcs)
        assert model._interior_patch.size == model.free_dofs.size

    def test_touching_rows_not_trailing(self, uniaxial_bcs):
        """Three sections, the middle one coupled to the interface at both
        ends, and a defect straddling the first cut: the middle block's
        touching rows (those coupled to the interface, the nonempty rows of
        B^T = K(1)[I, G]) are not all at its end. The solve against a dense
        one, S(1) against the dense Schur complement of K(1) and the
        sensitivities against central differences."""
        mesh = fu.build_coupon_mesh(100, 20, 8, 18, 4, 2)
        defect = fu.DefectSpec((26, 5, 0), (42, 15, 4))
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 3), mesh, [defect])
        defect_x = mesh.element_centroids()[np.flatnonzero(pmap.patch_of_element == 3), 0]
        assert defect_x.min() < 100 / 3 < defect_x.max()
        values = np.array([1.3, 0.8, 1.1, 0.05]) * E_STEEL
        model = assert_matches_dense(mesh, pmap, values, uniaxial_bcs)
        interior_patch, touching = model._interior_patch, np.diff(model._coupling_t.indptr) > 0
        middle = touching[interior_patch == 1]
        assert middle.any() and not middle[np.argmax(middle):].all()

        n_i, free = interior_patch.size, model.free_dofs
        k1 = dense_stiffness(mesh, pmap, np.ones(4), NU)[np.ix_(free, free)]
        schur = k1[n_i:, n_i:] - k1[n_i:, :n_i] @ np.linalg.solve(k1[:n_i, :n_i], k1[:n_i, n_i:])
        s1 = interface_stiffness(model, np.ones(4)).toarray()
        assert np.abs(s1 - schur).max() <= 1e-10 * np.abs(schur).max()

        _, du, _ = model.displacement_derivatives(values)
        h = 1e-6 * 3.0 * E_STEEL
        for k in range(4):
            plus, minus = values.copy(), values.copy()
            plus[k] += h
            minus[k] -= h
            fd = (model.solve_displacement(plus) - model.solve_displacement(minus)) / (2.0 * h)
            assert np.abs(du[:, k] - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize(
        "dims, n_sections, defects, max_band",
        [
            ((100.0, 20.0, 2.0, 40, 10), 9, [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))], 30),
            ((100, 20, 8, 30, 8, 4), 2, [fu.DefectSpec((40, 5, 0), (60, 15, 4))], 160),
        ],
        ids=["2d", "3d"],
    )
    def test_interior_band_is_one_cross_section(self, dims, n_sections, defects, max_band, uniaxial_bcs):
        """On the acceptance geometries the bandwidth of the interior factor
        is about one cross-section of nodes times the dofs per node (2D:
        11 nodes, 3D: 9 x 5)."""
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, n_sections), mesh, defects)
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        assert model._interior.shape[0] - 1 <= max_band

    @pytest.mark.parametrize(
        "dims, blocks, max_fill",
        [
            ((100, 20, 2, 40, 10), (20, 5), 36_502),
            ((100, 20, 2, 40, 10), (40, 10), 45_474),
            ((100, 20, 8, 30, 8, 4), (10, 4, 2), 1_132_489),
        ],
        ids=["2d-blocks", "2d-per-element", "3d-blocks"],
    )
    def test_interface_fill_on_block_grids(self, dims, blocks, max_fill, uniaxial_bcs):
        """On grids of equal block patches, where the interface is large,
        the LU of S(1) in the condensed order fills no more than it did
        with the interface in reverse Cuthill-McKee order (``max_fill``)."""
        from femupdate import solver

        mesh = fu.build_coupon_mesh(*dims)
        pmap = block_patches(mesh, blocks)
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        lu = solver._factor(interface_stiffness(model, np.ones(pmap.patch_count)))
        assert lu.L.nnz + lu.U.nnz <= max_fill

    @pytest.mark.parametrize(
        "dims, dofs",
        [((100, 20, 2, 8, 2), [0]), ((100, 20, 8, 4, 2, 2), [0, 1, 2])],
        ids=["2d", "3d"],
    )
    def test_multi_patch_insufficient_constraints_fail_at_construction(self, dims, dofs):
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.partition_longitudinal(mesh, 3)
        # one node pinned: the rotations about it stay free
        with pytest.raises(fu.SingularSystemError):
            fu.ForwardModel(mesh, pmap, NU, Prescribed(dofs, np.zeros(len(dofs))))

    @pytest.mark.parametrize(
        "dims, n_sections, defects",
        [
            ((100.0, 20.0, 2.0, 40, 10), 9, [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]),
            ((100, 20, 8, 30, 8, 4), 2, [fu.DefectSpec((40, 5, 0), (60, 15, 4))]),
            ((100, 20, 2, 12, 4), 1, []),
        ],
        ids=["2d-11-patches", "3d-3-patches", "single-patch"],
    )
    def test_interior_and_coupling_bitwise_those_of_k1(self, dims, n_sections, defects, uniaxial_bcs):
        """The interior factor and B, built from the A_k, are bitwise those
        of K(1) = sum_k A_k: the factor of the band of the lower triangle of
        K(1)[I, I], and B = K(1)[G, I] as CSC, B^T its CSR transpose, with
        the same format, sorted indices, index arrays and values. The single
        patch has an empty interface."""
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.partition_longitudinal(mesh, n_sections)
        if defects:
            pmap = fu.stamp_defect_patches(pmap, mesh, defects)
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        n_i = model._interior_patch.size
        unit = stiffness(model, np.ones(pmap.patch_count))
        lower = sp.tril(unit[:n_i, :n_i], format="coo")
        offset = lower.row - lower.col
        band = np.zeros((int(offset.max(initial=0)) + 1, n_i), order="F")
        band[offset, lower.col] = lower.data
        factor = cholesky_banded(band, lower=True, check_finite=False)
        assert factor.shape == model._interior.shape and factor.tobytes() == model._interior.tobytes()
        coupling = unit[n_i:, :n_i]
        for built, expected in ((model._coupling, coupling), (model._coupling_t, coupling.T)):
            assert (built.format, built.shape) == (expected.format, expected.shape)
            assert built.has_sorted_indices and expected.has_sorted_indices
            for name in ("data", "indices", "indptr"):
                got, want = getattr(built, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_build_peak_memory(self, uniaxial_bcs):
        """On the 3D acceptance coupon the model build holds no large copy it
        throws away: its traced peak is at most 1.5x what it keeps."""
        mesh = fu.build_coupon_mesh(100, 20, 8, 30, 8, 4)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 2), mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
        tracemalloc.start()
        try:
            model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)  # noqa: F841 (kept while measured)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * kept, f"build peak {peak} B, {kept} B kept"

    @pytest.mark.parametrize(
        "dims, blocks, max_peak_mb",
        [((100, 20, 2, 40, 10), (40, 10), None), ((100, 20, 8, 30, 8, 4), (10, 4, 2), 50)],
        ids=["2d-per-element", "3d-blocks"],
    )
    def test_slot_map_is_that_of_a_dense_map(self, dims, blocks, max_peak_mb, uniaxial_bcs):
        """On grids of equal block patches (P = 400 and 80), S's pattern and
        the slots of its weights are those of a dense G x G map of the union
        of the blocks g_k x g_k, each block's slots read from the map's
        running count in [column, row] order: the same values and dtypes.
        On the 3D grid the build's traced peak stays under 50 MB; the dense
        map and its int32 count alone took 33 MB there (71 MB peak)."""
        mesh = fu.build_coupon_mesh(*dims)
        pmap = block_patches(mesh, blocks)
        tracemalloc.start()
        try:
            model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        a, n_free, n_i = model._patch_stiffness, model.free_dofs.size, model._interior_patch.size
        n_g = n_free - n_i
        touches = np.diff(a.indptr).reshape(pmap.patch_count, n_free)[:, n_i:] > 0
        used = np.zeros((n_g, n_g), dtype=bool)
        for g in map(np.flatnonzero, touches):
            used[np.ix_(g, g)] = True
        pattern = sp.csc_matrix(used)
        slot_of = np.cumsum(used, dtype=np.int32).reshape(n_g, n_g) - 1  # symmetric: [column, row]
        slots = np.concatenate([slot_of[np.ix_(g, g)].ravel() for g in map(np.flatnonzero, touches)])
        block_ptr = np.cumsum(np.append(0, touches.sum(axis=1) ** 2), dtype=np.int32)
        weights = model._s_weights
        for got, want in ((model._s_indices, pattern.indices), (model._s_indptr, pattern.indptr),
                          (weights.indices, slots), (weights.indptr, block_ptr)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert weights.shape == (pattern.nnz, pmap.patch_count)
        if max_peak_mb is not None:
            assert peak <= max_peak_mb * 1e6, f"build peak {peak / 1e6:.1f} MB"


class TestFactorizationCount:
    """The factorization hook the benchmark traces: ``solver.splu``, looked
    up at call time, is called once per solve and not at model build, whose
    rank check factors S(1) as a band (``_interface_pivots``)."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        from femupdate import solver

        calls = []
        real = solver.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", counting)
        return calls

    @pytest.mark.parametrize(
        "dims, defect",
        [
            ((100, 20, 2, 20, 5), fu.DefectSpec((40, 5), (60, 15))),
            ((100, 20, 8, 10, 4, 2), fu.DefectSpec((40, 5, 0), (60, 15, 4))),
        ],
        ids=["2d", "3d"],
    )
    def test_one_factorization_per_build_and_solve(self, dims, defect, uniaxial_bcs, splu_calls):
        mesh = fu.build_coupon_mesh(*dims)
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 2), mesh, [defect])
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        model = fu.ForwardModel(mesh, pmap, NU, uniaxial_bcs)
        assert len(splu_calls) == 0
        model.solve_displacement(values)
        assert len(splu_calls) == 1
        grid = fu.grid_for_footprint((100, 20), counts=(8, 4))
        field = fu.generate_synthetic(model, values, grid)
        context = fu.CostContext(model, field)
        del splu_calls[:]
        context.cost_and_derivatives(values)
        assert len(splu_calls) == 1

    def test_single_patch_solves_without_factorization(self, coupon_mesh, single_patch, uniaxial_bcs, splu_calls):
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        model.solve_displacement(np.array([E_STEEL]))
        assert len(splu_calls) == 0


# Three-patch models (two sections and a defect) on which every solve
# factors S(E); the ids follow the dimension.
THREE_PATCH = pytest.mark.parametrize(
    "dims, defect",
    [
        ((100, 20, 2, 20, 5), fu.DefectSpec((40, 5), (60, 15))),
        ((100, 20, 8, 10, 4, 2), fu.DefectSpec((40, 5, 0), (60, 15, 4))),
    ],
    ids=["2d", "3d"],
)


def three_patch_model(dims, defect, bcs):
    mesh = fu.build_coupon_mesh(*dims)
    pmap = fu.stamp_defect_patches(fu.partition_longitudinal(mesh, 2), mesh, [defect])
    return fu.ForwardModel(mesh, pmap, NU, bcs)


def cost_context(model):
    """A CostContext on the model, measured at E0."""
    values = np.full(model.patch_map.patch_count, E_STEEL)
    field = fu.generate_synthetic(model, values, fu.grid_for_footprint((100, 20), counts=(8, 4)))
    return fu.CostContext(model, field)


class TestBandedSolveCount:
    """The interior solves of the condensation: the forward solve takes one
    banded solve (none with one patch), the sensitivities one more."""

    @pytest.fixture
    def banded_calls(self, monkeypatch):
        from femupdate import solver

        calls = []
        real = solver.cho_solve_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "cho_solve_banded", counting)
        return calls

    @THREE_PATCH
    def test_three_patch_solves(self, dims, defect, uniaxial_bcs, banded_calls):
        model = three_patch_model(dims, defect, uniaxial_bcs)
        context = cost_context(model)
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        del banded_calls[:]
        model.solve_displacement(values)
        assert len(banded_calls) == 1
        del banded_calls[:]
        context.cost_and_derivatives(values * 1.1)  # another design: not served by the held solve
        assert len(banded_calls) == 2

    def test_single_patch_solve_has_no_banded_solve(self, coupon_mesh, single_patch, uniaxial_bcs, banded_calls):
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        del banded_calls[:]
        model.solve_displacement(np.array([E_STEEL]))
        assert len(banded_calls) == 0


class TestHeldSolve:
    """A model keeps its last one-design solve for one repeat: a repeat of
    the bitwise-same design is served with no factorization, and any other
    solve drops it first."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        from femupdate import solver

        calls = []
        real = solver.splu

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "splu", counting)
        return calls

    @THREE_PATCH
    def test_derivatives_after_a_solve_take_its_factor(self, dims, defect, uniaxial_bcs, splu_calls):
        """``solve_displacement(E)`` then ``displacement_derivatives(E)``:
        one factorization, and u, du and u'' bitwise those of a fresh model."""
        model = three_patch_model(dims, defect, uniaxial_bcs)
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        rate, acceleration = values * np.array([0.4, -0.7, 1.1]), values * np.array([0.16, 0.49, 1.21])
        u = model.solve_displacement(values)
        u_again, du, second = model.displacement_derivatives(values)
        assert len(splu_calls) == model.factorizations == 1
        u_fresh, du_fresh, second_fresh = three_patch_model(dims, defect, uniaxial_bcs).displacement_derivatives(values)
        assert u.tobytes() == u_again.tobytes() == u_fresh.tobytes()
        assert du.tobytes() == du_fresh.tobytes()
        assert second(rate, acceleration).tobytes() == second_fresh(rate, acceleration).tobytes()

    def test_nothing_reused_but_one_repeat_of_one_design(self, coupon_mesh, uniaxial_bcs, monkeypatch):
        """Another design, a stack or a failed solve drops the held solve,
        and a repeat uses it up: a third solve at E factors again."""
        from femupdate import solver

        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(coupon_mesh, 2), coupon_mesh,
                                       [fu.DefectSpec((40, 5), (60, 15))])
        model = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
        e, other = np.array([1.0, 1.2, 0.3]) * E_STEEL, np.array([1.0, 0.8, 0.5]) * E_STEEL
        calls, fail_at = [], [None]
        real = solver._factor

        def factor(k):
            calls.append(1)
            if len(calls) == fail_at[0]:
                raise fu.SingularSystemError("stiffness factorization failed")
            return real(k)

        monkeypatch.setattr(solver, "_factor", factor)
        steps = [
            (e, 1), (e, 0), (e, 1),  # a repeat is served once
            (other, 1), (e, 1),  # another design drops it
            (np.stack([e, other]), 2), (e, 1),  # so does a stack
            (e[None], 0),  # a stack of one design is a one-design solve
        ]
        for values, expected in steps:
            before = len(calls)
            model.solve_displacement(values)
            assert len(calls) - before == expected
        model.solve_displacement(e)
        fail_at[0] = len(calls) + 1
        with pytest.raises(fu.SingularSystemError):
            model.solve_displacement(other)
        before = len(calls)
        model.solve_displacement(other)  # the failure was not held
        model.solve_displacement(e)  # and the failed solve dropped e's
        assert len(calls) - before == 2
        assert model.factorizations == len(calls)

    def test_held_arrays_are_read_only(self, coupon_mesh, uniaxial_bcs):
        pmap = fu.stamp_defect_patches(fu.partition_longitudinal(coupon_mesh, 2), coupon_mesh,
                                       [fu.DefectSpec((40, 5), (60, 15))])
        model = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
        values = np.array([[1.0, 1.2, 0.3]]) * E_STEEL
        uf, au, errors, lu = model._solve(values)
        assert errors == [None] and lu is not None
        served = model._solve(values)
        assert served[0] is uf and served[1] is au and served[3] is lu
        for held in (uf, au):
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0


class TestPathSecondDerivative:
    """u'' = d^2 u / dt^2 along E(t) = E exp(t d), from ``displacement_derivatives``."""

    @THREE_PATCH
    def test_matches_central_differences_in_ln_e(self, dims, defect, uniaxial_bcs):
        model = three_patch_model(dims, defect, uniaxial_bcs)
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        d = np.array([0.4, -0.7, 1.1])
        _, _, second = model.displacement_derivatives(values)
        u2 = second(values * d, values * d**2)
        h = 1e-3
        fd = (model.solve_displacement(values * np.exp(h * d)) - 2.0 * model.solve_displacement(values)
              + model.solve_displacement(values * np.exp(-h * d))) / h**2
        assert np.linalg.norm(u2 - fd) <= 1e-5 * np.linalg.norm(u2)

    def test_single_patch_has_none(self, coupon_mesh, single_patch, uniaxial_bcs):
        """u = z0 whatever the modulus, so u'' = 0."""
        model = fu.ForwardModel(coupon_mesh, single_patch, NU, uniaxial_bcs)
        _, _, second = model.displacement_derivatives(np.array([E_STEEL]))
        assert not second(np.array([0.5 * E_STEEL]), np.array([0.25 * E_STEEL])).any()

    @THREE_PATCH
    def test_interior_rows_of_the_load_vanish(self, dims, defect, uniaxial_bcs):
        """q = sum_k E'_k A_k u' is zero on every patch interior, so K^-1 q
        takes one solve on S(E) and one banded solve."""
        model = three_patch_model(dims, defect, uniaxial_bcs)
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        rate = values * np.array([0.4, -0.7, 1.1])
        _, du, _ = model.displacement_derivatives(values)
        q = model._path_load(rate, (du @ rate)[model.free_dofs])
        n_i = model._interior_patch.size
        assert 0 < n_i < q.size
        assert np.abs(q[:n_i]).max() <= 1e-12 * np.abs(q).max()


class TestSolveChecks:
    @THREE_PATCH
    def test_interface_pivots_are_unscaled(self, dims, defect, uniaxial_bcs):
        """The rank check reads the pivots of S(1) as the squared diagonal
        of its banded Cholesky factor: those of a dense Cholesky of S(1)."""
        model = three_patch_model(dims, defect, uniaxial_bcs)
        s_unit = interface_stiffness(model, np.ones(3))
        chol = np.linalg.cholesky(s_unit.toarray())
        assert_allclose(model._interface_pivots(), np.diag(chol) ** 2, rtol=1e-10)

    @THREE_PATCH
    def test_interface_pivots_independent_of_chunks(self, dims, defect, uniaxial_bcs, monkeypatch):
        """The band of S(1) filled a few slots at a time gives bitwise the
        pivots of the one-run fill."""
        from femupdate import solver

        model = three_patch_model(dims, defect, uniaxial_bcs)
        whole = model._interface_pivots()
        monkeypatch.setattr(solver, "_CHUNK_ENTRIES", 7)
        assert model._interface_pivots().tobytes() == whole.tobytes()

    @THREE_PATCH
    def test_equilibrium_check_reads_the_assembled_physics(self, dims, defect, uniaxial_bcs, monkeypatch):
        """A factorization of a perturbed S(E) solves the condensed system it
        was given, but the solution is out of equilibrium on K(E)."""
        from femupdate import solver

        model = three_patch_model(dims, defect, uniaxial_bcs)
        real = solver.splu

        def perturbed(k, *args, **kwargs):
            k = k.copy()
            k.data *= 1.0 + 1e-3
            return real(k, *args, **kwargs)

        monkeypatch.setattr(solver, "splu", perturbed)
        with pytest.raises(NumericalError, match="equilibrium residual"):
            model.solve_displacement(np.array([1.0, 1.2, 0.3]) * E_STEEL)

    @THREE_PATCH
    def test_sensitivities_raise_the_forward_solves_error(self, dims, defect, uniaxial_bcs, monkeypatch):
        """``displacement_derivatives`` raises the NumericalError of
        its forward solve, here the equilibrium failure of a perturbed
        factor: the error ``solve_displacement`` raises for the same moduli."""
        from femupdate import solver

        model = three_patch_model(dims, defect, uniaxial_bcs)
        real = solver.splu

        def perturbed(k, *args, **kwargs):
            k = k.copy()
            k.data *= 1.0 + 1e-3
            return real(k, *args, **kwargs)

        monkeypatch.setattr(solver, "splu", perturbed)
        values = np.array([1.0, 1.2, 0.3]) * E_STEEL
        with pytest.raises(NumericalError, match="equilibrium residual") as forward:
            model.solve_displacement(values)
        with pytest.raises(NumericalError, match="equilibrium residual") as info:
            model.displacement_derivatives(values)
        assert str(info.value) == str(forward.value)

    def test_unconstrained_single_patch_fails_the_interior_factorization(self):
        """With one patch every free dof is interior, so a model with no
        prescribed dof has a singular interior block: its banded Cholesky
        factorization fails at construction."""
        mesh = fu.build_coupon_mesh(100, 20, 2, 10, 4)
        with pytest.raises(fu.SingularSystemError, match="^interior stiffness factorization failed: ") as info:
            fu.ForwardModel(mesh, fu.partition_longitudinal(mesh, 1), NU, Prescribed([], []))
        assert info.value.__cause__ is not None

    @pytest.mark.parametrize("nu", [0.5, -0.1], ids=["incompressible", "negative"])
    def test_poisson_ratio_outside_the_range_rejected(self, coupon_mesh, single_patch, uniaxial_bcs, nu):
        with pytest.raises(ValueError, match=rf"^poisson_ratio must satisfy 0 <= nu < 0.5, got {nu}$"):
            fu.ForwardModel(coupon_mesh, single_patch, nu, uniaxial_bcs)

    def test_superlu_failure_is_a_singular_system(self):
        """``_factor`` maps SuperLU's RuntimeError on an exactly singular
        matrix to SingularSystemError, with SuperLU's message."""
        from femupdate import solver

        with pytest.raises(fu.SingularSystemError, match="factorization failed: Factor is exactly singular") as info:
            solver._factor(sp.csc_matrix(np.diag([1.0, 0.0])))
        assert isinstance(info.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_moduli_rejected(self, coupon_mesh, single_patch, uniaxial_bcs, bad):
        three = fu.stamp_defect_patches(
            fu.partition_longitudinal(coupon_mesh, 2), coupon_mesh, [fu.DefectSpec((40, 5), (60, 15))]
        )
        for pmap in (single_patch, three):
            model = fu.ForwardModel(coupon_mesh, pmap, NU, uniaxial_bcs)
            context = cost_context(model)
            values = np.full(pmap.patch_count, E_STEEL)
            values[-1] = bad
            for call in (model.solve_displacement, context.cost_and_derivatives):
                with pytest.raises(ValueError, match=rf"finite; patches \[{pmap.patch_count - 1}\]"):
                    call(values)
