"""Tests for sampling-based model reduction: collocation, force
interpolation, and weighted-element training."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from romstab import (
    EcswWeights,
    ElementSet,
    ForceTable,
    FormatError,
    FullOrderModel,
    IntegratorState,
    MASS_ORTHONORMAL,
    RankDeficiencyError,
    ReducedBasis,
    SampleSet,
    assemble,
    build_string_model,
    collocate_naive,
    collocate_projected,
    critical_dt_report,
    deim_points,
    deim_reduce,
    ecsw_reduce,
    ecsw_train,
    ecsw_training_system,
    ecsw_weighted_operator,
    galerkin_reduce,
    gnat_reduce,
    hrom_step,
    integrate,
    m_orthonormalize,
    modal_basis,
    pseudoinverse,
    read_sample_set,
    read_weights,
    sampled_step_matrix,
    write_sample_set,
    write_weights,
)
from romstab.hyper import (
    _require_full_rank,
    sample_set_from_dict,
    sample_set_to_dict,
    weights_from_dict,
    weights_to_dict,
)
from romstab.verify import _random_chain


def _string(m=5, a1=0.0, a2=0.0, bf=99.0):
    return build_string_model(m, element_mass=1.0, element_stiffness=10.0,
                              length=1.0, boundary_factor=bf, a1=a1, a2=a2)


def _mass_basis(rng, model, k):
    v = m_orthonormalize(rng.standard_normal((model.m, k)), model.mass)
    return ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)


def _loop_training_columns(model, v, q):
    """Element-by-element ECSW training columns: the oracle for the stacked G."""
    es = model.elements
    g = np.zeros((v.shape[1] * q.shape[1], len(es)))
    for e in range(len(es)):
        ve = v[es.dofs[e]]
        fe = es.stiffness[e] @ (ve @ q)
        g[:, e] = (ve.T @ fe).T.ravel()
    return g


class TestSampleSet:
    def test_from_model_reaches_follow_sparsity(self):
        model = _string(5, a2=0.1, bf=0.0)  # tridiagonal K and C
        samples = SampleSet.from_model(model, [2])
        assert samples.collocation == (2,)
        assert samples.stiffness_reach == (1, 2, 3)
        assert samples.damping_reach == (1, 2, 3)

    def test_mass_damping_reaches_only_the_point(self):
        model = _string(5, a1=0.4, bf=0.0)  # diagonal damping
        samples = SampleSet.from_model(model, [2])
        assert samples.damping_reach == (2,)
        assert samples.stiffness_reach == (1, 2, 3)

    def test_collocation_order_is_preserved(self):
        model = _string(6, bf=0.0)
        samples = SampleSet.from_model(model, [4, 1])
        assert samples.collocation == (4, 1)

    def test_out_of_range_point_rejected(self):
        model = _string(4)
        with pytest.raises(ValueError):
            SampleSet.from_model(model, [4])

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            SampleSet((1, 1), (1,), (1,))

    def test_reach_must_cover_collocation(self):
        with pytest.raises(ValueError):
            SampleSet((2,), (2,), (0, 1))

    def test_undeclared_coupling_rejected_at_use(self):
        """A hand-built sample set whose stiffness reach misses coupled
        DoFs is caught when the rows are extracted."""
        model = _string(5, bf=0.0)
        samples = SampleSet((2, 1, 3), (1, 2, 3), (1, 2, 3))  # row 1 hits 0
        basis = modal_basis(model, [0])
        with pytest.raises(ValueError, match="reach"):
            collocate_projected(model, basis, samples)


    def test_from_model_matches_a_row_by_row_scan(self):
        rng = np.random.default_rng(61)
        m = 20
        weights = rng.uniform(1.0, 2.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.15)
        adjacency = np.triu(weights, 1) + np.triu(weights, 1).T
        stiffness = np.diag(adjacency.sum(axis=1)) - adjacency  # graph Laplacian
        model = FullOrderModel(m, np.ones(m), stiffness, a1=0.1, a2=0.01)
        rows = [7, 3, 15, 0]
        samples = SampleSet.from_model(model, rows)
        assert samples.collocation == tuple(rows)
        for name, matrix in (("damping_reach", model.damping),
                             ("stiffness_reach", model.stiffness)):
            expected = set(rows)
            for i in rows:
                expected.update(np.flatnonzero(matrix[i]).tolist())
            reach = getattr(samples, name)
            assert reach == tuple(sorted(expected))
            assert all(type(i) is int for i in reach)

    @pytest.mark.parametrize("a1,a2,samples,message", [
        # rows 5 and 1 both leak; 5 comes first in collocation order
        (0.0, 0.1, SampleSet((5, 3, 1), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5)),
         "damping row 5 touches DoFs [6] outside the declared damping reach"),
        # diagonal damping: only the stiffness row leaks
        (0.4, 0.0, SampleSet((3, 5), (3, 5), (2, 3, 4, 5)),
         "stiffness row 5 touches DoFs [6] outside the declared stiffness reach"),
        (0.4, 0.0, SampleSet((5,), (5,), (5,)),
         "stiffness row 5 touches DoFs [4, 6] outside the declared stiffness reach"),
        # reach entries outside the model cover nothing
        (0.4, 0.0, SampleSet((5,), (-1, 5, 100), (-3, 5, 8, 100)),
         "stiffness row 5 touches DoFs [4, 6] outside the declared stiffness reach"),
    ])
    def test_reach_error_names_the_first_leaking_row(self, a1, a2, samples, message):
        model = _string(8, a1=a1, a2=a2, bf=0.0)  # tridiagonal K
        basis = modal_basis(model, [0])
        with pytest.raises(ValueError, match=re.escape(message)):
            collocate_naive(model, basis, samples)

    def test_reach_beyond_the_model_is_accepted(self):
        model = _string(8, a1=0.4, a2=0.1, bf=0.0)
        basis = modal_basis(model, [0])
        plain = SampleSet((5,), (4, 5, 6), (4, 5, 6))
        padded = SampleSet((5,), (-2, 4, 5, 6, 8, 40), (4, 5, 6, 9))
        assert np.array_equal(collocate_naive(model, basis, padded).stiffness,
                              collocate_naive(model, basis, plain).stiffness)


class TestDeimPoints:
    def test_greedy_invariants(self):
        """Every selected point maximizes the current residual magnitude,
        starting from the largest entry of the first column."""
        rng = np.random.default_rng(60)
        u, _ = np.linalg.qr(rng.standard_normal((12, 5)))
        points = deim_points(u)
        assert len(set(points.tolist())) == 5
        assert points[0] == int(np.argmax(np.abs(u[:, 0])))
        for j in range(1, 5):
            prev = points[:j].tolist()
            coef = np.linalg.solve(u[np.ix_(prev, range(j))], u[prev, j])
            residual = np.abs(u[:, j] - u[:, :j] @ coef)
            assert residual[points[j]] == residual.max()

    def test_interpolation_is_exact_on_the_span(self):
        rng = np.random.default_rng(61)
        u, _ = np.linalg.qr(rng.standard_normal((10, 4)))
        points = deim_points(u)
        f = u @ rng.standard_normal(4)
        coef = np.linalg.solve(u[points], f[points])
        assert np.abs(u @ coef - f).max() < 1e-12

    def test_tie_breaks_to_lowest_index(self):
        u = np.array([[1.0], [-1.0], [0.0]])
        assert deim_points(u)[0] == 0

    def test_zero_residual_column_rejected(self):
        u = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(RankDeficiencyError):
            deim_points(u)

    def test_singular_submatrix_rejected(self):
        u = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(RankDeficiencyError):
            deim_points(u)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            deim_points(np.ones(3))
        with pytest.raises(ValueError):
            deim_points(np.ones((2, 3)))


class TestCollocateNaive:
    def test_blocks_match_dense_row_extraction(self):
        model = _string(5, a1=0.3, a2=0.02)
        basis = modal_basis(model, [0])
        rows = [0, 2, 4]
        hrom = collocate_naive(model, basis, SampleSet.from_model(model, rows))
        v = basis.matrix
        p = np.zeros((3, 5))
        p[np.arange(3), rows] = 1.0
        assert np.abs(hrom.mass - p @ (model.mass[:, None] * v)).max() < 1e-12
        assert np.abs(hrom.damping - p @ model.damping @ v).max() < 1e-12
        assert np.abs(hrom.stiffness - p @ model.stiffness @ v).max() < 1e-12
        assert hrom.provenance == "naive-collocation"

    def test_needs_at_least_k_points(self):
        model = _string(5)
        basis = modal_basis(model, [0, 1])
        with pytest.raises(ValueError):
            collocate_naive(model, basis, SampleSet.from_model(model, [2]))

    def test_rank_deficient_sampled_rows_rejected(self):
        model = _string(5, bf=0.0)
        rng = np.random.default_rng(62)
        v = np.zeros((5, 2))
        v[:3] = rng.standard_normal((3, 2))  # zero rows at DoFs 3, 4
        v = m_orthonormalize(v, model.mass)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
        with pytest.raises(RankDeficiencyError):
            collocate_naive(model, basis, SampleSet.from_model(model, [3, 4]))


class TestCollocateProjected:
    def test_operators_match_dense_oracle(self):
        model = _string(6, a1=0.2, a2=0.05)
        rng = np.random.default_rng(63)
        basis = _mass_basis(rng, model, 2)
        rows = [0, 1, 3, 5]
        rom = collocate_projected(model, basis, SampleSet.from_model(model, rows))
        v = basis.matrix
        pv = v[rows]
        assert np.abs(rom.mass - pv.T @ (model.mass[rows, None] * pv)).max() < 1e-12
        assert np.abs(rom.damping - pv.T @ (model.damping[rows] @ v)).max() < 1e-12
        assert np.abs(rom.stiffness - pv.T @ (model.stiffness[rows] @ v)).max() < 1e-12
        assert rom.provenance == "projected-collocation"

    def test_sampled_mass_is_symmetric_psd(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            model = _string(8, bf=float(rng.uniform(0.0, 50.0)))
            basis = _mass_basis(rng, model, 3)
            rows = sorted(rng.choice(8, size=4, replace=False).tolist())
            rom = collocate_projected(model, basis,
                                      SampleSet.from_model(model, rows))
            assert np.array_equal(rom.mass, rom.mass.T)
            assert np.linalg.eigvalsh(rom.mass)[0] > -1e-12


class TestDeimReduce:
    def test_matches_explicit_projector(self):
        model = _string(7, a1=0.1, a2=0.02)
        rng = np.random.default_rng(65)
        basis = _mass_basis(rng, model, 3)
        u, _ = np.linalg.qr(rng.standard_normal((7, 3)))
        points = deim_points(u)
        hrom = deim_reduce(model, basis, u, points)
        p = np.zeros((3, 7))
        p[np.arange(3), points] = 1.0
        projector = u @ np.linalg.solve(p @ u, p)
        v = basis.matrix
        assert np.abs(projector @ projector - projector).max() < 1e-10
        expect_k = v.T @ projector @ model.stiffness @ v
        expect_c = v.T @ projector @ model.damping @ v
        assert np.abs(hrom.stiffness - expect_k).max() < 1e-11
        assert np.abs(hrom.damping - expect_c).max() < 1e-11
        assert np.array_equal(hrom.mass, np.eye(3))

    def test_point_count_must_match_columns(self):
        model = _string(6)
        rng = np.random.default_rng(66)
        basis = _mass_basis(rng, model, 2)
        u, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        with pytest.raises(ValueError):
            deim_reduce(model, basis, u, [0, 2, 4])

    def test_singular_selection_rejected(self):
        model = _string(3)
        rng = np.random.default_rng(67)
        u = np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 1e-15]])
        basis = _mass_basis(rng, model, 2)
        with pytest.raises(RankDeficiencyError):
            deim_reduce(model, basis, u, [0, 1])


class TestGnatReduce:
    def test_matches_pseudoinverse_oracle(self):
        model = _string(8, a1=0.05, a2=0.01)
        rng = np.random.default_rng(68)
        basis = _mass_basis(rng, model, 2)
        u, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        rows = [0, 2, 4, 5, 7]
        hrom = gnat_reduce(model, basis, u, rows)
        v = basis.matrix
        left = (v.T @ u) @ pseudoinverse(u[rows])
        expect_k = left @ (model.stiffness[rows] @ v)
        assert np.abs(hrom.stiffness - expect_k).max() < 1e-11
        assert hrom.provenance == "gnat"

    def test_one_svd_gives_numpys_pseudoinverse(self):
        """The rank check's SVD yields ``np.linalg.pinv(a, rcond=1e-12)`` bit
        for bit, for the force block and the naive-collocation basis block."""
        rng = np.random.default_rng(70)
        for shape in ((1, 1), (4, 4), (7, 3), (30, 30), (45, 30), (300, 30)):
            a = rng.standard_normal(shape) * rng.uniform(1e-3, 1e3)
            for view in (a, np.asfortranarray(a)):
                assert np.array_equal(_require_full_rank(view, "a", pinv=True),
                                      np.linalg.pinv(view, rcond=1e-12))
        model = _string(12, a1=0.05, a2=0.01)
        basis = _mass_basis(rng, model, 3)
        hrom = collocate_naive(model, basis, SampleSet.from_model(model, [0, 3, 5, 8, 11]))
        assert np.array_equal(hrom.row_basis_pinv, np.linalg.pinv(hrom.row_basis, rcond=1e-12))
        u, _ = np.linalg.qr(rng.standard_normal((12, 3)))
        rows = [1, 4, 6, 9]
        v = basis.matrix
        left = (v.T @ u) @ np.linalg.pinv(u[rows], rcond=1e-12)
        op = model.operator
        assert np.array_equal(gnat_reduce(model, basis, u, rows).stiffness,
                              left @ op.rows_times(op.stiffness, v, np.array(rows)))

    def test_needs_enough_rows(self):
        model = _string(6)
        rng = np.random.default_rng(69)
        basis = _mass_basis(rng, model, 2)
        u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        with pytest.raises(ValueError):
            gnat_reduce(model, basis, u, [1, 4])

    def test_rank_deficient_rows_rejected(self):
        model = _string(6)
        rng = np.random.default_rng(70)
        basis = _mass_basis(rng, model, 1)
        u = np.zeros((6, 2))
        u[0, 0] = 1.0
        u[1, 1] = 1.0
        with pytest.raises(RankDeficiencyError):
            gnat_reduce(model, basis, u, [0, 2, 3])  # rows miss column 2


class TestIdentityMassInverse:
    """A mass-orthonormal basis gives DEIM and GNAT the exact identity as reduced mass,
    which ``mass_inverse`` returns without inverting it: their reports and one-step
    matrices equal those built on ``np.linalg.inv`` of the mass bit for bit, as does
    projected collocation's, whose mass is not the identity."""

    @pytest.mark.parametrize("a1, a2", [(0.0, 1e-4), (0.05, 0.01)])
    def test_reports_equal_those_on_the_inverted_mass(self, a1, a2):
        model = _string(60, a1=a1, a2=a2)
        rng = np.random.default_rng(73)
        basis = modal_basis(model, range(10))
        u, _ = np.linalg.qr(rng.standard_normal((60, 10)))
        rows = sorted(rng.choice(60, 15, replace=False).tolist())
        roms = [deim_reduce(model, basis, u, deim_points(u)),
                gnat_reduce(model, basis, u, rows),
                collocate_projected(model, basis, SampleSet.from_model(model, rows))]
        assert [np.array_equal(rom.mass, np.eye(10)) for rom in roms] == [True, True, False]
        for rom in roms:
            inverted = dataclasses.replace(rom)
            inverted.__dict__["mass_inverse"] = np.linalg.inv(rom.mass)
            assert critical_dt_report(rom) == critical_dt_report(inverted)
            for got, want in zip(rom._step_matrices(1e-3), inverted._step_matrices(1e-3)):
                assert np.array_equal(got, want)


class TestEcswTraining:
    def test_target_stacks_projected_snapshot_forces(self):
        model = _string(6, bf=0.0)
        rng = np.random.default_rng(71)
        basis = _mass_basis(rng, model, 2)
        snaps = rng.standard_normal((6, 3))
        g, b = ecsw_training_system(model, basis, snaps)
        v = basis.matrix
        kr = v.T @ model.stiffness @ v
        q = v.T @ (model.mass[:, None] * snaps)
        expect_b = np.concatenate([kr @ q[:, s] for s in range(3)])
        assert g.shape == (6, len(model.elements))
        assert np.abs(b - expect_b).max() < 1e-12
        assert np.abs(g.sum(axis=1) - b).max() < 1e-12

    def test_columns_hold_per_element_contributions(self):
        model = _string(4, bf=0.0)
        rng = np.random.default_rng(72)
        basis = _mass_basis(rng, model, 2)
        snaps = rng.standard_normal((4, 2))
        g, _ = ecsw_training_system(model, basis, snaps)
        v = basis.matrix
        q = v.T @ (model.mass[:, None] * snaps)
        assert np.array_equal(g, _loop_training_columns(model, v, q))

    def test_columns_match_per_element_loop_exactly(self):
        rng = np.random.default_rng(721)
        models = [_string(5), _string(300, a1=0.1)]
        models += [_random_chain(rng, int(rng.integers(4, 25)), bool(g)) for g in (0, 1)]
        for model in models:
            for k, n_s in ((1, 1), (2, 5), (4, 12)):
                basis = _mass_basis(rng, model, k)
                snaps = rng.standard_normal((model.m, n_s))
                g, b = ecsw_training_system(model, basis, snaps)
                v = basis.matrix
                q = v.T @ (model.mass[:, None] * snaps)
                expected = _loop_training_columns(model, v, q)
                assert np.array_equal(g, expected)
                assert np.array_equal(b, expected.sum(axis=1))

    def test_training_system_holds_one_copy_of_g(self):
        """G is written in element blocks: the peak at m = 300, k = 10 and 101
        snapshots stays near G's own 2.3 MiB (it held G twice, 5.1 MiB, when the
        whole projection was transposed at once)."""
        model = _string(300, a2=1e-4)
        rng = np.random.default_rng(77)
        basis = _mass_basis(rng, model, 10)
        snaps = rng.standard_normal((300, 101))
        tracemalloc.start()
        try:
            g, b = ecsw_training_system(model, basis, snaps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.shape == (1010, 299)
        assert peak <= g.nbytes + 0.75 * 2**20

    def test_single_element_trains_to_unit_weight(self):
        ke = 3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        element = ElementSet(dofs=[[0, 1]], mass=[[0.5, 0.5]], stiffness=[ke])
        mass, stiffness = assemble(element, 2)
        model = FullOrderModel(m=2, mass=mass, stiffness=stiffness,
                               elements=element)
        rng = np.random.default_rng(73)
        basis = _mass_basis(rng, model, 1)
        weights = ecsw_train(model, basis, rng.standard_normal((2, 3)), 0.01)
        assert weights.xi == pytest.approx([1.0], abs=1e-12)
        assert weights.support == (0,)
        assert weights.residual <= 1e-12

    def test_training_meets_tolerance_on_chain(self):
        model = _string(10, bf=0.0)
        rng = np.random.default_rng(74)
        basis = _mass_basis(rng, model, 3)
        weights = ecsw_train(model, basis, rng.standard_normal((10, 6)), 0.05)
        g, b = ecsw_training_system(model, basis, rng.standard_normal((10, 6)))
        assert weights.residual <= 0.05
        assert len(weights.support) <= len(model.elements)

    def test_rigid_basis_rejected(self):
        """A free-free chain produces no element forces along its rigid
        mode, leaving nothing to fit weights against."""
        model = _string(5, bf=0.0)
        rng = np.random.default_rng(75)
        v = np.full((5, 1), 1.0 / np.sqrt(model.mass.sum()))
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
        with pytest.raises(ValueError):
            ecsw_train(model, basis, rng.standard_normal((5, 2)), 0.01)

    def test_requires_elements(self):
        rng = np.random.default_rng(76)
        mass = rng.uniform(0.5, 2.0, 4)
        b = rng.standard_normal((4, 6))
        model = FullOrderModel(m=4, mass=mass, stiffness=b @ b.T)
        basis = _mass_basis(rng, model, 1)
        with pytest.raises(ValueError):
            ecsw_training_system(model, basis, rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="no element blocks"):
            ecsw_reduce(model, np.ones(3), basis)
        with pytest.raises(ValueError, match="no element blocks"):
            ecsw_weighted_operator(model, np.ones(3))


class TestEcswReduce:
    def test_unit_weights_reproduce_galerkin(self):
        model = _string(7, a1=0.2, a2=0.03)
        rng = np.random.default_rng(77)
        basis = _mass_basis(rng, model, 3)
        ones = EcswWeights(xi=np.ones(len(model.elements)),
                           support=tuple(range(len(model.elements))),
                           residual=0.0)
        rom = ecsw_reduce(model, ones, basis)
        v = basis.matrix
        assert np.abs(rom.stiffness - v.T @ model.stiffness @ v).max() < 1e-10
        assert np.array_equal(rom.mass, np.eye(3))
        assert rom.symmetric

    def test_rayleigh_structure_with_weighted_mass(self):
        model = _string(6, a1=0.5, a2=0.1, bf=0.0)
        rng = np.random.default_rng(78)
        basis = _mass_basis(rng, model, 2)
        xi = rng.uniform(0.5, 2.0, len(model.elements))
        rom = ecsw_reduce(model, xi, basis)
        es = model.elements
        mass_w = np.zeros(model.m)
        stiff_w = np.zeros((model.m, model.m))
        for e in range(len(es)):
            ix = es.dofs[e]
            mass_w[ix] += xi[e] * es.mass[e]
            stiff_w[np.ix_(ix, ix)] += xi[e] * es.stiffness[e]
        v = basis.matrix
        expect_c = 0.5 * (v.T @ (mass_w[:, None] * v)) + 0.1 * (v.T @ stiff_w @ v)
        assert np.abs(rom.damping - expect_c).max() < 1e-11

    def test_weighted_operator_matches_dense_assembly(self):
        model = _string(5, bf=0.0)
        rng = np.random.default_rng(79)
        xi = rng.uniform(0.0, 2.0, len(model.elements))
        op = ecsw_weighted_operator(model, xi)
        es = model.elements
        stiff_w = np.zeros((5, 5))
        for e in range(len(es)):
            ix = es.dofs[e]
            stiff_w[np.ix_(ix, ix)] += xi[e] * es.stiffness[e]
        inv_sqrt = 1.0 / np.sqrt(model.mass)
        assert np.abs(op - stiff_w * np.outer(inv_sqrt, inv_sqrt)).max() < 1e-12

    def test_requires_mass_orthonormal_basis(self):
        model = _string(5)
        q, _ = np.linalg.qr(np.random.default_rng(80).standard_normal((5, 2)))
        basis = ReducedBasis(q, "plain-orthonormal")
        xi = np.ones(len(model.elements))
        with pytest.raises(ValueError):
            ecsw_reduce(model, xi, basis)

    def test_weight_count_mismatch_rejected(self):
        model = _string(5)
        rng = np.random.default_rng(81)
        basis = _mass_basis(rng, model, 1)
        with pytest.raises(ValueError):
            ecsw_reduce(model, np.ones(2), basis)


class TestReducedLoad:
    """Every reduction carries the external load in its own coordinates."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(97)
        m = 10
        string = _string(m, a1=0.1, a2=0.01)
        times = np.array([0.0, 0.5, 2.0])
        values = rng.standard_normal((3, m))
        model = FullOrderModel(
            m=m, mass=string.mass, stiffness=string.stiffness, a1=string.a1,
            a2=string.a2, elements=string.elements,
            external_force=ForceTable(times, values),
        )
        t = 0.8
        w = (t - times[1]) / (times[2] - times[1])
        f = (1.0 - w) * values[1] + w * values[2]

        basis = modal_basis(model, [0, 1, 2])
        v = basis.matrix
        u, _ = np.linalg.qr(rng.standard_normal((m, 3)))
        coll_rows = [0, 3, 5, 8]
        deim_rows = deim_points(u).tolist()
        gnat_rows = deim_rows + [1, 6]

        def select(rows):
            p = np.zeros((len(rows), m))
            p[np.arange(len(rows)), rows] = 1.0
            return p

        pc, pd, pg = select(coll_rows), select(deim_rows), select(gnat_rows)
        samples = SampleSet.from_model(model, coll_rows)
        left_deim = v.T @ u @ np.linalg.inv(pd @ u)
        left_gnat = v.T @ u @ np.linalg.pinv(pg @ u)
        cases = {
            "galerkin": (galerkin_reduce(model, basis), v.T @ f),
            "ecsw": (ecsw_reduce(model, rng.uniform(0.5, 2.0, m - 1), basis),
                     v.T @ f),
            "projected-collocation": (collocate_projected(model, basis, samples),
                                      (pc @ v).T @ (pc @ f)),
            "deim": (deim_reduce(model, basis, u, deim_rows),
                     left_deim @ (pd @ f)),
            "gnat": (gnat_reduce(model, basis, u, gnat_rows),
                     left_gnat @ (pg @ f)),
            "naive-collocation": (collocate_naive(model, basis, samples), pc @ f),
        }
        return cases, t

    @pytest.mark.parametrize("provenance", [
        "galerkin", "ecsw", "projected-collocation", "deim", "gnat",
        "naive-collocation",
    ])
    def test_load_between_stations_matches_dense_oracle(self, provenance):
        cases, t = self._cases()
        rom, expected = cases[provenance]
        assert rom.provenance == provenance
        got = rom.load.at(t)
        assert got.shape == expected.shape
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class TestEcswWeightsRecord:
    def test_support_must_match_positive_entries(self):
        with pytest.raises(ValueError):
            EcswWeights(xi=np.array([0.0, 1.0]), support=(0,), residual=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            EcswWeights(xi=np.array([-0.1, 1.0]), support=(0, 1), residual=0.0)


def _reference_naive_steps(hrom, x0, v0, dt, n):
    """Re-derivation of the sampled update with explicit least squares."""
    rb = hrom.row_basis
    x = np.array(x0, dtype=float)
    v_half = np.array(v0, dtype=float)
    v_rows = rb @ v_half
    for _ in range(n):
        force = -hrom.damping @ v_half - hrom.stiffness @ x
        v_rows = v_rows + dt * (force / hrom.row_mass)
        target = rb @ x + dt * v_rows
        x_new = np.linalg.lstsq(rb, target, rcond=None)[0]
        v_half = (x_new - x) / dt
        x = x_new
    return x, v_half


class TestHromStep:
    def _hrom(self, rng, m=9, k=2, p=4, a1=0.1, a2=0.01):
        model = _string(m, a1=a1, a2=a2)
        basis = _mass_basis(rng, model, k)
        rows = sorted(rng.choice(m, size=p, replace=False).tolist())
        return collocate_naive(model, basis, SampleSet.from_model(model, rows))

    @pytest.mark.parametrize("rule", ["chained"])
    def test_matches_least_squares_reference(self, rule):
        rng = np.random.default_rng(82)
        hrom = self._hrom(rng)
        x0 = rng.standard_normal(2)
        v0 = rng.standard_normal(2)
        dt = 0.01
        state = IntegratorState.initial(x0, v0)
        for _ in range(20):
            state = hrom_step(hrom, state, dt)
        ref_x, ref_v = _reference_naive_steps(hrom, x0, v0, dt, 20)
        assert np.abs(state.x - ref_x).max() < 1e-12
        assert np.abs(state.v_half - ref_v).max() < 1e-12

    def test_integrate_dispatches_to_sampled_update(self):
        rng = np.random.default_rng(84)
        hrom = self._hrom(rng)
        x0 = rng.standard_normal(2)
        dt = 0.02
        traj = integrate(hrom, x0, np.zeros(2), t_end=10 * dt, dt=dt)
        state = IntegratorState.initial(x0, np.zeros(2))
        for _ in range(10):
            state = hrom_step(hrom, state, dt)
        assert np.array_equal(traj.states[-1], state.x)

    def test_rejects_projected_models(self):
        model = _string(5)
        rng = np.random.default_rng(85)
        basis = _mass_basis(rng, model, 2)
        rom = collocate_projected(model, basis,
                                  SampleSet.from_model(model, [0, 2, 4]))
        with pytest.raises(TypeError):
            hrom_step(rom, IntegratorState.initial(np.zeros(2), np.zeros(2)), 0.01)


class TestSampledStepMatrix:
    def test_one_step_matrix_matches_the_stepper(self):
        rng = np.random.default_rng(87)
        model = _string(9, a1=0.1, a2=0.01)
        basis = _mass_basis(rng, model, 2)
        rows = [0, 3, 5, 8]
        hrom = collocate_naive(model, basis, SampleSet.from_model(model, rows))
        a = sampled_step_matrix(hrom, 0.05)
        x = rng.standard_normal(2)
        v_rows = rng.standard_normal(4)
        state = dataclasses.replace(
            IntegratorState.initial(x, hrom.row_basis_pinv @ v_rows),
            row_v_half=v_rows,
        )
        nxt = hrom_step(hrom, state, 0.05)
        probe = a @ np.concatenate([x, v_rows])
        assert np.abs(probe[:2] - nxt.x).max() < 1e-12
        assert np.abs(probe[2:] - nxt.row_v_half).max() < 1e-12

    def test_dt_validation(self):
        rng = np.random.default_rng(88)
        model = _string(6)
        basis = _mass_basis(rng, model, 2)
        hrom = collocate_naive(model, basis,
                               SampleSet.from_model(model, [0, 2, 4]))
        with pytest.raises(ValueError):
            sampled_step_matrix(hrom, 0.0)


class TestSampleSetFile:
    def test_round_trip(self, tmp_path):
        model = _string(6, a2=0.1, bf=0.0)
        samples = SampleSet.from_model(model, [1, 4])
        path = tmp_path / "samples.json"
        write_sample_set(samples, path)
        back = read_sample_set(path)
        assert back == samples

    def test_unknown_key_rejected(self):
        doc = sample_set_to_dict(SampleSet((0,), (0,), (0,)))
        doc["note"] = 1
        with pytest.raises(FormatError):
            sample_set_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = sample_set_to_dict(SampleSet((0,), (0,), (0,)))
        del doc["damping_reach"]
        with pytest.raises(FormatError):
            sample_set_from_dict(doc)

    def test_invalid_content_becomes_format_error(self):
        doc = {"collocation": [], "damping_reach": [], "stiffness_reach": []}
        with pytest.raises(FormatError):
            sample_set_from_dict(doc)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        weights = EcswWeights(xi=np.array([0.0, 2.5, 0.0, 1.0]),
                              support=(1, 3), residual=0.004)
        path = tmp_path / "weights.json"
        write_weights(weights, path)
        back = read_weights(path)
        assert np.array_equal(back.xi, weights.xi)
        assert back.support == (1, 3)
        assert back.residual == 0.004

    def test_unknown_key_rejected(self):
        doc = weights_to_dict(EcswWeights(xi=np.ones(1), support=(0,),
                                          residual=0.0))
        doc["extra"] = []
        with pytest.raises(FormatError):
            weights_from_dict(doc)

    def test_inconsistent_support_rejected(self):
        doc = {"xi": [0.0, 1.0], "support": [0], "residual": 0.0}
        with pytest.raises(FormatError):
            weights_from_dict(doc)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text("not json")
        with pytest.raises(FormatError):
            read_weights(path)
