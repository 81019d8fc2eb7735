"""Tests for reduced bases, Galerkin projection, and the basis file format."""

import numpy as np
import pytest

from romstab import (
    MASS_ORTHONORMAL,
    PLAIN_ORTHONORMAL,
    FormatError,
    FullOrderModel,
    IntegratorState,
    RankDeficiencyError,
    ReducedBasis,
    ReducedModel,
    build_string_model,
    cd_step,
    galerkin_reduce,
    integrate,
    m_orthonormalize,
    modal_basis,
    pod_basis,
    read_basis,
    reconstruct,
    snapshots_from_trajectory,
    symmetrize,
    write_basis,
)
from romstab.reduction import basis_from_dict, basis_to_dict


def _random_model(rng, m, a1=0.0, a2=0.0):
    mass = rng.uniform(0.5, 3.0, m)
    b = rng.standard_normal((m, m + 2))
    return FullOrderModel(m=m, mass=mass, stiffness=symmetrize(b @ b.T), a1=a1, a2=a2)


class TestPodBasis:
    def test_tail_energy_identity(self):
        """The squared reconstruction error of a k-column plain basis equals
        the sum of the discarded squared singular values."""
        rng = np.random.default_rng(30)
        snaps = rng.standard_normal((12, 7))
        sigma = np.linalg.svd(snaps, compute_uv=False)
        for k in range(1, 6):
            basis = pod_basis(snaps, k)
            v = basis.matrix
            err = np.linalg.norm(snaps - v @ (v.T @ snaps)) ** 2
            assert err == pytest.approx(float(np.sum(sigma[k:] ** 2)), rel=1e-10)

    def test_mass_variant_keeps_span_and_gains_mass_gram(self):
        """The mass-aware flavor re-orthonormalizes the same columns: the
        span matches the plain SVD basis while the Gram moves to the mass
        inner product."""
        rng = np.random.default_rng(31)
        mass = rng.uniform(0.5, 4.0, 10)
        snaps = rng.standard_normal((10, 6))
        k = 3
        basis = pod_basis(snaps, k, mass=mass)
        v = basis.matrix
        gram = v.T @ (mass[:, None] * v)
        assert np.abs(gram - np.eye(k)).max() < 1e-12
        u = pod_basis(snaps, k).matrix
        # same column span: the orthogonal projectors agree
        pv = v @ np.linalg.solve(v.T @ v, v.T)
        assert np.abs(pv - u @ u.T).max() < 1e-10

    def test_rank_cutoff_raises(self):
        rng = np.random.default_rng(32)
        thin = rng.standard_normal((8, 2))
        snaps = thin @ rng.standard_normal((2, 5))  # rank 2
        with pytest.raises(RankDeficiencyError):
            pod_basis(snaps, 3)

    def test_k_validation(self):
        snaps = np.eye(4)
        with pytest.raises(ValueError):
            pod_basis(snaps, 0)
        with pytest.raises(ValueError):
            pod_basis(snaps, 5)


class TestModalBasis:
    def test_columns_solve_the_pencil(self):
        rng = np.random.default_rng(33)
        model = _random_model(rng, 7)
        basis = modal_basis(model, [0, 2, 3])
        v = basis.matrix
        gram = v.T @ (model.mass[:, None] * v)
        assert np.abs(gram - np.eye(3)).max() < 1e-10
        # each column is an eigenvector of inv(M) K
        op = model.stiffness / model.mass[:, None]
        for j in range(3):
            col = v[:, j]
            lam = col @ (model.stiffness @ col)  # Rayleigh quotient, M-normalized
            assert np.abs(op @ col - lam * col).max() < 1e-8 * abs(lam)

    def test_reduced_stiffness_is_diagonal_of_eigenvalues(self):
        model = build_string_model(5, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=99.0)
        basis = modal_basis(model, [0, 1, 2])
        rom = galerkin_reduce(model, basis)
        off = rom.stiffness - np.diag(np.diag(rom.stiffness))
        assert np.abs(off).max() < 1e-9

    def test_mode_selection_validation(self):
        rng = np.random.default_rng(34)
        model = _random_model(rng, 5)
        with pytest.raises(ValueError):
            modal_basis(model, [])
        with pytest.raises(ValueError):
            modal_basis(model, [0, 0])
        with pytest.raises(ValueError):
            modal_basis(model, [5])
        with pytest.raises(ValueError):
            modal_basis(model, [-1])


class TestReducedBasis:
    def test_rejects_non_orthonormal_columns(self):
        v = np.ones((4, 2))
        with pytest.raises(ValueError):
            ReducedBasis(v, PLAIN_ORTHONORMAL)

    def test_mass_kind_requires_mass(self):
        q, _ = np.linalg.qr(np.random.default_rng(35).standard_normal((5, 2)))
        with pytest.raises(ValueError):
            ReducedBasis(q, MASS_ORTHONORMAL)

    def test_unknown_kind_rejected(self):
        q, _ = np.linalg.qr(np.random.default_rng(36).standard_normal((5, 2)))
        with pytest.raises(ValueError):
            ReducedBasis(q, "orthogonal-ish")


class TestGalerkinReduce:
    def test_triple_products_against_dense_oracle(self):
        rng = np.random.default_rng(37)
        model = _random_model(rng, 8, a1=0.4, a2=0.03)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        basis = ReducedBasis(q, PLAIN_ORTHONORMAL)
        rom = galerkin_reduce(model, basis)
        mass_full = np.diag(model.mass)
        assert np.abs(rom.mass - q.T @ mass_full @ q).max() < 1e-12
        assert np.abs(rom.damping - q.T @ model.damping @ q).max() < 1e-12
        assert np.abs(rom.stiffness - q.T @ model.stiffness @ q).max() < 1e-12
        assert rom.provenance == "galerkin"
        assert rom.symmetric

    def test_mass_orthonormal_basis_gives_exact_identity_mass(self):
        rng = np.random.default_rng(38)
        model = _random_model(rng, 6)
        v = m_orthonormalize(rng.standard_normal((6, 2)), model.mass)
        rom = galerkin_reduce(model, ReducedBasis(v, MASS_ORTHONORMAL,
                                                  mass=model.mass))
        assert np.array_equal(rom.mass, np.eye(2))

    def test_damping_coefficients_carried(self):
        rng = np.random.default_rng(39)
        model = _random_model(rng, 5, a1=0.7, a2=0.2)
        v = m_orthonormalize(rng.standard_normal((5, 2)), model.mass)
        rom = galerkin_reduce(model, ReducedBasis(v, MASS_ORTHONORMAL,
                                                  mass=model.mass))
        assert rom.a1 == model.a1 and rom.a2 == model.a2
        expected = model.a1 * rom.mass + model.a2 * rom.stiffness
        assert np.abs(rom.damping - expected).max() < 1e-10

    def test_full_space_reduction_reproduces_projected_steps(self):
        """With a square basis the reduced stepper and the projected
        full-order stepper are the same dynamical system."""
        rng = np.random.default_rng(40)
        model = _random_model(rng, 5, a1=0.1, a2=0.01)
        v = m_orthonormalize(rng.standard_normal((5, 5)), model.mass)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
        rom = galerkin_reduce(model, basis)

        x0 = rng.standard_normal(5)
        v0 = rng.standard_normal(5)
        # reduced coordinates of the same initial condition
        q0 = v.T @ (model.mass * x0)
        p0 = v.T @ (model.mass * v0)
        dt = 0.01
        full = IntegratorState.initial(x0, v0)
        red = IntegratorState.initial(q0, p0)
        for _ in range(50):
            full = cd_step(model, full, dt)
            red = cd_step(rom, red, dt)
        back = reconstruct(basis, red.x)
        assert np.abs(back - full.x).max() < 1e-10 * max(1.0, np.abs(full.x).max())

    def test_basis_model_size_mismatch(self):
        rng = np.random.default_rng(41)
        model = _random_model(rng, 6)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError):
            galerkin_reduce(model, ReducedBasis(q, PLAIN_ORTHONORMAL))


class TestReducedModelValidation:
    @staticmethod
    def _basis():
        q, _ = np.linalg.qr(np.random.default_rng(50).standard_normal((4, 2)))
        return ReducedBasis(q, PLAIN_ORTHONORMAL)

    def test_unknown_provenance_rejected(self):
        with pytest.raises(ValueError):
            ReducedModel(mass=np.eye(2), damping=np.zeros((2, 2)),
                         stiffness=np.eye(2), provenance="handmade",
                         symmetric=True, basis=self._basis())

    def test_symmetric_flag_must_match_matrices(self):
        k = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            ReducedModel(mass=np.eye(2), damping=np.zeros((2, 2)),
                         stiffness=k, provenance="galerkin",
                         symmetric=True, basis=self._basis())

    def test_symmetric_stiffness_must_be_psd(self):
        k = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(ValueError):
            ReducedModel(mass=np.eye(2), damping=np.zeros((2, 2)),
                         stiffness=k, provenance="galerkin",
                         symmetric=True, basis=self._basis())

    def test_mass_inverse_is_formed_once_and_matches_a_solve(self, monkeypatch):
        mass = np.array([[2.0, 0.5], [0.5, 1.0]])
        rom = ReducedModel(mass=mass, damping=np.zeros((2, 2)), stiffness=np.eye(2),
                           provenance="projected-collocation", symmetric=False,
                           basis=self._basis())
        f = np.array([0.3, -1.7])
        first = rom.mass_inverse @ f
        assert np.max(np.abs(first - np.linalg.solve(mass, f))) <= 1e-15 * np.max(np.abs(first))
        monkeypatch.setattr(np.linalg, "inv", None)  # a second factorization would fail
        assert np.array_equal(rom.mass_inverse @ f, first)
        rom.step_operator(0.1)  # the step operator reads the same inverse

    def test_singular_mass_raises_on_use(self):
        rom = ReducedModel(mass=np.array([[1.0, 1.0], [1.0, 1.0]]), damping=np.zeros((2, 2)),
                           stiffness=np.eye(2), provenance="projected-collocation",
                           symmetric=False, basis=self._basis())
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^reduced mass matrix is singular \(Singular "
                                                 r"matrix\); the sampling does not resolve the basis$"):
                rom.step_operator(0.1)


class TestReconstruct:
    def test_vector_and_trajectory_forms(self):
        rng = np.random.default_rng(42)
        q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
        basis = ReducedBasis(q, PLAIN_ORTHONORMAL)
        coords = rng.standard_normal(2)
        assert np.allclose(reconstruct(basis, coords), q @ coords)
        block = rng.standard_normal((4, 2))  # one row per recorded step
        full = reconstruct(basis, block)
        assert full.shape == (4, 6)
        assert np.allclose(full, block @ q.T)


class TestSnapshots:
    def test_orientation_is_one_column_per_state(self):
        model = build_string_model(4, element_mass=1.0, element_stiffness=5.0,
                                   length=1.0, boundary_factor=0.0)
        rng = np.random.default_rng(43)
        traj = integrate(model, rng.standard_normal(4), np.zeros(4),
                         t_end=0.5, dt=0.05)
        snaps = snapshots_from_trajectory(traj)
        assert snaps.shape == (4, traj.states.shape[0])
        assert np.array_equal(snaps[:, 0], traj.states[0])


class TestBasisFile:
    def _basis(self, rng, mass=None):
        if mass is None:
            q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            return ReducedBasis(q, PLAIN_ORTHONORMAL)
        v = m_orthonormalize(rng.standard_normal((6, 3)), mass)
        return ReducedBasis(v, MASS_ORTHONORMAL, mass=mass)

    def test_plain_round_trip(self, tmp_path):
        rng = np.random.default_rng(44)
        basis = self._basis(rng)
        path = tmp_path / "basis.json"
        write_basis(basis, path)
        back = read_basis(path)
        assert back.kind == PLAIN_ORTHONORMAL
        assert np.array_equal(back.matrix, basis.matrix)

    def test_mass_round_trip_needs_mass(self, tmp_path):
        rng = np.random.default_rng(45)
        mass = rng.uniform(0.5, 2.0, 6)
        basis = self._basis(rng, mass=mass)
        path = tmp_path / "basis.json"
        write_basis(basis, path)
        back = read_basis(path, mass=mass)
        assert back.kind == MASS_ORTHONORMAL
        assert np.array_equal(back.matrix, basis.matrix)
        with pytest.raises(ValueError):
            read_basis(path)

    def test_unknown_key_rejected(self):
        rng = np.random.default_rng(46)
        doc = basis_to_dict(self._basis(rng))
        doc["note"] = "hi"
        with pytest.raises(FormatError):
            basis_from_dict(doc)

    def test_column_shape_mismatch_rejected(self):
        rng = np.random.default_rng(47)
        doc = basis_to_dict(self._basis(rng))
        doc["columns"][0] = doc["columns"][0][:-1]
        with pytest.raises(FormatError):
            basis_from_dict(doc)

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(48)
        doc = basis_to_dict(self._basis(rng))
        doc["kind"] = "whatever"
        with pytest.raises(FormatError):
            basis_from_dict(doc)

    def test_corrupted_columns_rejected(self):
        """Orthonormality is checked on load, not assumed."""
        rng = np.random.default_rng(49)
        doc = basis_to_dict(self._basis(rng))
        doc["columns"][0] = [2.0 * v for v in doc["columns"][0]]
        with pytest.raises(FormatError):
            basis_from_dict(doc)
