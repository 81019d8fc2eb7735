"""Tests for the dense linear-algebra kernels.

Reference values come from independent oracles implemented inline:
characteristic-polynomial roots for the symmetric eigensolver, Gram-matrix
eigenvalues for the SVD, Penrose conditions for the pseudo-inverse, and
exhaustive support enumeration for the sparse non-negative solver.
"""

import numpy as np
import pytest

from romstab import (
    EigenPairs,
    InfeasibleError,
    NumericalRangeError,
    RankDeficiencyError,
    SpectralRadius,
    gen_eig_diag_mass,
    m_orthonormalize,
    pseudoinverse,
    sparse_nnls,
    spectral_radius,
    sym_eig,
    symmetrize,
    thin_svd,
)
from romstab.errors import ConvergenceError
from romstab.hyper import ecsw_training_system
from romstab.integrator import integrate
from romstab.kernels import (
    max_gen_eigenvalue,
    require_positive_diagonal,
    require_psd,
    require_symmetric,
)
from romstab.models import build_string_model
from romstab.reduction import modal_basis, snapshots_from_trajectory
from romstab.stability import critical_dt_report
from romstab.verify import _random_chain


def _charpoly_roots(a):
    """Eigenvalues via Faddeev-LeVerrier coefficients and polynomial roots.

    Deliberately avoids any eigensolver so it can serve as an independent
    cross-check for small matrices.
    """
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ mk) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestSymEig:
    def test_matches_charpoly_roots(self):
        rng = np.random.default_rng(3)
        a = symmetrize(rng.standard_normal((4, 4)))
        pairs = sym_eig(a)
        expected = _charpoly_roots(a)
        assert np.allclose(pairs.values, expected, rtol=1e-7, atol=1e-9)

    def test_diagonalization(self):
        rng = np.random.default_rng(4)
        a = symmetrize(rng.standard_normal((7, 7)))
        pairs = sym_eig(a)
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        assert np.abs(recon - a).max() < 1e-12 * max(np.abs(a).max(), 1.0)

    def test_values_ascend(self):
        a = np.diag([3.0, -1.0, 2.0])
        pairs = sym_eig(a)
        assert np.all(np.diff(pairs.values) >= 0)

    def test_eigenpairs_reject_descending(self):
        with pytest.raises(ValueError):
            EigenPairs(np.array([2.0, 1.0]), np.eye(2))


class TestGeneralizedDiagonalMass:
    def test_against_plain_eig_oracle(self):
        rng = np.random.default_rng(5)
        mass = rng.uniform(0.5, 3.0, 6)
        b = rng.standard_normal((6, 6))
        stiffness = symmetrize(b @ b.T)
        pairs = gen_eig_diag_mass(stiffness, mass)
        oracle = np.sort(np.linalg.eig(stiffness / mass[:, None])[0].real)
        assert np.allclose(pairs.values, oracle, rtol=1e-10, atol=1e-10)

    def test_vectors_solve_the_pencil(self):
        """Returned vectors w satisfy the mass-symmetrized problem; w/sqrt(m)
        are then eigenvectors of inv(M) K."""
        rng = np.random.default_rng(6)
        mass = rng.uniform(0.5, 3.0, 5)
        b = rng.standard_normal((5, 5))
        stiffness = symmetrize(b @ b.T)
        pairs = gen_eig_diag_mass(stiffness, mass)
        phi = pairs.vectors / np.sqrt(mass)[:, None]
        lhs = (stiffness / mass[:, None]) @ phi
        rhs = phi * pairs.values
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(stiffness).max()

    def test_doubling_stiffness_doubles_eigenvalues(self):
        rng = np.random.default_rng(7)
        mass = rng.uniform(0.5, 2.0, 5)
        b = rng.standard_normal((5, 5))
        stiffness = symmetrize(b @ b.T)
        one = gen_eig_diag_mass(stiffness, mass).values
        two = gen_eig_diag_mass(2.0 * stiffness, mass).values
        assert np.allclose(two, 2.0 * one, rtol=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            gen_eig_diag_mass(np.eye(2), np.array([1.0, 0.0]))

    def test_power_of_two_scaling_keeps_every_bit(self):
        """The overflow guard scales by a power of four through M**-1/2:
        eigenvalues and vectors equal those of the unscaled similarity bit
        for bit."""
        rng = np.random.default_rng(8)
        for m in (2, 5, 17, 60):
            mass = rng.uniform(0.3, 3.0, m)
            b = rng.standard_normal((m, m)) * rng.uniform(1e-3, 1e6)
            stiffness = symmetrize(b @ b.T)
            s = 1.0 / np.sqrt(mass)
            plain = stiffness * np.outer(s, s)
            pairs = gen_eig_diag_mass(stiffness, mass)
            expected = np.linalg.eigh(plain)
            assert np.array_equal(pairs.values, expected[0])
            assert np.array_equal(pairs.vectors, expected[1])
            assert max_gen_eigenvalue(stiffness, mass) == np.linalg.eigvalsh(plain)[-1]

    def test_spectrum_near_the_double_limit(self):
        # mu_max near the top of the double range stays finite; beyond it
        # the eigensolve would return NaN, which is a typed error instead
        stiffness = np.array([[1e308, -1e307], [-1e307, 1e307]])
        mass = np.array([0.75, 1.0])
        mu = max_gen_eigenvalue(stiffness, mass)
        assert np.isfinite(mu) and mu == pytest.approx(1e308 / 0.75, rel=1e-2)
        with pytest.raises(NumericalRangeError, match="overflow double precision"):
            max_gen_eigenvalue(stiffness, np.array([0.25, 1.0]))
        with pytest.raises(NumericalRangeError):
            gen_eig_diag_mass(stiffness, np.array([0.25, 1.0]))


class TestThinSvd:
    def test_singular_values_match_gram_eigenvalues(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((9, 4))
        _, sigma, _ = thin_svd(s)
        gram = np.linalg.eigvalsh(s.T @ s)[::-1]
        assert np.allclose(sigma**2, np.clip(gram, 0.0, None), rtol=1e-10, atol=1e-10)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(9)
        s = rng.standard_normal((8, 5))
        u, sigma, w = thin_svd(s)
        assert np.abs(u.T @ u - np.eye(5)).max() < 1e-12
        assert np.abs(w.T @ w - np.eye(5)).max() < 1e-12
        assert np.abs(u @ np.diag(sigma) @ w.T - s).max() < 1e-12 * np.abs(s).max()

    def test_descending_order(self):
        rng = np.random.default_rng(10)
        _, sigma, _ = thin_svd(rng.standard_normal((6, 6)))
        assert np.all(np.diff(sigma) <= 0)


class TestMassOrthonormalize:
    def test_gram_identity(self):
        rng = np.random.default_rng(11)
        mass = rng.uniform(0.1, 4.0, 10)
        v = rng.standard_normal((10, 3))
        q = m_orthonormalize(v, mass)
        gram = q.T @ (mass[:, None] * q)
        assert np.abs(gram - np.eye(3)).max() < 1e-12

    def test_span_preserved(self):
        """Compare orthogonal projectors onto the weighted column spans."""
        rng = np.random.default_rng(12)
        mass = rng.uniform(0.5, 2.0, 8)
        v = rng.standard_normal((8, 4))
        q = m_orthonormalize(v, mass)
        root = np.sqrt(mass)[:, None]

        def projector(cols):
            qq, _ = np.linalg.qr(cols)
            return qq @ qq.T

        assert np.abs(projector(root * v) - projector(root * q)).max() < 1e-10

    def test_rank_deficiency_names_column(self):
        v = np.zeros((5, 3))
        v[:, 0] = 1.0
        v[:, 1] = np.arange(5.0)
        v[:, 2] = 2.0 * np.arange(5.0) - 3.0  # dependent on the first two
        with pytest.raises(RankDeficiencyError) as err:
            m_orthonormalize(v, np.ones(5))
        assert err.value.column == 2


class TestPseudoinverse:
    def test_penrose_conditions(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((6, 3))
        p = pseudoinverse(a)
        assert np.abs(a @ p @ a - a).max() < 1e-12
        assert np.abs(p @ a @ p - p).max() < 1e-12
        assert np.abs((a @ p) - (a @ p).T).max() < 1e-12
        assert np.abs((p @ a) - (p @ a).T).max() < 1e-12

    def test_least_squares_against_normal_equations(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((7, 3))
        b = rng.standard_normal(7)
        x = pseudoinverse(a) @ b
        oracle = np.linalg.solve(a.T @ a, a.T @ b)
        assert np.allclose(x, oracle, rtol=1e-10, atol=1e-12)


def _best_support_residual(columns, target):
    """Smallest residual over every support whose unconstrained least-squares
    solution happens to be non-negative — a brute-force reference for small
    instances."""
    n = columns.shape[1]
    best = np.linalg.norm(target)
    for mask in range(1, 2**n):
        support = [j for j in range(n) if mask >> j & 1]
        sol, *_ = np.linalg.lstsq(columns[:, support], target, rcond=None)
        if np.all(sol >= -1e-12):
            best = min(best, float(np.linalg.norm(columns[:, support] @ sol - target)))
    return best


def _reference_nnls(columns, target, tau):
    """The active-set solver that re-solved ``lstsq`` over the whole support on
    every pass: the oracle for :func:`sparse_nnls`, whose weights must match it
    bit for bit whenever both take the same decisions."""
    g = np.asarray(columns, dtype=float)
    b = np.asarray(target, dtype=float)
    if g.ndim != 2 or b.ndim != 1 or g.shape[0] != b.shape[0]:
        raise ValueError(f"shape mismatch: G {g.shape}, b {b.shape}")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(b))):
        raise ValueError("inputs contain non-finite entries")
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        raise ValueError("target vector is zero; tolerance tau*||b|| is degenerate")

    n = g.shape[1]
    x = np.zeros(n)
    passive: list[int] = []
    residual = b.copy()
    best = b_norm
    # Each outer pass adds one support index; n passes reach the
    # unconstrained optimum, the margin covers drop/re-add cycles.
    for _ in range(3 * n + 30):
        res_norm = float(np.linalg.norm(residual))
        best = min(best, res_norm)
        if res_norm <= tau * b_norm:
            return x
        grad = g.T @ residual
        grad[passive] = -np.inf
        j = int(np.argmax(grad))
        if grad[j] <= 0.0 or len(passive) == n:
            # KKT point: no admissible column can reduce the residual.
            raise InfeasibleError(
                f"cannot reach tau={tau:g}: best relative residual "
                f"{best / b_norm:.3e}",
                best_residual=best,
            )
        passive.append(j)
        # Restore least-squares optimality on the support, dropping
        # variables that a full step would drive negative.
        for _ in range(3 * n + 30):
            sub = g[:, passive]
            z, *_ = np.linalg.lstsq(sub, b, rcond=None)
            if np.all(z > 0.0):
                x[:] = 0.0
                x[passive] = z
                break
            xp = x[passive]
            shrink = z <= 0.0
            steps = xp[shrink] / (xp[shrink] - z[shrink])
            alpha = float(np.min(steps))
            xp = xp + alpha * (z - xp)
            keep = xp > 1e-14 * max(1.0, float(np.max(np.abs(xp))))
            x[:] = 0.0
            for idx, val, k in zip(passive, xp, keep):
                if k:
                    x[idx] = val
            passive = [idx for idx, k in zip(passive, keep) if k]
            if not passive:
                break
        residual = b - g @ x
    raise InfeasibleError(
        f"iteration cap hit before reaching tau={tau:g}: best relative "
        f"residual {best / b_norm:.3e}",
        best_residual=best,
    )


def _ecsw_system(model, k, steps, rng):
    """ECSW training system of the ``k`` lowest modes on a white-noise-start run."""
    dt = 0.9 * critical_dt_report(model).dt_crit
    run = integrate(model, rng.standard_normal(model.m), np.zeros(model.m), steps * dt, dt)
    return ecsw_training_system(model, modal_basis(model, range(k)),
                                snapshots_from_trajectory(run))


def _nnls_outcome(solver, g, b, tau):
    try:
        return solver(g, b, tau)
    except InfeasibleError as exc:
        return exc


def _random_nnls_system(rng):
    """A small system, half of them exact fits; ``plant`` 1 makes the last
    column a duplicate of the first, 2 a combination of the first two."""
    r, n = int(rng.integers(3, 25)), int(rng.integers(3, 30))
    g = rng.standard_normal((r, n))
    if rng.random() < 0.5:
        g = np.abs(g)
    b = g @ np.where(rng.random(n) < 0.3, rng.uniform(0.1, 2.0, n), 0.0)
    if rng.random() < 0.5:
        b = b + 10.0 ** rng.uniform(-4.0, 0.0) * rng.standard_normal(r)
    plant = int(rng.integers(0, 3))
    if plant == 1:
        g[:, -1] = g[:, 0]
    elif plant == 2:
        g[:, -1] = g[:, :2] @ rng.uniform(-1.0, 1.0, 2)
    return g, b, float(10.0 ** rng.uniform(-8.0, -0.5)), plant


class TestSparseNnls:
    def test_recovers_sparse_nonnegative_solution(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            g = rng.standard_normal((10, 6))
            xi_true = np.zeros(6)
            picks = rng.choice(6, size=2, replace=False)
            xi_true[picks] = rng.uniform(0.5, 2.0, 2)
            b = g @ xi_true
            xi = sparse_nnls(g, b, tau=1e-8)
            assert np.all(xi >= 0.0)
            assert np.linalg.norm(g @ xi - b) <= 1e-8 * np.linalg.norm(b)

    def test_not_worse_than_exhaustive_search(self):
        """The greedy solver stops once the tolerance is met; whenever the
        brute-force search finds a feasible support under tau, the solver
        must succeed too."""
        rng = np.random.default_rng(16)
        tau = 0.05
        for _ in range(25):
            g = rng.standard_normal((6, 4))
            b = g @ np.abs(rng.standard_normal(4)) + 0.01 * rng.standard_normal(6)
            best = _best_support_residual(g, b)
            if best <= tau * np.linalg.norm(b) * 0.5:
                xi = sparse_nnls(g, b, tau=tau)
                assert np.linalg.norm(g @ xi - b) <= tau * np.linalg.norm(b)

    def test_infeasible_raises_with_best_residual(self):
        g = np.abs(np.random.default_rng(17).standard_normal((5, 3)))
        b = -np.ones(5)  # unreachable from non-negative combinations
        with pytest.raises(InfeasibleError) as err:
            sparse_nnls(g, b, tau=1e-6)
        assert 0.0 < err.value.best_residual <= np.linalg.norm(b) + 1e-12

    @pytest.mark.parametrize("k", [2, 5, 10, 20])
    def test_ecsw_weights_match_the_oracle_bit_for_bit(self, k):
        rng = np.random.default_rng(300 + k)
        models = [build_string_model(4 * k + 20, 1.0, 10.0, 1.0, 99.0, a2=1e-4),
                  _random_chain(rng, 3 * k + 10, grounded=True, a2=1e-3)]
        for model in models:
            g, b = _ecsw_system(model, k, 60, rng)
            for tau in (0.1, 0.01, 1e-3):
                expected = _nnls_outcome(_reference_nnls, g, b, tau)
                got = _nnls_outcome(sparse_nnls, g, b, tau)
                if isinstance(expected, InfeasibleError):
                    assert isinstance(got, InfeasibleError)
                else:
                    assert np.array_equal(got, expected)

    def test_random_systems_agree_with_the_oracle_up_to_near_ties(self):
        """(a) Wherever the oracle returns, the new weights meet tau.  (b) Both
        give the same weights to 1e-12 (duplicate columns merged) and, but for
        near-ties, the same support: an exact fit that takes in or leaves out a
        weight of ~1e-15, or a pick between duplicate columns."""
        rng = np.random.default_rng(2024)
        returned = differ = 0
        while returned < 1000:
            g, b, tau, plant = _random_nnls_system(rng)
            if not b.any():
                continue
            expected = _nnls_outcome(_reference_nnls, g, b, tau)
            got = _nnls_outcome(sparse_nnls, g, b, tau)
            if isinstance(expected, InfeasibleError):
                if not isinstance(got, InfeasibleError):  # a near-tie resolved the other way
                    assert np.linalg.norm(g @ got - b) <= tau * np.linalg.norm(b)
                continue
            returned += 1
            assert not isinstance(got, InfeasibleError)
            assert np.all(got >= 0.0)
            assert np.linalg.norm(g @ got - b) <= tau * np.linalg.norm(b)
            if np.array_equal(got > 0, expected > 0) and np.allclose(got, expected, rtol=1e-12,
                                                                     atol=0.0):
                continue
            differ += 1
            # a near-tie: an exact fit, or a pick between duplicate columns
            assert plant == 1 or np.linalg.norm(g @ expected - b) <= 1e-12 * np.linalg.norm(b)
            merged = [x.copy() for x in (got, expected)]
            if plant == 1:
                for x in merged:
                    x[0] += x[-1]
                    x[-1] = 0.0
            assert np.abs(merged[0] - merged[1]).max() <= 1e-12 * expected.max()
        print(f"{differ} of {returned} returned weight vectors differ")
        assert differ / returned < 0.1

    def test_dependent_entering_column_keeps_the_oracle_outcome(self, monkeypatch):
        """A column in the span of the support enters only at the optimum, on a
        round-off gradient; each fit is then ``lstsq``'s minimum-norm one, as in
        the oracle, which raises here as the solver does."""
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        entered = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            g = np.abs(rng.standard_normal((8, 5)))
            g[:, 4] = g[:, 0] if seed % 2 else g[:, :2] @ np.array([0.5, 0.5])
            b = g[:, :3] @ rng.uniform(0.5, 1.5, 3) + 1e-3 * rng.standard_normal(8)
            expected = _nnls_outcome(_reference_nnls, g, b, 1e-9)
            calls.clear()
            got = _nnls_outcome(sparse_nnls, g, b, 1e-9)
            assert isinstance(expected, InfeasibleError) and isinstance(got, InfeasibleError)
            assert got.best_residual == pytest.approx(expected.best_residual, rel=1e-10)
            entered += bool(calls)
        assert entered >= 10

    def test_duplicate_columns_carry_the_oracle_weight(self):
        """Duplicate columns tie in the selection, which round-off breaks either
        way; the pair's total weight and every other weight match the oracle."""
        rng = np.random.default_rng(41)
        g = np.abs(rng.standard_normal((12, 6)))
        g[:, 5] = g[:, 1]
        b = g[:, :4] @ np.array([1.0, 0.5, 2.0, 0.7])
        xi, expected = sparse_nnls(g, b, 1e-6), _reference_nnls(g, b, 1e-6)
        assert xi[1] + xi[5] == pytest.approx(expected[1] + expected[5], rel=1e-12)
        assert xi[1] * xi[5] == 0.0 and xi[1] + xi[5] == pytest.approx(0.5, rel=1e-9)
        assert np.allclose(xi[[0, 2, 3, 4]], expected[[0, 2, 3, 4]], rtol=1e-12, atol=0.0)

    def test_one_lstsq_per_well_posed_call(self, monkeypatch):
        rng = np.random.default_rng(42)
        g, b = _ecsw_system(build_string_model(120, 1.0, 10.0, 1.0, 99.0), 10, 100, rng)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        xi = sparse_nnls(g, b, 0.01)
        assert len(calls) == 1
        assert np.count_nonzero(xi) > 10

    def test_factor_weights_return_when_lstsq_flips_a_round_off_weight(self, monkeypatch):
        """At an exact fit a column can keep a weight of ~1e-16 that is positive in
        the factor's solve and negative in ``lstsq``'s.  The factor's weights,
        which admitted the support, are returned: going on from a residual of
        ~1e-16 would find no ascent and raise where the oracle returns."""
        g, b, tau, _ = _random_nnls_system(np.random.default_rng(187))
        fits = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: fits.append(lstsq(*a, **k)[0]) or lstsq(*a, **k))
        xi = sparse_nnls(g, b, tau)
        monkeypatch.undo()
        assert len(fits) == 1 and np.min(fits[0]) < 0.0 < np.min(xi[xi > 0.0])
        assert np.linalg.norm(g @ xi - b) <= tau * np.linalg.norm(b)
        expected = _reference_nnls(g, b, tau)
        assert np.count_nonzero(xi) == np.count_nonzero(expected) + 1
        assert np.abs(xi - expected).max() <= 1e-12 * expected.max()

    def test_argument_validation(self):
        g = np.eye(3)
        with pytest.raises(ValueError):
            sparse_nnls(g, np.zeros(3), tau=0.1)
        with pytest.raises(ValueError):
            sparse_nnls(g, np.ones(3), tau=0.0)
        with pytest.raises(ValueError):
            sparse_nnls(g, np.ones(3), tau=1.0)


class TestRequirePsd:
    def test_nan_eigenvalue_is_rejected(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError, match=r"element 0 .*min eigenvalue nan"):
            require_psd(np.eye(2)[None], "element {}", 1e-10)

    def test_failed_eigensolve_is_a_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError):
            require_psd(np.eye(2), "stiffness", 1e-10)


class TestSpectralRadius:
    def test_companion_matrix_roots(self):
        # companion of (z - 0.5)(z + 0.25)(z - 0.1): radius 0.5, simple
        coeffs = np.poly([0.5, -0.25, 0.1])
        comp = np.zeros((3, 3))
        comp[0, :] = -coeffs[1:]
        comp[1, 0] = comp[2, 1] = 1.0
        out = spectral_radius(comp)
        assert abs(out.radius - 0.5) < 1e-12
        assert not out.repeated_dominant

    def test_defective_unit_root_flagged(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        out = spectral_radius(jordan)
        assert abs(out.radius - 1.0) < 1e-12
        assert out.repeated_dominant

    def test_simple_conjugate_pair_is_not_repeated(self):
        """Two distinct eigenvalues on the radius (here +-i) stay power
        bounded, so they must not be flagged as a repeated root."""
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = spectral_radius(rot)
        assert abs(out.radius - 1.0) < 1e-12
        assert not out.repeated_dominant

    def test_record_fields(self):
        out = SpectralRadius(radius=0.25, repeated_dominant=False)
        assert out.radius == 0.25 and out.repeated_dominant is False


class TestSymmetryHelpers:
    def test_symmetrize_is_exact_average(self):
        a = np.array([[1.0, 2.0], [4.0, 3.0]])
        s = symmetrize(a)
        assert np.array_equal(s, np.array([[1.0, 3.0], [3.0, 3.0]]))

    def test_require_symmetric_rejects_bitwise_mismatch(self):
        a = np.eye(2)
        a[0, 1] = 1e-300  # far below any tolerance, but not bitwise symmetric
        with pytest.raises(ValueError):
            require_symmetric(a, "test matrix")

    def test_require_positive_diagonal(self):
        require_positive_diagonal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            require_positive_diagonal(np.array([1.0, 0.0]))
