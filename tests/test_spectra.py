"""Tests for the O(m) spectra of tridiagonal models and the model entry points.

Oracles: a 30-digit mpmath Sturm bisection of the same floating-point
mass-normalized matrix, and dense LAPACK (``eigvalsh``/``eigh``) within its
normwise error bound ``m * eps * |T|``.
"""

import mpmath
import numpy as np
import pytest

from romstab import build_string_model, critical_dt_report, modal_basis
from romstab.cli import run
from romstab.errors import NumericalRangeError
from romstab.kernels import (
    _SPARSE_MIN_M,
    _mass_normalized,
    _sturm_count,
    _sturm_counts,
    gen_eig_diag_mass,
    max_gen_eigenvalue,
    tridiagonal_lowest_modes,
    tridiagonal_max_bracket,
)
from romstab.models import ElementSet, FullOrderModel, assemble
from romstab.reduction import galerkin_reduce
from romstab.stability import critical_dt_system, verify_rom_dt_dominance
from romstab.verify import PROPERTY_NAMES, _random_chain, run_property

EPS = np.finfo(float).eps


def _tridiagonal(model):
    return np.diag(model.stiffness).copy(), np.diag(model.stiffness, 1).copy()


def _exact_top(model, dps=30):
    """``(lo, hi)``, mpmath numbers ``2**-70`` apart (relative) around the largest
    eigenvalue of the floating-point ``M**-1/2 K M**-1/2`` the dense path forms,
    by bisection on exact-enough Sturm counts."""
    normalized, exponent = _mass_normalized(model.stiffness, model.mass)
    m = model.m
    with mpmath.workdps(dps):
        a = [mpmath.ldexp(mpmath.mpf(float(normalized[i, i])), int(exponent))
             for i in range(m)]
        b2 = [mpmath.ldexp(mpmath.mpf(float(normalized[i, i + 1])), int(exponent)) ** 2
              for i in range(m - 1)]

        def below(x):
            q = a[0] - x
            count = int(q < 0)
            for i in range(1, m):
                q = (a[i] - x) - b2[i - 1] / q
                count += q < 0
            return count

        guess = mpmath.mpf(float(np.linalg.eigvalsh(normalized)[-1])) * 2 ** int(exponent)
        lo, hi = guess * (1 - mpmath.mpf(2) ** -40), guess * (1 + mpmath.mpf(2) ** -40)
        assert below(lo) < m and below(hi) == m
        for _ in range(70):
            mid = (lo + hi) / 2
            if below(mid) == m:
                hi = mid
            else:
                lo = mid
        return lo, hi


def _family(name, m):
    if name == "string":
        return build_string_model(m, 1.0, 10.0, 1.0, 99.0)
    return _random_chain(np.random.default_rng(m), m, grounded=name == "grounded")


def _twin_chain(half):
    """Two identical grounded chains of ``half`` nodes with no spring between
    them: every eigenvalue is double, and ``K`` has a zero off-diagonal."""
    one = _random_chain(np.random.default_rng(5), half, grounded=True).elements
    elements = ElementSet(np.concatenate((one.dofs, one.dofs + half)),
                          np.concatenate((one.stiffness, one.stiffness)),
                          np.concatenate((one.mass, one.mass)))
    mass, stiffness = assemble(elements, 2 * half)
    return FullOrderModel(m=2 * half, mass=mass, stiffness=stiffness, elements=elements)


def _one_shift_cases():
    """``(a, b2, x)`` triples: random tridiagonals and shifts, exact zero pivots (also
    one after another and at the first row), zero couplings (also right after a zero
    pivot) and signed zeros in ``a - x``."""
    rng = np.random.default_rng(19)
    cases = []
    for m in (1, 2, 3, 10, 1000):
        for _ in range(10):
            a, b = rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, m - 1)
            cases.append((a, b * b, float(rng.uniform(-2.0, 2.0))))
    # q_0 = 1, q_1 = 1 - 1/1 = 0, q_2 = -inf, q_3 = 1 - 1/-inf = 1, q_4 = 0, ...
    ones = np.ones(30)
    cases += [(ones, ones[:-1], 0.0), (ones, ones[:-1], -0.0)]
    cases.append((np.array([0.5, 2.0, 3.0]), np.array([1.0, 1.0]), 0.5))  # q_0 = 0
    cases.append((np.array([-0.0, 1.0, 2.0]), np.array([4.0, 1.0]), 0.0))  # q_0 = -0.0
    couplings = ones[:-1].copy()
    couplings[[1, 5, 6, 20]] = 0.0
    cases += [(ones, couplings, 0.0), (ones, couplings, 1.0)]
    signed = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 0.0])
    for b2 in (np.ones(6), np.array([1.0, 0.0, 1.0, 0.0, 2.0, 1.0])):
        cases += [(signed, b2, 0.0), (signed, b2, -0.0), (-signed, b2, 0.0)]
    return cases


@pytest.mark.parametrize("a, b2, x", _one_shift_cases())
def test_one_shift_count_equals_the_numpy_pass(a, b2, x):
    with np.errstate(divide="ignore", over="ignore"):
        expected = _sturm_counts(a, b2, np.array([x]))[0]
    assert _sturm_count(a.tolist(), b2.tolist(), x) == expected


class TestMaxBracket:
    # chains whose bracket, without the count margin, misses the exact largest
    # eigenvalue: above it for the first four seeds, below it for the rest
    MARGIN_SEEDS = [8, 12, 17, 37, 41, 100, 111, 117]

    @pytest.mark.parametrize("rtol", [0.0, 1e-13])
    @pytest.mark.parametrize("seed", MARGIN_SEEDS)
    def test_contains_the_exact_eigenvalue(self, monkeypatch, seed, rtol):
        # rtol 0 narrows to adjacent doubles, so only the margin keeps the eigenvalue in
        monkeypatch.setattr("romstab.kernels._BRACKET_RTOL", rtol)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(20, 80))
        model = _random_chain(rng, m, grounded=bool(seed % 2))
        lower, upper = tridiagonal_max_bracket(*_tridiagonal(model), model.mass)
        lo, hi = _exact_top(model)
        assert lower <= lo and hi <= upper
        assert upper - lower <= max(rtol, 16 * EPS) * upper

    @pytest.mark.parametrize("m", [512, 1000, 2000])
    @pytest.mark.parametrize("family", ["string", "grounded", "ungrounded"])
    def test_against_dense_eigvalsh(self, family, m):
        model = _family(family, m)
        assert model._tridiagonal is not None
        lower, upper = tridiagonal_max_bracket(*model._tridiagonal, model.mass)
        dense = max_gen_eigenvalue(model.stiffness, model.mass)
        bound = m * EPS * dense
        assert lower - bound <= dense <= upper + bound
        assert upper - lower <= 1e-13 * upper
        assert model.max_eigenvalue() == upper
        report = critical_dt_report(model)
        exact = critical_dt_system(dense, model.a1, model.a2).dt_crit
        assert report.method == "modal-exact" and report.mu_max == upper
        assert abs(report.dt_crit - exact) <= 1e-12 * exact

    def test_near_degenerate_top_pair(self):
        # both stiff ends carry a mode each, equal to round-off: one bracket holds both
        model = build_string_model(1000, 1.0, 10.0, 1.0, 99.0)
        top = gen_eig_diag_mass(model.stiffness, model.mass).values[-2:]
        lower, upper = tridiagonal_max_bracket(*model._tridiagonal, model.mass)
        bound = model.m * EPS * top[-1]
        assert top[-1] - top[-2] <= 1e-13 * top[-1]
        assert lower - bound <= top[-2] <= top[-1] <= upper + bound

    @pytest.mark.parametrize("beta", [1.0, 7.5, 99.0])
    def test_string_top_in_closed_form(self, beta):
        # the oracle of the verify property: the modes localized at the stiff ends
        model = build_string_model(_SPARSE_MIN_M, 3.0, 0.7, 1.0, beta)
        dense = max_gen_eigenvalue(model.stiffness, model.mass)
        closed = 0.7 / 3.0 * (2.0 + 2.0 * np.hypot(beta, 1.0))
        assert abs(dense - closed) <= model.m * EPS * dense
        lower, upper = tridiagonal_max_bracket(*model._tridiagonal, model.mass)
        assert lower <= closed * (1 + 8 * EPS) and closed * (1 - 8 * EPS) <= upper

    def test_zero_coupling_keeps_the_bracket(self):
        model = _twin_chain(_SPARSE_MIN_M // 2)
        assert np.count_nonzero(_tridiagonal(model)[1] == 0.0) == 1
        lower, upper = tridiagonal_max_bracket(*model._tridiagonal, model.mass)
        dense = max_gen_eigenvalue(model.stiffness, model.mass)
        bound = model.m * EPS * dense
        assert lower - bound <= dense <= upper + bound

    def test_zero_stiffness(self):
        assert tridiagonal_max_bracket(np.zeros(4), np.zeros(3), np.ones(4)) == (0.0, 0.0)

    def test_overflow_is_a_numerical_range_error(self, tmp_path, capsys):
        model = build_string_model(_SPARSE_MIN_M, 1.0, 1e306, 1.0, 99.0)
        assert model._tridiagonal is not None
        with pytest.raises(NumericalRangeError):
            model.max_eigenvalue()
        path = str(tmp_path / "big.json")
        assert run(["build", "string", "--m", str(_SPARSE_MIN_M), "--M", "1",
                    "--K", "1e306", "-o", path]) == 6
        assert "overflow" in capsys.readouterr().err


class TestThreshold:
    def test_threshold_is_a_power_of_two_above_the_readme_size(self):
        assert _SPARSE_MIN_M > 100 and _SPARSE_MIN_M & (_SPARSE_MIN_M - 1) == 0

    def test_below_the_threshold_is_dense_bit_for_bit(self):
        model = build_string_model(_SPARSE_MIN_M - 1, 1.0, 10.0, 1.0, 99.0)
        assert model._tridiagonal is None
        pairs = gen_eig_diag_mass(model.stiffness, model.mass)
        assert model.max_eigenvalue() == max_gen_eigenvalue(model.stiffness, model.mass)
        basis = modal_basis(model, range(5))
        assert np.array_equal(basis.matrix, pairs.vectors[:, :5] / np.sqrt(model.mass)[:, None])

    def test_non_tridiagonal_pattern_is_dense(self):
        chain = _random_chain(np.random.default_rng(3), _SPARSE_MIN_M, grounded=True)
        stiffness = chain.stiffness.copy()
        stiffness[0, 2] = stiffness[2, 0] = -1e-3
        stiffness[0, 0] += 1e-3
        stiffness[2, 2] += 1e-3
        model = FullOrderModel(m=chain.m, mass=chain.mass, stiffness=stiffness)
        assert model._tridiagonal is None
        assert model.max_eigenvalue() == max_gen_eigenvalue(stiffness, model.mass)


class TestLowestModes:
    @staticmethod
    def _no_dense(monkeypatch):
        def fail(*args):
            raise AssertionError("dense eigh was called")

        monkeypatch.setattr("romstab.models.gen_eig_diag_mass", fail)

    @pytest.mark.parametrize("m, k", [(512, 20), (512, 64), (1000, 20)])
    @pytest.mark.parametrize("family", ["string", "grounded", "ungrounded"])
    def test_against_dense_eigh(self, monkeypatch, family, m, k):
        model = _family(family, m)
        dense = gen_eig_diag_mass(model.stiffness, model.mass)
        with monkeypatch.context() as patch:
            self._no_dense(patch)
            pairs = model.modes(list(range(k)))
            basis = modal_basis(model, range(k))
        values, top = dense.values, dense.values[-1]
        bound = m * EPS * top
        v, mass = basis.matrix, model.mass
        assert np.max(np.abs(pairs.values - values[:k])) <= bound
        # residual of K v = lambda M v, relative to the largest eigenvalue
        residual = model.stiffness @ v - (mass[:, None] * v) * pairs.values
        assert np.max(np.linalg.norm(residual / np.sqrt(mass)[:, None], axis=0)) <= 64 * EPS * top
        assert np.max(np.abs(v.T @ (mass[:, None] * v) - np.eye(k))) <= 1e-13
        # largest principal angle with the dense modes: sin <= residuals over the next gap
        gap = values[k] - values[k - 1]
        phi = pairs.vectors
        sine = np.linalg.norm(phi - dense.vectors[:, :k] @ (dense.vectors[:, :k].T @ phi), 2)
        if gap > 1e-6 * top:
            assert sine <= 2 * bound / gap
        # deterministic sign: each mode's first entry within 2**-20 of its largest
        # magnitude is positive
        near_top = np.abs(phi) >= (1.0 - 2.0**-20) * np.max(np.abs(phi), axis=0)
        assert np.all(phi[np.argmax(near_top, axis=0), np.arange(k)] > 0.0)

    def test_selected_modes(self, monkeypatch):
        model = _family("grounded", 600)
        dense = gen_eig_diag_mass(model.stiffness, model.mass)
        self._no_dense(monkeypatch)
        pairs = model.modes([3, 7, 40])
        assert np.allclose(pairs.values, dense.values[[3, 7, 40]], rtol=0.0,
                           atol=600 * EPS * dense.values[-1])
        overlap = np.abs(np.sum(pairs.vectors * dense.vectors[:, [3, 7, 40]], axis=0))
        assert np.all(overlap > 1.0 - 1e-10)

    def test_repeated_eigenvalues_fall_back_to_dense(self):
        # a double eigenvalue has no unique mode: Ritz values closer than their
        # error bounds are refused, and dense eigh keeps choosing the vectors
        model = _twin_chain(_SPARSE_MIN_M // 2)
        assert model._tridiagonal is not None
        assert tridiagonal_lowest_modes(*model._tridiagonal, model.mass, 10) is None
        pairs = gen_eig_diag_mass(model.stiffness, model.mass)
        basis = modal_basis(model, range(10))
        assert np.array_equal(basis.matrix,
                              pairs.vectors[:, :10] / np.sqrt(model.mass)[:, None])

    def test_a_missed_mode_is_refused(self, monkeypatch):
        # two uncoupled chains, the softer one second: from a start vector that is
        # zero on it, the Krylov space never reaches its modes, and every Ritz pair
        # found is accurate and simple; only the Sturm count sees the modes missed
        half = _SPARSE_MIN_M // 2
        stiff = _random_chain(np.random.default_rng(1), half, grounded=True).elements
        soft = _random_chain(np.random.default_rng(2), half, grounded=True).elements
        elements = ElementSet(np.concatenate((stiff.dofs, soft.dofs + half)),
                              np.concatenate((stiff.stiffness, 0.5 * soft.stiffness)),
                              np.concatenate((stiff.mass, soft.mass)))
        mass, stiffness = assemble(elements, 2 * half)
        model = FullOrderModel(m=2 * half, mass=mass, stiffness=stiffness, elements=elements)
        start = np.random.default_rng(0).standard_normal(model.m)
        start[half:] = 0.0
        monkeypatch.setattr("romstab.kernels._start", lambda m: start)
        assert tridiagonal_lowest_modes(*model._tridiagonal, model.mass, 10) is None
        pairs = gen_eig_diag_mass(model.stiffness, model.mass)
        basis = modal_basis(model, range(10))
        assert np.array_equal(basis.matrix,
                              pairs.vectors[:, :10] / np.sqrt(model.mass)[:, None])

    def test_modes_beyond_the_window_are_dense(self):
        model = _family("string", _SPARSE_MIN_M)
        pairs = gen_eig_diag_mass(model.stiffness, model.mass)
        for modes in ([0, min(64, model.m // 4)], [300]):
            basis = modal_basis(model, modes)
            assert np.array_equal(basis.matrix,
                                  pairs.vectors[:, modes] / np.sqrt(model.mass)[:, None])

    def test_dominance_check_reads_the_model(self):
        model = _family("string", 1000)
        basis = modal_basis(model, range(10))
        check = verify_rom_dt_dominance(model, basis)
        assert check.ok and check.dt_fom == critical_dt_report(model).dt_crit
        assert critical_dt_report(galerkin_reduce(model, basis)).dt_crit >= check.dt_fom


class TestVerifyProperty:
    def test_spectral_bracket_holds(self):
        result = run_property("spectral-bracket", seed=3, trials=4)
        assert result.passed and result.trials == 4
        assert result.worst <= 16 * EPS

    def test_seeded_after_every_earlier_property(self):
        assert PROPERTY_NAMES[-2:] == ("exact-step-boundary", "spectral-bracket")

    def test_a_step_above_the_exact_one_fails(self, monkeypatch):
        monkeypatch.setattr("romstab.verify.critical_dt_report",
                            lambda model: critical_dt_system(0.999 * model.max_eigenvalue(),
                                                             model.a1, model.a2))
        result = run_property("spectral-bracket", seed=3, trials=2)
        assert result.failures == 2 and result.worst > 1e-4


def test_cli_build_and_timestep_at_m_4000_run_no_dense_eigensolve(tmp_path, monkeypatch):
    # the O(m) path end to end: a dense eigensolve of the full model fails the run
    m = 4000
    for name in ("eigh", "eigvalsh"):
        def guarded(a, *args, _name=name, _dense=getattr(np.linalg, name), **kwargs):
            if np.shape(a)[-1] >= m:
                raise AssertionError(f"dense {_name} of order {np.shape(a)[-1]}")
            return _dense(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, guarded)
    path = str(tmp_path / "m4000.json")
    assert run(["build", "string", "--m", str(m), "--M", "1", "--K", "10", "-o", path]) == 0
    assert run(["timestep", path, "--json"]) == 0
