"""Tests for the cyclic-reduction factor and solve of the shift-invert Lanczos.

Oracles: the scalar ``LDL^T`` recurrences (``ldl_oracle``) and dense
``np.linalg.solve``/``eigvalsh``.  Both solves are backward stable, so each
residual is at round-off relative to ``|T| |x| + |r|``, and the two agree to
within the condition number of ``T`` times round-off; an upper bound on that
condition number comes from Sturm counts, apart from either solve.  The
sign rule of the modes makes the two solves give a symmetric string the same
signs.
"""

import numpy as np
import pytest

from ldl_oracle import ldl, ldl_solve
from romstab import build_string_model, kernels
from romstab.kernels import _cyclic_factor, _cyclic_solve, _sturm_counts, _tridiagonal_form
from romstab.verify import _random_chain

EPS = np.finfo(float).eps
SIZES = [1, 2, 3, 7, 8, 9, 511, 512, 513, 1000, 1023, 1024, 20000]
CASES = [(family, m) for family in ("string", "chain", "rigid-shifted", "not-dominant")
         for m in SIZES if m > 1 or family == "not-dominant"]  # a chain has two nodes


def _stiffness(model):
    """``(diag, off)`` of a chain model's stiffness."""
    if model._tridiagonal is not None:
        return model._tridiagonal
    return np.diag(model.stiffness).copy(), np.diag(model.stiffness, 1).copy()


def _normalized(model):
    """The mass-normalized form ``T`` that the spectral routines factor."""
    a, b, _, _ = _tridiagonal_form(*_stiffness(model), model.mass)
    return a, b


def _shifted(model, monkeypatch):
    """``T - sigma I`` with the ``sigma`` that ``tridiagonal_lowest_modes`` picks: the
    matrix it passes to ``_cyclic_factor``, caught on the way."""
    caught = []

    def spy(diag, off):
        caught.append((diag, off))
        return _cyclic_factor(diag, off)

    monkeypatch.setattr(kernels, "_cyclic_factor", spy)
    kernels.tridiagonal_lowest_modes(*_stiffness(model), model.mass, min(10, model.m - 1))
    return caught[0]


def _matrix(family, m, monkeypatch):
    rng = np.random.default_rng(m)
    if family == "not-dominant":  # positive definite, yet 2 |off| > diag where diag is 1
        return np.where(np.arange(m) % 2 == 0, 1.0, 100.0), np.full(m - 1, 5.0)
    if family == "string":
        return _normalized(build_string_model(m, 1.0, 10.0, 1.0, 99.0))
    if family == "chain":
        return _normalized(_random_chain(rng, m, grounded=True))
    return _shifted(_random_chain(rng, m, grounded=False), monkeypatch)  # rigid, shifted


def _times(d, e, x):
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


def _norm(d, e):
    """A bound on ``|T|``."""
    return float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))


def _condition_bound(d, e):
    """``|T| / lower``, ``lower`` the largest ``|T| 2**-j`` with no eigenvalue below it
    by a Sturm count (its margin is far below the factor 2 of the grid)."""
    grid = _norm(d, e) * 2.0 ** -np.arange(1.0, 100.0)
    return _norm(d, e) / np.max(grid[_sturm_counts(d, e * e, grid) == 0])


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize("family, m", CASES)
def test_solve_against_recurrences_and_dense(monkeypatch, family, m):
    d, e = _matrix(family, m, monkeypatch)
    factor = _cyclic_factor(d, e)
    assert factor is not None
    r = np.random.default_rng(1).standard_normal((2, m))
    tol = 64.0 * EPS * _condition_bound(d, e)
    oracle = ldl(d, e)
    for rhs in r:
        kept = rhs.copy()
        x = _cyclic_solve(factor, rhs)
        assert np.array_equal(rhs, kept)
        residual = np.linalg.norm(_times(d, e, x) - rhs)
        assert residual <= 4.0 * EPS * (_norm(d, e) * np.linalg.norm(x) + np.linalg.norm(rhs))
        want = ldl_solve(oracle, rhs)
        assert np.max(np.abs(x - want)) <= tol * np.max(np.abs(want))
        if m <= 1024:
            dense = np.linalg.solve(_dense(d, e), rhs)
            assert np.max(np.abs(x - dense)) <= tol * np.max(np.abs(dense))


def test_level_count_is_logarithmic():
    for m in SIZES:
        assert len(_cyclic_factor(np.full(m, 4.0), np.ones(m - 1))) == m.bit_length()


SINGULAR = [  # exactly singular, and dense eigvalsh finds an eigenvalue <= 0
    ([0.0], []),
    ([1.0, 1.0], [1.0]),
    ([4.0, 1.0], [2.0]),
    ([1.0, 0.0, 1.0], [0.0, 0.0]),
    ([2.0, 1.0, 2.0], [1.0, 1.0]),
]


@pytest.mark.parametrize("d, e", SINGULAR)
def test_singular_has_no_factor(d, e):
    d, e = np.array(d), np.array(e)
    assert np.linalg.eigvalsh(_dense(d, e))[0] <= 0.0
    assert _cyclic_factor(d, e) is None
    assert ldl(d, e) is None


def test_factor_exactly_when_positive_definite():
    """Small random tridiagonals, definite and indefinite: a factor exactly when dense
    ``eigvalsh`` finds no eigenvalue <= 0.  Draws whose least eigenvalue lies within
    round-off of 0 are left out, as neither side decides them."""
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(2000):
        m = int(rng.integers(1, 10))
        d, e = rng.uniform(-1.0, 3.0, m), rng.uniform(-1.5, 1.5, m - 1)
        least = np.linalg.eigvalsh(_dense(d, e))[0]
        if abs(least) <= 1e-9 * _norm(d, e):
            continue
        definite = bool(least > 0.0)
        assert (_cyclic_factor(d, e) is not None) == definite
        seen.add(definite)
    assert seen == {True, False}


@pytest.mark.parametrize("m, count", [(512, 64), (600, 30), (1000, 20)])
def test_mirror_symmetric_string_signs_do_not_hang_on_the_solve(monkeypatch, m, count):
    # the mirrored entries of each mode are equal but for round-off, so the two
    # solves' vectors differ in which of them is larger; both give one sign
    model = build_string_model(m, 1.0, 10.0, 1.0, 99.0)
    diag, off = _stiffness(model)
    cyclic = kernels.tridiagonal_lowest_modes(diag, off, model.mass, count).vectors
    monkeypatch.setattr(kernels, "_cyclic_factor", ldl)
    monkeypatch.setattr(kernels, "_cyclic_solve", ldl_solve)
    recurrences = kernels.tridiagonal_lowest_modes(diag, off, model.mass, count).vectors
    assert np.max(np.abs(cyclic - recurrences)) <= 1e-9
    antisymmetric = np.max(np.abs(cyclic + cyclic[::-1]), axis=0) <= 1e-9
    assert np.count_nonzero(antisymmetric) == count // 2
