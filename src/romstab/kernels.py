"""Dense linear-algebra kernels used throughout the package.

Conventions
-----------
Symmetric matrices are stored *exactly* symmetric: ``A[i, j] == A[j, i]``
bitwise.  Builders in this package produce such matrices by construction;
``symmetrize`` is available for input that is symmetric only up to
round-off.  Diagonal matrices (lumped mass) are passed around as 1-D
arrays of the diagonal entries.

Eigen/SVD/QR work is delegated to numpy's LAPACK bindings; the routines
here add the contracts the rest of the package relies on (ordering,
rank checks, error types).  ``sparse_nnls`` is implemented directly
because its termination rule — stop as soon as the residual drops below
a relative tolerance — is part of its contract.  It is a Lawson-Hanson
active set on an updated thin QR factor of the support, so a pass costs
one product with the full matrix plus work on the support alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, NumericalRangeError, RankDeficiencyError

__all__ = [
    "EigenPairs",
    "SpectralRadius",
    "symmetrize",
    "require_symmetric",
    "require_positive_diagonal",
    "require_psd",
    "sym_eig",
    "gen_eig_diag_mass",
    "max_gen_eigenvalue",
    "block_max_gen_eigenvalues",
    "thin_svd",
    "m_orthonormalize",
    "pseudoinverse",
    "sparse_nnls",
    "spectral_radius",
]


def symmetrize(a):
    """Return the exactly symmetric part ``(a + a.T) / 2`` of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def require_symmetric(a, name="matrix"):
    """Validate that ``a`` is a finite, exactly symmetric square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError(
            f"{name} is not exactly symmetric; run symmetrize() on it first"
        )
    return a


def require_positive_diagonal(d, name="diagonal"):
    """Validate a 1-D array of strictly positive, finite diagonal entries."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(d <= 0.0):
        bad = int(np.argmin(d))
        raise ValueError(f"{name} must be strictly positive; entry {bad} is {d[bad]}")
    return d


def require_psd(a, name, rtol):
    """Require ``lambda_min >= -rtol * max |lambda|`` of symmetric ``a``; return the eigenvalues.

    A stack ``(E, n, n)`` is judged matrix by matrix in one ``eigvalsh``;
    a ``{}`` in ``name`` receives the index of the first failure.
    """
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:  # a ValueError, yet no fault of the input
        raise ConvergenceError(f"symmetric eigensolve did not converge: {exc}") from exc
    lowest = eigs[..., 0]
    scale = np.maximum(np.max(np.abs(eigs), axis=-1), 1e-300)
    failed = ~(lowest >= -rtol * scale)  # a NaN fails too
    if np.any(failed):
        i = int(np.argmax(failed))
        raise ValueError(
            f"{name.format(i)} is not positive semi-definite "
            f"(min eigenvalue {lowest.flat[i]:.3e})"
        )
    return eigs


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues (ascending) and matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        vectors = np.asarray(self.vectors, dtype=float)
        if values.ndim != 1 or vectors.ndim != 2:
            raise ValueError("values must be 1-D and vectors 2-D")
        if vectors.shape[1] != values.shape[0]:
            raise ValueError(
                f"{vectors.shape[1]} vector columns for {values.shape[0]} values"
            )
        if np.any(np.diff(values) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)


@dataclass(frozen=True)
class SpectralRadius:
    """Spectral radius plus a flag for a repeated dominant eigenvalue.

    ``repeated_dominant`` is True when at least two eigenvalues of
    magnitude within 1e-8 (relative) of the radius coincide to within
    ``1e-6 * max(radius, 1)``.  The loose cluster tolerance is deliberate:
    a defective pair splits by about sqrt(machine epsilon) under QR
    iteration, so exact comparison would miss exactly the cases the flag
    exists for.
    """

    radius: float
    repeated_dominant: bool


def sym_eig(a):
    """Full eigendecomposition of an exactly symmetric matrix.

    Returns an :class:`EigenPairs` with ascending eigenvalues and
    orthonormal eigenvector columns.  Raises :class:`ConvergenceError` if
    the underlying iteration fails (rare, but part of the contract).
    """
    a = require_symmetric(a, "sym_eig input")
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolve did not converge: {exc}") from exc
    return EigenPairs(values, vectors)


def _pencil(stiffness, mass):
    """``(K, M)`` validated: ``K`` exactly symmetric, ``M`` a positive diagonal of its order."""
    stiffness = require_symmetric(stiffness, "stiffness")
    mass = require_positive_diagonal(mass, "mass")
    if mass.shape[0] != stiffness.shape[0]:
        raise ValueError(
            f"order mismatch: stiffness {stiffness.shape[0]}, mass {mass.shape[0]}"
        )
    return stiffness, mass


def _mass_normalized(stiffness, mass):
    """``(S, e)``, ``2**e S`` the symmetric similarity ``M**-1/2 K M**-1/2`` of
    ``inv(M) K``, for one pencil or a stack.  ``2**e``, a power of four near the
    largest diagonal entry of ``K`` (which bounds ``|K|`` when ``K`` is PSD), keeps
    the product finite near the top of the double range; applied through
    ``M**-1/2`` it is exact, so every bit stays."""
    peak = np.max(np.abs(np.diagonal(stiffness, 0, -2, -1)), axis=-1, initial=0.0)
    half = np.frexp(peak)[1] // 2
    inv_sqrt = np.ldexp(1.0 / np.sqrt(mass), -half[..., None])
    # s_i s_j is exactly s_j s_i (IEEE multiplication commutes),
    # so the elementwise product with an exactly symmetric K is symmetric too.
    return stiffness * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :]), 2 * half


def _scaled_back(values, exponent):
    """``values * 2**exponent``; a non-finite one raises :class:`NumericalRangeError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.ldexp(values, exponent)
    if not np.all(np.isfinite(values)):
        raise NumericalRangeError("eigenvalues of inv(M) K overflow double precision")
    return values


def gen_eig_diag_mass(stiffness, mass):
    """Eigenvalues of ``inv(M) K`` for diagonal positive ``M``, symmetric ``K``.

    Solved through the symmetric similarity ``M**-1/2 K M**-1/2`` so that
    LAPACK's symmetric path (real spectrum, orthonormal vectors) applies.

    Parameters
    ----------
    stiffness : (m, m) exactly symmetric array
    mass : (m,) strictly positive diagonal entries

    Returns
    -------
    EigenPairs
        ``values`` are the eigenvalues of ``inv(M) K`` (ascending).
        ``vectors`` are orthonormal eigenvectors of the *symmetric form*;
        divide rows by ``sqrt(mass)`` to obtain mass-orthonormal
        eigenvectors of ``inv(M) K`` itself.
    An eigenvalue beyond the double range raises :class:`NumericalRangeError`.
    """
    normalized, exponent = _mass_normalized(*_pencil(stiffness, mass))
    pairs = sym_eig(normalized)
    return EigenPairs(_scaled_back(pairs.values, exponent), pairs.vectors)


def max_gen_eigenvalue(stiffness, mass):
    """Largest eigenvalue of ``inv(M) K``, as :func:`gen_eig_diag_mass` but
    without computing eigenvectors."""
    return float(block_max_gen_eigenvalues(*_pencil(stiffness, mass)))


def block_max_gen_eigenvalues(stiffness, mass):
    """Largest eigenvalue of ``inv(M) K`` for each pencil of a stack, ``(..., n, n)``
    and ``(..., n)`` in, ``(...)`` out, unvalidated; scaled by :func:`_mass_normalized`,
    so one beyond the double range raises :class:`NumericalRangeError`."""
    normalized, exponent = _mass_normalized(stiffness, mass)
    try:
        values = np.linalg.eigvalsh(normalized)[..., -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolve did not converge: {exc}") from exc
    return _scaled_back(values, exponent)


def thin_svd(snapshots):
    """Thin SVD ``S = U diag(sigma) W.T`` with singular values descending.

    Returns ``(U, sigma, W)`` where the right singular vectors are the
    *columns* of ``W``.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.ndim != 2:
        raise ValueError(f"expected a 2-D snapshot array, got shape {snapshots.shape}")
    if not np.all(np.isfinite(snapshots)):
        raise ValueError("snapshot array contains non-finite entries")
    try:
        u, sigma, wt = np.linalg.svd(snapshots, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return u, sigma, wt.T


def m_orthonormalize(v, mass):
    """Make the columns of ``v`` orthonormal in the inner product ``<x, M y>``.

    Computes a thin QR of ``M**1/2 V`` and maps the Q factor back with
    ``M**-1/2``.  The span of the returned columns equals the span of the
    input columns (the triangular factor only recombines them).

    Raises :class:`RankDeficiencyError` naming the first column that is
    (numerically) dependent on its predecessors.
    """
    mass = require_positive_diagonal(mass, "mass")
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {v.shape}")
    if v.shape[0] != mass.shape[0]:
        raise ValueError(f"basis has {v.shape[0]} rows for {mass.shape[0]} DoFs")
    if v.shape[1] > v.shape[0]:
        raise ValueError("more basis columns than DoFs")
    if not np.all(np.isfinite(v)):
        raise ValueError("basis contains non-finite entries")
    sq = np.sqrt(mass)
    scaled = sq[:, None] * v
    q, r = np.linalg.qr(scaled)
    col_norms = np.linalg.norm(scaled, axis=0)
    for j in range(v.shape[1]):
        if abs(r[j, j]) <= 1e-12 * col_norms[j] or col_norms[j] == 0.0:
            raise RankDeficiencyError(
                f"basis column {j} is linearly dependent on the previous columns",
                column=j,
            )
    return q / sq[:, None]


def pseudoinverse(a):
    """Moore-Penrose pseudo-inverse, treating singular values below
    ``1e-12 * sigma_max`` as zero."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("input contains non-finite entries")
    return np.linalg.pinv(a, rcond=1e-12)


def sparse_nnls(columns, target, tau):
    """Sparse nonnegative least squares with a relative stopping rule.

    Grows a support greedily (Lawson-Hanson style active set): repeatedly
    add the column whose correlation with the current residual is largest,
    re-fit on the support with sign feasibility maintained, and stop as
    soon as ``norm(G x - b) <= tau * norm(b)``.

    A pass costs one product ``G.T r`` plus work on the support: the fits solve
    ``R z = Q.T b`` with a thin QR factor ``G[:, support] = Q R``, appended to by
    two passes of classical Gram-Schmidt; a drop re-factors ``R[:, kept]`` with
    ``np.linalg.qr``.  The residual is ``b - Q (Q.T b)``.  Once it meets the
    tolerance, one ``np.linalg.lstsq`` on the support (columns in order of entry)
    gives the weights, returned if positive and within tolerance.  Else the
    factor's are, if they are: at an exact fit a weight of ~1e-16 can be positive
    in the factor's solve, which kept its column, and not in ``lstsq``'s.  Failing
    both, the search goes on.  An entering column whose
    part orthogonal to the support is at most ``1e-8`` of the largest entered
    column norm is dependent: until the next drop each fit is then that
    ``lstsq``'s minimum-norm solution, with the residual ``b - G x``.

    Parameters
    ----------
    columns : (r, n) array
        The matrix ``G``; one candidate per column.
    target : (r,) array
        The right-hand side ``b``.  Must be nonzero.
    tau : float
        Relative residual tolerance, strictly between 0 and 1.

    Returns
    -------
    (n,) array of nonnegative coefficients.

    Raises
    ------
    InfeasibleError
        If the tolerance cannot be met even at the nonnegative least
        squares optimum.  Carries the best residual norm achieved.
    """
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
    passive, xp = [], np.zeros(0)  # the support, in order of entry, and its weights
    qt, r, qtb = np.zeros((0, g.shape[0])), np.zeros((0, 0)), np.zeros(0)  # Q.T, R, Q.T b
    factored, col_max = True, 0.0
    residual, best = b.copy(), b_norm
    # Each outer pass adds one support index; n passes reach the
    # unconstrained optimum, the margin covers drop/re-add cycles.
    for _ in range(3 * n + 30):
        res_norm = float(np.linalg.norm(residual))
        best = min(best, res_norm)
        if res_norm <= tau * b_norm:
            for z in (np.linalg.lstsq(g[:, passive], b, rcond=None)[0], xp):
                x = np.zeros(n)
                x[passive] = z
                if np.all(z > 0.0) and np.linalg.norm(b - g @ x) <= tau * b_norm:
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
        xp = np.append(xp, 0.0)
        a = g[:, j].copy()
        col_max = max(col_max, math.sqrt(a @ a))
        if factored:  # CGS2: w = (I - Q Q.T)^2 a
            h = qt @ a
            w = a - h @ qt
            h2 = qt @ w
            w -= h2 @ qt
            nu = math.sqrt(w @ w)
            factored = nu > 1e-8 * col_max
            if factored:
                qt = np.vstack((qt, w / nu))
                r, r_old = np.zeros((len(h) + 1,) * 2), r
                r[:-1, :-1], r[:-1, -1], r[-1, -1] = r_old, h + h2, nu
                qtb = np.append(qtb, qt[-1] @ b)
        # Restore least-squares optimality on the support, dropping
        # variables that a full step would drive negative.
        for _ in range(3 * n + 30):
            z = (np.linalg.solve(r, qtb) if factored
                 else np.linalg.lstsq(g[:, passive], b, rcond=None)[0])
            if np.all(z > 0.0):
                xp = z
                break
            shrink = z <= 0.0
            alpha = float(np.min(xp[shrink] / (xp[shrink] - z[shrink])))
            xp = xp + alpha * (z - xp)
            keep = xp > 1e-14 * max(1.0, float(np.max(np.abs(xp))))
            passive = [idx for idx, k in zip(passive, keep) if k]
            xp = xp[keep]
            if factored:  # G[:, passive] = Q R[:, keep] = (Q q) r
                q, r = np.linalg.qr(r[:, keep])
                qt, qtb = q.T @ qt, q.T @ qtb
            else:
                q, r = np.linalg.qr(g[:, passive])
                qt, qtb = q.T, q.T @ b
                factored = bool(np.all(np.abs(np.diagonal(r)) > 1e-8 * col_max))
            if not passive:
                break
        x = np.zeros(n)
        x[passive] = xp
        residual = b - (qtb @ qt if factored else g @ x)
    raise InfeasibleError(
        f"iteration cap hit before reaching tau={tau:g}: best relative "
        f"residual {best / b_norm:.3e}",
        best_residual=best,
    )


def spectral_radius(a):
    """Spectral radius of a general square matrix.

    Also reports whether the dominant eigenvalue is repeated: any two
    eigenvalues whose magnitudes are within 1e-8 (relative) of the radius
    and which lie within ``1e-6 * max(radius, 1)`` of each other count as
    a repeated dominant root (see :class:`SpectralRadius`).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    eigs = np.linalg.eigvals(a)
    mags = np.abs(eigs)
    radius = float(np.max(mags)) if mags.size else 0.0
    dominant = eigs[mags >= radius * (1.0 - 1e-8)]
    cluster_tol = 1e-6 * max(radius, 1.0)
    repeated = False
    for i in range(len(dominant)):
        for j in range(i + 1, len(dominant)):
            if abs(dominant[i] - dominant[j]) <= cluster_tol:
                repeated = True
                break
        if repeated:
            break
    return SpectralRadius(radius=radius, repeated_dominant=repeated)
