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
rank checks, error types).  Two spectral routines for a tridiagonal ``K``
cost O(m) instead of LAPACK's O(m**3), on the same mass-normalized form:
:func:`tridiagonal_max_bracket` brackets the largest eigenvalue by Sturm
(inertia) counts, whose stated backward-error margin makes the upper end
certified, and :func:`tridiagonal_lowest_modes` takes the lowest modes from
shift-invert Lanczos on one cyclic-reduction factor of ``T - sigma I`` (a solve
is about log2(m) vectorized levels), accepted only with round-off residuals and a
count that proves no mode missed; :func:`tridiagonal_certifies_psd` certifies
semi-definiteness with one such count.  A model uses them from order
``_SPARSE_MIN_M`` up (``FullOrderModel.max_eigenvalue``, ``modes`` and its
PSD check).
``sparse_nnls`` is implemented directly
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
    "tridiagonal_max_bracket",
    "tridiagonal_certifies_psd",
    "tridiagonal_lowest_modes",
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


def _generalized_mu_max(stiffness, mass):
    """Largest eigenvalue of ``inv(Mr) Kr`` for SPD ``Mr`` (both symmetric)."""
    chol = np.linalg.cholesky(symmetrize(mass))
    half = np.linalg.solve(chol, symmetrize(stiffness))
    sym = symmetrize(np.linalg.solve(chol, half.T).T)
    return float(np.linalg.eigvalsh(sym)[-1])


def _mass_scaling(diagonal, mass):
    """``(s, e)``, ``s = 2**(-e/2) M**-1/2``, so that ``2**e s_i K_ij s_j`` is the
    symmetric similarity ``M**-1/2 K M**-1/2`` of ``inv(M) K``, for one pencil or a
    stack.  ``2**e``, a power of four near the largest diagonal entry of ``K`` (which
    bounds ``|K|`` when ``K`` is PSD), keeps the product finite near the top of the
    double range; applied through ``M**-1/2`` it is exact, so every bit stays."""
    peak = np.max(np.abs(diagonal), axis=-1, initial=0.0)
    half = np.frexp(peak)[1] // 2
    return np.ldexp(1.0 / np.sqrt(mass), -half[..., None]), 2 * half


def _mass_normalized(stiffness, mass):
    """``(S, e)``, ``2**e S`` the symmetric similarity ``M**-1/2 K M**-1/2`` of
    ``inv(M) K`` (:func:`_mass_scaling`), for one pencil or a stack."""
    inv_sqrt, exponent = _mass_scaling(np.diagonal(stiffness, 0, -2, -1), mass)
    # s_i s_j is exactly s_j s_i (IEEE multiplication commutes),
    # so the elementwise product with an exactly symmetric K is symmetric too.
    return stiffness * (inv_sqrt[..., :, None] * inv_sqrt[..., None, :]), exponent


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


_SPARSE_MIN_M = 512  # models from this order up use the O(m) tridiagonal routines
_LANCZOS_STEPS = 32  # steps of the Lanczos run that places the first Sturm counts
_SHIFTS = 64  # shifts per multisection pass
_RESIDUAL_TOL = 2.0**-46  # largest accepted mode residual, relative to the bound on |T|
_BRACKET_RTOL = 1e-13  # relative width to which the multisection narrows the bracket
_SIGN_RTOL = 2.0**-20  # relative: entries this close to a mode's largest magnitude tie


def _tridiagonal_form(diag, off, mass):
    """``(a, b, e, bound)``: ``2**e T``, ``T`` the symmetric tridiagonal of diagonal ``a``
    and off-diagonal ``b``, is ``M**-1/2 K M**-1/2`` for the ``K`` of diagonal ``diag``
    and off-diagonal ``off``, and ``bound = max|a| + 2 max|b|`` bounds ``|T|``.  The
    entries are those of :func:`_mass_normalized`, and one more exact power of two
    brings the largest into ``[0.5, 1)``, so ``b**2`` stays finite.  ``T = 0`` stays 0;
    an overflowed entry leaves ``bound`` non-finite."""
    diag, off = np.asarray(diag, dtype=float), np.asarray(off, dtype=float)
    s, exponent = _mass_scaling(diag, mass)
    a, b = diag * (s * s), off * (s[:-1] * s[1:])
    top = np.frexp(max(np.max(np.abs(a)), np.max(np.abs(b), initial=0.0)))[1]
    a, b = np.ldexp(a, -top), np.ldexp(b, -top)
    return a, b, exponent + top, float(np.max(np.abs(a)) + 2.0 * np.max(np.abs(b), initial=0.0))


def _tridiagonal_times(a, b, v):
    """``T v`` for each row ``v`` of ``v``."""
    y = a * v
    y[..., :-1] += b * v[..., 1:]
    y[..., 1:] += b * v[..., :-1]
    return y


def _sturm_counts(a, b2, shifts):
    """For each shift ``x``, the negative pivots of ``LDL^T`` of ``T - x I``: by Sylvester's
    law of inertia the eigenvalues below ``x``.  The pivots ``q_i = (a_i - x) - b_{i-1}**2 /
    q_{i-1}`` run for all shifts at once; a zero ``b_{i-1}`` leaves ``q_i = a_i - x``.  The
    computed count is the exact count of a ``T`` whose off-diagonal moved by at most five
    roundings of ``b**2`` (J. W. Demmel, *Applied Numerical Linear Algebra*, 1997, §5.3.4);
    :func:`_count_margin` bounds how far that moves an eigenvalue.  IEEE infinities carry a
    zero pivot through: the next is ``-inf``, and the one after ``a - x`` again."""
    pivots = a[:, None] - shifts
    quotient = np.empty(len(shifts))
    previous = pivots[0]
    with np.errstate(divide="ignore", over="ignore"):
        for row, beta2 in zip(pivots[1:], b2.tolist()):
            if beta2:
                np.subtract(row, np.divide(beta2, previous, out=quotient), out=row)
            previous = row
    return np.count_nonzero(pivots < 0.0, axis=0)


def _sturm_count(a, b2, x):
    """:func:`_sturm_counts` for the one shift ``x``, as a loop over Python floats: the same
    pivots bit for bit, a zero one giving ``-/+inf`` as IEEE division by ``+/-0`` would."""
    pivot = a[0] - x
    count = pivot < 0.0
    for a_i, beta2 in zip(a[1:], b2):
        if not beta2:
            pivot = a_i - x
        elif pivot:
            pivot = (a_i - x) - beta2 / pivot
        else:
            pivot = (a_i - x) - math.copysign(math.inf, pivot)
        count += pivot < 0.0
    return int(count)


def _count_margin(b):
    """How far an eigenvalue of the ``T`` that :func:`_sturm_counts` counts exactly may lie
    from that of ``T``: five roundings of each ``b_i**2`` move ``b_i`` by at most 2.5 ulps,
    so the 2-norm by at most ``5 u max|b|``; ``2**-50 max|b|`` is ``8 u max|b|``, and
    ``2**-500`` covers the underflow of ``b_i**2`` and of the quotients (``|T| < 3``)."""
    return 2.0**-50 * float(np.max(np.abs(b), initial=0.0)) + 2.0**-500


def _lanczos(apply, start, steps):
    """Orthonormal rows spanning the Krylov space of ``apply`` from ``start``: ``steps`` of
    them, fewer if the space closes.  Each new vector is reorthogonalized fully, twice
    against every row before it."""
    q = np.empty((steps, start.size))
    q[0] = start / np.linalg.norm(start)
    for j in range(1, steps):
        w = apply(q[j - 1])
        norm = np.linalg.norm(w)
        for _ in range(2):
            w -= (q[:j] @ w) @ q[:j]
        beta = np.linalg.norm(w)
        if not beta > 2.0**-40 * norm:
            return q[:j]
        q[j] = w / beta
    return q


def _ritz(a, b, q):
    """Rayleigh-Ritz of ``T`` on the rows of ``q``: ascending Ritz values, the Ritz
    vectors as rows, and each one's residual norm ``|T y - theta y|``."""
    tq = _tridiagonal_times(a, b, q)
    theta, s = np.linalg.eigh(symmetrize(q @ tq.T))
    y, ty = s.T @ q, s.T @ tq
    return theta, y, np.linalg.norm(ty - theta[:, None] * y, axis=1)


def _start(m):
    """The fixed start vector of the Lanczos runs."""
    return np.random.default_rng(0).standard_normal(m)


def tridiagonal_max_bracket(diag, off, mass):
    """``(lower, upper)`` around the largest eigenvalue of ``inv(M) K`` for a tridiagonal
    ``K`` (diagonal ``diag``, off-diagonal ``off``) in O(m) work, or None when its
    mass-normalized form is not finite (the dense path then decides).

    Every end is certified by a Sturm count of :func:`_sturm_counts` on the form of
    :func:`_tridiagonal_form`, widened by :func:`_count_margin` and rounded outward: a
    count of ``m`` below ``x`` puts the eigenvalue below ``x`` plus the margin, a smaller
    count at or above ``x`` minus it.  A short Lanczos run only chooses where the first
    counts go: at its top Ritz value ``theta`` plus and minus offsets spaced
    geometrically from its residual (at least ``2**-48`` of the bound on ``|T|``) down
    to ``2**-52`` of it, and at twice that bound on either side.  Vectorized
    multisection (``_SHIFTS`` counts a pass) then narrows the bracket until
    ``upper - lower <= _BRACKET_RTOL * upper`` up to the margins, or until no double lies
    between its counted ends.  An end beyond the double range raises
    :class:`NumericalRangeError`.
    """
    a, b, exponent, bound = _tridiagonal_form(diag, off, mass)
    if not np.isfinite(bound):
        return None
    if bound == 0.0:
        return 0.0, 0.0
    m = a.size
    b2, margin = b * b, _count_margin(b)
    q = _lanczos(lambda v: _tridiagonal_times(a, b, v), _start(m), min(m, _LANCZOS_STEPS))
    theta, _, residual = _ritz(a, b, q)
    offsets = np.geomspace(max(float(residual[-1]), 2.0**-48 * bound), 2.0**-52 * bound,
                           _SHIFTS // 2 - 1)
    shifts = np.concatenate(([-2.0 * bound], theta[-1] - offsets, theta[-1] + offsets,
                             [2.0 * bound]))
    lo, hi = -np.inf, np.inf
    for _ in range(200):
        counts = _sturm_counts(a, b2, shifts)
        hi = min(hi, np.min(shifts[counts == m], initial=np.inf))
        lo = max(lo, np.max(shifts[counts < m], initial=-np.inf))
        if not (lo < hi and np.isfinite(hi)) or hi - lo <= _BRACKET_RTOL * abs(hi) \
                or np.nextafter(lo, hi) >= hi:
            break
        shifts = np.linspace(lo, hi, _SHIFTS + 2)[1:-1]
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return None
    ends = np.array([lo - margin, hi + margin])
    inward = np.abs(ends - (lo, hi)) < margin  # rounded toward the bracket: one ulp out
    ends = np.where(inward, np.nextafter(ends, (-np.inf, np.inf)), ends)
    lower, upper = _scaled_back(ends, exponent)
    return float(lower), float(upper)


def tridiagonal_certifies_psd(diag, off, rtol):
    """Whether one Sturm count certifies :func:`require_psd`'s test for the symmetric
    tridiagonal of diagonal ``diag`` and off-diagonal ``off``, in O(m) work: no eigenvalue
    below ``-rtol max|diag|``, which is at most ``rtol max|lambda|``.  The count runs on the
    exactly scaled form of :func:`_tridiagonal_form` (unit mass) at that shift plus
    :func:`_count_margin`.  False means undecided (an eigenvalue near or below the shift,
    or an entry beyond the double range): the dense test then decides."""
    a, b, _, bound = _tridiagonal_form(diag, off, np.ones(len(diag)))
    if not np.isfinite(bound):
        return False
    shift = -rtol * float(np.max(np.abs(a))) + _count_margin(b)
    return _sturm_count(a.tolist(), (b * b).tolist(), shift) == 0


def _cyclic_factor(diag, off):
    """Odd-even cyclic reduction of the tridiagonal of diagonal ``diag`` and off-diagonal
    ``off``: Gaussian elimination on its red-black ordering (Buzbee, Golub and Nielson,
    SIAM J. Numer. Anal. 7, 1970), as one ``(inverse, left, right)`` per level.  A level
    eliminates its even unknowns (0, 2, ...), whose pivots are its even diagonal
    entries, onto the odd ones, whose Schur complement is again tridiagonal and is the
    next level, until none is left.  ``left[j]`` and ``right[j]`` couple odd unknown ``j`` to the even
    unknowns ``j`` and ``j + 1``, scaled by their inverse pivots.  None unless every
    pivot is positive (positive definite); then no pivoting is needed and the
    elimination is backward stable."""
    levels = []
    d, e = diag, off
    while d.size:
        pivots, odd = d[0::2], d.size // 2
        if not np.all(pivots > 0.0):
            return None
        inverse = 1.0 / pivots
        left, right = e[0::2] * inverse[:odd], e[1::2] * inverse[1:]
        schur = d[1::2] - left * e[0::2]
        schur[:right.size] -= right * e[1::2]
        levels.append((inverse, left, right))
        # neighbouring odd unknowns couple through the even one between them
        d, e = schur, -(e[2::2] * right[:max(odd - 1, 0)])
    return levels


def _cyclic_solve(levels, r):
    """``x`` with ``T x = r`` for the factor of :func:`_cyclic_factor`: the right-hand
    side reduced level by level onto the odd unknowns, then the even unknowns of each
    level recovered from the odd ones, a few slice operations a level."""
    sides = []
    for _, left, right in levels:
        sides.append(r)
        reduced = r[1::2] - left * r[0::2][:left.size]
        reduced[:right.size] -= right * r[2::2]
        r = reduced
    x = r
    for (inverse, left, right), r in zip(reversed(levels), reversed(sides)):
        even = r[0::2] * inverse
        even[:left.size] -= left * x
        even[1:right.size + 1] -= right * x[:right.size]
        full = np.empty(r.size)
        full[0::2], full[1::2] = even, x
        x = full
    return x


def tridiagonal_lowest_modes(diag, off, mass, count):
    """The ``count`` lowest eigenpairs of ``inv(M) K`` for a tridiagonal ``K`` (diagonal
    ``diag``, off-diagonal ``off``), as :func:`gen_eig_diag_mass` would give them, in
    O(m count**2) work; None when they are not certified (the dense path then decides).

    Shift-invert Lanczos with full reorthogonalization runs ``2 count + 22`` steps on
    one cyclic-reduction factor of ``T - sigma I`` (:func:`_cyclic_factor`), ``T`` the
    form of :func:`_tridiagonal_form` and ``sigma < 0``: minus 1/64 of the least of the
    shifts ``2**(1-j)`` times the bound on ``|T|`` with more than ``count`` eigenvalues
    below, so a rigid (ungrounded) chain factors and the wanted modes stay well apart
    after inversion.  A Rayleigh-Ritz step with ``T`` ends it.  The result is accepted
    only when three things hold.  Every wanted residual is within ``_RESIDUAL_TOL`` of
    the bound.  The wanted Ritz values and the next lie more than ``2**20`` times
    ``reach`` apart, ``reach`` the Frobenius norm of the wanted residuals (by Kahan's
    theorem each of those Ritz values lies that close to its own eigenvalue) plus
    :func:`_count_margin`: so each mode is simple and its vector within an angle of
    about ``2**-20`` (a repeated eigenvalue has no unique mode, and dense ``eigh`` keeps
    choosing one).  And a Sturm count halfway between the last wanted and the next Ritz
    value finds exactly ``count`` eigenvalues below it: so no mode is missed.  Each
    vector's first entry within ``_SIGN_RTOL`` of its largest magnitude is positive: a
    mirror-symmetric model's mirrored entries are equal but for round-off (1e-13 to 1e-10
    relative on strings), so the sign does not hang on which of them round-off makes larger.
    """
    a, b, exponent, bound = _tridiagonal_form(diag, off, mass)
    if not (np.isfinite(bound) and bound > 0.0 and 0 < count < a.size):
        return None
    m, b2 = a.size, b * b
    shifts = 2.0 * bound * 2.0 ** -np.arange(64.0)
    sigma = -np.min(shifts[_sturm_counts(a, b2, shifts) > count]) / 64.0
    factor = _cyclic_factor(a - sigma, b)
    if factor is None:
        return None
    q = _lanczos(lambda v: _cyclic_solve(factor, v), _start(m), min(m, 2 * count + 22))
    theta, y, residual = _ritz(a, b, q)
    if len(theta) <= count or not np.max(residual[:count]) <= _RESIDUAL_TOL * bound:
        return None
    split = 0.5 * (theta[count - 1] + theta[count])
    reach = float(np.sqrt(np.sum(residual[:count] ** 2))) + _count_margin(b)
    if not (np.min(np.diff(theta[:count + 1])) > 2.0**20 * reach
            and _sturm_count(a.tolist(), b2.tolist(), float(split)) == count):
        return None
    vectors = y[:count].T
    magnitudes = np.abs(vectors)
    lead = np.argmax(magnitudes >= (1.0 - _SIGN_RTOL) * np.max(magnitudes, axis=0), axis=0)
    vectors *= np.sign(vectors[lead, np.arange(count)])
    return EigenPairs(_scaled_back(theta[:count], exponent), vectors)


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
