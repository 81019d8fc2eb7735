"""Critical time steps for damped second-order systems.

For a Rayleigh-damped mode with squared frequency ``mu`` and damping
ratio ``xi`` the largest stable explicit step is

    dt_crit = 2 / (sqrt(mu) * (sqrt(xi^2 + 1) + xi))

(the familiar ``2 / sqrt(mu)`` when undamped).  The implementation works
with the sum form above — no subtractive cancellation for heavy damping —
and :func:`critical_dt_at_frequency` additionally folds the frequency
into the damping expression so that tiny and huge frequencies neither
overflow nor lose the limits.

Model-level reports take the largest eigenvalue of ``inv(M) K``
(directly, from element bounds, or from weighted-element bounds) and
apply the modal formula; reduced models with nonsymmetric operators fall
back to bisection on the spectral radius of their one-step matrix.

That radius is decoupled whenever the reduced damping is Rayleigh,
``C_r = a1 M_r + a2 K_r`` (projected collocation always, DEIM and GNAT
when ``a1 = 0``, naive collocation whenever ``pinv(P.T V) P.T V = I``).
The characteristic polynomial of the one-step matrix then factors over
the eigenvalues ``lam`` of ``inv(M_r) K_r`` into the quadratics
``z^2 - (2 - dt^2 lam - dt c) z + (1 - dt c)``, ``c = a1 + a2 lam``, so
one ``k x k`` eigensolve serves every bisection step.  Any other reduced
damping keeps ``eigvals`` of the dense one-step matrix at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyper import SampledModel, sampled_step_matrix
from .integrator import amplification_matrix
from .kernels import max_gen_eigenvalue, spectral_radius, symmetrize
from .models import FullOrderModel
from .reduction import MASS_ORTHONORMAL, ReducedModel

__all__ = [
    "StabilityReport",
    "InterlacingCheck",
    "DominanceCheck",
    "damping_ratio",
    "critical_dt_modal",
    "critical_dt_at_frequency",
    "critical_dt_system",
    "critical_dt_report",
    "element_dt_bound",
    "check_interlacing",
    "verify_rom_dt_dominance",
]

METHODS = ("modal-exact", "element-bound", "ecsw-bound", "amplification-bisection")
MODEL_KINDS = ("fom", "rom", "hrom")


@dataclass(frozen=True)
class StabilityReport:
    """Largest squared frequency, damping ratio there, and the critical step."""

    mu_max: float
    xi: float
    dt_crit: float
    method: str
    model_kind: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}"
            )
        if self.mu_max < 0.0:
            raise ValueError(f"mu_max must be nonnegative, got {self.mu_max}")
        if self.xi < 0.0:
            raise ValueError(f"xi must be nonnegative, got {self.xi}")
        if not self.dt_crit > 0.0:
            raise ValueError(f"dt_crit must be positive, got {self.dt_crit}")

    def to_dict(self):
        return {
            "mu_max": self.mu_max,
            "xi": self.xi,
            "dt_crit": self.dt_crit,
            "method": self.method,
            "model_kind": self.model_kind,
        }


def damping_ratio(mu, a1, a2):
    """Rayleigh damping ratio ``a1 / (2 sqrt(mu)) + a2 sqrt(mu) / 2``."""
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if a1 < 0.0 or a2 < 0.0:
        raise ValueError(f"coefficients must be nonnegative, got a1={a1}, a2={a2}")
    root = math.sqrt(mu)
    return a1 / (2.0 * root) + a2 * root / 2.0


def critical_dt_modal(mu, xi):
    """Critical step of one mode with squared frequency ``mu``, ratio ``xi``."""
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not (math.isfinite(xi) and xi >= 0.0):
        raise ValueError(f"xi must be finite and nonnegative, got {xi}")
    return 2.0 / (math.sqrt(mu) * (math.hypot(1.0, xi) + xi))


def critical_dt_at_frequency(x, a1, a2):
    """Critical step as a function of the undamped frequency ``x = sqrt(mu)``.

    Evaluates ``2 / (q + sqrt(q^2 + x^2))`` with ``q = a1/2 + a2 x^2 / 2``,
    which is the modal formula with the frequency multiplied through.
    The map is monotone decreasing in ``x``; its limits are ``2 / a1``
    for ``x -> 0`` (when ``a1 > 0``) and ``0`` for ``x -> inf``.

    Accepts scalars or arrays (elementwise).
    """
    if a1 < 0.0 or a2 < 0.0:
        raise ValueError(f"coefficients must be nonnegative, got a1={a1}, a2={a2}")
    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("frequency must be strictly positive")
    q = 0.5 * a1 + 0.5 * a2 * arr * arr
    out = 2.0 / (q + np.hypot(q, arr))
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def _modal_report(mu_max, a1, a2, method, model_kind):
    """Report for the largest squared frequency ``mu_max`` (nonnegative)."""
    if mu_max == 0.0:
        # All modes have zero frequency: only mass-proportional damping
        # limits the step.
        dt = 2.0 / a1 if a1 > 0.0 else math.inf
        return StabilityReport(
            mu_max=0.0, xi=0.0, dt_crit=dt, method=method, model_kind=model_kind
        )
    return StabilityReport(
        mu_max=float(mu_max),
        xi=damping_ratio(mu_max, a1, a2),
        dt_crit=critical_dt_at_frequency(math.sqrt(mu_max), a1, a2),
        method=method,
        model_kind=model_kind,
    )


def critical_dt_system(mu_max, a1, a2, model_kind="fom"):
    """Report for a system whose largest squared frequency is ``mu_max``."""
    if mu_max < 0.0:
        raise ValueError(f"mu_max must be nonnegative, got {mu_max}")
    return _modal_report(mu_max, a1, a2, "modal-exact", model_kind)


def element_dt_bound(elements, a1, a2, weights=None):
    """Conservative critical step from element-level eigenvalue bounds.

    The largest system eigenvalue never exceeds the largest element
    eigenvalue of ``inv(Me) Ke``; with ECSW weights each element
    eigenvalue scales by its weight (zero-weight elements drop out of the
    weighted mesh and impose no constraint).  The resulting step is at
    most the exact critical step.  ``elements`` is an
    :class:`~romstab.models.ElementSet`.
    """
    if elements is None:
        raise ValueError("need at least one element block")
    if weights is None:
        xi = np.ones(len(elements))
        method, kind = "element-bound", "fom"
    else:
        xi = np.asarray(getattr(weights, "xi", weights), dtype=float)
        if xi.shape[0] != len(elements):
            raise ValueError(f"{xi.shape[0]} weights for {len(elements)} elements")
        if np.any(xi < 0.0):
            raise ValueError("weights must be nonnegative")
        method, kind = "ecsw-bound", "hrom"
    keep = xi != 0.0
    mu_bound = np.max(xi[keep] * elements.max_eigenvalues()[keep], initial=0.0)
    return _modal_report(float(mu_bound), a1, a2, method, kind)


@dataclass(frozen=True)
class InterlacingCheck:
    ok: bool
    worst_violation: float
    tolerance: float


def check_interlacing(full_values, reduced_values):
    """Check ``full[i] <= reduced[i] <= full[m - k + i]`` up to round-off.

    Both spectra must come in ascending order.  ``worst_violation`` is
    the largest signed exceedance over all reduced eigenvalues (negative
    when every inequality holds strictly); ``ok`` allows violations up to
    ``1e-8 * max |eigenvalue|``.
    """
    full = np.asarray(full_values, dtype=float)
    red = np.asarray(reduced_values, dtype=float)
    if full.ndim != 1 or red.ndim != 1:
        raise ValueError("eigenvalue lists must be 1-D")
    if np.any(np.diff(full) < 0.0) or np.any(np.diff(red) < 0.0):
        raise ValueError("eigenvalue lists must be sorted ascending")
    m, k = full.shape[0], red.shape[0]
    if k > m:
        raise ValueError(f"reduced spectrum ({k}) longer than full spectrum ({m})")
    if k == 0:
        raise ValueError("reduced spectrum is empty")
    scale_pool = np.concatenate([np.abs(full), np.abs(red)])
    tol = 1e-8 * float(np.max(scale_pool))
    worst = -math.inf
    for i in range(k):
        worst = max(worst, full[i] - red[i], red[i] - full[m - k + i])
    return InterlacingCheck(ok=worst <= tol, worst_violation=float(worst), tolerance=tol)


@dataclass(frozen=True)
class DominanceCheck:
    ok: bool
    dt_fom: float
    dt_rom: float


def verify_rom_dt_dominance(model, basis):
    """A mass-orthonormal Galerkin reduction never shrinks the stable step.

    Compares the critical step of the full model with that of the
    projected one (same Rayleigh coefficients); ``ok`` tolerates a
    relative slack of 1e-10.
    """
    if basis.kind != MASS_ORTHONORMAL:
        raise ValueError("dominance check requires a mass-orthonormal basis")
    if basis.m != model.m:
        raise ValueError(f"basis has {basis.m} rows for model order {model.m}")
    mu_fom = max_gen_eigenvalue(model.stiffness, model.mass)
    v = basis.matrix
    reduced = symmetrize(v.T @ (model.stiffness @ v))
    mu_rom = float(np.linalg.eigvalsh(reduced)[-1])
    dt_fom = critical_dt_system(mu_fom, model.a1, model.a2).dt_crit
    dt_rom = critical_dt_system(max(mu_rom, 0.0), model.a1, model.a2).dt_crit
    return DominanceCheck(
        ok=dt_rom >= dt_fom * (1.0 - 1e-10), dt_fom=dt_fom, dt_rom=dt_rom
    )


# ---------------------------------------------------------------------------
# Model dispatch
# ---------------------------------------------------------------------------


def _generalized_mu_max(stiffness, mass):
    """Largest eigenvalue of ``inv(Mr) Kr`` for SPD ``Mr`` (both symmetric)."""
    chol = np.linalg.cholesky(symmetrize(mass))
    half = np.linalg.solve(chol, symmetrize(stiffness))
    sym = symmetrize(np.linalg.solve(chol, half.T).T)
    return float(np.linalg.eigvalsh(sym)[-1])


def _bisect_critical_dt(radius_at, guess):
    """Largest dt with amplification radius at most 1 (up to 1e-9 slack)."""

    def unstable(dt):
        return radius_at(dt) > 1.0 + 1e-9

    hi = guess
    lo = 0.0
    for _ in range(80):
        if unstable(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        return math.inf
    for _ in range(100):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        if unstable(mid):
            hi = mid
        else:
            lo = mid
    return lo


def _rayleigh_damped(model):
    """Whether ``damping == a1 * mass + a2 * stiffness`` (within 1e-10)."""
    rayleigh = model.a1 * model.mass + model.a2 * model.stiffness
    scale = float(np.max(np.abs(model.damping)))
    return bool(np.max(np.abs(model.damping - rayleigh)) <= 1e-10 * scale)


def _decoupled_radius(lam, a1, a2, floor):
    """Spectral radius of the one-step matrix from the eigenvalues ``lam``
    of ``inv(M_r) K_r``, for Rayleigh damping ``c = a1 + a2 lam``.

    The roots of ``z^2 - (2 - dt q) z + (1 - dt c)``, ``q = dt lam + c``,
    are ``1 - dt (q -+ sqrt(q^2 - 4 lam)) / 2``; the discriminant in that
    form has no ``b^2 - 4 c`` cancellation at small ``dt``.  ``floor``
    bounds the radius below (eigenvalues of the one-step matrix that do
    not come from ``lam``).
    """
    lam = np.asarray(lam, dtype=complex)
    c = a1 + a2 * lam

    def radius_at(dt):
        q = dt * lam + c
        half = 0.5 * dt * np.sqrt(q * q - 4.0 * lam)
        mid = 1.0 - 0.5 * dt * q
        top = np.maximum(np.abs(mid + half), np.abs(mid - half))
        return max(floor, float(np.max(top)))

    return radius_at


def _step_radius(model):
    """``(radius_at, mu_guess, decoupled)`` for a nonsymmetric reduced or
    sampled model.

    ``radius_at(dt)`` is the spectral radius of the model's one-step
    matrix; ``mu_guess`` the dominant eigenvalue magnitude of
    ``inv(M_r) K_r`` (``pinv(P.T V) diag(1/m_rows) K_rows`` for a
    :class:`SampledModel`); ``decoupled`` tells whether ``radius_at``
    works from the eigenvalues of that operator (Rayleigh damping) or
    from the dense one-step matrix.  A sampled model with ``p > k`` rows
    has ``p - k`` extra one-step eigenvalues equal to 1, so its
    decoupled radius is at least 1.
    """
    if isinstance(model, SampledModel):
        operator = model.row_basis_pinv @ (model.stiffness / model.row_mass[:, None])
        k = model.dim
        identity = model.row_basis_pinv @ model.row_basis
        can_decouple = np.max(np.abs(identity - np.eye(k))) <= 1e-10
        floor = 1.0 if model.row_basis.shape[0] > k else 0.0

        def dense_radius(dt):
            return spectral_radius(sampled_step_matrix(model, dt)).radius

    else:
        if model.mass_is_identity:
            operator = model.stiffness
        else:
            operator = np.linalg.solve(model.mass, model.stiffness)
        can_decouple = True
        floor = 0.0

        def dense_radius(dt):
            return spectral_radius(
                amplification_matrix(model.mass, model.damping, model.stiffness, dt)
            ).radius

    if not (np.all(np.isfinite(operator)) and np.all(np.isfinite(model.damping))):
        raise ValueError("reduced operators contain non-finite entries")
    lam = np.linalg.eigvals(operator)
    mu_guess = float(np.max(np.abs(lam)))
    if can_decouple and _rayleigh_damped(model):
        return _decoupled_radius(lam, model.a1, model.a2, floor), mu_guess, True
    return dense_radius, mu_guess, False


def critical_dt_report(model):
    """Critical-step report for a full-order, reduced or sampled model.

    Full-order models and symmetric reduced models (Galerkin, ECSW) get
    the exact modal treatment.  Nonsymmetric reduced operators (DEIM,
    GNAT, projected collocation) have no modal decomposition; their
    report comes from bisection on the spectral radius of the one-step
    transfer matrix and is tagged ``amplification-bisection``, as is the
    report for a naive-collocation :class:`SampledModel`, whose one-step
    matrix is :func:`sampled_step_matrix`.

    With Rayleigh reduced damping (``max |C_r - a1 M_r - a2 K_r|`` within
    1e-10 of ``max |C_r|``, and for a sampled model also
    ``pinv(P.T V) P.T V = I`` within 1e-10) each radius comes from the
    eigenvalues of ``inv(M_r) K_r``, computed once; otherwise (DEIM and
    GNAT with ``a1 > 0``, hand-built damping) from ``eigvals`` of the
    dense one-step matrix.  Both give the same radius; the bisection is
    the same.  A non-finite operator raises :class:`ValueError`.
    """
    if isinstance(model, FullOrderModel):
        mu_max = max_gen_eigenvalue(model.stiffness, model.mass)
        return critical_dt_system(mu_max, model.a1, model.a2, model_kind="fom")
    if not isinstance(model, (ReducedModel, SampledModel)):
        raise TypeError(f"cannot report on {type(model).__name__}")
    kind = "rom" if model.provenance == "galerkin" else "hrom"
    if isinstance(model, ReducedModel) and model.symmetric:
        if model.mass_is_identity:
            mu_max = float(np.linalg.eigvalsh(symmetrize(model.stiffness))[-1])
        else:
            mu_max = _generalized_mu_max(model.stiffness, model.mass)
        return critical_dt_system(
            max(mu_max, 0.0), model.a1, model.a2, model_kind=kind
        )

    radius_at, mu_guess, _ = _step_radius(model)
    guess = 2.0 / math.sqrt(mu_guess) if mu_guess > 0.0 else 1.0
    dt = _bisect_critical_dt(radius_at, guess)
    xi = damping_ratio(mu_guess, model.a1, model.a2) if mu_guess > 0.0 else 0.0
    return StabilityReport(
        mu_max=float(mu_guess),
        xi=float(xi),
        dt_crit=float(dt),
        method="amplification-bisection",
        model_kind=kind,
    )
