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
apply the modal formula.  Reduced models with nonsymmetric operators take
their step from the central-difference one-step matrix: in closed form
per eigenvalue of ``inv(M_r) K_r`` when the reduced damping is Rayleigh
(:func:`_exact_steps`), by bisection on the radius of the matrix that
:func:`~romstab.integrator.integrate` steps with otherwise, and with
``stable`` false when no step is stable (:func:`critical_dt_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyper import SampledModel
from .kernels import _generalized_mu_max, spectral_radius
from .models import FullOrderModel
from .reduction import MASS_ORTHONORMAL, ReducedModel, galerkin_reduce

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

METHODS = ("modal-exact", "element-bound", "ecsw-bound", "amplification-exact",
           "amplification-bisection")
MODEL_KINDS = ("fom", "rom", "hrom")

# Round-off rules of the nonsymmetric reports, relative to the largest eigenvalue
# magnitude: |Im lam| up to IMAG_RTOL counts as real, |lam| up to RIGID_RTOL as
# rigid, and a first-order real part above GROWTH_RTOL grows at every small step.
IMAG_RTOL = 1e-10
RIGID_RTOL = 1e-10
GROWTH_RTOL = 1e-10


@dataclass(frozen=True)
class StabilityReport:
    """Largest squared frequency, damping ratio there, and the critical step.

    ``stable`` is false when no step from ``0+`` is stable; ``dt_crit`` is
    then 0 and ``eigenvalue`` the offending one (of ``inv(M_r) K_r``, or of
    the first-order matrix on the dense path; see :func:`critical_dt_report`).
    """

    mu_max: float
    xi: float
    dt_crit: float
    method: str
    model_kind: str
    stable: bool = True
    eigenvalue: complex | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}"
            )
        if not self.mu_max >= 0.0:
            raise ValueError(f"mu_max must be nonnegative, got {self.mu_max}")
        if not self.xi >= 0.0:
            raise ValueError(f"xi must be nonnegative, got {self.xi}")
        if self.stable and not self.dt_crit > 0.0:
            raise ValueError(f"dt_crit must be positive, got {self.dt_crit}")
        if not self.stable and (self.dt_crit != 0.0 or self.eigenvalue is None):
            raise ValueError("an unstable report has dt_crit 0 and names its eigenvalue")

    def to_dict(self):
        doc = {
            "mu_max": self.mu_max,
            "xi": self.xi,
            "dt_crit": self.dt_crit,
            "method": self.method,
            "model_kind": self.model_kind,
        }
        if not self.stable:
            doc["stable"] = False
            doc["eigenvalue"] = [self.eigenvalue.real, self.eigenvalue.imag]
        return doc


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

    Compares :func:`critical_dt_report` of the full model with that of
    its :func:`~romstab.reduction.galerkin_reduce` onto ``basis``; ``ok``
    tolerates a relative slack of 1e-10.
    """
    if basis.kind != MASS_ORTHONORMAL:
        raise ValueError("dominance check requires a mass-orthonormal basis")
    if basis.m != model.m:
        raise ValueError(f"basis has {basis.m} rows for model order {model.m}")
    dt_fom = critical_dt_report(model).dt_crit
    dt_rom = critical_dt_report(galerkin_reduce(model, basis)).dt_crit
    return DominanceCheck(
        ok=dt_rom >= dt_fom * (1.0 - 1e-10), dt_fom=dt_fom, dt_rom=dt_rom
    )


# ---------------------------------------------------------------------------
# Model dispatch
# ---------------------------------------------------------------------------


def _bisect_critical_dt(radius_at, guess):
    """Largest dt with amplification radius at most 1 (up to 1e-9 slack);
    the dense path of :func:`critical_dt_report`."""

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


def _exact_steps(lam, a1, a2):
    """Right end of each eigenvalue's stable interval from ``0+`` (0 if none).

    ``lam`` holds eigenvalues of ``inv(M_r) K_r`` with Rayleigh damping
    ``c = a1 + a2 lam``; the round-off rules are :data:`IMAG_RTOL` and
    :data:`RIGID_RTOL`.  A rigid ``lam`` allows ``2 / a1`` (unbounded when
    ``a1 = 0``), a real positive one :func:`critical_dt_at_frequency`, a
    real negative one nothing.  For a complex ``lam`` the one-step
    quadratic ``z^2 + b z + c0``, ``b = -(2 - dt c - dt^2 lam)`` and
    ``c0 = 1 - dt c``, has both roots in the closed unit disk iff
    ``|c0| <= 1`` and ``|b - c0 conj(b)| <= 1 - |c0|^2`` (Schur-Cohn;
    E. I. Jury, *Theory and Application of the z-Transform Method*, 1964).
    The first reads ``dt <= 2 Re c / |c|^2``.  Since
    ``b - c0 conj(b) = -2 Re c dt + (|c|^2 + 2i Im lam) dt^2 + P dt^3``
    with ``P = c conj(lam)``, and ``1 - |c0|^2 = 2 Re c dt - |c|^2 dt^2``,
    the second reads, after dividing by ``dt^2``,
    ``|P|^2 dt^2 + (2 |c|^2 Re P + 4 Im lam Im P) dt
    + 4 (Im lam^2 - Re c Re P) <= 0``: an interval from ``0+`` exactly
    when ``Re c > 0`` and the constant term is negative.
    """
    scale = float(np.max(np.abs(lam)))
    real = np.abs(lam.imag) <= IMAG_RTOL * scale
    rigid = real & (np.abs(lam.real) <= RIGID_RTOL * scale)
    rising = real & ~rigid & (lam.real > 0.0)
    steps = np.zeros(lam.shape)
    steps[rigid] = 2.0 / a1 if a1 > 0.0 else math.inf
    steps[rising] = critical_dt_at_frequency(np.sqrt(lam.real[rising]), a1, a2)
    spiral = lam[~real]
    c = a1 + a2 * spiral
    p = c * spiral.conj()
    c2, p2 = c.real**2 + c.imag**2, p.real**2 + p.imag**2
    lin = 2.0 * c2 * p.real + 4.0 * spiral.imag * p.imag
    const = 4.0 * (spiral.imag**2 - c.real * p.real)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(lin * lin - 4.0 * p2 * const)
        root = np.where(lin >= 0.0, -2.0 * const / (lin + disc), (disc - lin) / (2.0 * p2))
        bound = np.minimum(root, 2.0 * c.real / c2)
    opens = (c.real > 0.0) & ((const < 0.0) | ((const == 0.0) & (lin < 0.0)))
    steps[~real] = np.where(opens, bound, 0.0)
    return steps


def _step_spectrum(model):
    """``(lam, dense)`` for a nonsymmetric reduced or sampled model.

    ``lam`` are the eigenvalues of ``inv(M_r) K_r`` (``pinv(P.T V)
    diag(1/m_rows) K_rows`` for a :class:`SampledModel`).  With Rayleigh
    reduced damping the one-step matrix decouples over them and ``dense``
    is None; a sampled model's ``p - k`` further one-step eigenvalues
    equal 1 and limit no step.  Otherwise ``dense`` is ``(nu, radius_at)``:
    the eigenvalues of the first-order matrix ``[[0, I], [-inv(M_r) K_r,
    -inv(M_r) C_r]]`` and the spectral radius of ``model._step_matrices(dt)[0]``,
    the matrix ``integrate`` steps with, as a function of ``dt`` (probes leave
    the cached ``step_operator`` alone).
    """
    if isinstance(model, SampledModel):
        left = model.row_basis_pinv / model.row_mass
        identity = model.row_basis_pinv @ model.row_basis
        decouples = np.max(np.abs(identity - np.eye(model.dim))) <= 1e-10
    else:
        left, decouples = model.mass_inverse, True
    operator = left @ model.stiffness
    if not (np.all(np.isfinite(operator)) and np.all(np.isfinite(model.damping))):
        raise ValueError("reduced operators contain non-finite entries")
    lam = np.linalg.eigvals(operator).astype(complex)
    if decouples and _rayleigh_damped(model):
        return lam, None
    k = model.dim
    first_order = np.block([[np.zeros((k, k)), np.eye(k)], [-operator, -left @ model.damping]])
    return lam, (np.linalg.eigvals(first_order),
                 lambda dt: spectral_radius(model._step_matrices(dt)[0]).radius)


def critical_dt_report(model):
    """Critical-step report for a full-order, reduced or sampled model.

    Full-order models and symmetric reduced models (Galerkin, ECSW) get
    the exact modal treatment (``modal-exact``).  A full model's largest
    eigenvalue is ``model.max_eigenvalue()``: dense ``eigvalsh``, or for a
    tridiagonal ``K`` with ``m >= 512`` the certified upper end of a Sturm
    bracket of relative width 1e-13, so the step is never above the exact one.
    A symmetric reduced model's largest eigenvalue is that of the pencil
    ``(K_r, M_r)``, whatever its mass.
    Nonsymmetric reduced operators (DEIM, GNAT, projected collocation) and the
    naive-collocation :class:`SampledModel` have no modal decomposition;
    ``mu_max`` is then the largest eigenvalue magnitude of ``inv(M_r) K_r``.

    With Rayleigh reduced damping (``max |C_r - a1 M_r - a2 K_r|`` within
    1e-10 of ``max |C_r|``, and for a sampled model also
    ``pinv(P.T V) P.T V = I`` within 1e-10) the step is the smallest of
    the per-eigenvalue steps of :func:`_exact_steps`
    (``amplification-exact``).  Otherwise (DEIM and GNAT with ``a1 > 0``,
    hand-built damping) a first-order eigenvalue with real part above
    :data:`GROWTH_RTOL` of the largest magnitude means no stable step;
    without one, the step comes from bisection on the spectral radius of
    ``step_operator(dt)``'s matrix (``amplification-bisection``).  A report
    with no stable step has ``stable`` false and names the eigenvalue:
    of those with no step the one of least real part, or the first-order
    one of largest real part.  A non-finite operator raises
    :class:`ValueError`.
    """
    if isinstance(model, FullOrderModel):
        return critical_dt_system(model.max_eigenvalue(), model.a1, model.a2, model_kind="fom")
    if not isinstance(model, (ReducedModel, SampledModel)):
        raise TypeError(f"cannot report on {type(model).__name__}")
    kind = "rom" if model.provenance == "galerkin" else "hrom"
    if isinstance(model, ReducedModel) and model.symmetric:
        mu_max = _generalized_mu_max(model.stiffness, model.mass)
        return critical_dt_system(max(mu_max, 0.0), model.a1, model.a2, model_kind=kind)

    lam, dense = _step_spectrum(model)
    mu = float(np.max(np.abs(lam)))
    xi = float(damping_ratio(mu, model.a1, model.a2)) if mu > 0.0 else 0.0
    if dense is None:
        method, steps = "amplification-exact", _exact_steps(lam, model.a1, model.a2)
        dt = float(np.min(steps))
        culprit = lam[np.argmin(np.where(steps == 0.0, lam.real, np.inf))]
    else:
        method, (nu, radius_at) = "amplification-bisection", dense
        if np.any(nu.real > GROWTH_RTOL * np.max(np.abs(nu))):
            dt = 0.0
        else:
            dt = _bisect_critical_dt(radius_at, 2.0 / math.sqrt(mu) if mu > 0.0 else 1.0)
        culprit = nu[np.argmax(nu.real)]
    if dt > 0.0:
        return StabilityReport(mu_max=mu, xi=xi, dt_crit=float(dt), method=method,
                               model_kind=kind)
    return StabilityReport(mu_max=mu, xi=xi, dt_crit=0.0, method=method, model_kind=kind,
                           stable=False, eigenvalue=complex(culprit))
