"""Randomized property suites backing the ``romstab verify`` command.

Each property draws its instances from a seeded generator, so a given
``(seed, trials)`` pair is exactly reproducible.  A property reports the
number of failing trials plus a scalar "worst" margin — the property's own
violation measure, where anything at or below zero (or below the stated
tolerance) is comfortable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficiencyError
from .hyper import (
    SampleSet,
    collocate_naive,
    collocate_projected,
    deim_points,
    deim_reduce,
    ecsw_reduce,
    ecsw_weighted_operator,
    gnat_reduce,
    hrom_step,
)
from .integrator import IntegratorState, cd_step
from .kernels import (
    _SPARSE_MIN_M,
    gen_eig_diag_mass,
    m_orthonormalize,
    max_gen_eigenvalue,
    spectral_radius,
    symmetrize,
)
from .models import ElementSet, FullOrderModel, assemble, build_string_model
from .reduction import ReducedBasis, ReducedModel, galerkin_reduce, modal_basis
from .stability import (
    check_interlacing,
    critical_dt_at_frequency,
    critical_dt_modal,
    critical_dt_report,
    critical_dt_system,
    element_dt_bound,
    verify_rom_dt_dominance,
)

__all__ = [
    "PropertyResult",
    "PROPERTY_NAMES",
    "run_property",
    "run_suite",
    "frozen_deim_instance",
]


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one randomized property over ``trials`` instances."""

    name: str
    trials: int
    failures: int
    worst: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "failures": self.failures,
            "worst": self.worst,
            "passed": self.passed,
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------


def _random_spd_pencil(rng, m, damped=True):
    """Random diagonal mass, dense PSD stiffness, optional proportional damping."""
    mass = rng.uniform(0.5, 3.0, m)
    a = rng.standard_normal((m, m + 2))
    stiffness = symmetrize(a @ a.T)
    a1 = float(rng.uniform(0.0, 2.0)) if damped else 0.0
    a2 = float(rng.uniform(0.0, 2.0)) if damped else 0.0
    return FullOrderModel(m=m, mass=mass, stiffness=stiffness, a1=a1, a2=a2)


def _random_chain(rng, m, grounded=True, a1=0.0, a2=0.0):
    """Random spring chain with per-element masses; optionally grounded at node 0."""
    ke, me = np.empty((m - 1, 2, 2)), np.empty((m - 1, 2))
    for e in range(m - 1):  # per-element draws, in the order instances were frozen
        ke[e] = float(rng.uniform(0.5, 4.0)) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if grounded and e == 0:
            ke[e, 0, 0] += float(rng.uniform(1.0, 5.0))
        me[e] = rng.uniform(0.3, 2.0, 2)
    elements = ElementSet(np.column_stack((np.arange(m - 1), np.arange(1, m))), ke, me)
    mass, stiffness = assemble(elements, m)
    return FullOrderModel(
        m=m, mass=mass, stiffness=stiffness, a1=a1, a2=a2, elements=elements
    )


def _random_mass_basis(rng, model, k):
    return m_orthonormalize(rng.standard_normal((model.m, k)), model.mass)


def frozen_deim_instance(seed=51, m=6, n_modes=2):
    """The pinned random instance used to witness interpolation asymmetry.

    Returns ``(model, hrom, relative_asymmetry)`` where the relative asymmetry
    of the reduced stiffness is expected to be O(1) — far above any rounding
    floor — demonstrating that oblique interpolation does not preserve
    operator symmetry even on a symmetric full-order problem.
    """
    rng = np.random.default_rng(seed)
    model = _random_chain(rng, m, grounded=True)
    basis = modal_basis(model, list(range(n_modes)))
    snapshots = rng.standard_normal((m, 2 * n_modes))
    forces = model.operator.rows_times(model.operator.stiffness, snapshots)
    u, _, _ = np.linalg.svd(forces, full_matrices=False)
    force_basis = u[:, :n_modes]
    points = deim_points(force_basis)
    hrom = deim_reduce(model, basis, force_basis, points)
    kr = hrom.stiffness
    asym = float(np.linalg.norm(kr - kr.T) / np.linalg.norm(kr))
    return model, hrom, asym


# ---------------------------------------------------------------------------
# individual properties
# ---------------------------------------------------------------------------


def _prop_projection_symmetry(rng, trials):
    """V^T K V is symmetric to rounding for any basis and symmetric K."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 30))
        k = int(rng.integers(1, m))
        model = _random_spd_pencil(rng, m)
        v = rng.standard_normal((m, k))
        b = v.T @ model.stiffness @ v
        denom = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
        rel = float(np.linalg.norm(b - b.T)) / denom
        worst = max(worst, rel)
        if rel > 1e-12:
            failures += 1
    return failures, worst, "max rel asymmetry of V^T K V (tol 1e-12)"


def _prop_projection_psd(rng, trials):
    """V^T K V stays positive semidefinite when K is."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 30))
        k = int(rng.integers(1, m))
        model = _random_spd_pencil(rng, m)
        v = rng.standard_normal((m, k))
        b = symmetrize(v.T @ model.stiffness @ v)
        lam_min = float(np.linalg.eigvalsh(b)[0])
        scale = float(np.linalg.norm(model.stiffness, 2))
        margin = -lam_min / scale
        worst = max(worst, margin)
        if lam_min < -1e-8 * scale:
            failures += 1
    return failures, worst, "max(-lambda_min / ||K||) over projections (tol 1e-8)"


def _prop_rayleigh_structure(rng, trials):
    """Galerkin reduction of proportional damping is again proportional."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 30))
        k = int(rng.integers(1, min(m, 10)))
        model = _random_spd_pencil(rng, m)
        rom = galerkin_reduce(model, ReducedBasis(_random_mass_basis(rng, model, k),
                                                  "mass-orthonormal", mass=model.mass))
        expected = model.a1 * rom.mass + model.a2 * rom.stiffness
        scale = max(float(np.abs(expected).max()), 1.0)
        dev = float(np.abs(rom.damping - expected).max()) / scale
        worst = max(worst, dev)
        if dev > 1e-10:
            failures += 1
    return failures, worst, "max rel deviation of Cr from a1*Mr + a2*Kr (tol 1e-10)"


def _prop_interlacing(rng, trials):
    """Reduced eigenvalues interlace the full spectrum."""
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 40))
        k = int(rng.integers(1, m + 1))
        model = _random_spd_pencil(rng, m)
        full = gen_eig_diag_mass(model.stiffness, model.mass).values
        rom = galerkin_reduce(model, ReducedBasis(_random_mass_basis(rng, model, k),
                                                  "mass-orthonormal", mass=model.mass))
        reduced = np.linalg.eigvalsh(symmetrize(rom.stiffness))
        check = check_interlacing(full, reduced)
        worst = max(worst, check.worst_violation)
        if not check.ok:
            failures += 1
    return failures, worst, "worst absolute interlacing violation (tol 1e-8 * |lambda|_max)"


def _prop_dt_dominance(rng, trials):
    """A reduction never shrinks the stable step of a proportionally damped model."""
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 61))
        k = int(rng.integers(1, m + 1))
        model = _random_spd_pencil(rng, m, damped=True)
        basis = ReducedBasis(_random_mass_basis(rng, model, k),
                             "mass-orthonormal", mass=model.mass)
        check = verify_rom_dt_dominance(model, basis)
        margin = (check.dt_fom - check.dt_rom) / check.dt_fom
        worst = max(worst, margin)
        if not check.ok:
            failures += 1
    return failures, worst, "max (dt_fom - dt_rom) / dt_fom (must be <= 1e-10)"


def _prop_frequency_map(rng, trials):
    """The frequency -> critical-step map decreases and has the right zero limit."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        a1 = float(rng.uniform(0.05, 2.0))
        a2 = float(rng.uniform(0.0, 2.0))
        xs = np.sort(np.concatenate([
            np.logspace(-6, 6, 200),
            rng.uniform(1e-3, 1e3, 200),
        ]))
        g = critical_dt_at_frequency(xs, a1, a2)
        bad = False
        increase = float(np.max(np.diff(g) / g[:-1]))
        if increase > 1e-13:
            bad = True
        worst = max(worst, increase)
        limit_dev = abs(critical_dt_at_frequency(1e-8, a1, a2) - 2.0 / a1) * a1 / 2.0
        worst = max(worst, limit_dev)
        if limit_dev > 1e-6:
            bad = True
        if bad:
            failures += 1
    return failures, worst, "max of monotonicity slack and rel deviation from 2/a1 limit"


def _prop_ecsw_bound(rng, trials):
    """Weighted-assembly spectra obey the weighted element bound."""
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 20))
        model = _random_chain(rng, m, grounded=True)
        xi = np.where(rng.random(m - 1) < 0.4, 0.0, rng.uniform(0.0, 3.0, m - 1))
        operator = ecsw_weighted_operator(model, xi)
        mu_tilde = float(np.linalg.eigvalsh(symmetrize(operator))[-1])
        bound = float(np.max(xi * model.elements.max_eigenvalues()))
        margin = mu_tilde - bound * (1.0 + 1e-10) - 1e-12
        worst = max(worst, margin)
        if margin > 0.0:
            failures += 1
    return failures, worst, "max (mu_tilde - max_e xi_e * mu_e), must be <= 0"


def _prop_sampled_mass_psd(rng, trials):
    """Sampled-projection mass blocks stay symmetric positive semidefinite."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(5, 20))
        model = _random_chain(rng, m, grounded=True)
        k = int(rng.integers(1, 4))
        p = int(rng.integers(k, m + 1))
        rows = tuple(sorted(rng.choice(m, size=p, replace=False).tolist()))
        basis = ReducedBasis(_random_mass_basis(rng, model, k),
                             "mass-orthonormal", mass=model.mass)
        hrom = collocate_projected(model, basis, SampleSet.from_model(model, rows))
        mr = hrom.mass
        scale = max(float(np.abs(mr).max()), np.finfo(float).tiny)
        asym = float(np.abs(mr - mr.T).max()) / scale
        lam_min = float(np.linalg.eigvalsh(symmetrize(mr))[0]) / scale
        worst = max(worst, asym, -lam_min)
        if asym > 1e-12 or lam_min < -1e-8:
            failures += 1
    return failures, worst, "max of mass asymmetry and -lambda_min/scale (tols 1e-12, 1e-8)"


def _prop_stability_boundary(rng, trials):
    """At the predicted critical step the one-step radius of a 1-DoF model sits on 1."""
    worst = 0.0
    failures = 0
    basis = ReducedBasis(np.ones((1, 1)), "plain-orthonormal")
    for _ in range(trials):
        mu = float(10.0 ** rng.uniform(-2.0, 4.0))
        xi = float(rng.uniform(0.0, 3.0))
        dt = critical_dt_modal(mu, xi)
        rom = ReducedModel(mass=np.eye(1), damping=[[2.0 * xi * np.sqrt(mu)]],
                           stiffness=[[mu]], provenance="galerkin", symmetric=True,
                           basis=basis)
        radius_at = spectral_radius(rom._step_matrices(dt)[0]).radius
        radius_above = spectral_radius(rom._step_matrices(1.001 * dt)[0]).radius
        dev = abs(radius_at - 1.0)
        worst = max(worst, dev)
        if dev > 1e-7 or radius_above <= 1.0:
            failures += 1
    return failures, worst, "max |rho(A(dt_crit)) - 1| (tol 1e-7); rho must exceed 1 at 1.001 dt"


def _prop_element_bound_sound(rng, trials):
    """The element-wise eigenvalue bound never undercuts the assembled maximum."""
    worst = -np.inf
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 25))
        a1 = float(rng.uniform(0.0, 1.0))
        a2 = float(rng.uniform(0.0, 1.0))
        model = _random_chain(rng, m, grounded=bool(rng.integers(0, 2)), a1=a1, a2=a2)
        mu_exact = max_gen_eigenvalue(model.stiffness, model.mass)
        report = element_dt_bound(model.elements, a1, a2)
        margin = mu_exact / report.mu_max - 1.0
        worst = max(worst, margin)
        if margin > 1e-12:
            failures += 1
    return failures, worst, "max (mu_exact / mu_bound - 1), must be <= 1e-12"


def _prop_exact_step_boundary(rng, trials):
    """Around an exact per-eigenvalue step the dense one-step radius crosses 1: on
    projected collocation, DEIM and GNAT (``a1 = 0``, so the reduced damping stays
    Rayleigh) of random chains.  Draws without a finite exact step are skipped, at
    most 20 per trial; a trial still unchecked after them counts as a failure."""
    worst, failures, checked, draws = -np.inf, 0, 0, 0
    while checked < trials and draws < 20 * trials:
        draws += 1
        m, k, kind = int(rng.integers(5, 20)), int(rng.integers(1, 4)), int(rng.integers(0, 3))
        a1 = float(rng.uniform(0.0, 1.0)) if kind == 0 else 0.0
        model = _random_chain(rng, m, grounded=True, a1=a1, a2=float(rng.uniform(0.0, 0.1)))
        basis = modal_basis(model, list(range(k)))
        if kind == 0:
            rows = sorted(rng.choice(m, size=int(rng.integers(k, m + 1)), replace=False).tolist())
            rom = collocate_projected(model, basis, SampleSet.from_model(model, rows))
        else:
            op = model.operator
            forces = op.rows_times(op.stiffness, rng.standard_normal((m, 3 * k)))
            u = np.linalg.svd(forces, full_matrices=False)[0][:, :k + 1]
            rows = deim_points(u)  # DEIM takes k of them, GNAT all k + 1
            rom = (deim_reduce(model, basis, u[:, :k], rows[:k]) if kind == 1
                   else gnat_reduce(model, basis, u[:, :k], rows))
        report = critical_dt_report(rom)
        if report.method == "amplification-exact" and 0.0 < report.dt_crit < np.inf:
            checked += 1
            below, above = (spectral_radius(rom.step_operator(f * report.dt_crit)[0]).radius
                            for f in (0.999, 1.001))
            worst = max(worst, below - 1.0)
            failures += below > 1.0 + 1e-12 or above <= 1.0
    failures += trials - checked
    return failures, worst, "max rho(0.999 dt_crit) - 1 (tol 1e-12); rho > 1 at 1.001 dt_crit"


def _prop_spectral_bracket(rng, trials):
    """On random damped strings just above ``_SPARSE_MIN_M`` (the tridiagonal path),
    the reported step is at most the step of the closed-form largest eigenvalue plus
    that formula's round-off (16 eps relative), and at most 1e-12 below it.  A string
    of element mass ``M``, element stiffness ``K`` and boundary factor ``beta`` has its
    top pair of modes localized at the two stiff ends, ``x_j ~ r**j`` with ``|r| <
    1 / (2 beta)``, at ``(K / M) (2 + 2 sqrt(beta**2 + 1))`` to within ``r**m``."""
    worst, failures = -np.inf, 0
    for _ in range(trials):
        m = _SPARSE_MIN_M + int(rng.integers(0, 16))
        mass, stiffness = (float(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(2))
        beta = float(rng.uniform(1.0, 100.0))
        model = build_string_model(m, mass, stiffness, 1.0, beta,
                                   float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.01)))
        mu = stiffness / mass * (2.0 + 2.0 * math.hypot(beta, 1.0))
        exact = critical_dt_system(mu, model.a1, model.a2).dt_crit
        excess = critical_dt_report(model).dt_crit / exact - 1.0
        worst = max(worst, excess)
        failures += not -1e-12 <= excess <= 16 * np.finfo(float).eps
    return failures, worst, "max (dt_crit / dt_closed_form - 1) (tol 16 eps; >= -1e-12)"


def _saturated_deviation(model, basis, sampled, steps=20, dt_scale=0.5):
    """Relative end-state gap between a saturated sampled model and Galerkin."""
    rom = galerkin_reduce(model, basis)
    mu = float(np.linalg.eigvalsh(symmetrize(rom.stiffness))[-1])
    dt = dt_scale * critical_dt_modal(max(mu, 1e-12), 0.0)
    x0 = np.linspace(1.0, 2.0, basis.k)
    state_a = IntegratorState.initial(x0, np.zeros(basis.k))
    state_b = IntegratorState.initial(x0, np.zeros(basis.k))
    for _ in range(steps):
        state_b = hrom_step(sampled, state_b, dt)
        state_a = cd_step(rom, state_a, dt)
    denom = max(float(np.linalg.norm(state_a.x)), np.finfo(float).tiny)
    return float(np.linalg.norm(state_a.x - state_b.x)) / denom


def _prop_saturation(rng, trials):
    """Every hyper-reduction collapses to plain Galerkin when nothing is dropped."""
    worst = 0.0
    failures = 0
    for _ in range(trials):
        m = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        model = _random_chain(rng, m, grounded=True)
        all_rows = tuple(range(m))
        samples = SampleSet.from_model(model, all_rows)
        dev = 0.0

        # naive collocation at full sampling needs a uniform mass to saturate
        uniform = FullOrderModel(m=m, mass=np.full(m, 2.0), stiffness=model.stiffness)
        q, _ = np.linalg.qr(rng.standard_normal((m, k)))
        plain = ReducedBasis(q, "plain-orthonormal")
        naive = collocate_naive(uniform, plain, SampleSet.from_model(uniform, all_rows))
        dev = max(dev, _saturated_deviation(uniform, plain, naive))

        basis = ReducedBasis(_random_mass_basis(rng, model, k),
                             "mass-orthonormal", mass=model.mass)
        rom = galerkin_reduce(model, basis)
        scale = max(float(np.abs(rom.stiffness).max()), np.finfo(float).tiny)

        projected = collocate_projected(model, basis, samples)
        dev = max(dev, float(np.abs(projected.stiffness - rom.stiffness).max()) / scale)

        u_full, _ = np.linalg.qr(rng.standard_normal((m, m)))
        deim = deim_reduce(model, basis, u_full, all_rows)
        dev = max(dev, float(np.abs(deim.stiffness - rom.stiffness).max()) / scale)

        gnat = gnat_reduce(model, basis, basis.matrix, all_rows)
        dev = max(dev, float(np.abs(gnat.stiffness - rom.stiffness).max()) / scale)

        ones = ecsw_reduce(model, np.ones(m - 1), basis)
        dev = max(dev, float(np.abs(ones.stiffness - rom.stiffness).max()) / scale)

        worst = max(worst, dev)
        if dev > 1e-10:
            failures += 1
    return failures, worst, "max deviation from Galerkin across all five saturated forms (tol 1e-10)"


def _prop_deim_asymmetry(rng, trials):
    """Oblique interpolation on fewer rows than DoFs breaks operator symmetry.

    The first trial replays the pinned witness instance; remaining trials scan
    fresh random instances and only report the largest asymmetry seen (random
    instances occasionally land nearly symmetric, which is fine — the property
    asserts existence, not universality).
    """
    _, _, frozen = frozen_deim_instance()
    failures = 0 if frozen > 1e-3 else 1
    worst = frozen
    for _ in range(max(trials - 1, 0)):
        try:
            _, _, asym = frozen_deim_instance(seed=int(rng.integers(0, 2**31)))
        except RankDeficiencyError:
            continue
        worst = max(worst, asym)
    return failures, worst, (
        f"pinned instance asymmetry {frozen:.4f} (must exceed 1e-3); worst over scan shown"
    )


_PROPERTIES = [
    ("projection-symmetry", _prop_projection_symmetry),
    ("projection-psd", _prop_projection_psd),
    ("rayleigh-structure", _prop_rayleigh_structure),
    ("eigenvalue-interlacing", _prop_interlacing),
    ("dt-dominance", _prop_dt_dominance),
    ("frequency-map", _prop_frequency_map),
    ("ecsw-eigenvalue-bound", _prop_ecsw_bound),
    ("sampled-mass-psd", _prop_sampled_mass_psd),
    ("stability-boundary", _prop_stability_boundary),
    ("element-bound-soundness", _prop_element_bound_sound),
    ("saturation-equivalence", _prop_saturation),
]

_SYMMETRY_BREAKERS = [
    ("interpolation-asymmetry", _prop_deim_asymmetry),
]

# properties added later come last, so that every earlier one keeps its seed
_ADDED = [
    ("exact-step-boundary", _prop_exact_step_boundary),
    ("spectral-bracket", _prop_spectral_bracket),
]

PROPERTY_NAMES = tuple(name for name, _ in _PROPERTIES + _SYMMETRY_BREAKERS + _ADDED)


def run_property(name, seed=0, trials=50):
    """Run a single property by name and return its :class:`PropertyResult`."""
    table = dict(_PROPERTIES + _SYMMETRY_BREAKERS + _ADDED)
    if name not in table:
        raise ValueError(f"unknown property {name!r}; choose from {PROPERTY_NAMES}")
    index = PROPERTY_NAMES.index(name)
    rng = np.random.default_rng([seed, index])
    failures, worst, note = table[name](rng, trials)
    return PropertyResult(name=name, trials=trials, failures=failures,
                          worst=worst, note=note)


def run_suite(seed=0, trials=50, break_symmetry=False):
    """Run the full property suite; returns results in a deterministic order.

    ``break_symmetry`` additionally runs the properties that demonstrate
    *loss* of structure (interpolation-based asymmetry), which are witness
    checks rather than universal invariants.
    """
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    witnesses = dict(_SYMMETRY_BREAKERS)
    names = [name for name in PROPERTY_NAMES if break_symmetry or name not in witnesses]
    return [run_property(name, seed=seed, trials=trials) for name in names]
