"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each.

Every test times its own body against the stated budget and prints

    [PASS] criterion N (name): detail  [elapsed]

so a plain ``pytest -v -s`` run doubles as the acceptance report.
"""

import math
import time
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from romstab import (
    ElementSet,
    FullOrderModel,
    IntegratorState,
    MASS_ORTHONORMAL,
    PLAIN_ORTHONORMAL,
    ReducedBasis,
    SampleSet,
    assemble,
    build_string_model,
    cd_step,
    check_interlacing,
    collocate_naive,
    collocate_projected,
    critical_dt_modal,
    critical_dt_report,
    damping_ratio,
    critical_dt_at_frequency,
    deim_points,
    deim_reduce,
    ecsw_reduce,
    ecsw_weighted_operator,
    element_dt_bound,
    galerkin_reduce,
    gen_eig_diag_mass,
    gnat_reduce,
    hrom_step,
    integrate,
    m_orthonormalize,
    modal_basis,
    spectral_radius,
    symmetrize,
    verify_rom_dt_dominance,
)
from romstab.verify import frozen_deim_instance

from step_oracle import amplification_matrix


def _report(number, name, passed, detail, elapsed, budget):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(
        f"[{status}] criterion {number} ({name}): {detail}  "
        f"[{elapsed:.2f}s / budget {budget:g}s]",
        flush=True,
    )
    assert passed, f"criterion {number} ({name}): {detail}"
    assert elapsed < budget, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.2f}s >= {budget:g}s"
    )


def _string(m, a1=0.0, a2=0.0):
    return build_string_model(m, element_mass=1.0, element_stiffness=10.0,
                              length=1.0, boundary_factor=99.0, a1=a1, a2=a2)


@lru_cache(maxsize=1)
def _random_pencil_instances():
    """200 seeded (model, basis) pairs shared by criteria 4 and 5."""
    start = time.perf_counter()
    instances = []
    for i in range(200):
        rng = np.random.default_rng([42, i])
        m = int(rng.integers(4, 61))
        mass = rng.uniform(0.5, 3.0, m)
        b = rng.standard_normal((m, m + 2))
        stiffness = symmetrize(b @ b.T)
        a1, a2 = (float(c) for c in rng.uniform(0.0, 2.0, 2))
        k = int(rng.integers(1, m))
        v = m_orthonormalize(rng.standard_normal((m, k)), mass)
        model = FullOrderModel(m=m, mass=mass, stiffness=stiffness, a1=a1, a2=a2)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=mass)
        instances.append((model, basis))
    return instances, time.perf_counter() - start


def test_criterion_01_string_spectrum():
    start = time.perf_counter()
    model = _string(5)
    values = gen_eig_diag_mass(model.stiffness, model.mass).values
    expected = np.array([5.81, 19.90, 34.09, 2000.101, 2000.101])
    spectrum_ok = bool(np.all(np.abs(values - expected) <= 0.01))
    trace = float(np.trace(model.stiffness / model.mass[:, None]))
    trace_ok = abs(trace - 4060.0) <= 1e-9 * 4060.0
    eig_sum_ok = abs(values.sum() - trace) <= 1e-9 * abs(trace)
    elapsed = time.perf_counter() - start
    _report(
        1, "string spectrum",
        spectrum_ok and trace_ok and eig_sum_ok,
        f"eigenvalues {np.round(values, 4).tolist()}, trace {trace:.10g}",
        elapsed, 0.1,
    )


def test_criterion_02_weighted_reduction_example():
    start = time.perf_counter()
    model = _string(5)
    basis = modal_basis(model, [1])
    xi = np.array([0.0, 4.0, 0.0, 0.0])

    weighted = ecsw_weighted_operator(model, xi)
    r_eigs = np.linalg.eigvalsh(weighted)
    r_ok = bool(np.all(np.abs(r_eigs - np.array([0, 0, 0, 0, 80.0])) <= 1e-9))

    kr = ecsw_reduce(model, xi, basis).stiffness[0, 0]
    kr_ok = abs(kr - 20.0) <= 0.1

    rom = galerkin_reduce(model, basis).stiffness[0, 0]
    rom_ok = abs(rom - 19.90) <= 0.05

    elapsed = time.perf_counter() - start
    _report(
        2, "weighted-reduction worked example",
        r_ok and kr_ok and rom_ok,
        f"weighted spectrum {np.round(r_eigs, 9).tolist()}, "
        f"weighted Kr {kr:.6g}, Galerkin Kr {rom:.6g}",
        elapsed, 0.1,
    )


def test_criterion_03_large_string_step_ratios():
    start = time.perf_counter()
    model = _string(100)
    fom = critical_dt_report(model)

    low = galerkin_reduce(model, modal_basis(model, range(10)))
    mu_rom = float(np.linalg.eigvalsh(symmetrize(low.stiffness))[-1])
    lam_ratio = fom.mu_max / mu_rom
    rom_report = critical_dt_report(low)
    dt_ratio = rom_report.dt_crit / fom.dt_crit

    high = galerkin_reduce(model, modal_basis(model, range(90, 100)))
    dt_ratio_high = critical_dt_report(high).dt_crit / fom.dt_crit

    lam_ok = 1800.0 <= lam_ratio <= 2200.0
    dt_ok = abs(dt_ratio - 44.72) <= 0.05 * 44.72
    high_ok = abs(dt_ratio_high - 1.0) <= 1e-8
    elapsed = time.perf_counter() - start
    _report(
        3, "large-string step ratios",
        lam_ok and dt_ok and high_ok,
        f"eigenvalue ratio {lam_ratio:.1f}, step gain {dt_ratio:.4f}, "
        f"top-mode ratio {dt_ratio_high:.12f}",
        elapsed, 1.0,
    )


def test_criterion_04_step_dominance():
    instances, build_time = _random_pencil_instances()
    start = time.perf_counter()
    worst = math.inf
    failures = 0
    for model, basis in instances:
        result = verify_rom_dt_dominance(model, basis)
        slack = result.dt_rom / result.dt_fom - 1.0
        worst = min(worst, slack)
        if not result.ok:
            failures += 1
    elapsed = build_time + time.perf_counter() - start
    _report(
        4, "reduced-step dominance",
        failures == 0,
        f"{len(instances) - failures}/{len(instances)} instances, "
        f"worst relative slack {worst:.2e}",
        elapsed, 10.0,
    )


def test_criterion_05_eigenvalue_interlacing():
    instances, build_time = _random_pencil_instances()
    start = time.perf_counter()
    worst = -math.inf
    failures = 0
    for model, basis in instances:
        full = gen_eig_diag_mass(model.stiffness, model.mass).values
        v = basis.matrix
        reduced = np.linalg.eigvalsh(symmetrize(v.T @ (model.stiffness @ v)))
        result = check_interlacing(full, reduced)
        scale = max(abs(full[-1]), 1e-300)
        worst = max(worst, result.worst_violation / scale)
        if not result.ok:
            failures += 1
    elapsed = build_time + time.perf_counter() - start
    _report(
        5, "eigenvalue interlacing",
        failures == 0,
        f"{len(instances) - failures}/{len(instances)} instances, "
        f"worst relative violation {worst:.2e}",
        elapsed, 10.0,
    )


def test_criterion_06_frequency_map_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(6)

    monotone_ok = True
    worst_gap = -math.inf
    for _ in range(10_000):
        a1, a2 = (float(c) for c in rng.uniform(0.0, 2.0, 2))
        x1 = float(10.0 ** rng.uniform(-4.0, 4.0))
        x2 = x1 * float(1.0 + 10.0 ** rng.uniform(-6.0, 1.0))
        g1 = critical_dt_at_frequency(x1, a1, a2)
        g2 = critical_dt_at_frequency(x2, a1, a2)
        gap = (g2 - g1) / g1
        worst_gap = max(worst_gap, gap)
        if gap > 1e-13:
            monotone_ok = False

    limit_ok = True
    for _ in range(100):
        a1 = float(rng.uniform(0.01, 2.0))
        a2 = float(rng.uniform(0.0, 2.0))
        got = critical_dt_at_frequency(1e-8, a1, a2)
        if abs(got - 2.0 / a1) > 1e-6 * (2.0 / a1):
            limit_ok = False

    agree_ok = True
    worst_agree = 0.0
    xs = np.logspace(-6.0, 6.0, 100)
    with mpmath.workdps(50):
        for x in xs:
            a1 = float(rng.uniform(0.0, 2.0))
            a2 = float(rng.uniform(0.0, 2.0))
            got = critical_dt_at_frequency(float(x), a1, a2)
            mx = mpmath.mpf(float(x))
            xi = mpmath.mpf(a1) / (2 * mx) + mpmath.mpf(a2) * mx / 2
            ref = float(2 / (mx * (mpmath.sqrt(xi * xi + 1) + xi)))
            err = abs(got - ref) / ref
            worst_agree = max(worst_agree, err)
            if err > 1e-12:
                agree_ok = False

    elapsed = time.perf_counter() - start
    _report(
        6, "frequency-map properties",
        monotone_ok and limit_ok and agree_ok,
        f"worst monotonicity gap {worst_gap:.2e}, "
        f"worst extended-precision mismatch {worst_agree:.2e}",
        elapsed, 1.0,
    )


def test_criterion_07_stability_boundary():
    start = time.perf_counter()
    rng = np.random.default_rng(7)

    modal_ok = True
    worst_on = 0.0
    for _ in range(100):
        mu = float(10.0 ** rng.uniform(-2.0, 4.0))
        xi = float(rng.uniform(0.0, 2.0))
        c = 2.0 * xi * math.sqrt(mu)
        mass = np.array([1.0])
        damping = np.array([[c]])
        stiffness = np.array([[mu]])
        dt_c = critical_dt_modal(mu, xi)
        at = spectral_radius(
            amplification_matrix(mass, damping, stiffness, dt_c)
        ).radius
        above = spectral_radius(
            amplification_matrix(mass, damping, stiffness, 1.001 * dt_c)
        ).radius
        worst_on = max(worst_on, abs(at - 1.0))
        if abs(at - 1.0) > 1e-7 or not above > 1.0:
            modal_ok = False

    model = _string(20)
    dt_c = critical_dt_report(model).dt_crit
    x0 = 1e-3 * np.random.default_rng(0).standard_normal(20)
    v0 = np.zeros(20)

    stable = integrate(model, x0, v0, t_end=10_000 * 0.99 * dt_c,
                       dt=0.99 * dt_c, record_every=50)
    norm0 = float(np.linalg.norm(x0))
    peak = float(np.abs(stable.states).max())
    bounded_ok = (not stable.divergence_flag) and peak <= 1e3 * norm0

    unstable = integrate(model, x0, v0, t_end=10_000 * 1.01 * dt_c,
                         dt=1.01 * dt_c, record_every=50)
    diverged_ok = unstable.divergence_flag

    elapsed = time.perf_counter() - start
    _report(
        7, "stability boundary",
        modal_ok and bounded_ok and diverged_ok,
        f"worst |radius-1| at the critical step {worst_on:.2e}; string peak "
        f"{peak:.2e} at 0.99 dt, divergence at 1.01 dt flagged at step "
        f"{unstable.divergence_step}",
        elapsed, 20.0,
    )


def _matrix_gap(got, want):
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


def test_criterion_08_saturated_sampling_equivalences():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    gaps = {}

    # naive collocation at every DoF, uniform mass: identical stepping
    m, k = 8, 3
    b = rng.standard_normal((m, m + 2))
    uniform = FullOrderModel(m=m, mass=np.ones(m),
                             stiffness=symmetrize(b @ b.T), a1=0.3, a2=0.02)
    v = m_orthonormalize(rng.standard_normal((m, k)), uniform.mass)
    basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=uniform.mass)
    rom = galerkin_reduce(uniform, basis)
    naive = collocate_naive(uniform, basis,
                            SampleSet.from_model(uniform, range(m)))
    dt = 0.5 * critical_dt_report(rom).dt_crit
    x0 = rng.standard_normal(k)
    v0 = rng.standard_normal(k)
    sg = IntegratorState.initial(x0, v0)
    sn = IntegratorState.initial(x0, v0)
    worst_step = 0.0
    for _ in range(20):
        sg = cd_step(rom, sg, dt)
        sn = hrom_step(naive, sn, dt)
        scale = max(1.0, float(np.abs(sg.x).max()))
        worst_step = max(worst_step, float(np.abs(sg.x - sn.x).max()) / scale)
    gaps["naive"] = worst_step

    # projected collocation at every DoF, general mass
    model = _string(7, a1=0.2, a2=0.01)
    vm = m_orthonormalize(rng.standard_normal((7, 2)), model.mass)
    mbasis = ReducedBasis(vm, MASS_ORTHONORMAL, mass=model.mass)
    rom_m = galerkin_reduce(model, mbasis)
    proj = collocate_projected(model, mbasis,
                               SampleSet.from_model(model, range(7)))
    gaps["projected"] = max(
        _matrix_gap(proj.mass, rom_m.mass),
        _matrix_gap(proj.damping, rom_m.damping),
        _matrix_gap(proj.stiffness, rom_m.stiffness),
    )

    # force interpolation with the force basis equal to a square basis
    q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    square = ReducedBasis(q, PLAIN_ORTHONORMAL)
    rom_q = galerkin_reduce(model, square)
    points = deim_points(q)
    interp = deim_reduce(model, square, q, points)
    gaps["interpolation"] = max(
        _matrix_gap(interp.mass, rom_q.mass),
        _matrix_gap(interp.damping, rom_q.damping),
        _matrix_gap(interp.stiffness, rom_q.stiffness),
    )

    # gappy least squares with sample rows saturating every DoF: square
    # force basis first, then the rectangular basis-equals-force-basis case
    gappy_sq = gnat_reduce(model, square, q, list(range(7)))
    gaps["gappy-square"] = max(
        _matrix_gap(gappy_sq.mass, rom_q.mass),
        _matrix_gap(gappy_sq.damping, rom_q.damping),
        _matrix_gap(gappy_sq.stiffness, rom_q.stiffness),
    )
    gappy = gnat_reduce(model, mbasis, mbasis.matrix, list(range(7)))
    gaps["gappy"] = max(
        _matrix_gap(gappy.mass, rom_m.mass),
        _matrix_gap(gappy.damping, rom_m.damping),
        _matrix_gap(gappy.stiffness, rom_m.stiffness),
    )

    # weighted elements with every weight one
    sbasis = modal_basis(model, [0, 1])
    rom_s = galerkin_reduce(model, sbasis)
    weighted = ecsw_reduce(model, np.ones(len(model.elements)), sbasis)
    gaps["weighted"] = max(
        _matrix_gap(weighted.mass, rom_s.mass),
        _matrix_gap(weighted.damping, rom_s.damping),
        _matrix_gap(weighted.stiffness, rom_s.stiffness),
    )

    worst = max(gaps.values())
    elapsed = time.perf_counter() - start
    _report(
        8, "saturated sampling equivalences",
        worst <= 1e-10,
        "worst relative deviation from the Galerkin reduction: "
        + ", ".join(f"{name} {gap:.1e}" for name, gap in gaps.items()),
        elapsed, 5.0,
    )


def test_criterion_09_structure_preservation_split():
    start = time.perf_counter()
    rng = np.random.default_rng(9)

    preserved_ok = True
    for _ in range(50):
        m = int(rng.integers(5, 12))
        bf = float(rng.uniform(0.0, 50.0))
        model = build_string_model(m, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=bf,
                                   a1=float(rng.uniform(0.0, 1.0)),
                                   a2=float(rng.uniform(0.0, 0.1)))
        k = int(rng.integers(1, 4))
        v = m_orthonormalize(rng.standard_normal((m, k)), model.mass)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)

        xi = rng.uniform(0.0, 2.0, len(model.elements))
        weighted = ecsw_reduce(model, xi, basis)
        if not np.array_equal(weighted.mass, weighted.mass.T):
            preserved_ok = False
        if np.linalg.eigvalsh(weighted.mass)[0] < -1e-12:
            preserved_ok = False

        p = int(rng.integers(k, m + 1))
        rows = sorted(rng.choice(m, size=p, replace=False).tolist())
        proj = collocate_projected(model, basis,
                                   SampleSet.from_model(model, rows))
        mass = proj.mass
        scale = max(1.0, float(np.abs(mass).max()))
        if not np.array_equal(mass, mass.T):
            preserved_ok = False
        if np.linalg.eigvalsh(mass)[0] < -1e-12 * scale:
            preserved_ok = False

    _, _, asym = frozen_deim_instance()
    witness_ok = asym > 1e-3

    elapsed = time.perf_counter() - start
    _report(
        9, "structure-preservation split",
        preserved_ok and witness_ok,
        f"sampled mass symmetric PSD on 50 trials; stored interpolation "
        f"instance has relative stiffness asymmetry {asym:.6f}",
        elapsed, 5.0,
    )


def _random_chain(rng, m, grounded, rod=False):
    """Random 2-node chain; ``rod`` forces the equal half-mass split for
    which the element step equals the transit time ``l / c``."""
    kes, mes, lengths, speeds = [], [], [], []
    for e in range(m - 1):
        k_e = float(rng.uniform(0.5, 4.0))
        ke = k_e * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if grounded and e == 0:
            ke = ke + np.diag([float(rng.uniform(1.0, 5.0)), 0.0])
        if rod:
            half = float(rng.uniform(0.3, 2.0))
            me = (half, half)
        else:
            me = (float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.3, 2.0)))
        length = float(rng.uniform(0.1, 2.0))
        total = me[0] + me[1]
        kes.append(ke)
        mes.append(me)
        lengths.append(length)
        speeds.append(length * math.sqrt(k_e / total))
    elements = ElementSet(
        dofs=[(e, e + 1) for e in range(m - 1)], mass=mes, stiffness=kes,
        length=lengths, wave_speed=speeds,
    )
    mass, stiffness = assemble(elements, m)
    return FullOrderModel(m=m, mass=mass, stiffness=stiffness,
                          a1=float(rng.uniform(0.0, 1.0)),
                          a2=float(rng.uniform(0.0, 0.5)),
                          elements=elements)


def test_criterion_10_bound_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(10)

    meshes = [_string(5), _string(20), _string(100)]
    for _ in range(30):
        meshes.append(_random_chain(rng, int(rng.integers(3, 15)),
                                    grounded=bool(rng.integers(0, 2))))

    sound_ok = True
    weighted_ok = True
    for model in meshes:
        exact = critical_dt_report(model)
        bound = element_dt_bound(model.elements, model.a1, model.a2)
        if bound.mu_max < exact.mu_max * (1.0 - 1e-12):
            sound_ok = False
        if bound.dt_crit > exact.dt_crit * (1.0 + 1e-12):
            sound_ok = False

        xi = rng.uniform(0.0, 2.0, len(model.elements))
        xi[rng.random(len(xi)) < 0.3] = 0.0
        wbound = element_dt_bound(model.elements, model.a1, model.a2,
                                  weights=xi)
        weighted_op = ecsw_weighted_operator(model, xi)
        mu_weighted = float(np.linalg.eigvalsh(weighted_op)[-1])
        if wbound.mu_max < mu_weighted * (1.0 - 1e-12):
            weighted_ok = False

    # rod transit-time identity on chains without boundary springs
    cfl_ok = True
    worst_cfl = 0.0
    rod = build_string_model(12, element_mass=2.0, element_stiffness=8.0,
                             length=3.0, boundary_factor=0.0)
    chains = [rod] + [_random_chain(rng, 8, grounded=False, rod=True)
                      for _ in range(10)]
    for model in chains:
        dt = element_dt_bound(model.elements, 0.0, 0.0).dt_crit
        transit = float(np.min(model.elements.length / model.elements.wave_speed))
        err = abs(dt - transit) / transit
        worst_cfl = max(worst_cfl, err)
        if err > 1e-12:
            cfl_ok = False

    elapsed = time.perf_counter() - start
    _report(
        10, "bound soundness",
        sound_ok and weighted_ok and cfl_ok,
        f"{len(meshes)} meshes bounded; worst transit-time mismatch "
        f"{worst_cfl:.2e}",
        elapsed, 2.0,
    )
