"""Tests for critical-step formulas, spectrum bounds, and the report
dispatch across model flavors."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from romstab import (
    FullOrderModel,
    MASS_ORTHONORMAL,
    ReducedBasis,
    SampleSet,
    StabilityReport,
    build_string_model,
    check_interlacing,
    collocate_naive,
    collocate_projected,
    critical_dt_at_frequency,
    critical_dt_modal,
    critical_dt_report,
    critical_dt_system,
    damping_ratio,
    deim_points,
    deim_reduce,
    ecsw_reduce,
    element_dt_bound,
    galerkin_reduce,
    gen_eig_diag_mass,
    gnat_reduce,
    m_orthonormalize,
    modal_basis,
    spectral_radius,
    symmetrize,
    thin_svd,
    verify_rom_dt_dominance,
)
from romstab.hyper import SampledModel, sampled_step_matrix
from romstab.kernels import max_gen_eigenvalue
from romstab.reduction import ReducedModel
from romstab import stability, verify
from romstab.errors import RankDeficiencyError
from romstab.integrator import integrate
from romstab.reduction import snapshots_from_trajectory
from romstab.stability import _bisect_critical_dt, _exact_steps, _step_spectrum
from romstab.verify import (_random_chain, _random_mass_basis, _random_spd_pencil,
                            frozen_deim_instance, run_property)

from step_oracle import amplification_matrix


def _string(m=5, a1=0.0, a2=0.0, bf=99.0, K=10.0):
    return build_string_model(m, element_mass=1.0, element_stiffness=K,
                              length=1.0, boundary_factor=bf, a1=a1, a2=a2)


class TestDampingRatio:
    def test_hand_value(self):
        # 1/(2*10) + 0.1*10/2
        assert damping_ratio(100.0, 1.0, 0.1) == pytest.approx(0.55, abs=1e-15)

    def test_undamped_is_zero(self):
        assert damping_ratio(7.3, 0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            damping_ratio(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            damping_ratio(1.0, -0.1, 0.0)


class TestCriticalDtModal:
    def test_undamped_closed_form(self):
        assert critical_dt_modal(4.0, 0.0) == 1.0

    def test_matches_bisection_on_the_scalar_mode(self):
        """Independent check: bisect the one-mode amplification radius."""
        mu, xi = 100.0, 0.15
        c = 2.0 * xi * math.sqrt(mu)
        mass = np.array([1.0])
        damping = np.array([[c]])
        stiffness = np.array([[mu]])

        def rho(dt):
            return spectral_radius(
                amplification_matrix(mass, damping, stiffness, dt)
            ).radius

        lo, hi = 1e-6, 1.0
        assert rho(lo) <= 1.0 + 1e-12 and rho(hi) > 1.0 + 1e-12
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rho(mid) > 1.0 + 1e-12:
                hi = mid
            else:
                lo = mid
        assert critical_dt_modal(mu, xi) == pytest.approx(lo, rel=1e-8)

    def test_damping_shrinks_the_step(self):
        assert critical_dt_modal(25.0, 0.4) < critical_dt_modal(25.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_dt_modal(-1.0, 0.0)
        with pytest.raises(ValueError):
            critical_dt_modal(1.0, -0.2)
        with pytest.raises(ValueError):
            critical_dt_modal(1.0, math.nan)


class TestCriticalDtAtFrequency:
    def test_agrees_with_extended_precision_textbook_form(self):
        """The overflow-safe arrangement matches the direct formula
        evaluated with 50-digit arithmetic across 12 decades."""
        a1, a2 = 0.8, 0.02
        xs = np.logspace(-6.0, 6.0, 100)
        with mpmath.workdps(50):
            for x in xs:
                got = critical_dt_at_frequency(float(x), a1, a2)
                mx = mpmath.mpf(float(x))
                xi = mpmath.mpf(a1) / (2 * mx) + mpmath.mpf(a2) * mx / 2
                ref = 2 / (mx * (mpmath.sqrt(xi * xi + 1) + xi))
                assert abs(got - float(ref)) <= 1e-12 * float(ref)

    def test_small_frequency_limit(self):
        assert critical_dt_at_frequency(1e-8, 0.5, 0.3) == pytest.approx(
            4.0, rel=1e-6
        )

    def test_undamped_reduces_to_two_over_frequency(self):
        assert critical_dt_at_frequency(2.0, 0.0, 0.0) == 1.0

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(90)
        for _ in range(200):
            a1, a2 = rng.uniform(0.0, 2.0, 2)
            x1, x2 = np.sort(rng.uniform(1e-4, 1e4, 2))
            if x1 == x2:
                continue
            g1 = critical_dt_at_frequency(float(x1), a1, a2)
            g2 = critical_dt_at_frequency(float(x2), a1, a2)
            assert g2 <= g1 * (1.0 + 1e-13)

    def test_vectorized_evaluation(self):
        xs = np.array([0.5, 1.0, 2.0])
        out = critical_dt_at_frequency(xs, 0.1, 0.2)
        assert out.shape == (3,)
        assert out[0] == critical_dt_at_frequency(0.5, 0.1, 0.2)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            critical_dt_at_frequency(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            critical_dt_at_frequency(np.array([1.0, -2.0]), 0.1, 0.1)


class TestCriticalDtSystem:
    def test_undamped_hand_value(self):
        report = critical_dt_system(4.0, 0.0, 0.0)
        assert report.dt_crit == 1.0
        assert report.method == "modal-exact"
        assert report.model_kind == "fom"

    def test_zero_frequency_edge(self):
        assert critical_dt_system(0.0, 0.0, 0.0).dt_crit == math.inf
        assert critical_dt_system(0.0, 0.5, 0.0).dt_crit == 4.0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            critical_dt_system(-1.0, 0.0, 0.0)


class TestElementBound:
    def test_bound_never_exceeds_exact_step(self):
        for bf in (0.0, 7.0, 99.0):
            model = _string(9, a1=0.3, a2=0.01, bf=bf)
            exact = critical_dt_report(model)
            bound = element_dt_bound(model.elements, model.a1, model.a2)
            assert bound.dt_crit <= exact.dt_crit * (1.0 + 1e-12)
            assert bound.mu_max >= exact.mu_max * (1.0 - 1e-12)
            assert bound.method == "element-bound"

    def test_uniform_chain_reduces_to_transit_time(self):
        """Without boundary springs the element bound is the classic
        length-over-wave-speed step, tight per element."""
        model = build_string_model(7, element_mass=2.0, element_stiffness=8.0,
                                   length=0.5, boundary_factor=0.0)
        bound = element_dt_bound(model.elements, 0.0, 0.0)
        transit = float(np.min(model.elements.length / model.elements.wave_speed))
        assert bound.dt_crit == pytest.approx(transit, rel=1e-12)
        assert transit == pytest.approx(math.sqrt(2.0 / 8.0), rel=1e-12)

    def test_weighted_bound_drops_zeroed_elements(self):
        model = _string(5, bf=99.0)
        xi = np.ones(len(model.elements))
        plain = element_dt_bound(model.elements, 0.0, 0.0)
        xi[0] = 0.0  # remove the stiff boundary element
        xi[-1] = 0.0
        relaxed = element_dt_bound(model.elements, 0.0, 0.0, weights=xi)
        assert relaxed.method == "ecsw-bound"
        assert relaxed.model_kind == "hrom"
        assert relaxed.dt_crit > plain.dt_crit

    def test_weight_scaling_enters_the_bound(self):
        model = _string(4, bf=0.0)
        xi = np.full(len(model.elements), 4.0)
        scaled = element_dt_bound(model.elements, 0.0, 0.0, weights=xi)
        plain = element_dt_bound(model.elements, 0.0, 0.0)
        assert scaled.mu_max == pytest.approx(4.0 * plain.mu_max, rel=1e-12)

    def test_all_zero_weights_leave_no_constraint(self):
        model = _string(4, bf=0.0)
        report = element_dt_bound(model.elements, 0.0, 0.0,
                                  weights=np.zeros(len(model.elements)))
        assert report.dt_crit == math.inf

    def test_validation(self):
        model = _string(4)
        with pytest.raises(ValueError):
            element_dt_bound(None, 0.0, 0.0)
        with pytest.raises(ValueError):
            element_dt_bound(model.elements, 0.0, 0.0, weights=np.ones(2))
        with pytest.raises(ValueError):
            element_dt_bound(model.elements, 0.0, 0.0,
                             weights=-np.ones(len(model.elements)))

    def test_reports_match_per_element_loop_exactly(self):
        """Both reports equal the old element-by-element maximum, bit for bit."""
        rng = np.random.default_rng(32)
        models = [_string(5, a1=0.2, a2=0.01), _string(300, a1=0.2, a2=0.01)]
        models += [_random_chain(rng, int(rng.integers(3, 25)), bool(g), 0.3, 0.02)
                   for g in (0, 1, 0, 1)]
        for model in models:
            es = model.elements
            xi = rng.uniform(0.0, 2.0, len(es))
            xi[rng.random(len(es)) < 0.4] = 0.0
            xi[-1] = 0.0
            for weights in (None, xi):
                w = np.ones(len(es)) if weights is None else weights
                mu = 0.0
                for e in range(len(es)):
                    if w[e] != 0.0:
                        mu = max(mu, w[e] * max_gen_eigenvalue(es.stiffness[e], es.mass[e]))
                report = element_dt_bound(es, model.a1, model.a2, weights=weights)
                expected = critical_dt_system(mu, model.a1, model.a2)
                assert report.mu_max == mu
                assert report.dt_crit == expected.dt_crit
                assert report.xi == expected.xi
                assert report.model_kind == ("fom" if weights is None else "hrom")


class TestInterlacing:
    def test_accepts_true_galerkin_spectra(self):
        rng = np.random.default_rng(91)
        mass = rng.uniform(0.5, 2.0, 8)
        b = rng.standard_normal((8, 10))
        model = FullOrderModel(m=8, mass=mass, stiffness=symmetrize(b @ b.T))
        full = gen_eig_diag_mass(model.stiffness, model.mass).values
        v = m_orthonormalize(rng.standard_normal((8, 3)), mass)
        rom = galerkin_reduce(
            model, ReducedBasis(v, MASS_ORTHONORMAL, mass=mass)
        )
        red = np.linalg.eigvalsh(symmetrize(rom.stiffness))
        result = check_interlacing(full, red)
        assert result.ok
        assert result.worst_violation <= result.tolerance

    def test_flags_planted_violation(self):
        result = check_interlacing([1.0, 2.0, 3.0, 4.0], [0.5, 2.5])
        assert not result.ok
        assert result.worst_violation == pytest.approx(0.5)

    def test_upper_bracket_checked_too(self):
        # reduced value above full[m - k + i]
        result = check_interlacing([1.0, 2.0, 3.0], [1.5, 3.5])
        assert not result.ok

    def test_validation(self):
        with pytest.raises(ValueError):
            check_interlacing([2.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            check_interlacing([1.0], [0.5, 0.7])
        with pytest.raises(ValueError):
            check_interlacing([1.0, 2.0], [])


class TestDominance:
    def test_projection_never_shrinks_the_step(self):
        rng = np.random.default_rng(92)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            mass = rng.uniform(0.5, 3.0, m)
            b = rng.standard_normal((m, m + 2))
            model = FullOrderModel(m=m, mass=mass,
                                   stiffness=symmetrize(b @ b.T),
                                   a1=float(rng.uniform(0.0, 2.0)),
                                   a2=float(rng.uniform(0.0, 2.0)))
            k = int(rng.integers(1, m))
            v = m_orthonormalize(rng.standard_normal((m, k)), mass)
            basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=mass)
            result = verify_rom_dt_dominance(model, basis)
            assert result.ok
            assert result.dt_rom >= result.dt_fom * (1.0 - 1e-10)

    def test_requires_mass_orthonormal_basis(self):
        model = _string(5)
        q, _ = np.linalg.qr(np.random.default_rng(93).standard_normal((5, 2)))
        with pytest.raises(ValueError):
            verify_rom_dt_dominance(model, ReducedBasis(q, "plain-orthonormal"))


class TestReportDispatch:
    def test_full_order_string_hand_value(self):
        report = critical_dt_report(_string(5))
        assert report.model_kind == "fom"
        assert report.method == "modal-exact"
        assert report.dt_crit == pytest.approx(0.0447202, abs=1e-5)
        assert report.mu_max == pytest.approx(2000.101, abs=1e-2)

    def test_galerkin_report_is_modal(self):
        model = _string(6, a1=0.2, a2=0.01)
        rom = galerkin_reduce(model, modal_basis(model, [0, 1]))
        report = critical_dt_report(rom)
        assert report.model_kind == "rom"
        assert report.method == "modal-exact"
        mu = np.linalg.eigvalsh(symmetrize(rom.stiffness))[-1]
        assert report.dt_crit == pytest.approx(
            critical_dt_system(mu, model.a1, model.a2).dt_crit, rel=1e-12
        )

    def test_weighted_element_report_is_modal(self):
        model = _string(6, a1=0.1)
        rng = np.random.default_rng(94)
        basis = modal_basis(model, [0, 2])
        xi = rng.uniform(0.5, 1.5, len(model.elements))
        report = critical_dt_report(ecsw_reduce(model, xi, basis))
        assert report.model_kind == "hrom"
        assert report.method == "modal-exact"

    def test_sampled_model_report_brackets_the_radius(self):
        model = _string(9, a1=0.1, a2=0.005)
        rng = np.random.default_rng(95)
        v = m_orthonormalize(rng.standard_normal((9, 2)), model.mass)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
        rows = [0, 2, 5, 8]
        hrom = collocate_naive(model, basis, SampleSet.from_model(model, rows))
        report = critical_dt_report(hrom)
        assert report.method == "amplification-exact"
        assert report.model_kind == "hrom"
        dt = report.dt_crit
        below = spectral_radius(sampled_step_matrix(hrom, 0.999 * dt)).radius
        above = spectral_radius(sampled_step_matrix(hrom, 1.001 * dt)).radius
        assert below <= 1.0 + 1e-9
        assert above > 1.0 + 1e-9

    def test_projected_collocation_report_brackets_the_radius(self):
        model = _string(8, a1=0.05)
        rng = np.random.default_rng(96)
        v = m_orthonormalize(rng.standard_normal((8, 2)), model.mass)
        basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
        rom = collocate_projected(model, basis,
                                  SampleSet.from_model(model, [0, 3, 5, 7]))
        report = critical_dt_report(rom)
        assert report.method == "amplification-exact"
        dt = report.dt_crit

        def rho(step):
            return spectral_radius(
                amplification_matrix(rom.mass, rom.damping, rom.stiffness, step)
            ).radius

        assert rho(0.999 * dt) <= 1.0 + 1e-9
        assert rho(1.001 * dt) > 1.0 + 1e-9

    def test_unknown_model_type_rejected(self):
        with pytest.raises(TypeError):
            critical_dt_report("model")


def _sampled_reduction(kind, a1=0.0):
    """A 30-DoF string reduced onto a mixed-mode basis of 4 columns.

    On this seed every reduction below has a real positive spectrum of
    ``inv(M_r) K_r``, so each has a genuine stable step.
    """
    model = _string(30, a1=a1, a2=1e-3)
    rng = np.random.default_rng(7)
    modes = modal_basis(model, range(8)).matrix
    modes = modes * np.sign(modes[0])  # eigenvector signs vary across LAPACKs
    decay = np.arange(1, 9)[:, None]
    v = m_orthonormalize(modes @ (rng.standard_normal((8, 4)) / decay), model.mass)
    basis = ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)
    if kind == "projected":
        samples = SampleSet.from_model(model, range(0, 30, 2))
        return collocate_projected(model, basis, samples)
    if kind == "naive-square":
        samples = SampleSet.from_model(model, deim_points(v))
        return collocate_naive(model, basis, samples)
    if kind == "naive-rect":
        return collocate_naive(model, basis, SampleSet.from_model(model, range(0, 30, 3)))
    # Snapshots near the basis span keep the interpolated operator close
    # to the Galerkin one (a real positive spectrum) without matching it.
    snapshots = v @ rng.standard_normal((4, 12)) + 0.1 * modes @ rng.standard_normal(
        (8, 12)
    )
    force_basis, _, _ = thin_svd(model.stiffness @ snapshots)
    rows = deim_points(force_basis[:, :6])
    if kind == "deim":
        return deim_reduce(model, basis, force_basis[:, :4], rows[:4])
    return gnat_reduce(model, basis, force_basis[:, :4], rows)


def _hand_built_damping():
    """A 3-DoF nonsymmetric reduced model whose damping is not Rayleigh."""
    rng = np.random.default_rng(97)
    basis = ReducedBasis(np.eye(6)[:, :3], "plain-orthonormal")
    stiffness = np.diag([1.0, 4.0, 9.0]) + 0.1 * rng.standard_normal((3, 3))
    return ReducedModel(
        mass=np.eye(3),
        damping=0.05 * np.abs(rng.standard_normal((3, 3))),
        stiffness=stiffness,
        provenance="deim",
        symmetric=False,
        basis=basis,
        a1=0.0,
        a2=0.01,
    )


def _dense_radius(model):
    if isinstance(model, SampledModel):
        return lambda dt: spectral_radius(sampled_step_matrix(model, dt)).radius
    return lambda dt: spectral_radius(
        amplification_matrix(model.mass, model.damping, model.stiffness, dt)
    ).radius


def _dense_dt_crit(model, mu_guess, slack=1e-9):
    """Dense-radius bisection; it accepts radii up to ``1 + slack``."""
    radius = _dense_radius(model)
    return _bisect_critical_dt(lambda dt: radius(dt) + (1e-9 - slack),
                               2.0 / math.sqrt(mu_guess))


def _decoupled_radius(lam, a1, a2, floor):
    """Oracle: spectral radius of the one-step matrix from the eigenvalues
    ``lam`` of ``inv(M_r) K_r``, for Rayleigh damping ``c = a1 + a2 lam``.

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


DECOUPLED_CASES = [
    ("projected", 0.0),
    ("projected", 0.5),
    ("deim", 0.0),
    ("gnat", 0.0),
    ("naive-square", 0.0),
    ("naive-rect", 0.0),
    ("naive-rect", 0.5),
]


class TestDecoupledRadius:
    """Rayleigh-damped reductions take their step from the eigenvalues of
    ``inv(M_r) K_r``; the dense one-step matrix is the oracle."""

    @pytest.mark.parametrize("kind,a1", DECOUPLED_CASES)
    def test_radius_matches_dense_one_step_matrix(self, kind, a1):
        rom = _sampled_reduction(kind, a1)
        lam, dense = _step_spectrum(rom)
        assert dense is None
        floor = 1.0 if kind == "naive-rect" else 0.0
        radius_at = _decoupled_radius(lam, rom.a1, rom.a2, floor)
        dense = _dense_radius(rom)
        dt = critical_dt_report(rom).dt_crit
        for factor in (0.5, 0.99, 1.01, 2.0):
            assert radius_at(factor * dt) == pytest.approx(
                dense(factor * dt), rel=1e-9
            )

    @pytest.mark.parametrize("kind,a1", DECOUPLED_CASES)
    def test_dt_crit_matches_dense_bisection(self, kind, a1):
        rom = _sampled_reduction(kind, a1)
        lam, _ = _step_spectrum(rom)
        mu_guess = float(np.max(np.abs(lam)))
        report = critical_dt_report(rom)
        assert report.method == "amplification-exact"
        assert report.stable
        assert report.mu_max == mu_guess
        assert report.dt_crit > 0.1  # a genuine step, not a slack artifact
        assert report.dt_crit == pytest.approx(
            _dense_dt_crit(rom, mu_guess), rel=1e-8
        )
        # naive-rect's p - k unit one-step eigenvalues leave eigvals as 1 + O(eps)
        assert _dense_radius(rom)(0.999 * report.dt_crit) <= 1.0 + 1e-12

    def test_non_rayleigh_deim_takes_the_dense_path(self):
        rom = _sampled_reduction("deim", a1=0.5)
        lam, dense = _step_spectrum(rom)
        assert dense is not None
        report = critical_dt_report(rom)
        assert report.method == "amplification-bisection"
        assert report.dt_crit == _dense_dt_crit(rom, float(np.max(np.abs(lam))))

    def test_hand_built_damping_takes_the_dense_path(self):
        rom = _hand_built_damping()
        lam, dense = _step_spectrum(rom)
        assert dense is not None
        report = critical_dt_report(rom)
        assert report.method == "amplification-bisection"
        assert report.dt_crit == _dense_dt_crit(rom, float(np.max(np.abs(lam))))

    @pytest.mark.parametrize("field", ["stiffness", "damping"])
    @pytest.mark.parametrize("kind", ["projected", "naive-rect"])
    def test_non_finite_operator_is_a_value_error(self, kind, field):
        rom = _sampled_reduction(kind)
        broken = getattr(rom, field).copy()
        broken[0, 0] = np.nan if field == "stiffness" else np.inf
        rom = dataclasses.replace(rom, **{field: broken})
        with pytest.raises(ValueError, match="non-finite"):
            critical_dt_report(rom)


def _planted(lams, a1=0.0, a2=0.0, mix=0.0, damping=None, seed=0):
    """Nonsymmetric reduced model with ``inv(M_r) K_r`` similar to a real
    block diagonal: one entry per real ``lam``, a 2 x 2 block
    ``[[Re, Im], [-Im, Re]]`` per complex one (so its conjugate joins).
    ``mix`` sizes the random similarity; the damping is Rayleigh unless
    given."""
    blocks = [np.array([[z.real, z.imag], [-z.imag, z.real]]) if z.imag else
              np.array([[z.real]]) for z in map(complex, lams)]
    k = sum(len(b) for b in blocks)
    diag, at = np.zeros((k, k)), 0
    for b in blocks:
        diag[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    s = np.eye(k) + mix * np.random.default_rng(seed).standard_normal((k, k))
    stiffness = s @ diag @ np.linalg.inv(s)
    return ReducedModel(
        mass=np.eye(k),
        damping=a1 * np.eye(k) + a2 * stiffness if damping is None else damping,
        stiffness=stiffness,
        provenance="deim",
        symmetric=False,
        basis=ReducedBasis(np.eye(k + 1)[:, :k], "plain-orthonormal"),
        a1=a1,
        a2=a2,
    )


def _mp_radius(lam, a1, a2, dt):
    """Largest root modulus of the one-step quadratic, with 40 digits."""
    with mpmath.workdps(40):
        lam, dt = mpmath.mpc(lam), mpmath.mpf(dt)
        c = a1 + a2 * lam
        b, c0 = -(2 - dt * c - dt * dt * lam), 1 - dt * c
        disc = mpmath.sqrt(b * b - 4 * c0)
        return max(abs((-b + disc) / 2), abs((-b - disc) / 2))


def _frozen_600(kind, seed=0):
    """Interpolation at benchmark size: m = 600 string, a1 = 0, a2 = 1e-4, the 40 lowest
    modes, and a force basis (40 columns) of K times 201 snapshots of a
    white-noise start; DEIM takes 40 points and GNAT 60 rows."""
    model = _string(600, a1=0.0, a2=1e-4)
    rng = np.random.default_rng(seed)
    dt = 0.9 * critical_dt_report(model).dt_crit
    run = integrate(model, rng.standard_normal(600), np.zeros(600), 200 * dt, dt)
    force_basis, _, _ = thin_svd(model.stiffness @ snapshots_from_trajectory(run))
    rows = deim_points(force_basis[:, :60])
    basis = modal_basis(model, range(40))
    if kind == "deim":
        return deim_reduce(model, basis, force_basis[:, :40], rows[:40])
    return gnat_reduce(model, basis, force_basis[:, :40], rows)


class TestExactSteps:
    """The per-eigenvalue stable interval from 0+ in closed form."""

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_frozen_deim_instances_have_no_stable_step(self, seed):
        _, hrom, _ = frozen_deim_instance(seed=seed, m=8, n_modes=3)
        report = critical_dt_report(hrom)
        assert report.method == "amplification-exact"
        assert not report.stable and report.dt_crit == 0.0
        lam, _ = _step_spectrum(hrom)
        assert report.eigenvalue == lam[np.argmin(lam.real)]
        assert report.eigenvalue.real < 0.0 and report.eigenvalue.imag == 0.0
        # the amplification radius exceeds 1 at every small step
        for dt in (1e-9, 1e-4, 1e-1):
            assert _mp_radius(report.eigenvalue, 0.0, 0.0, dt) > 1
        doc = report.to_dict()
        assert doc["stable"] is False
        assert doc["eigenvalue"] == [report.eigenvalue.real, 0.0]

    @pytest.mark.parametrize("kind", ["deim", "gnat"])
    def test_benchmark_size_interpolation_has_no_stable_step(self, kind):
        report = critical_dt_report(_frozen_600(kind))
        assert report.method == "amplification-exact"
        assert not report.stable and report.dt_crit == 0.0
        assert report.eigenvalue.real < 0.0

    @pytest.mark.parametrize("a1,a2", [(0.0, 0.0), (0.3, 0.05)])
    def test_planted_negative_eigenvalue(self, a1, a2):
        report = critical_dt_report(_planted([-0.5, 1.0, 4.0], a1, a2, mix=0.3))
        assert not report.stable
        assert report.eigenvalue == pytest.approx(-0.5, rel=1e-12)

    @pytest.mark.parametrize("lam,a1,a2,stable", [
        (4 + 0.5j, 0.0, 0.0, False),   # undamped: the conjugate pair splits off the circle
        (4 + 0.5j, 0.0, 0.1, True),    # damping beats the small-step growth
        (4 + 0.5j, 0.5, 0.0, True),
        (4 + 3.0j, 0.0, 0.01, False),  # growth beats the damping
        (-1 + 2.0j, 0.2, 0.0, False),
    ])
    def test_planted_complex_eigenvalue(self, lam, a1, a2, stable):
        rom = _planted([lam, 1.0], a1, a2, mix=0.3)
        report = critical_dt_report(rom)
        assert report.method == "amplification-exact"
        assert report.stable is stable
        if not stable:
            assert report.eigenvalue == pytest.approx(
                lam if report.eigenvalue.imag > 0 else lam.conjugate(), rel=1e-12
            )
            assert _mp_radius(lam, a1, a2, 1e-6) > 1
            return
        dt = report.dt_crit
        assert dt == pytest.approx(_dense_dt_crit(rom, report.mu_max), rel=1e-8)
        assert _dense_radius(rom)(0.999 * dt) <= 1.0
        assert _dense_radius(rom)(1.001 * dt) > 1.0

    def test_random_stable_instances_match_dense_bisection(self):
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 25:
            n = int(rng.integers(1, 4))
            lams = list(rng.uniform(0.5, 10.0, n) + 1j * rng.uniform(0.0, 2.0, n))
            lams += list(rng.uniform(0.1, 10.0, int(rng.integers(0, 3))))
            a1, a2 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.05, 0.5))
            steps = _exact_steps(np.array(lams, dtype=complex), a1, a2)
            if np.min(steps) == 0.0:
                continue
            rom = _planted(lams, a1, a2, mix=0.3, seed=checked)
            report = critical_dt_report(rom)
            assert report.stable
            # a small radius slope at the boundary turns the default
            # 1e-9 slack into more than 1e-8 of the step
            assert report.dt_crit == pytest.approx(
                _dense_dt_crit(rom, report.mu_max, slack=1e-13), rel=1e-8
            )
            assert _dense_radius(rom)(0.999 * report.dt_crit) <= 1.0
            checked += 1

    def test_verify_property_brackets_the_exact_step(self):
        """``verify``'s ``exact-step-boundary``: radius at most 1 + 1e-12 at
        0.999 dt_crit and above 1 at 1.001 dt_crit, on collocation, DEIM and GNAT."""
        result = run_property("exact-step-boundary", seed=5, trials=40)
        assert result.passed and result.trials == 40
        assert result.worst <= 1e-12

    def test_verify_property_caps_draws_without_an_exact_step(self, monkeypatch):
        """Draws with no finite exact step are skipped at most 20 per trial; the
        trials left unchecked then count as failures."""
        draws = []
        report = stability.StabilityReport(4.0, 0.0, 1.0, "amplification-bisection", "hrom")
        monkeypatch.setattr(verify, "critical_dt_report", lambda rom: draws.append(1) or report)
        result = run_property("exact-step-boundary", seed=5, trials=3)
        assert len(draws) == 60 and result.failures == 3 and not result.passed

    def test_complex_boundary_matches_mpmath(self):
        """The closed-form right end against a 40-digit bisection of the
        largest root modulus of the one-step quadratic."""
        rng = np.random.default_rng(100)
        checked = 0
        with mpmath.workdps(40):
            while checked < 30:
                lam = complex(rng.uniform(-1.0, 10.0), rng.uniform(0.01, 3.0))
                a1, a2 = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 0.5))
                step = float(_exact_steps(np.array([lam]), a1, a2)[0])
                if step == 0.0:
                    assert _mp_radius(lam, a1, a2, 1e-8) > 1
                    continue
                lo, hi = mpmath.mpf(step) / 2, mpmath.mpf(step) * 2
                assert _mp_radius(lam, a1, a2, lo) <= 1 < _mp_radius(lam, a1, a2, hi)
                for _ in range(120):
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if _mp_radius(lam, a1, a2, mid) > 1 else (mid, hi)
                assert abs(step - float(lo)) <= 1e-12 * step
                checked += 1

    def test_real_positive_is_the_modal_formula(self):
        lams = np.array([0.5, 3.0, 2000.101], dtype=complex)
        steps = _exact_steps(lams, 0.2, 1e-4)
        assert np.array_equal(steps, critical_dt_at_frequency(np.sqrt(lams.real), 0.2, 1e-4))

    @pytest.mark.parametrize("a1,a2", [(0.0, 0.0), (0.0, 1e-4)])
    def test_round_off_pair_counts_as_real(self, a1, a2):
        """A double eigenvalue that ``eigvals`` returns as a pair with
        ``|Im| = 1e-12`` keeps the real step, damped or not."""
        rom = _planted([2000.101 + 1e-12j, 500.0], a1, a2)
        report = critical_dt_report(rom)
        assert report.stable
        assert report.dt_crit == pytest.approx(
            critical_dt_at_frequency(math.sqrt(2000.101), a1, a2), rel=1e-12
        )

    def test_imaginary_part_above_round_off_is_complex(self):
        lam = 2000.101 + 2000.101 * 1e-9j
        assert critical_dt_report(_planted([lam], 0.0, 0.0)).stable is False
        step = _exact_steps(np.array([lam]), 0.0, 1e-4)[0]
        assert 0.0 < step < critical_dt_at_frequency(math.sqrt(2000.101), 0.0, 1e-4)

    def test_rigid_and_round_off_negative_eigenvalues(self):
        # |lam| <= 1e-10 max|lam| is rigid: 2 / a1, or no limit when a1 = 0
        lams = np.array([-1e-12, 0.0, 1e-11, 4.0], dtype=complex)
        assert np.array_equal(_exact_steps(lams, 0.5, 0.0)[:3], [4.0, 4.0, 4.0])
        assert np.all(np.isinf(_exact_steps(lams, 0.0, 0.0)[:3]))
        assert critical_dt_report(_planted([-1e-11, 4.0], 0.0, 0.0)).dt_crit == 1.0
        all_rigid = _planted([0.0, 0.0], 0.5, 0.0)
        assert critical_dt_report(all_rigid).dt_crit == 4.0
        assert critical_dt_report(_planted([0.0, 0.0])).dt_crit == math.inf

    def test_sampled_unit_eigenvalues_do_not_limit_the_step(self):
        rom = _sampled_reduction("naive-rect")
        assert rom.row_basis.shape[0] > rom.dim
        report = critical_dt_report(rom)
        assert report.stable and report.dt_crit > 0.1
        # the p - k unit one-step eigenvalues hold the dense radius at 1
        assert _dense_radius(rom)(0.5 * report.dt_crit) == pytest.approx(1.0, abs=1e-12)


class TestDensePath:
    """Non-Rayleigh damping: one first-order eigensolve, then bisection."""

    def _growing(self):
        # inv(M_r) C_r with a negative diagonal entry: the first-order
        # matrix has an eigenvalue with positive real part
        damping = np.diag([0.2, -0.3, 0.1])
        return _planted([1.0, 4.0, 9.0], 0.0, 0.01, mix=0.2, damping=damping)

    def test_first_order_growth_is_reported(self):
        rom = self._growing()
        report = critical_dt_report(rom)
        assert report.method == "amplification-bisection"
        assert not report.stable and report.dt_crit == 0.0
        k = rom.dim
        first_order = np.block([[np.zeros((k, k)), np.eye(k)],
                                [-rom.stiffness, -rom.damping]])
        nu = np.linalg.eigvals(first_order)
        assert report.eigenvalue == nu[np.argmax(nu.real)]
        assert report.eigenvalue.real > 0.0
        assert _dense_radius(rom)(1e-4) > 1.0

    def test_no_step_from_bisection_is_reported_not_raised(self, monkeypatch):
        rom = _sampled_reduction("deim", a1=0.5)
        monkeypatch.setattr(stability, "_bisect_critical_dt", lambda *args: 0.0)
        report = critical_dt_report(rom)
        assert not report.stable and report.dt_crit == 0.0
        assert report.method == "amplification-bisection"

    def test_damped_dense_path_stays_stable(self):
        rom = _sampled_reduction("deim", a1=0.5)
        report = critical_dt_report(rom)
        assert report.stable and report.to_dict().keys() == {
            "mu_max", "xi", "dt_crit", "method", "model_kind"}


def _plain_galerkin():
    """Galerkin on a plain-orthonormal basis: its reduced mass is not I."""
    model = _string(12, a1=0.1, a2=1e-3)
    v, _, _ = thin_svd(np.random.default_rng(98).standard_normal((12, 4)))
    rom = galerkin_reduce(model, ReducedBasis(v, "plain-orthonormal"))
    assert not np.array_equal(rom.mass, np.eye(4))
    return rom


ONE_STEP_CASES = {
    "galerkin-plain": _plain_galerkin,
    "projected": lambda: _sampled_reduction("projected"),
    "deim-a1": lambda: _sampled_reduction("deim", a1=0.5),
    "hand-built-damping": _hand_built_damping,
}


class TestOneStepMatrix:
    """The report reads ``_step_matrices(dt)[0]``, the matrix ``integrate``
    steps with; ``amplification_matrix`` on ``(x_n, x_{n-1})`` is its oracle."""

    @pytest.mark.parametrize("case", ONE_STEP_CASES)
    def test_step_matrix_radius_matches_the_oracle(self, case):
        rom = ONE_STEP_CASES[case]()
        dt_crit = critical_dt_report(rom).dt_crit
        for factor in (0.5, 0.99, 1.01, 2.0):
            dt = factor * dt_crit
            ours = spectral_radius(rom._step_matrices(dt)[0]).radius
            oracle = spectral_radius(
                amplification_matrix(rom.mass, rom.damping, rom.stiffness, dt)).radius
            assert ours == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kind", ["deim", "gnat"])
    def test_dense_report_is_the_integrate_boundary(self, kind):
        rom = _sampled_reduction(kind, a1=0.5)
        report = critical_dt_report(rom)
        assert report.method == "amplification-bisection"
        k = rom.dim
        for factor, diverges in ((0.99, False), (1.01, True)):
            dt = factor * report.dt_crit
            values, vectors = np.linalg.eig(rom.step_operator(dt)[0])
            top = vectors[:, np.argmax(np.abs(values))]
            top = (top * np.exp(-1j * np.angle(top[np.argmax(np.abs(top))]))).real
            run = integrate(rom, top[:k], top[k:], 2000 * dt, dt)
            assert run.divergence_flag is diverges

    def test_non_identity_mass_is_read(self):
        rom = ReducedModel(mass=4.0 * np.eye(2), damping=np.zeros((2, 2)),
                           stiffness=np.diag([1.0, 4.0]), provenance="galerkin",
                           symmetric=True, basis=ReducedBasis(np.eye(3)[:, :2],
                                                              "plain-orthonormal"))
        assert critical_dt_report(rom).dt_crit == 2.0
        run = integrate(rom, np.ones(2), np.zeros(2), 2000 * 1.5, 1.5)
        assert not run.divergence_flag
        assert np.max(np.abs(run.states)) <= 2.0


def _reductions(rng, model, k):
    """Every reduction of ``model`` onto ``k`` random mass-orthonormal
    columns that the sampling admits."""
    basis = ReducedBasis(_random_mass_basis(rng, model, k), MASS_ORTHONORMAL,
                         mass=model.mass)
    m = model.m
    rows = sorted(rng.choice(m, size=int(rng.integers(k, m + 1)), replace=False).tolist())
    force_basis, _, _ = thin_svd(model.stiffness @ rng.standard_normal((m, 2 * k)))
    builders = [
        lambda: galerkin_reduce(model, basis),
        lambda: ecsw_reduce(model, rng.uniform(0.0, 2.0, m - 1), basis),
        lambda: collocate_projected(model, basis, SampleSet.from_model(model, rows)),
        lambda: collocate_naive(model, basis, SampleSet.from_model(model, rows)),
        lambda: deim_reduce(model, basis, force_basis[:, :k],
                            deim_points(force_basis[:, :k])),
        lambda: gnat_reduce(model, basis, force_basis[:, :k],
                            deim_points(force_basis[:, :min(2 * k, m)])),
    ]
    out = []
    for build in builders:
        try:
            out.append(build())
        except RankDeficiencyError:
            pass
    return out


class TestReportNeverRaises:
    def test_every_generator_instance_gets_a_report(self):
        rng = np.random.default_rng(101)
        models = []
        for trial in range(24):
            m = int(rng.integers(4, 14))
            a1, a2 = (0.0, 0.0) if trial % 3 == 0 else tuple(rng.uniform(0.0, 0.5, 2))
            models.append(_random_chain(rng, m, bool(trial % 2), float(a1), float(a2)))
        systems = []
        for model in models:
            systems.append(model)
            systems += _reductions(rng, model, int(rng.integers(1, min(model.m - 1, 5) + 1)))
        systems += [_random_spd_pencil(rng, int(rng.integers(2, 10)), bool(d))
                    for d in (0, 1, 0, 1)]
        for seed in range(40):
            for m, n_modes in ((6, 2), (8, 3), (10, 4)):
                try:
                    systems.append(frozen_deim_instance(seed, m, n_modes)[1])
                except RankDeficiencyError:
                    pass
        unstable = 0
        for system in systems:
            report = critical_dt_report(system)
            values = (report.mu_max, report.xi, report.dt_crit)
            assert not any(math.isnan(v) for v in values)
            assert report.stable == (report.dt_crit > 0.0)
            unstable += not report.stable
        assert len(systems) > 200 and unstable > 0


class TestStabilityReportRecord:
    def test_to_dict_schema(self):
        report = critical_dt_system(4.0, 0.1, 0.0)
        doc = report.to_dict()
        assert set(doc) == {"mu_max", "xi", "dt_crit", "method", "model_kind"}

    def test_field_validation(self):
        with pytest.raises(ValueError):
            StabilityReport(mu_max=1.0, xi=0.0, dt_crit=1.0,
                            method="guesswork", model_kind="fom")
        with pytest.raises(ValueError):
            StabilityReport(mu_max=1.0, xi=0.0, dt_crit=1.0,
                            method="modal-exact", model_kind="other")
        with pytest.raises(ValueError):
            StabilityReport(mu_max=-1.0, xi=0.0, dt_crit=1.0,
                            method="modal-exact", model_kind="fom")
        with pytest.raises(ValueError):
            StabilityReport(mu_max=1.0, xi=0.0, dt_crit=0.0,
                            method="modal-exact", model_kind="fom")

    def test_unstable_report_rules(self):
        report = StabilityReport(mu_max=1.0, xi=0.0, dt_crit=0.0,
                                 method="amplification-exact", model_kind="hrom",
                                 stable=False, eigenvalue=-2.0 + 0.5j)
        assert report.to_dict() == {
            "mu_max": 1.0, "xi": 0.0, "dt_crit": 0.0,
            "method": "amplification-exact", "model_kind": "hrom",
            "stable": False, "eigenvalue": [-2.0, 0.5],
        }
        for dt, eigenvalue in ((1e-3, -2.0 + 0j), (0.0, None)):
            with pytest.raises(ValueError, match="unstable report"):
                StabilityReport(mu_max=1.0, xi=0.0, dt_crit=dt,
                                method="amplification-exact", model_kind="hrom",
                                stable=False, eigenvalue=eigenvalue)

    @pytest.mark.parametrize("field", ["mu_max", "xi", "dt_crit"])
    def test_nan_is_rejected(self, field):
        values = {"mu_max": 1.0, "xi": 0.0, "dt_crit": 1.0, field: math.nan}
        with pytest.raises(ValueError):
            StabilityReport(method="modal-exact", model_kind="fom", **values)
