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
    amplification_matrix,
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
from romstab.stability import _bisect_critical_dt, _step_radius
from romstab.verify import _random_chain


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
        assert report.method == "amplification-bisection"
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
        assert report.method == "amplification-bisection"
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


def _dense_radius(model):
    if isinstance(model, SampledModel):
        return lambda dt: spectral_radius(sampled_step_matrix(model, dt)).radius
    return lambda dt: spectral_radius(
        amplification_matrix(model.mass, model.damping, model.stiffness, dt)
    ).radius


def _dense_dt_crit(model, mu_guess):
    return _bisect_critical_dt(_dense_radius(model), 2.0 / math.sqrt(mu_guess))


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
    """Rayleigh-damped reductions take their radius from the eigenvalues
    of ``inv(M_r) K_r``; the dense one-step matrix is the oracle."""

    @pytest.mark.parametrize("kind,a1", DECOUPLED_CASES)
    def test_radius_matches_dense_one_step_matrix(self, kind, a1):
        rom = _sampled_reduction(kind, a1)
        radius_at, _, decoupled = _step_radius(rom)
        assert decoupled
        dense = _dense_radius(rom)
        dt = critical_dt_report(rom).dt_crit
        for factor in (0.5, 0.99, 1.01, 2.0):
            assert radius_at(factor * dt) == pytest.approx(
                dense(factor * dt), rel=1e-9
            )

    @pytest.mark.parametrize("kind,a1", DECOUPLED_CASES)
    def test_dt_crit_matches_dense_bisection(self, kind, a1):
        rom = _sampled_reduction(kind, a1)
        _, mu_guess, _ = _step_radius(rom)
        report = critical_dt_report(rom)
        assert report.method == "amplification-bisection"
        assert report.mu_max == mu_guess
        assert report.dt_crit > 0.1  # a genuine step, not a slack artifact
        assert report.dt_crit == pytest.approx(
            _dense_dt_crit(rom, mu_guess), rel=1e-8
        )

    def test_non_rayleigh_deim_takes_the_dense_path(self):
        rom = _sampled_reduction("deim", a1=0.5)
        radius_at, mu_guess, decoupled = _step_radius(rom)
        assert not decoupled
        assert critical_dt_report(rom).dt_crit == _dense_dt_crit(rom, mu_guess)

    def test_hand_built_damping_takes_the_dense_path(self):
        rng = np.random.default_rng(97)
        basis = ReducedBasis(np.eye(6)[:, :3], "plain-orthonormal")
        stiffness = np.diag([1.0, 4.0, 9.0]) + 0.1 * rng.standard_normal((3, 3))
        rom = ReducedModel(
            mass=np.eye(3),
            damping=0.05 * np.abs(rng.standard_normal((3, 3))),
            stiffness=stiffness,
            provenance="deim",
            symmetric=False,
            basis=basis,
            a1=0.0,
            a2=0.01,
            mass_is_identity=True,
        )
        _, mu_guess, decoupled = _step_radius(rom)
        assert not decoupled
        assert critical_dt_report(rom).dt_crit == _dense_dt_crit(rom, mu_guess)

    @pytest.mark.parametrize("field", ["stiffness", "damping"])
    @pytest.mark.parametrize("kind", ["projected", "naive-rect"])
    def test_non_finite_operator_is_a_value_error(self, kind, field):
        rom = _sampled_reduction(kind)
        broken = getattr(rom, field).copy()
        broken[0, 0] = np.nan if field == "stiffness" else np.inf
        rom = dataclasses.replace(rom, **{field: broken})
        with pytest.raises(ValueError, match="non-finite"):
            critical_dt_report(rom)


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
