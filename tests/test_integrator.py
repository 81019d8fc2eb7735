"""Tests for the central-difference integrator and trajectory plumbing.

The main oracle is an independent line-by-line transcription of the
staggered update written directly in the tests; the matrix-power identity
with the ghost-point start provides a second, structurally different
cross-check.
"""

import dataclasses
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from romstab import (
    ForceTable,
    FormatError,
    FullOrderModel,
    IntegratorState,
    SampledModel,
    SampleSet,
    Trajectory,
    build_string_model,
    cd_step,
    collocate_naive,
    collocate_projected,
    critical_dt_report,
    deim_points,
    ecsw_reduce,
    ecsw_train,
    galerkin_reduce,
    hrom_step,
    integrate,
    modal_basis,
    read_basis,
    read_model,
    read_trajectory,
    sampled_step_matrix,
    spectral_radius,
    write_trajectory,
)
from romstab import cli
from romstab.integrator import _BLOCK, _block_rows

from step_oracle import amplification_matrix


def _reference_run(mass, damping, stiffness, x0, v0, dt, steps):
    """Plain transcription of the staggered scheme, kept independent of the
    package implementation on purpose."""
    x = np.array(x0, dtype=float)
    v_half = np.array(v0, dtype=float)
    out = [x.copy()]
    for _ in range(steps):
        accel = (-damping @ v_half - stiffness @ x) / mass
        v_half = v_half + dt * accel
        x = x + dt * v_half
        out.append(x.copy())
    return np.array(out)


def _scalar_model(mu, xi=0.0, mass=1.0):
    """Single-DoF model with ratio mu = k/m and damping ratio xi."""
    k = mu * mass
    c = 2.0 * xi * np.sqrt(mu) * mass
    return FullOrderModel(
        m=1, mass=np.array([mass]), stiffness=np.array([[k]]),
        a1=c / mass, a2=0.0,
    )


class TestCdStep:
    def test_matches_reference_recurrence(self):
        rng = np.random.default_rng(21)
        model = build_string_model(6, element_mass=1.0, element_stiffness=4.0,
                                   length=1.0, boundary_factor=3.0,
                                   a1=0.2, a2=0.01)
        x0 = rng.standard_normal(6)
        v0 = rng.standard_normal(6)
        dt = 0.05
        expected = _reference_run(model.mass, model.damping, model.stiffness,
                                  x0, v0, dt, steps=100)
        state = IntegratorState.initial(x0, v0)
        for n in range(1, 101):
            state = cd_step(model, state, dt)
            assert np.abs(state.x - expected[n]).max() < 1e-12 * max(
                1.0, np.abs(expected[n]).max()
            )
        assert state.n == 100
        assert state.t == pytest.approx(100 * dt, rel=1e-12)

    def test_first_step_uses_initial_velocity_directly(self):
        model = _scalar_model(4.0)
        state = cd_step(model, IntegratorState.initial([1.0], [0.5]), 0.1)
        # a0 = -4*1; v = 0.5 + 0.1*(-4); x = 1 + 0.1*v
        assert state.v_half[0] == pytest.approx(0.1)
        assert state.x[0] == pytest.approx(1.01)

    def test_nonfinite_states_propagate(self):
        model = _scalar_model(1.0)
        state = IntegratorState(x=np.array([np.nan]), v_half=np.array([0.0]))
        out = cd_step(model, state, 0.1)
        assert np.isnan(out.x[0])


class TestMatrixPowerIdentity:
    def test_n_steps_equal_matrix_power(self):
        """With the ghost start x_{-1} = x0 - dt*v0, n steps of the stepper
        equal the n-th power of the one-step transfer matrix."""
        rng = np.random.default_rng(22)
        model = build_string_model(5, element_mass=2.0, element_stiffness=3.0,
                                   length=1.0, boundary_factor=1.0,
                                   a1=0.1, a2=0.05)
        dt = 0.1
        x0 = rng.standard_normal(5)
        v0 = rng.standard_normal(5)
        a = amplification_matrix(model.mass, model.damping, model.stiffness, dt)
        y = np.concatenate([x0, x0 - dt * v0])
        state = IntegratorState.initial(x0, v0)
        for n in range(1, 101):
            state = cd_step(model, state, dt)
            y = a @ y
            scale = max(1.0, np.abs(y[:5]).max())
            assert np.abs(state.x - y[:5]).max() < 1e-8 * scale

    def test_amplification_matrix_accepts_dense_mass(self):
        mass = np.diag([2.0, 3.0])
        k = np.array([[4.0, -1.0], [-1.0, 4.0]])
        c = np.zeros((2, 2))
        from_diag = amplification_matrix(np.array([2.0, 3.0]), c, k, 0.1)
        from_dense = amplification_matrix(mass, c, k, 0.1)
        assert np.abs(from_diag - from_dense).max() < 1e-15

    def test_undamped_scalar_block_layout(self):
        # mu = 4, dt = 0.5: top-left 2 - dt^2 mu = 1, coupling -1
        a = amplification_matrix(np.array([1.0]), np.zeros((1, 1)),
                                 np.array([[4.0]]), 0.5)
        assert np.allclose(a, [[1.0, -1.0], [1.0, 0.0]])


class TestIntegrate:
    def test_bounded_at_99_percent_of_critical(self):
        model = build_string_model(8, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=99.0)
        mu = np.linalg.eigvalsh(
            model.stiffness / np.sqrt(np.outer(model.mass, model.mass))
        )[-1]
        dt = 0.99 * 2.0 / np.sqrt(mu)
        rng = np.random.default_rng(23)
        x0 = 1e-3 * rng.standard_normal(8)
        traj = integrate(model, x0, np.zeros(8), t_end=10_000 * dt, dt=dt,
                         record_every=100)
        assert not traj.divergence_flag
        norms = np.linalg.norm(traj.states, axis=1)
        assert norms.max() <= 50.0 * np.linalg.norm(x0)

    def test_divergence_flag_and_step(self):
        model = build_string_model(8, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=99.0)
        mu = np.linalg.eigvalsh(
            model.stiffness / np.sqrt(np.outer(model.mass, model.mass))
        )[-1]
        dt = 1.01 * 2.0 / np.sqrt(mu)
        rng = np.random.default_rng(24)
        x0 = 1e-3 * rng.standard_normal(8)
        traj = integrate(model, x0, np.zeros(8), t_end=10_000 * dt, dt=dt)
        assert traj.divergence_flag
        assert traj.divergence_step is not None
        assert traj.times[-1] == pytest.approx(traj.divergence_step * dt, rel=1e-9)

    def test_record_every_keeps_final_step(self):
        model = _scalar_model(4.0)
        traj = integrate(model, [1.0], [0.0], t_end=0.7, dt=0.1, record_every=3)
        # initial + steps 3, 6 + final step 7
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.7])

    def test_step_count_is_floor_with_grace(self):
        model = _scalar_model(1.0)
        # 0.3 / 0.1 is 2.9999... in floating point; must still take 3 steps
        traj = integrate(model, [1.0], [0.0], t_end=0.3, dt=0.1)
        assert traj.times[-1] == pytest.approx(0.3)
        assert len(traj.times) == 4

    def test_zero_t_end_records_initial_state_only(self):
        model = _scalar_model(1.0)
        traj = integrate(model, [2.0], [0.0], t_end=0.0, dt=0.1)
        assert traj.states.shape == (1, 1)
        assert not traj.divergence_flag

    def test_argument_validation(self):
        model = _scalar_model(1.0)
        with pytest.raises(ValueError):
            integrate(model, [1.0], [0.0], t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate(model, [1.0], [0.0], t_end=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate(model, [1.0], [0.0], t_end=1.0, dt=0.1, record_every=0)
        with pytest.raises(ValueError):
            integrate(model, [1.0, 2.0], [0.0, 0.0], t_end=1.0, dt=0.1)

    @pytest.mark.parametrize("name", ["dt", "t_end", "blowup"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_arguments(self, name, value):
        args = {"dt": 0.1, "t_end": 1.0, "blowup": 1e6, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            integrate(_scalar_model(1.0), [1.0], [0.0], **args)

    @pytest.mark.parametrize("t_end, dt, steps", [
        (1e-300, 5e-324, "2.02e+23"),
        (1e300, 5e-324, "inf"),
        (1.5e9, 1.0, "1.5e+09"),
    ])
    def test_rejects_more_than_a_billion_steps(self, monkeypatch, t_end, dt, steps):
        model = _scalar_model(1.0)
        monkeypatch.setattr(FullOrderModel, "force_at", None)  # no step may run
        message = f"t_end={t_end} and dt={dt} ask for {steps} steps; at most 1e9"
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            integrate(model, [1.0], [0.0], t_end=t_end, dt=dt)

    def test_a_billion_steps_pass_the_check(self, monkeypatch):
        model = _scalar_model(1.0)
        monkeypatch.setattr(FullOrderModel, "force_at", None)  # the first step raises
        with pytest.raises(TypeError):
            integrate(model, [1.0], [0.0], t_end=1e9, dt=1.0)

    def test_matches_spectral_radius_prediction(self):
        """Long-run boundedness agrees with rho(A) on both sides of 1."""
        for dt, should_diverge in ((0.95, False), (1.05, True)):
            model = _scalar_model(4.0)  # critical dt = 1
            a = amplification_matrix(model.mass, model.damping,
                                     model.stiffness, dt)
            radius = spectral_radius(a).radius
            traj = integrate(model, [1.0], [0.0], t_end=2000 * dt, dt=dt)
            assert traj.divergence_flag == should_diverge == (radius > 1.0)


def _loaded_systems():
    """A loaded 12-DoF string and its five reductions, keyed by ``_KINDS``."""
    base = build_string_model(12, element_mass=1.0, element_stiffness=10.0,
                              length=1.0, boundary_factor=3.0, a1=0.05, a2=0.002)
    rng = np.random.default_rng(31)
    table = ForceTable(np.linspace(0.0, 30.0, 13),
                       0.1 * rng.standard_normal((13, 12)))
    model = FullOrderModel(m=12, mass=base.mass, stiffness=base.stiffness,
                           a1=base.a1, a2=base.a2, elements=base.elements,
                           external_force=table)
    basis = modal_basis(model, range(4))
    weights = ecsw_train(model, basis, rng.standard_normal((12, 8)), 0.05)
    every_other = SampleSet.from_model(model, range(0, 12, 2))
    greedy = SampleSet.from_model(model, deim_points(basis.matrix))
    return {
        "full": model,
        "galerkin": galerkin_reduce(model, basis),
        "ecsw": ecsw_reduce(model, weights, basis),
        "projected-collocation": collocate_projected(model, basis, every_other),
        "naive-collocation-p=k": collocate_naive(model, basis, greedy),
        "naive-collocation-p>k": collocate_naive(model, basis, every_other),
    }


_KINDS = ["full", "galerkin", "ecsw", "projected-collocation",
          "naive-collocation-p=k", "naive-collocation-p>k"]


@pytest.fixture(scope="module")
def systems():
    return _loaded_systems()


def _norm(x):
    """The Euclidean norm; when the squares overflow but ``x`` is finite, the norm
    of ``x`` over its largest magnitude, times that magnitude."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(x))
    if not np.isinf(plain) or not np.all(np.isfinite(x)):
        return plain
    peak = float(np.max(np.abs(x)))
    return peak * float(np.linalg.norm(x / peak))


def _stepped(model, x0, v0, t_end, dt, record_every=1, blowup=1e6):
    """Oracle for :func:`integrate`: public single steps and the plain
    finiteness and norm tests, one state object per step."""
    step = hrom_step if isinstance(model, SampledModel) else cd_step
    state = IntegratorState.initial(x0, v0)
    limit = blowup * max(1.0, _norm(state.x))
    n_steps = int(np.floor(t_end / dt + 1e-9))
    times, states = [state.t], [state.x.copy()]
    for n in range(1, n_steps + 1):
        state = step(model, state, dt)
        if (not np.all(np.isfinite(state.x))
                or not np.all(np.isfinite(state.v_half))
                or _norm(state.x) > limit):
            times.append(state.t)
            states.append(state.x.copy())
            return np.array(times), np.array(states), True, n
        if n % record_every == 0 or n == n_steps:
            times.append(state.t)
            states.append(state.x.copy())
    return np.array(times), np.array(states), False, None


def _diverging_at(model, x0, step):
    """``(dt, blowup)`` at which a run from ``x0`` at rest first diverges at
    ``step``: 1.02 times the critical step, whose norms grow steadily there,
    and a limit one ulp below the norm at ``step``."""
    dt = 1.02 * critical_dt_report(model).dt_crit
    with np.errstate(all="ignore"):
        _, states, _, _ = _stepped(model, x0, np.zeros(model.dim), step * dt, dt,
                                   blowup=1e300)
    norms = np.linalg.norm(states, axis=1)
    assert np.linalg.norm(x0) < 1.0 and norms[step] > norms[1:step].max()
    return dt, np.nextafter(norms[step], 0.0)


class TestIntegrateParity:
    """``integrate`` and a loop of public steps agree bit for bit."""

    def _compare(self, model, x0, v0, t_end, dt, **kwargs):
        with np.errstate(all="ignore"):
            traj = integrate(model, x0, v0, t_end, dt, **kwargs)
            times, states, flag, step = _stepped(model, x0, v0, t_end, dt, **kwargs)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.states, states, equal_nan=True)
        assert traj.divergence_flag is flag
        assert traj.divergence_step == step
        return traj

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_stable_run(self, systems, kind, record_every):
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        traj = self._compare(model, x0, v0, 50 * dt, dt, record_every=record_every)
        assert not traj.divergence_flag
        assert len(traj.times) == (51 if record_every == 1 else 18)

    @pytest.mark.parametrize("case", ["nan-x0", "blowup", "inf-v0",
                                      "overflowing-norm"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_divergence_and_overflow(self, systems, kind, case):
        model = systems[kind]
        dt_crit = critical_dt_report(model).dt_crit
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.zeros(model.dim)
        dt, blowup = 0.9 * dt_crit, 1e6
        if case == "nan-x0":
            x0[1] = np.nan
        elif case == "blowup":
            dt, blowup = 1.5 * dt_crit, 10.0
        elif case == "inf-v0":
            v0[0] = np.inf
        else:
            x0 = 1e200 * x0  # x @ x overflows; the norms are taken scaled
        traj = self._compare(model, x0, v0, 40 * dt, dt, blowup=blowup)
        assert traj.divergence_flag is (case != "overflowing-norm")

    @pytest.mark.parametrize("kind", _KINDS)
    def test_huge_start_keeps_a_finite_limit(self, systems, kind):
        # x0 @ x0 overflows: the limit is the scaled norm times blowup, so an
        # unstable run stops while its states are still finite, and nothing warns
        model = systems[kind]
        dt_crit = critical_dt_report(model).dt_crit
        x0 = 1e250 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.zeros(model.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable = integrate(model, x0, v0, 40 * 0.9 * dt_crit, 0.9 * dt_crit)
            unstable = integrate(model, x0, v0, 400 * 1.5 * dt_crit, 1.5 * dt_crit,
                                 blowup=10.0)
        assert not stable.divergence_flag
        assert unstable.divergence_flag and np.all(np.isfinite(unstable.states))
        assert _norm(unstable.states[-1]) > 10.0 * _norm(x0)
        self._compare(model, x0, v0, 400 * 1.5 * dt_crit, 1.5 * dt_crit, blowup=10.0)

    @pytest.mark.parametrize("kind", _KINDS)
    def test_blowup_limit_is_inclusive(self, systems, kind):
        # norm(x0) < 1, so the limit is blowup itself: a step landing exactly
        # on it goes on, one ulp below it stops the run
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.zeros(model.dim)
        step = hrom_step if isinstance(model, SampledModel) else cd_step
        reach = np.linalg.norm(step(model, IntegratorState.initial(x0, v0), dt).x)
        for blowup, flag in ((reach, False), (np.nextafter(reach, 0.0), True)):
            traj = self._compare(model, x0, v0, dt, dt, blowup=blowup)
            assert traj.divergence_flag is flag
            assert traj.divergence_step == (1 if flag else None)

    @pytest.mark.parametrize("kind", ["naive-collocation-p=k",
                                      "naive-collocation-p>k"])
    def test_overflowing_velocity_with_finite_displacement(self, systems, kind):
        # the sampled velocity is a displacement difference over dt; a step
        # that flips the sign of a huge displacement overflows that
        # difference while both displacements stay finite
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        gain = sampled_step_matrix(model, dt)[: model.dim, model.dim - 1]
        x0 = np.zeros(model.dim)
        x0[-1] = 0.5 * np.finfo(float).max / np.max(np.abs(gain))
        assert abs(gain[-1] - 1.0) * x0[-1] > dt * np.finfo(float).max
        traj = self._compare(model, x0, np.zeros(model.dim), 3 * dt, dt)
        assert traj.divergence_step == 1
        assert np.all(np.isfinite(traj.states[-1]))

    @pytest.mark.parametrize("record_every", [1, 7, 256])
    @pytest.mark.parametrize("n_steps", [0, 1, 255, 256, 257, 700])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_block_boundaries(self, systems, kind, n_steps, record_every):
        model = systems[kind]
        assert _block_rows(2 * model.dim) == _BLOCK  # blocks of 256 steps
        dt = 0.9 * critical_dt_report(model).dt_crit
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        traj = self._compare(model, x0, v0, n_steps * dt, dt, record_every=record_every)
        assert not traj.divergence_flag
        assert len(traj.times) == 1 + -(-n_steps // record_every)

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("step", [256, 257, 300])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_divergence_across_blocks(self, systems, kind, step, record_every):
        # the last row of the first block, the first and a middle row of the
        # second; the steps after it in its block are run and discarded
        model = systems[kind]
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        dt, blowup = _diverging_at(model, x0, step)
        traj = self._compare(model, x0, np.zeros(model.dim), 700 * dt, dt,
                             record_every=record_every, blowup=blowup)
        assert traj.divergence_step == step

    @pytest.mark.parametrize("diverge", [False, True])
    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("kind", ["full", "galerkin", "naive-collocation-p>k"])
    def test_records_outgrow_their_preallocation(self, monkeypatch, systems, kind,
                                                 record_every, diverge):
        # records start at two rows here and double as the run goes on
        model = systems[kind]
        monkeypatch.setattr("romstab.integrator._RECORD_FLOATS", 2 * model.dim)
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        dt, blowup = (_diverging_at(model, x0, 300) if diverge
                      else (0.9 * critical_dt_report(model).dt_crit, 1e6))
        traj = self._compare(model, x0, np.zeros(model.dim), 700 * dt, dt,
                             record_every=record_every, blowup=blowup)
        assert traj.divergence_step == (300 if diverge else None)

    @pytest.mark.parametrize("kind", ["full", "galerkin"])
    def test_early_divergence_keeps_only_its_records(self, systems, kind):
        # records are preallocated for 10**6 steps; the run stops at step 5
        model = systems[kind]
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        dt, blowup = _diverging_at(model, x0, 5)
        tracemalloc.start()
        try:
            traj = integrate(model, x0, np.zeros(model.dim), 10**6 * dt, dt, blowup=blowup)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.divergence_step == 5 and len(traj.times) == 6
        assert held < 2**16

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_capped_block_of_a_large_full_model(self, record_every):
        # 2 m floats a row: the block holds fewer than 256 steps
        base = build_string_model(200, element_mass=1.0, element_stiffness=10.0,
                                  length=1.0, boundary_factor=3.0, a1=0.05, a2=0.002)
        table = ForceTable(np.linspace(0.0, 30.0, 7),
                           0.1 * np.random.default_rng(5).standard_normal((7, 200)))
        model = FullOrderModel(m=200, mass=base.mass, stiffness=base.stiffness,
                               a1=base.a1, a2=base.a2, elements=base.elements,
                               external_force=table)
        rows = _block_rows(2 * model.dim)
        assert 1 < rows < _BLOCK and _block_rows(2 * 16384) == 1
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        dt = 0.9 * critical_dt_report(model).dt_crit
        traj = self._compare(model, x0, v0, 700 * dt, dt, record_every=record_every)
        assert not traj.divergence_flag
        for step in (rows, 2 * rows, 2 * rows + 1):
            dt, blowup = _diverging_at(model, x0, step)
            traj = self._compare(model, x0, np.zeros(model.dim), 700 * dt, dt,
                                 record_every=record_every, blowup=blowup)
            assert traj.divergence_step == step

    @pytest.mark.parametrize("case", ["blowup", "overflow"])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_divergent_runs_warn_nothing(self, systems, kind, case):
        # the steps run past a divergence overflow without a RuntimeWarning
        model = systems[kind]
        dt = 1.5 * critical_dt_report(model).dt_crit
        x0 = np.linspace(-1.0, 1.0, model.dim) * (1e150 if case == "overflow" else 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(model, x0, np.zeros(model.dim), 700 * dt, dt, blowup=10.0)
        assert traj.divergence_flag

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("kind", ["galerkin", "projected-collocation",
                                      "naive-collocation-p=k", "naive-collocation-p>k"])
    def test_load_table_inside_the_run(self, systems, kind, record_every):
        # the table starts after t = 0 and ends before t_end, so the first
        # block mixes clamped and inside rows, the second inside and clamped
        # rows, and the third is clamped throughout; both end rows hold -0.0
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        stations = dt * np.array([100.5, 180.0, 255.25, 300.0, 399.75])
        values = np.random.default_rng(41).standard_normal((5, model.load.values.shape[1]))
        values[[0, -1], 0] = -0.0
        model = dataclasses.replace(model, load=ForceTable(stations, values))
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        traj = self._compare(model, x0, v0, 700 * dt, dt, record_every=record_every)
        assert not traj.divergence_flag

    @pytest.mark.parametrize("kind", _KINDS[1:])
    def test_loads_are_looked_up_once_per_block(self, monkeypatch, systems, kind):
        # one segment search per block fills the load weights; the load rows ride
        # in the step matrix, so integrate makes no ForceTable.at call
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        probes, search = [], ForceTable.segments

        def lookup(table, t):
            raise AssertionError("integrate looked a load up with ForceTable.at")

        def recording(table, t):
            probes.append(t)
            return search(table, t)

        monkeypatch.setattr(ForceTable, "at", lookup)
        monkeypatch.setattr(ForceTable, "segments", recording)
        integrate(model, np.zeros(model.dim), np.zeros(model.dim), 700 * dt, dt)
        assert [type(t) for t in probes] == [np.ndarray] * 3
        assert [t.shape for t in probes] == [(256,), (256,), (188,)]

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("case", ["station-at-a-step", "segment-change-at-256",
                                      "around-the-run", "before-the-run", "after-the-run",
                                      "one-station", "a-station-every-step",
                                      "four-stations-a-step", "unloaded"])
    @pytest.mark.parametrize("kind", _KINDS[1:])
    def test_loaded_steps(self, systems, kind, case, record_every):
        # stations at the very times the steps take, a segment that changes at the
        # first step of the second block, tables that the run starts or ends
        # outside of or never enters, a constant one-station table, and recorded
        # signals whose segment changes at every step
        model = systems[kind]
        dt = 0.9 * critical_dt_report(model).dt_crit
        steps, t = 300, [0.0]
        for _ in range(steps):
            t.append(t[-1] + dt)  # the times of a loop of public steps
        stations = {
            "station-at-a-step": [t[1], t[50], t[123], t[200], t[300]],
            "segment-change-at-256": [t[40], t[255], t[256], t[257], t[290]],
            "around-the-run": dt * np.array([-40.0, -7.5, 120.25, 330.0, 1e4]),
            "before-the-run": dt * np.array([-30.0, -20.0, -10.0]),
            "after-the-run": dt * np.array([400.0, 500.0]),
            "one-station": dt * np.array([150.5]),
            "a-station-every-step": dt * (np.arange(steps + 1) + 0.3),
            "four-stations-a-step": dt * np.linspace(-1.0, steps + 1.0, 4 * steps + 9),
            "unloaded": None,
        }[case]
        load = None
        if stations is not None:
            rng = np.random.default_rng(43)
            load = ForceTable(stations, rng.standard_normal((len(stations),
                                                            model.load.values.shape[1])))
        model = dataclasses.replace(model, load=load)
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        traj = self._compare(model, x0, v0, steps * dt, dt, record_every=record_every)
        assert len(traj.times) == 1 + -(-steps // record_every)
        expected = _two_step_oracle(model, x0, v0, dt, steps)
        assert np.linalg.norm(traj.states[-1] - expected) <= 1e-12 * np.linalg.norm(expected)


class TestConcurrentLoadedSteps:
    def test_threads_on_one_loaded_model_step_as_one_thread_does(self):
        # a public step sets the load columns of the model's kept matrix and multiplies
        # under one lock, and integrate steps on its own copy, so runs in threads keep
        # the bits of one thread; the product is long enough (d = 400) for another
        # thread to run while BLAS has the matrix, and the segment changes every step
        base = build_string_model(400, 1.0, 10.0, 1.0, 99.0, a2=1e-4)
        rom = galerkin_reduce(base, modal_basis(base, range(200)))
        dt = 0.9 * critical_dt_report(rom).dt_crit
        steps, rng = 100, np.random.default_rng(47)
        load = ForceTable(dt * (np.arange(steps + 1) + 0.3), rng.standard_normal((steps + 1, 200)))
        model = dataclasses.replace(rom, load=load)
        starts, zero = [0.1 * rng.standard_normal(200) for _ in range(8)], np.zeros(200)

        def run(i):
            if i % 2:
                traj = integrate(model, starts[i], zero, steps * dt, dt)
                return traj.times, traj.states
            return _stepped(model, starts[i], zero, steps * dt, dt)[:2]

        expected, results = [run(i) for i in range(8)], [None] * 8

        def work(i):
            results[i] = run(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert got is not None
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _table_at(table, t):
    """Clamped linear interpolation by ``np.interp``, column by column."""
    return np.array([np.interp(t, table.times, col) for col in table.values.T])


def _two_step_oracle(model, x0, v0, dt, steps):
    """Dense two-step recurrence ``x+ = 2 x - x- + dt^2 Minv (f - C (x - x-)/dt - K x)``,
    kept apart from the step operators: the full model with its dense
    matrices, a square reduction with ``inv(M_r)``, and naive collocation
    with ``pinv(P.T V) diag(1 / m_rows)`` on the sampled row forces.  The load is
    taken at the times the steps take, ``t + dt`` accumulated from 0."""
    if isinstance(model, FullOrderModel):
        minv, table = np.diag(1.0 / model.mass), model.external_force
    elif isinstance(model, SampledModel):
        minv, table = np.linalg.pinv(model.row_basis) / model.row_mass, model.load
    else:
        minv, table = np.linalg.inv(model.mass), model.load
    x_prev, x, t = x0 - dt * v0, x0.copy(), 0.0
    for _ in range(steps):
        load = 0.0 if table is None else _table_at(table, t)
        force = load - model.damping @ ((x - x_prev) / dt) - model.stiffness @ x
        x_prev, x, t = x, 2.0 * x - x_prev + dt * dt * (minv @ force), t + dt
    return x


class TestDivergentCliRuns:
    """The README model's divergent runs: exit 4, no RuntimeWarning, and the
    stdout line and CSV of a loop of public steps."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("readme")
        model, basis = str(root / "model.json"), str(root / "basis.json")
        assert cli.run(["build", "string", "--m", "100", "--M", "1", "--K", "10",
                        "-o", model]) == 0
        assert cli.run(["reduce", model, "--modes", "0:10", "-o", basis]) == 0
        return root, model, basis

    @pytest.mark.parametrize("reduced, args, rows", [
        (True, ["--dt-frac", "3", "--t-end", "50"], 6),
        (False, ["--dt-frac", "1.05", "--steps", "2000"], None),
    ])
    def test_matches_public_steps_without_warnings(self, files, capsys, reduced, args, rows):
        root, model_path, basis_path = files
        path, expected = str(root / "run.csv"), str(root / "expected.csv")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.run(["integrate", model_path] + (["--basis", basis_path] if reduced else [])
                         + args + ["--x0-random", "1.0", "-o", path])
        out = capsys.readouterr().out
        assert rc == 4
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

        model = read_model(model_path)
        system = galerkin_reduce(model, read_basis(basis_path, mass=model.mass)) if reduced else model
        dt = float(args[1]) * critical_dt_report(system).dt_crit
        t_end = float(args[3]) if args[2] == "--t-end" else int(args[3]) * dt
        x0 = np.random.default_rng(0).standard_normal(system.dim)
        times, states, flag, step = _stepped(system, x0, np.zeros(system.dim), t_end, dt)
        write_trajectory(Trajectory(times, states, flag, step), expected)
        assert flag and len(times) == (rows or len(times))
        assert out == f"wrote {path}: {len(times)} rows, dt = {dt:.10g}, DIVERGED at step {step}\n"
        with open(path, "rb") as got, open(expected, "rb") as want:
            assert got.read() == want.read()


class TestStepOperator:
    """Reduced and sampled models step with one matrix and block-evaluated loads."""

    @pytest.mark.parametrize("fraction", [0.9, 1e-3])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_dense_two_step_recurrence(self, systems, kind, fraction):
        model = systems[kind]
        dt = fraction * critical_dt_report(model).dt_crit
        x0 = 0.1 * np.linspace(-1.0, 1.0, model.dim)
        v0 = np.linspace(0.5, -0.2, model.dim)
        steps = 600  # more than two load blocks
        traj = integrate(model, x0, v0, steps * dt, dt)
        assert len(traj.times) == steps + 1
        expected = _two_step_oracle(model, x0, v0, dt, steps)
        assert np.linalg.norm(traj.states[-1] - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_rayleigh_galerkin_radius_crosses_one_at_the_critical_step(self, systems):
        rom = systems["galerkin"]
        dt = critical_dt_report(rom).dt_crit
        below = spectral_radius(rom.step_operator(0.999 * dt)[0]).radius
        above = spectral_radius(rom.step_operator(1.001 * dt)[0]).radius
        assert below <= 1.0 < above

    @pytest.mark.parametrize("kind", ["galerkin", "naive-collocation-p>k"])
    def test_operator_is_kept_for_the_last_step_size(self, systems, kind, monkeypatch):
        model = systems[kind]
        dt = 0.5 * critical_dt_report(model).dt_crit
        first = model.step_operator(dt)
        monkeypatch.setattr(np, "vstack", None)  # a rebuild would fail
        second = model.step_operator(dt)
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("kind", ["galerkin", "naive-collocation-p=k"])
    def test_fields_are_frozen(self, systems, kind):
        with pytest.raises(dataclasses.FrozenInstanceError):
            systems[kind].stiffness = np.zeros((4, 4))

    def test_long_loaded_run_keeps_memory_bounded(self, systems):
        rom = systems["galerkin"]
        dt = 0.9 * critical_dt_report(rom).dt_crit
        zero = np.zeros(rom.dim)
        tracemalloc.start()
        try:
            traj = integrate(rom, zero, zero, 2 * 10**5 * dt, dt, record_every=10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.times) == 21
        assert peak < 2**20


class TestTrajectoryFile:
    def _traj(self):
        model = _scalar_model(4.0, mass=2.0)
        return integrate(model, [1.0], [0.25], t_end=1.0, dt=0.125)

    def test_round_trip_is_exact(self, tmp_path):
        traj = self._traj()
        path = tmp_path / "traj.csv"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert back.divergence_flag == traj.divergence_flag
        assert back.divergence_step == traj.divergence_step

    def test_header_and_trailer_format(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(self._traj(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t, x_0"
        assert lines[-1] == "# diverged=false step=-1"

    def test_divergence_trailer(self, tmp_path):
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          divergence_flag=True, divergence_step=7)
        path = tmp_path / "div.csv"
        write_trajectory(traj, path)
        assert path.read_text().splitlines()[-1] == "# diverged=true step=7"
        back = read_trajectory(path)
        assert back.divergence_flag and back.divergence_step == 7

    def test_empty_rows_round_trip(self, tmp_path):
        traj = Trajectory(times=np.zeros(0), states=np.zeros((0, 3)))
        path = tmp_path / "empty.csv"
        write_trajectory(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t, x_0, x_1, x_2"
        back = read_trajectory(path)
        assert back.states.shape == (0, 3)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time, x_0\n0.0,1.0\n# diverged=false step=-1\n")
        with pytest.raises(FormatError):
            read_trajectory(path)

    def test_malformed_trailer_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t, x_0\n0.0,1.0\n# diverged=maybe step=-1\n")
        with pytest.raises(FormatError):
            read_trajectory(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t, x_0\n0.0,1.0,2.0\n# diverged=false step=-1\n")
        with pytest.raises(FormatError):
            read_trajectory(path)

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t, x_0\n0.0,abc\n# diverged=false step=-1\n")
        with pytest.raises(FormatError):
            read_trajectory(path)


class TestIntegratorState:
    def test_initial_validates_shapes(self):
        with pytest.raises(ValueError):
            IntegratorState.initial(np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            IntegratorState.initial(np.zeros((2, 2)), np.zeros((2, 2)))
