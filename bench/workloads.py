"""The benchmark's three workloads.

Each workload has ``setup()`` (build the inputs the op consumes, as the
README session's commands would), ``op(inputs)`` (the timed unit of work,
the same every time), ``reference(inputs)`` (values computed apart from
romstab, once per run) and ``check(inputs, reference, output)`` (raises
``CheckFailed`` when an op's output is wrong).  Every public romstab call
runs inside a tracer span named after the per-layer metric it feeds.

All models are strings of unit element mass, element stiffness 10, unit
length and boundary springs of 99 times the element stiffness (the README
defaults), with stiffness-proportional damping ``a2 = 1e-4`` and
``a1 = 0``, so every reduction keeps the Rayleigh form the modal formula
needs.
"""

import os

import numpy as np

import oracles

ELEMENT_MASS = 1.0
ELEMENT_STIFFNESS = 10.0
LENGTH = 1.0
BOUNDARY = 99.0
A1 = 0.0
A2 = 1e-4
DT_FRACTION = 0.9


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, tol, what):
    require(
        oracles.rel_diff(actual, expected) <= tol,
        f"{what}: {actual!r} differs from reference {expected!r} by more than {tol:g}",
    )


class Workload:
    """Shared construction; subclasses define ``FULL`` and ``QUICK`` sizes."""

    def __init__(self, rs, tracer, workdir, seed, quick):
        self.rs = rs
        self.tr = tracer
        self.workdir = workdir
        self.seed = seed
        self.size = self.QUICK if quick else self.FULL

    def build_model(self, m):
        with self.tr.span("models.build"):
            return self.rs.build_string_model(
                m, ELEMENT_MASS, ELEMENT_STIFFNESS, LENGTH, BOUNDARY, a1=A1, a2=A2
            )

    def reference_string(self, m):
        return oracles.string_model(m, ELEMENT_MASS, ELEMENT_STIFFNESS, BOUNDARY)


class FomSession(Workload):
    """The offline half of the README session on one full-order string.

    One op: read the model file, report its exact and element-bound steps,
    integrate from a seeded random displacement at 0.9 of the exact step,
    round-trip the trajectory through CSV, take a mass-orthonormal POD
    basis, train ECSW weights, report the weighted element bound, reduce
    and report the reduced step.
    """

    name = "fom-session"
    FULL = {"m": 300, "steps": 100, "k": 10, "tau": 0.01, "terms": 50}
    QUICK = {"m": 40, "steps": 20, "k": 4, "tau": 0.01, "terms": 10}

    def setup(self):
        model = self.build_model(self.size["m"])
        path = os.path.join(self.workdir, "model.json")
        with self.tr.span("models.write_model"):
            self.rs.write_model(model, path)
        x0 = oracles.smooth_shape(np.random.default_rng(self.seed), self.size["m"], self.size["terms"])
        return {"model_path": path, "x0": x0}

    def op(self, inputs):
        rs, tr, size = self.rs, self.tr, self.size
        with tr.span("models.read_model"):
            model = rs.read_model(inputs["model_path"])
        with tr.span("stability.fom_report"):
            full = rs.critical_dt_report(model)
        with tr.span("stability.element_bound"):
            bound = rs.element_dt_bound(model.elements, model.a1, model.a2)
        dt = DT_FRACTION * full.dt_crit
        x0 = inputs["x0"]
        with tr.span("integrator.fom_step", units=size["steps"]):
            traj = rs.integrate(model, x0, np.zeros_like(x0), size["steps"] * dt, dt)
        tr.count("integrator.steps", len(traj.times) - 1)
        csv = os.path.join(self.workdir, "trajectory.csv")
        with tr.span("integrator.write_trajectory"):
            rs.write_trajectory(traj, csv)
        tr.count("integrator.trajectory_csv_mib", os.path.getsize(csv) / 2**20)
        with tr.span("integrator.read_trajectory"):
            back = rs.read_trajectory(csv)
        snapshots = rs.snapshots_from_trajectory(back)
        with tr.span("reduction.pod_basis"):
            basis = rs.pod_basis(snapshots, size["k"], mass=model.mass)
        with tr.span("hyper.ecsw_train"):
            weights = rs.ecsw_train(model, basis, snapshots, size["tau"])
        tr.count("hyper.ecsw_support", len(weights.support))
        with tr.span("stability.ecsw_bound"):
            weighted_bound = rs.element_dt_bound(
                model.elements, model.a1, model.a2, weights=weights
            )
        with tr.span("hyper.ecsw_reduce"):
            rom = rs.ecsw_reduce(model, weights, basis)
        with tr.span("stability.rom_report"):
            reduced = rs.critical_dt_report(rom)
        return {
            "full": full,
            "bound": bound,
            "trajectory": traj,
            "read_back": back,
            "snapshots": snapshots,
            "basis": basis,
            "weights": weights,
            "weighted_bound": weighted_bound,
            "reduced": reduced,
        }

    def reference(self, inputs):
        m = self.size["m"]
        mass, diag, off = self.reference_string(m)
        scale = 1.0 / np.sqrt(mass)
        mu_max = oracles.tridiagonal_max_eigenvalue(
            diag * scale * scale, off * scale[:-1] * scale[1:]
        )
        return {
            "mass": mass,
            "blocks": oracles.string_elements(m, ELEMENT_STIFFNESS, BOUNDARY),
            "dt_full": float(oracles.modal_dt(mu_max, A1, A2)),
        }

    def check(self, inputs, ref, out):
        steps, tau = self.size["steps"], self.size["tau"]
        dt_full = ref["dt_full"]
        require_close(out["full"].dt_crit, dt_full, 1e-9, "full-model dt_crit")
        require(
            out["bound"].dt_crit <= dt_full,
            f"element bound {out['bound'].dt_crit!r} exceeds the exact step {dt_full!r}",
        )

        traj, back = out["trajectory"], out["read_back"]
        require(not traj.divergence_flag, "full-order run diverged")
        require(len(traj.times) == steps + 1, f"{len(traj.times)} records for {steps} steps")
        require(
            np.array_equal(back.times, traj.times)
            and np.array_equal(back.states, traj.states)
            and back.divergence_flag == traj.divergence_flag
            and back.divergence_step == traj.divergence_step,
            "trajectory CSV round trip is not bit-exact",
        )

        # ECSW residual from the weighted element forces, assembled here.
        v = out["basis"].matrix
        xi = out["weights"].xi
        coords = v.T @ (ref["mass"][:, None] * out["snapshots"])
        x = v @ coords
        pair_x = np.stack([x[:-1], x[1:]], axis=1)
        pair_v = np.stack([v[:-1], v[1:]], axis=1)
        element_force = np.einsum("eij,ejs->eis", ref["blocks"], pair_x)
        projected = np.einsum("eik,eis->eks", pair_v, element_force)
        target = projected.sum(axis=0)
        fitted = np.einsum("e,eks->ks", xi, projected)
        residual = np.linalg.norm(fitted - target) / np.linalg.norm(target)
        require(residual <= tau, f"ECSW residual {residual:.3e} exceeds tau={tau:g}")

        # Exact step of the weighted reduced model, from its own assembly.
        diag_w, off_w = oracles.weighted_tridiagonal(ref["blocks"], xi)
        stiffness_r = v.T @ oracles.tridiagonal_matmul(diag_w, off_w, v)
        mu_r = float(np.linalg.eigvalsh(0.5 * (stiffness_r + stiffness_r.T))[-1])
        dt_ecsw = float(oracles.modal_dt(mu_r, A1, A2))
        require_close(out["reduced"].dt_crit, dt_ecsw, 1e-9, "ECSW dt_crit")
        require(
            out["weighted_bound"].dt_crit <= dt_ecsw,
            f"weighted element bound {out['weighted_bound'].dt_crit!r} exceeds "
            f"the exact ECSW step {dt_ecsw!r}",
        )


class RomOnline(Workload):
    """Online stepping of four prebuilt reductions of one loaded string.

    Setup follows the README session: build, report, a training run from
    a smooth seeded start, the lowest ``k`` modes as the basis, ECSW
    weights, then Galerkin, ECSW, projected-collocation (every second
    row) and naive-collocation (``p = k`` greedy rows of the basis)
    reductions, each carrying a seeded piecewise-linear load table.  One
    op advances all four from rest by ``steps`` steps at 0.9 of each
    model's own critical step.
    """

    name = "rom-online"
    FULL = {"m": 1000, "k": 20, "steps": 1000, "train_steps": 40, "stations": 21, "tau": 0.05}
    QUICK = {"m": 60, "k": 5, "steps": 50, "train_steps": 20, "stations": 6, "tau": 0.05}
    KINDS = ("galerkin", "ecsw", "projected_collocation", "naive_collocation")

    def setup(self):
        rs, tr, size = self.rs, self.tr, self.size
        m, k = size["m"], size["k"]
        rng = np.random.default_rng(self.seed)
        model = self.build_model(m)
        with tr.span("stability.fom_report"):
            full = rs.critical_dt_report(model)
        dt = DT_FRACTION * full.dt_crit
        x0 = oracles.smooth_shape(rng, m, min(m, 100))
        with tr.span("integrator.fom_step", units=size["train_steps"]):
            train = rs.integrate(model, x0, np.zeros(m), size["train_steps"] * dt, dt)
        snapshots = rs.snapshots_from_trajectory(train)
        with tr.span("reduction.modal_basis"):
            basis = rs.modal_basis(model, range(k))
        with tr.span("hyper.ecsw_train"):
            weights = rs.ecsw_train(model, basis, snapshots, size["tau"])
        tr.count("hyper.ecsw_support", len(weights.support))

        # The load table spans the Galerkin model's run; shapes are smooth.
        unloaded = rs.galerkin_reduce(model, basis)
        with tr.span("stability.rom_report"):
            dt_galerkin = rs.critical_dt_report(unloaded).dt_crit
        times = np.linspace(0.0, size["steps"] * DT_FRACTION * dt_galerkin, size["stations"])
        values = 1e-3 * np.stack([oracles.smooth_shape(rng, m, 8) for _ in times])
        model = rs.FullOrderModel(
            m=model.m, mass=model.mass, stiffness=model.stiffness, a1=model.a1,
            a2=model.a2, elements=model.elements,
            external_force=rs.ForceTable(times, values),
        )

        reductions = {}
        reductions["galerkin"] = rs.galerkin_reduce(model, basis)
        with tr.span("hyper.ecsw_reduce"):
            reductions["ecsw"] = rs.ecsw_reduce(model, weights, basis)
        every_other = rs.SampleSet.from_model(model, range(0, m, 2))
        with tr.span("hyper.reduce_projected_collocation"):
            reductions["projected_collocation"] = rs.collocate_projected(
                model, basis, every_other
            )
        greedy = rs.SampleSet.from_model(model, rs.deim_points(basis.matrix))
        with tr.span("hyper.reduce_naive_collocation"):
            reductions["naive_collocation"] = rs.collocate_naive(model, basis, greedy)

        dts = {}
        for kind in self.KINDS:
            span = "stability.rom_report" if kind in ("galerkin", "ecsw") else f"stability.report_{kind}"
            with tr.span(span):
                dts[kind] = DT_FRACTION * rs.critical_dt_report(reductions[kind]).dt_crit
        return {"reductions": reductions, "dts": dts, "times": times, "values": values}

    def op(self, inputs):
        rs, tr, steps = self.rs, self.tr, self.size["steps"]
        out = {}
        for kind in self.KINDS:
            rom, dt = inputs["reductions"][kind], inputs["dts"][kind]
            zero = np.zeros(rom.dim)
            with tr.span(f"integrator.step_{kind}", units=steps):
                out[kind] = rs.integrate(rom, zero, zero, steps * dt, dt)
            tr.count("integrator.steps", len(out[kind].times) - 1)
        return out

    def reference(self, inputs):
        times, values = inputs["times"], inputs["values"]
        finals = {}
        for kind in self.KINDS:
            rom, dt = inputs["reductions"][kind], inputs["dts"][kind]
            v = rom.basis.matrix
            if kind in ("galerkin", "ecsw"):
                minv = np.linalg.inv(rom.mass)

                def load(t, v=v):
                    return v.T @ oracles.load_at(times, values, t)
            else:
                rows = np.asarray(rom.samples.collocation)
                sampled = v[rows]
                if kind == "projected_collocation":
                    minv = np.linalg.inv(rom.mass)

                    def load(t, rows=rows, sampled=sampled):
                        return sampled.T @ oracles.load_at(times, values, t)[rows]
                else:
                    # p = k: the sampled update is plain central differences
                    # on inv(P V) diag(1/m_rows) applied to the row forces.
                    minv = np.linalg.inv(sampled) / rom.row_mass[None, :]

                    def load(t, rows=rows):
                        return oracles.load_at(times, values, t)[rows]
            finals[kind] = oracles.two_step_final(
                minv, rom.damping, rom.stiffness, load, np.zeros(rom.dim), dt,
                self.size["steps"],
            )
        return finals

    def check(self, inputs, ref, out):
        steps = self.size["steps"]
        for kind in self.KINDS:
            traj = out[kind]
            require(not traj.divergence_flag, f"{kind} run diverged")
            require(len(traj.times) == steps + 1, f"{kind}: {len(traj.times)} records for {steps} steps")
            expected = ref[kind]
            error = np.max(np.abs(traj.states[-1] - expected))
            scale = np.max(np.abs(expected))
            require(
                error <= 1e-8 * scale,
                f"{kind}: final state differs from the two-step recurrence by "
                f"{error:.3e} (scale {scale:.3e})",
            )


class HromStability(Workload):
    """Stable-step reports for four sampled reductions of one string.

    Setup: build, report, training runs from several smooth seeded starts,
    a mass-orthonormal POD basis of the snapshots, the lowest ``k`` modes,
    and a force basis from ``K`` times the snapshots with greedy (DEIM)
    points.  One op builds projected collocation (every second row) and
    naive collocation (``p = k`` greedy rows) on the modal basis, DEIM
    (``k`` points) and GNAT (``3k/2`` rows) on the POD basis, and reports
    each one's critical step.
    """

    name = "hrom-stability"
    FULL = {"m": 600, "k": 30, "starts": 12, "train_steps": 30, "terms": 15}
    QUICK = {"m": 60, "k": 8, "starts": 6, "train_steps": 15, "terms": 4}
    KINDS = ("projected_collocation", "naive_collocation", "deim", "gnat")

    def setup(self):
        rs, tr, size = self.rs, self.tr, self.size
        m, k = size["m"], size["k"]
        rng = np.random.default_rng(self.seed)
        model = self.build_model(m)
        with tr.span("stability.fom_report"):
            dt = DT_FRACTION * rs.critical_dt_report(model).dt_crit
        runs = []
        for _ in range(size["starts"]):
            x0 = oracles.smooth_shape(rng, m, size["terms"])
            with tr.span("integrator.fom_step", units=size["train_steps"]):
                runs.append(rs.integrate(model, x0, np.zeros(m), size["train_steps"] * dt, dt))
        snapshots = np.hstack([rs.snapshots_from_trajectory(r) for r in runs])
        with tr.span("reduction.pod_basis"):
            pod = rs.pod_basis(snapshots, k, mass=model.mass)
        with tr.span("reduction.modal_basis"):
            modal = rs.modal_basis(model, range(k))
        force_basis, _, _ = rs.thin_svd(model.stiffness @ snapshots)
        gnat_rows = rs.deim_points(force_basis[:, : 3 * k // 2])
        return {
            "model": model,
            "pod": pod,
            "modal": modal,
            "force_basis": force_basis[:, :k],
            "deim_points": gnat_rows[:k],
            "gnat_rows": gnat_rows,
            "every_other": rs.SampleSet.from_model(model, range(0, m, 2)),
            "greedy": rs.SampleSet.from_model(model, rs.deim_points(modal.matrix)),
        }

    def op(self, x):
        rs, tr = self.rs, self.tr
        model = x["model"]
        builders = {
            "projected_collocation": lambda: rs.collocate_projected(model, x["modal"], x["every_other"]),
            "naive_collocation": lambda: rs.collocate_naive(model, x["modal"], x["greedy"]),
            "deim": lambda: rs.deim_reduce(model, x["pod"], x["force_basis"], x["deim_points"]),
            "gnat": lambda: rs.gnat_reduce(model, x["pod"], x["force_basis"], x["gnat_rows"]),
        }
        out = {}
        for kind in self.KINDS:
            with tr.span(f"hyper.reduce_{kind}"):
                rom = builders[kind]()
            with tr.span(f"stability.report_{kind}"):
                out[kind] = (rom, rs.critical_dt_report(rom))
        return out

    def reference(self, x):
        """Critical steps from the eigenvalues of the reduced operators,
        assembled here from the benchmark's own tridiagonal stiffness."""
        m = self.size["m"]
        mass, diag, off = self.reference_string(m)
        operators = {}
        for kind, basis, rows in (
            ("projected_collocation", x["modal"].matrix, x["every_other"].collocation),
            ("naive_collocation", x["modal"].matrix, x["greedy"].collocation),
        ):
            rows = np.asarray(rows)
            sampled = basis[rows]
            stiffness_rows = oracles.tridiagonal_matmul(diag, off, basis)[rows]
            if kind == "projected_collocation":
                mass_r = sampled.T @ (mass[rows, None] * sampled)
                operators[kind] = np.linalg.solve(mass_r, sampled.T @ stiffness_rows)
            else:
                operators[kind] = np.linalg.pinv(sampled) @ (stiffness_rows / mass[rows, None])
        v, u = x["pod"].matrix, x["force_basis"]
        kv = oracles.tridiagonal_matmul(diag, off, v)
        for kind, rows, invert in (
            ("deim", x["deim_points"], np.linalg.inv),
            ("gnat", x["gnat_rows"], np.linalg.pinv),
        ):
            rows = np.asarray(rows)
            operators[kind] = (v.T @ u) @ invert(u[rows]) @ kv[rows]
        dts = {}
        for kind, operator in operators.items():
            mu = oracles.real_spectrum(operator)
            dts[kind] = float(np.min(oracles.modal_dt(mu[mu > 0.0], A1, A2)))
        return dts

    def check(self, x, ref, out):
        for kind in self.KINDS:
            rom, report = out[kind]
            # Rayleigh form of the reduced damping: the modal formula's premise.
            rayleigh = A1 * rom.mass + A2 * rom.stiffness
            require(
                np.max(np.abs(rom.damping - rayleigh)) <= 1e-10 * np.max(np.abs(rom.damping)),
                f"{kind}: reduced damping is not {A1:g} M_r + {A2:g} K_r",
            )
            require_close(report.dt_crit, ref[kind], 1e-8, f"{kind} dt_crit")


WORKLOADS = {w.name: w for w in (FomSession, RomOnline, HromStability)}
