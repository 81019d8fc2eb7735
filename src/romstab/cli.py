"""Command-line front end.

Subcommands
-----------
build      construct a model file (string family)
timestep   critical-time-step report for a model or its reductions
reduce     build a reduced basis (modal or snapshot-based) from a model
hyper      train element weights or pick sample sets for hyper-reduction
integrate  explicit central-difference integration to CSV
verify     randomized property suite
reproduce  golden-number regression report

Every subcommand accepts ``--seed``, ``--json`` and ``--config FILE``; the
config file is a JSON object supplying defaults for the subcommand's
*optional* flags (explicit flags win, unknown keys are rejected).

Exit codes: 0 success; 2 usage or argument errors; 3 file or format
errors; 4 divergence; 5 verification or reproduction failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import FormatError, RomStabError
from .hyper import (
    SampleSet,
    deim_points,
    ecsw_reduce,
    ecsw_train,
    read_weights,
    write_sample_set,
    write_weights,
)
from .integrator import Trajectory, integrate, read_trajectory, write_trajectory
from .kernels import max_gen_eigenvalue, thin_svd
from .models import build_string_model, read_json, read_model, write_model
from .reduction import (
    galerkin_reduce,
    modal_basis,
    pod_basis,
    read_basis,
    snapshots_from_trajectory,
    write_basis,
)
from .reproduce import GROUPS, format_report, run_reproduce
from .stability import critical_dt_report, element_dt_bound
from .verify import run_suite

__all__ = ["main", "run", "build_parser"]

_REQUIRED = object()

# per-command optional-flag table: dest -> (merge default, coercion)
_OPTIONS = {
    "build": {
        "m": (_REQUIRED, int),
        "element_mass": (_REQUIRED, float),
        "element_stiffness": (_REQUIRED, float),
        "length": (1.0, float),
        "boundary": (99.0, float),
        "a1": (0.0, float),
        "a2": (0.0, float),
        "output": (_REQUIRED, str),
    },
    "timestep": {
        "basis": (None, str),
        "weights": (None, str),
        "element_bound": (False, bool),
        "scale": (1.0, float),
    },
    "reduce": {
        "modes": (None, str),
        "pod": (None, str),
        "k": (None, int),
        "plain": (False, bool),
        "output": (_REQUIRED, str),
    },
    "hyper": {
        "method": (_REQUIRED, str),
        "basis": (None, str),
        "snapshots": (None, str),
        "tau": (0.01, float),
        "points": (None, str),
        "k_force": (None, int),
        "output": (_REQUIRED, str),
    },
    "integrate": {
        "basis": (None, str),
        "weights": (None, str),
        "dt": (None, float),
        "dt_frac": (None, float),
        "t_end": (None, float),
        "steps": (None, int),
        "record_every": (1, int),
        "x0_random": (None, float),
        "output": (_REQUIRED, str),
    },
    "verify": {
        "trials": (200, int),
        "break_symmetry": (False, bool),
    },
    "reproduce": {
        "only": (None, str),
    },
}


def _coerce(name, value, kind):
    """Bring a config-file value to the flag's type; reject shape surprises."""
    if kind is bool:
        if not isinstance(value, bool):
            raise ValueError(f"config key {name!r} must be true or false")
        return value
    if isinstance(value, bool):
        raise ValueError(f"config key {name!r} must not be a boolean")
    if kind is int:
        if not isinstance(value, int):
            raise ValueError(f"config key {name!r} must be an integer")
        return value
    if kind is float:
        if not isinstance(value, (int, float)):
            raise ValueError(f"config key {name!r} must be a number")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"config key {name!r} must be a string")
    return value


def _load_config(path):
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    return doc


def _resolve(ns, command):
    """Merge CLI flags over config-file values over built-in defaults."""
    table = _OPTIONS[command]
    config = _load_config(ns.config) if ns.config is not None else {}
    unknown = set(config) - set(table) - {"seed"}
    if unknown:
        raise ValueError(
            f"config keys not understood by {command!r}: {sorted(unknown)}"
        )
    opts = {}
    for name, (default, kind) in table.items():
        value = getattr(ns, name)
        if value is None and name in config:
            value = _coerce(name, config[name], kind)
        if value is None:
            value = default
        if value is _REQUIRED:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{command}: missing required option {flag}")
        opts[name] = value
    seed = ns.seed
    if seed is None and "seed" in config:
        seed = _coerce("seed", config["seed"], int)
    opts["seed"] = 0 if seed is None else seed
    return opts


def _parse_index_spec(text):
    """Parse mode/point lists like ``"0,2,5"`` or ``"0:10"`` (half-open)."""
    indices = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError(f"empty entry in index list {text!r}")
        if ":" in part:
            lo_text, hi_text = part.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi <= lo:
                raise ValueError(f"empty range {part!r} in index list")
            indices.extend(range(lo, hi))
        else:
            indices.append(int(part))
    return indices


def _emit(ns, payload, text):
    print(json.dumps(payload) if ns.json else text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(ns):
    opts = _resolve(ns, "build")
    model = build_string_model(
        opts["m"],
        element_mass=opts["element_mass"],
        element_stiffness=opts["element_stiffness"],
        length=opts["length"],
        boundary_factor=opts["boundary"],
        a1=opts["a1"],
        a2=opts["a2"],
    )
    write_model(model, opts["output"])
    mu_max = max_gen_eigenvalue(model.stiffness, model.mass)
    _emit(
        ns,
        {"path": opts["output"], "m": model.m, "mu_max": mu_max},
        f"wrote {opts['output']}: {model.m} DoFs, mu_max = {mu_max:.10g}",
    )
    return 0


def _load_reduction(model, opts):
    """Shared model/basis/weights composition for timestep and integrate."""
    basis = None
    if opts["basis"] is not None:
        basis = read_basis(opts["basis"], mass=model.mass)
        if basis.m != model.m:
            raise ValueError(
                f"basis has {basis.m} rows for model order {model.m}"
            )
    if opts["weights"] is not None:
        if basis is None:
            raise ValueError("--weights requires --basis")
        weights = read_weights(opts["weights"])
        return ecsw_reduce(model, weights, basis)
    if basis is not None:
        return galerkin_reduce(model, basis)
    return model


def cmd_timestep(ns):
    opts = _resolve(ns, "timestep")
    model = read_model(ns.model)
    if opts["scale"] <= 0.0:
        raise ValueError("--scale must be positive")
    if opts["element_bound"]:
        if opts["basis"] is not None:
            raise ValueError("--element-bound ignores the basis; drop --basis")
        weights = (
            read_weights(opts["weights"]) if opts["weights"] is not None else None
        )
        report = element_dt_bound(model.elements, model.a1, model.a2, weights=weights)
    else:
        report = critical_dt_report(_load_reduction(model, opts))
    doc = report.to_dict()
    doc["dt_crit"] = doc["dt_crit"] * opts["scale"]
    doc["scale"] = opts["scale"]
    print(json.dumps(doc))
    return 0


def cmd_reduce(ns):
    opts = _resolve(ns, "reduce")
    model = read_model(ns.model)
    if (opts["modes"] is None) == (opts["pod"] is None):
        raise ValueError("choose exactly one of --modes or --pod")
    if opts["modes"] is not None:
        basis = modal_basis(model, _parse_index_spec(opts["modes"]))
    else:
        if opts["k"] is None:
            raise ValueError("--pod requires --k")
        snapshots = snapshots_from_trajectory(read_trajectory(opts["pod"]))
        if snapshots.shape[0] != model.m:
            raise ValueError(
                f"snapshots have {snapshots.shape[0]} rows for model order {model.m}"
            )
        mass = None if opts["plain"] else model.mass
        basis = pod_basis(snapshots, opts["k"], mass=mass)
    write_basis(basis, opts["output"])
    _emit(
        ns,
        {"path": opts["output"], "m": basis.m, "k": basis.k, "kind": basis.kind},
        f"wrote {opts['output']}: {basis.kind} basis, {basis.m} x {basis.k}",
    )
    return 0


def cmd_hyper(ns):
    opts = _resolve(ns, "hyper")
    model = read_model(ns.model)
    method = opts["method"]
    if method == "ecsw":
        if opts["basis"] is None or opts["snapshots"] is None:
            raise ValueError("--method ecsw requires --basis and --snapshots")
        if not 0.0 < opts["tau"] < 1.0:
            raise ValueError("--tau must lie strictly between 0 and 1")
        basis = read_basis(opts["basis"], mass=model.mass)
        snapshots = snapshots_from_trajectory(read_trajectory(opts["snapshots"]))
        weights = ecsw_train(model, basis, snapshots, opts["tau"])
        write_weights(weights, opts["output"])
        _emit(
            ns,
            {
                "path": opts["output"],
                "support": list(weights.support),
                "residual": weights.residual,
                "n_elements": len(weights.xi),
            },
            f"wrote {opts['output']}: {len(weights.support)} of "
            f"{len(weights.xi)} elements, residual {weights.residual:.3e}",
        )
        return 0
    if method == "collocation":
        if opts["points"] is None:
            raise ValueError("--method collocation requires --points")
        samples = SampleSet.from_model(model, _parse_index_spec(opts["points"]))
    elif method == "deim":
        if opts["snapshots"] is None or opts["k_force"] is None:
            raise ValueError("--method deim requires --snapshots and --k-force")
        snapshots = snapshots_from_trajectory(read_trajectory(opts["snapshots"]))
        if snapshots.shape[0] != model.m:
            raise ValueError(
                f"snapshots have {snapshots.shape[0]} rows for model order {model.m}"
            )
        forces = model.stiffness @ snapshots
        u, _, _ = thin_svd(forces)
        if opts["k_force"] > u.shape[1]:
            raise ValueError(
                f"--k-force {opts['k_force']} exceeds the {u.shape[1]} "
                "force-snapshot directions available"
            )
        samples = SampleSet.from_model(model, deim_points(u[:, : opts["k_force"]]))
    else:
        raise ValueError(
            f"unknown method {method!r}; choose ecsw, deim or collocation"
        )
    write_sample_set(samples, opts["output"])
    _emit(
        ns,
        {
            "path": opts["output"],
            "collocation": list(samples.collocation),
            "damping_reach": list(samples.damping_reach),
            "stiffness_reach": list(samples.stiffness_reach),
        },
        f"wrote {opts['output']}: collocation DoFs {list(samples.collocation)}, "
        f"stiffness reach {len(samples.stiffness_reach)} DoFs",
    )
    return 0


def cmd_integrate(ns):
    opts = _resolve(ns, "integrate")
    model = read_model(ns.model)
    system = _load_reduction(model, opts)
    if (opts["dt"] is None) == (opts["dt_frac"] is None):
        raise ValueError("choose exactly one of --dt or --dt-frac")
    if opts["dt"] is not None:
        dt = opts["dt"]
    else:
        if opts["dt_frac"] <= 0.0:
            raise ValueError("--dt-frac must be positive")
        dt_crit = critical_dt_report(system).dt_crit
        if not np.isfinite(dt_crit):
            raise ValueError(
                "critical step is unbounded for this system; give --dt instead"
            )
        dt = opts["dt_frac"] * dt_crit
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    if (opts["t_end"] is None) == (opts["steps"] is None):
        raise ValueError("choose exactly one of --t-end or --steps")
    if opts["steps"] is not None:
        if opts["steps"] < 0:
            raise ValueError("--steps must be non-negative")
        t_end = opts["steps"] * dt
    else:
        if opts["t_end"] < 0.0:
            raise ValueError("--t-end must be non-negative")
        t_end = opts["t_end"]
    if opts["record_every"] < 1:
        raise ValueError("--record-every must be at least 1")

    dim = system.dim
    if opts["x0_random"] is not None:
        rng = np.random.default_rng(opts["seed"])
        x0 = opts["x0_random"] * rng.standard_normal(dim)
    else:
        x0 = np.zeros(dim)
    v0 = np.zeros(dim)

    if t_end == 0.0:
        trajectory = Trajectory(
            times=np.zeros(0), states=np.zeros((0, dim)), divergence_flag=False
        )
    else:
        trajectory = integrate(
            system, x0, v0, t_end, dt, record_every=opts["record_every"]
        )
    write_trajectory(trajectory, opts["output"])
    diverged = trajectory.divergence_flag
    _emit(
        ns,
        {
            "path": opts["output"],
            "dt": dt,
            "rows": int(trajectory.states.shape[0]),
            "final_time": float(trajectory.times[-1]) if len(trajectory.times) else 0.0,
            "diverged": diverged,
            "divergence_step": trajectory.divergence_step,
        },
        f"wrote {opts['output']}: {trajectory.states.shape[0]} rows, dt = {dt:.10g}"
        + (f", DIVERGED at step {trajectory.divergence_step}" if diverged else ""),
    )
    return 4 if diverged else 0


def cmd_verify(ns):
    opts = _resolve(ns, "verify")
    if opts["trials"] < 1:
        raise ValueError("--trials must be at least 1")
    results = run_suite(
        seed=opts["seed"],
        trials=opts["trials"],
        break_symmetry=opts["break_symmetry"],
    )
    all_pass = all(r.passed for r in results)
    if ns.json:
        print(
            json.dumps(
                {
                    "seed": opts["seed"],
                    "trials": opts["trials"],
                    "results": [r.to_dict() for r in results],
                    "all_pass": all_pass,
                }
            )
        )
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(
                f"[{status}] {r.name:24s} trials={r.trials:<5d} "
                f"failures={r.failures:<3d} worst={r.worst: .3e}  ({r.note})"
            )
        print(f"{'all properties hold' if all_pass else 'PROPERTY FAILURES'} "
              f"(seed {opts['seed']}, {opts['trials']} trials)")
    return 0 if all_pass else 5


def cmd_reproduce(ns):
    opts = _resolve(ns, "reproduce")
    report = run_reproduce(only=opts["only"])
    if ns.json:
        print(json.dumps(report.to_dict()))
    else:
        show_matrix = opts["only"] in (None, "string5")
        print(format_report(report, show_operator=show_matrix))
    return 0 if report.all_pass else 5


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _common_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="seed for randomized steps (default 0)")
    common.add_argument("--json", action="store_true", default=False,
                        help="machine-readable output")
    common.add_argument("--config", default=None, metavar="FILE",
                        help="JSON object supplying defaults for optional flags")
    return common


def build_parser():
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="romstab",
        description="explicit-dynamics model reduction with stable-time-step reporting",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("build", parents=[common],
                       help="construct a model file")
    p.add_argument("family", choices=["string"],
                   help="model family to build")
    p.add_argument("--m", type=int, default=None, help="number of DoFs")
    p.add_argument("--M", "--element-mass", dest="element_mass", type=float,
                   default=None, help="mass per element")
    p.add_argument("--K", "--element-stiffness", dest="element_stiffness",
                   type=float, default=None, help="stiffness per element")
    p.add_argument("--L", "--length", dest="length", type=float, default=None,
                   help="element length (default 1)")
    p.add_argument("--boundary", type=float, default=None,
                   help="boundary-spring stiffness factor (default 99)")
    p.add_argument("--a1", type=float, default=None,
                   help="mass-proportional damping coefficient")
    p.add_argument("--a2", type=float, default=None,
                   help="stiffness-proportional damping coefficient")
    p.add_argument("-o", "--output", default=None, help="model file to write")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("timestep", parents=[common],
                       help="critical-time-step report (JSON on stdout)")
    p.add_argument("model", help="model file")
    p.add_argument("--basis", default=None, help="reduced-basis file")
    p.add_argument("--weights", default=None, help="element-weights file")
    p.add_argument("--element-bound", action="store_true", default=None,
                   help="use the element-level bound instead of the exact eigenvalue")
    p.add_argument("--scale", type=float, default=None,
                   help="multiply the reported dt_crit by a safety factor")
    p.set_defaults(func=cmd_timestep)

    p = sub.add_parser("reduce", parents=[common],
                       help="build a reduced basis")
    p.add_argument("model", help="model file")
    p.add_argument("--modes", default=None, metavar="SPEC",
                   help="mode indices, e.g. '0:10' or '1,3'")
    p.add_argument("--pod", default=None, metavar="TRAJ",
                   help="trajectory CSV to build a snapshot basis from")
    p.add_argument("--k", type=int, default=None,
                   help="number of snapshot-basis columns")
    p.add_argument("--plain", action="store_true", default=None,
                   help="plain-orthonormal snapshot basis (default mass-orthonormal)")
    p.add_argument("-o", "--output", default=None, help="basis file to write")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("hyper", parents=[common],
                       help="element-weight training / sample-set selection")
    p.add_argument("model", help="model file")
    p.add_argument("--method", choices=["ecsw", "deim", "collocation"],
                   default=None, help="hyper-reduction flavor")
    p.add_argument("--basis", default=None, help="reduced-basis file (ecsw)")
    p.add_argument("--snapshots", default=None, metavar="TRAJ",
                   help="trajectory CSV with training snapshots")
    p.add_argument("--tau", type=float, default=None,
                   help="training residual tolerance (default 0.01)")
    p.add_argument("--points", default=None, metavar="SPEC",
                   help="collocation DoFs, e.g. '0,2,4'")
    p.add_argument("--k-force", dest="k_force", type=int, default=None,
                   help="force-basis columns for greedy point selection")
    p.add_argument("-o", "--output", default=None, help="file to write")
    p.set_defaults(func=cmd_hyper)

    p = sub.add_parser("integrate", parents=[common],
                       help="explicit central-difference integration to CSV")
    p.add_argument("model", help="model file")
    p.add_argument("--basis", default=None, help="reduced-basis file")
    p.add_argument("--weights", default=None,
                   help="element-weights file (with --basis)")
    p.add_argument("--dt", type=float, default=None, help="time step")
    p.add_argument("--dt-frac", dest="dt_frac", type=float, default=None,
                   help="time step as a fraction of the critical step")
    p.add_argument("--t-end", dest="t_end", type=float, default=None,
                   help="end time")
    p.add_argument("--steps", type=int, default=None,
                   help="number of steps (alternative to --t-end)")
    p.add_argument("--record-every", dest="record_every", type=int, default=None,
                   help="record every n-th step (default 1)")
    p.add_argument("--x0-random", dest="x0_random", type=float, default=None,
                   metavar="SCALE", help="seeded random initial displacement")
    p.add_argument("-o", "--output", default=None, help="trajectory CSV to write")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("verify", parents=[common],
                       help="randomized property suite")
    p.add_argument("--trials", type=int, default=None,
                   help="instances per property (default 200)")
    p.add_argument("--break-symmetry", dest="break_symmetry",
                   action="store_true", default=None,
                   help="also run the symmetry-breaking witness checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce", parents=[common],
                       help="golden-number regression report")
    p.add_argument("--only", choices=list(GROUPS), default=None,
                   help="restrict to one target group")
    p.set_defaults(func=cmd_reproduce)

    return parser


def run(argv=None):
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(ns, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return ns.func(ns)
    except FormatError as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 3
    except (RomStabError, ValueError, TypeError) as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
