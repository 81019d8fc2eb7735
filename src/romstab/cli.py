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

``_COMMANDS`` declares each subcommand once: its help, positionals and a
table of options, each with its spellings, type, default (or required),
help and argparse extras.  That table is the single source for the
parser's flags, the ``--config`` keys and their types, and the defaults.

Exit codes: 0 success; 2 usage or argument errors; 3 file or format
errors; 4 divergence; 5 verification or reproduction failure; 6 numerical
failure; 7 no stable step (``timestep`` still prints its report).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple

import numpy as np

from .errors import (ConvergenceError, FormatError, InfeasibleError, NumericalRangeError,
                     RankDeficiencyError, RomStabError)
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
from .kernels import thin_svd
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

_Option = namedtuple("_Option", "flags dest kind default help extra")


def _opt(flags, kind, default, help, **extra):
    """One option: spellings, type (bool: a switch), default or _REQUIRED, help."""
    flags = tuple(flags.split())
    dest = flags[-1].lstrip("-").replace("-", "_")
    return _Option(flags, dest, kind, default, help, extra)


def _flag(name):
    return "--" + name.replace("_", "-")


# JSON types a config value of each non-switch option type may take
_ACCEPTS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _coerce(name, value, kind):
    """Bring a config-file value to the flag's type; reject shape surprises."""
    if (kind is bool) != isinstance(value, bool):
        rule = "be true or false" if kind is bool else "not be a boolean"
        raise ValueError(f"config key {name!r} must {rule}")
    if kind is not bool and not isinstance(value, _ACCEPTS[kind][0]):
        raise ValueError(f"config key {name!r} must be {_ACCEPTS[kind][1]}")
    return float(value) if kind is float else value


def _resolve(ns, command):
    """Merge CLI flags over config-file values over built-in defaults."""
    _, _, _, options = _COMMANDS[command]
    config = read_json(ns.config) if ns.config is not None else {}
    if not isinstance(config, dict):
        raise FormatError(f"{ns.config}: config must be a JSON object")
    unknown = set(config) - {o.dest for o in options} - {"seed"}
    if unknown:
        raise ValueError(
            f"config keys not understood by {command!r}: {sorted(unknown)}"
        )
    opts = {}
    for o in options:
        value = getattr(ns, o.dest)
        if value is None and o.dest in config:
            value = _coerce(o.dest, config[o.dest], o.kind)
        if value is None:
            value = o.default
        if value is _REQUIRED:
            raise ValueError(f"{command}: missing required option {_flag(o.dest)}")
        opts[o.dest] = value
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


def _one_of(opts, first, second):
    """Require exactly one of two options; return whether it is ``first``."""
    if (opts[first] is None) == (opts[second] is None):
        raise ValueError(f"choose exactly one of {_flag(first)} or {_flag(second)}")
    return opts[first] is not None


def _read_snapshots(path, model):
    """Snapshot matrix of a trajectory CSV, one row per DoF of ``model``."""
    snapshots = snapshots_from_trajectory(read_trajectory(path))
    if snapshots.shape[0] != model.m:
        raise ValueError(
            f"snapshots have {snapshots.shape[0]} rows for model order {model.m}"
        )
    return snapshots


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_build(ns):
    opts = _resolve(ns, "build")
    model = build_string_model(
        opts["m"], element_mass=opts["element_mass"],
        element_stiffness=opts["element_stiffness"], length=opts["length"],
        boundary_factor=opts["boundary"], a1=opts["a1"], a2=opts["a2"],
    )
    mu_max = model.max_eigenvalue()
    write_model(model, opts["output"])
    _emit(
        ns,
        {"path": opts["output"], "m": model.m, "mu_max": mu_max},
        f"wrote {opts['output']}: {model.m} DoFs, mu_max = {mu_max:.10g}",
    )
    return 0


def _load_reduction(model, opts):
    """Shared model/basis/weights composition for timestep and integrate."""
    if opts["basis"] is None:
        if opts["weights"] is not None:
            raise ValueError("--weights requires --basis")
        return model
    basis = read_basis(opts["basis"], mass=model.mass)
    if opts["weights"] is None:
        return galerkin_reduce(model, basis)
    return ecsw_reduce(model, read_weights(opts["weights"]), basis)


def cmd_timestep(ns):
    opts = _resolve(ns, "timestep")
    model = read_model(ns.model)
    if not (math.isfinite(opts["scale"]) and opts["scale"] > 0.0):
        raise ValueError(f"--scale must be finite and positive, got {opts['scale']}")
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
    return 0 if report.stable else 7


def cmd_reduce(ns):
    opts = _resolve(ns, "reduce")
    model = read_model(ns.model)
    if _one_of(opts, "modes", "pod"):
        basis = modal_basis(model, _parse_index_spec(opts["modes"]))
    else:
        if opts["k"] is None:
            raise ValueError("--pod requires --k")
        snapshots = _read_snapshots(opts["pod"], model)
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
        snapshots = _read_snapshots(opts["snapshots"], model)
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
        op = model.operator
        forces = op.rows_times(op.stiffness, _read_snapshots(opts["snapshots"], model))
        u, _, _ = thin_svd(forces)
        if opts["k_force"] > u.shape[1]:
            raise ValueError(
                f"--k-force {opts['k_force']} exceeds the {u.shape[1]} "
                "force-snapshot directions available"
            )
        samples = SampleSet.from_model(model, deim_points(u[:, : opts["k_force"]]))
    else:
        raise ValueError(f"unknown method {method!r}; choose ecsw, deim or collocation")
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
    if _one_of(opts, "dt", "dt_frac"):
        dt = opts["dt"]
    else:
        if opts["dt_frac"] <= 0.0:
            raise ValueError("--dt-frac must be positive")
        report = critical_dt_report(system)
        if not report.stable:
            print(f"romstab: no stable step ({report.method}, eigenvalue "
                  f"{report.eigenvalue})", file=sys.stderr)
            return 7
        dt_crit = report.dt_crit
        if not np.isfinite(dt_crit):
            raise ValueError(
                "critical step is unbounded for this system; give --dt instead"
            )
        dt = opts["dt_frac"] * dt_crit
    if dt <= 0.0:
        raise ValueError("time step must be positive")
    if not _one_of(opts, "t_end", "steps"):
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
    x0, v0 = np.zeros(dim), np.zeros(dim)
    if opts["x0_random"] is not None:
        rng = np.random.default_rng(opts["seed"])
        x0 = opts["x0_random"] * rng.standard_normal(dim)

    if t_end == 0.0:
        trajectory = Trajectory(np.zeros(0), np.zeros((0, dim)), divergence_flag=False)
    else:
        trajectory = integrate(system, x0, v0, t_end, dt,
                               record_every=opts["record_every"])
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
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name:24s} trials={r.trials:<5d} "
        f"failures={r.failures:<3d} worst={r.worst: .3e}  ({r.note})"
        for r in results
    ]
    lines.append(f"{'all properties hold' if all_pass else 'PROPERTY FAILURES'} "
                 f"(seed {opts['seed']}, {opts['trials']} trials)")
    _emit(
        ns,
        {
            "seed": opts["seed"],
            "trials": opts["trials"],
            "results": [r.to_dict() for r in results],
            "all_pass": all_pass,
        },
        "\n".join(lines),
    )
    return 0 if all_pass else 5


def cmd_reproduce(ns):
    opts = _resolve(ns, "reproduce")
    report = run_reproduce(only=opts["only"])
    show_matrix = opts["only"] in (None, "string5")
    _emit(ns, report.to_dict(), format_report(report, show_operator=show_matrix))
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


_MODEL = ("model", {"help": "model file"})

# name -> (handler, help, positionals, options); options in --help order
_COMMANDS = {
    "build": (cmd_build, "construct a model file", [
        ("family", {"choices": ["string"], "help": "model family to build"}),
    ], [
        _opt("--m", int, _REQUIRED, "number of DoFs"),
        _opt("--M --element-mass", float, _REQUIRED, "mass per element"),
        _opt("--K --element-stiffness", float, _REQUIRED, "stiffness per element"),
        _opt("--L --length", float, 1.0, "element length (default 1)"),
        _opt("--boundary", float, 99.0,
             "boundary-spring stiffness factor (default 99)"),
        _opt("--a1", float, 0.0, "mass-proportional damping coefficient"),
        _opt("--a2", float, 0.0, "stiffness-proportional damping coefficient"),
        _opt("-o --output", str, _REQUIRED, "model file to write"),
    ]),
    "timestep": (cmd_timestep, "critical-time-step report (JSON on stdout)", [
        _MODEL,
    ], [
        _opt("--basis", str, None, "reduced-basis file"),
        _opt("--weights", str, None, "element-weights file"),
        _opt("--element-bound", bool, False,
             "use the element-level bound instead of the exact eigenvalue"),
        _opt("--scale", float, 1.0,
             "multiply the reported dt_crit by a safety factor"),
    ]),
    "reduce": (cmd_reduce, "build a reduced basis", [_MODEL], [
        _opt("--modes", str, None, "mode indices, e.g. '0:10' or '1,3'",
             metavar="SPEC"),
        _opt("--pod", str, None, "trajectory CSV to build a snapshot basis from",
             metavar="TRAJ"),
        _opt("--k", int, None, "number of snapshot-basis columns"),
        _opt("--plain", bool, False,
             "plain-orthonormal snapshot basis (default mass-orthonormal)"),
        _opt("-o --output", str, _REQUIRED, "basis file to write"),
    ]),
    "hyper": (cmd_hyper, "element-weight training / sample-set selection", [
        _MODEL,
    ], [
        _opt("--method", str, _REQUIRED, "hyper-reduction flavor",
             choices=["ecsw", "deim", "collocation"]),
        _opt("--basis", str, None, "reduced-basis file (ecsw)"),
        _opt("--snapshots", str, None, "trajectory CSV with training snapshots",
             metavar="TRAJ"),
        _opt("--tau", float, 0.01, "training residual tolerance (default 0.01)"),
        _opt("--points", str, None, "collocation DoFs, e.g. '0,2,4'",
             metavar="SPEC"),
        _opt("--k-force", int, None,
             "force-basis columns for greedy point selection"),
        _opt("-o --output", str, _REQUIRED, "file to write"),
    ]),
    "integrate": (cmd_integrate, "explicit central-difference integration to CSV", [
        _MODEL,
    ], [
        _opt("--basis", str, None, "reduced-basis file"),
        _opt("--weights", str, None, "element-weights file (with --basis)"),
        _opt("--dt", float, None, "time step"),
        _opt("--dt-frac", float, None,
             "time step as a fraction of the critical step"),
        _opt("--t-end", float, None, "end time"),
        _opt("--steps", int, None, "number of steps (alternative to --t-end)"),
        _opt("--record-every", int, 1, "record every n-th step (default 1)"),
        _opt("--x0-random", float, None, "seeded random initial displacement",
             metavar="SCALE"),
        _opt("-o --output", str, _REQUIRED, "trajectory CSV to write"),
    ]),
    "verify": (cmd_verify, "randomized property suite", [], [
        _opt("--trials", int, 200, "instances per property (default 200)"),
        _opt("--break-symmetry", bool, False,
             "also run the symmetry-breaking witness checks"),
    ]),
    "reproduce": (cmd_reproduce, "golden-number regression report", [], [
        _opt("--only", str, None, "restrict to one target group",
             choices=list(GROUPS)),
    ]),
}


def build_parser():
    common = _common_parser()
    parser = argparse.ArgumentParser(
        prog="romstab",
        description="explicit-dynamics model reduction with stable-time-step reporting",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (func, help_text, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for arg, kwargs in positionals:
            p.add_argument(arg, **kwargs)
        for o in options:
            kwargs = {"action": "store_true"} if o.kind is bool else {"type": o.kind}
            p.add_argument(*o.flags, dest=o.dest, default=None, help=o.help,
                           **kwargs, **o.extra)
        p.set_defaults(func=func)
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
    except (FormatError, OSError) as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, InfeasibleError, NumericalRangeError, RankDeficiencyError) as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 6
    except (RomStabError, ValueError, TypeError) as exc:
        print(f"romstab: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
