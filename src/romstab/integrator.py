"""Explicit central-difference time stepping.

The scheme is the staggered (leapfrog) form: accelerations at step ``n``
come from the nodal force evaluated with displacements at ``n`` and
velocities at ``n - 1/2``; velocities then advance to ``n + 1/2`` and
displacements to ``n + 1``.  On the very first step the initial velocity
stands in for the half-step history.

:func:`cd_step` steps a :class:`~romstab.models.FullOrderModel` (or any object
providing ``dim``, ``mass_inverse_apply(f)`` and ``force_at(x, v_half, t)``)
through its sparse force.  A square :class:`~romstab.reduction.ReducedModel`
(:func:`cd_step`) and a naive-collocation :class:`~romstab.hyper.SampledModel`
(:func:`~romstab.hyper.hrom_step`) step with their one-step matrix ``A`` from
``step_operator(dt)`` instead, on ``z = [x; v_half]`` and on
``z = [x; sampled-row velocities]`` (there ``A`` is the
:func:`~romstab.hyper.sampled_step_matrix` that the stable step comes from):
``z <- A z``, and with a load table the one product
``[A | b_s | b_{s+1}] [z; 1 - w; w]`` of :func:`~romstab.reduction.operator_step`,
``b_s`` and ``b_{s+1}`` the mapped load rows at the ends of the segment that
holds ``t`` and ``w`` its interpolation weight.  :func:`integrate` runs the
same arithmetic in blocks of steps into a preallocated block buffer: one
:meth:`~romstab.models.ForceTable.segments` call on the block's times gives
each loaded row its weights, the two load rows of a segment go into the
matrix at the step where it starts, and every matrix-stepped step is one
``dot(z, out=...)``; it then tests divergence and takes the records in one
pass over the filled block, discarding the steps that the block ran past a
divergence.  So on every model its records, divergence flag and divergence
step are bit-identical to a loop of public steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError
from .hyper import SampledModel
from .reduction import MatrixStepped, ReducedModel, _loaded_matrix, operator_step

__all__ = [
    "IntegratorState",
    "Trajectory",
    "cd_step",
    "integrate",
    "write_trajectory",
    "read_trajectory",
]


@dataclass(frozen=True)
class IntegratorState:
    """State carried between central-difference steps.

    ``v_half`` holds the staggered velocity at ``t - dt/2`` (the initial
    velocity before the first step).  ``row_v_half`` is only populated by
    :func:`~romstab.hyper.hrom_step`, which chains velocities at its
    sampled rows; :func:`cd_step` leaves it ``None``.
    """

    x: np.ndarray
    v_half: np.ndarray
    t: float = 0.0
    n: int = 0
    row_v_half: np.ndarray | None = None

    @classmethod
    def initial(cls, x0, v0):
        x0 = np.asarray(x0, dtype=float)
        v0 = np.asarray(v0, dtype=float)
        if x0.shape != v0.shape or x0.ndim != 1:
            raise ValueError(f"initial state shapes {x0.shape}/{v0.shape} must be equal 1-D")
        return cls(x=x0, v_half=v0, t=0.0, n=0)


@dataclass
class Trajectory:
    """Recorded displacement history of one integration run."""

    times: np.ndarray
    states: np.ndarray
    divergence_flag: bool = False
    divergence_step: int | None = None


_BLOCK = 256  # steps per block: one load lookup, one buffer fill, one divergence pass
_BLOCK_FLOATS = 2**15  # the steps of a block hold at most 256 KiB, or one step
_RECORD_FLOATS = 2**24  # records preallocated up front: 128 MiB, doubled past that


def _block_rows(width):
    """Steps per block of ``width``-float states: 1 to ``_BLOCK``, within ``_BLOCK_FLOATS``."""
    return max(1, min(_BLOCK, _BLOCK_FLOATS // width))


def _norm(x):
    """``norm(x)``; when its squares overflow but ``x`` is finite, ``p norm(x / p)``
    with ``p`` the largest ``|x_i|``, so a finite norm stays finite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if math.isinf(norm) and np.all(np.isfinite(x)):
        peak = float(np.max(np.abs(x)))
        norm = peak * float(np.linalg.norm(x / peak))
    return norm


def _grown(records, rows):
    """``records`` in the first rows of a new array of ``rows`` rows."""
    out = np.empty((rows,) + records.shape[1:])
    out[: len(records)] = records
    return out


def _cd_advance(model, x, v_half, t, dt, out):
    """One central-difference update through the model's force, into ``out``,
    whose halves it returns as the new ``x`` and ``v_half``."""
    accel = model.mass_inverse_apply(model.force_at(x, v_half, t))
    v_new = np.add(v_half, dt * accel, out=out[x.size:])
    return np.add(x, dt * v_new, out=out[:x.size]), v_new


def cd_step(model, state, dt):
    """Advance one central-difference step.

    Non-finite values are *not* trapped here; they propagate into the new
    state so that the driver can flag divergence instead of crashing.
    """
    if isinstance(model, ReducedModel):
        z = operator_step(model, (state.x, state.v_half), state.t, dt)
        x, v_half = z[: model.dim], z[model.dim:]
    else:
        x, v_half = _cd_advance(model, state.x, state.v_half, state.t, dt, np.empty(2 * model.dim))
    return replace(state, x=x, v_half=v_half, t=state.t + dt, n=state.n + 1)


def integrate(model, x0, v0, t_end, dt, record_every=1, blowup=1e6):
    """Step from ``t = 0`` to ``t_end`` at constant ``dt``, recording states.

    Records the initial state, every ``record_every``-th step and the
    final step.  A run is flagged divergent — and stops — when the state
    stops being finite or ``norm(x)`` exceeds ``blowup * max(1, norm(x0))``;
    a norm whose squares overflow is taken scaled by the largest entry, so a
    finite ``x0`` always gives a finite limit.

    Steps fill a block buffer of ``[x; velocity]`` rows, at most ``_BLOCK``
    and at most 256 KiB of them unless one row is larger.  Each step of a
    matrix-stepped model is one bound ``dot(row_j, out=row_{j+1})``.  With a
    load, a row ends in its step's load weights ``[1 - w; w]``, filled for a
    block from one ``load.segments`` call on its times, and the matrix is
    a copy of the model's ``[A | b_s | b_{s+1}]``, whose last two columns are
    set at each segment change; no load is looked up and none added.  So the
    load adds one copy of two columns per segment change, and a table with a
    station at every step pays it at every step.  One pass over each filled
    block tests divergence and copies the records straight into
    ``times``/``states`` arrays sized for the whole run (up to 128 MiB,
    doubled past that) and cut at a divergence; steps that a block ran past
    a divergence are discarded.  So the records, the flag and the divergence
    step equal those of a loop of public steps.

    Returns a :class:`Trajectory`; divergence is reported on the
    trajectory, not raised.  More than 1e9 steps is a ``ValueError``.
    """
    for name, value in (("dt", dt), ("t_end", t_end), ("blowup", blowup)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if blowup <= 0.0:
        raise ValueError(f"blowup must be positive, got {blowup}")
    # exact multiples of dt land exactly; anything else rounds down, so the
    # run never oversteps t_end (the limit also catches an overflow to inf)
    n_steps = t_end / dt + 1e-9
    if not n_steps <= 1e9:
        raise ValueError(f"t_end={t_end} and dt={dt} ask for {t_end / dt:.3g} steps; "
                         "at most 1e9 are allowed")
    n_steps = int(n_steps)
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (model.dim,) or v0.shape != (model.dim,):
        raise ValueError(f"initial state shapes {x0.shape}/{v0.shape} do not match "
                         f"model dimension {model.dim}")

    dot = ends = None
    if isinstance(model, MatrixStepped):
        matrix, ends, _ = model._operator(dt)
        if ends is not None:  # [A | b_s | b_{s+1}], the last two columns set per segment,
            # apart from the model's, which other runs and public steps may be setting
            matrix = _loaded_matrix(matrix, ends[0])
            columns = matrix[:, -2:]
        dot = matrix.dot  # np.dot's BLAS call, bound once
    sampled, k = isinstance(model, SampledModel), model.dim
    z = np.concatenate((x0, model.row_basis @ v0 if sampled else v0))
    d = z.size
    # row 0 holds the state before the block's first step, row j the state
    # after its j-th: [x; v_half], or [x; sampled-row velocities]; a loaded
    # model's rows end in the weights [1 - w; w] of the load of their step
    width = d if ends is None else d + 2
    buffer = np.empty((min(n_steps, _block_rows(width)) + 1, width))
    buffer[0, :d] = z
    rows = list(buffer)
    heads = None if ends is None else list(buffer[:, :d])  # where a loaded step writes
    limit = float(blowup) * max(1.0, _norm(x0))
    # norm(x) is sqrt(x.dot(x)) and a sum of the 2 dim squares of x and v, in any
    # order, is off by under 2 dim ulps, so a sum within ``bound`` proves the step
    # sound; NaN, inf, overflow and states near the limit take the exact tests
    bound = min(limit * limit, np.finfo(float).max) * (1.0 - 8 * x0.size * 2.0**-53)
    total = 1 + -(-n_steps // record_every)  # the records of a run to the end
    times = np.empty(min(total, max(1, _RECORD_FLOATS // k)))
    states = np.empty((times.size, k))
    times[0], states[0], count = 0.0, x0, 1
    steps = np.full(len(rows), float(dt))  # times accumulate by t + dt, as public steps do
    t, n, divergence_step = 0.0, 0, None

    # steps past a divergence fill the rest of their block and are discarded,
    # so their overflows must not warn
    with np.errstate(over="ignore", invalid="ignore"):
        while n < n_steps and divergence_step is None:
            size = min(len(rows) - 1, n_steps - n)
            steps[0] = t
            ts = np.add.accumulate(steps[:size + 1])
            if dot is None:
                x, v_half = rows[0][:k], rows[0][k:]
                for t_j, row in zip(ts.tolist(), rows[1:size + 1]):
                    x, v_half = _cd_advance(model, x, v_half, t_j, dt, row)
            elif ends is None:  # operator_step's arithmetic, into the buffer
                for src, dst in zip(rows, rows[1:size + 1]):
                    dot(src, dst)
            else:  # the same: the block's weights, and a segment's columns where it starts
                s, w = model.load.segments(ts[:-1])
                buffer[:size, d], buffer[:size, d + 1] = 1.0 - w, w
                starts = [None] * size  # a segment's columns, at the step where it starts
                for j in [0, *(np.flatnonzero(s[1:] != s[:-1]) + 1).tolist()]:
                    starts[j] = ends[s[j]]
                for src, dst, pair in zip(rows, heads[1:size + 1], starts):
                    if pair is not None:
                        columns[...] = pair
                    dot(src, dst)
            xs, block = buffer[: size + 1, :k], buffer[1:size + 1, :d]
            vs = (xs[1:] - xs[:-1]) / dt if sampled else block[:, k:]
            parts = np.concatenate((xs[1:], vs), axis=1) if sampled else block
            squares = np.matmul(parts[:, None], parts[..., None])[:, 0, 0]  # row by row
            for i in (~(squares <= bound)).nonzero()[0].tolist():
                if (not np.all(np.isfinite(xs[i + 1])) or not np.all(np.isfinite(vs[i]))
                        or _norm(xs[i + 1]) > limit):
                    size, divergence_step = i + 1, n + i + 1
                    break
            keep = slice(record_every - n % record_every, size + 1, record_every)
            kept = ts[keep]
            last = ((divergence_step is not None or n + size == n_steps)
                    and (n + size) % record_every)
            end = count + len(kept) + bool(last)
            if end > len(times):
                capacity = min(total, max(end, 2 * len(times)))
                times, states = _grown(times, capacity), _grown(states, capacity)
            times[count:count + len(kept)] = kept
            states[count:count + len(kept)] = xs[keep]
            if last:
                times[end - 1], states[end - 1] = ts[size], xs[size]
            t, n, count = ts[size], n + size, end
            buffer[0] = buffer[size]

    if count < len(times):  # cut at a divergence or past growth: keep only the records
        times, states = times[:count].copy(), states[:count].copy()
    return Trajectory(times, states, divergence_step is not None, divergence_step)


# ---------------------------------------------------------------------------
# Trajectory CSV round-trip
# ---------------------------------------------------------------------------


def write_trajectory(trajectory, path):
    """Write a trajectory as CSV: header ``t, x_0, ..., x_{d-1}``, one row
    per record, and a final comment ``# diverged=<bool> step=<n>`` (step is
    -1 when the run did not diverge)."""
    d = np.atleast_2d(trajectory.states).shape[1]
    header = ", ".join(["t"] + [f"x_{i}" for i in range(d)])
    step = trajectory.divergence_step if trajectory.divergence_step is not None else -1
    flag = "true" if trajectory.divergence_flag else "false"
    rows = np.column_stack((trajectory.times, trajectory.states)).tolist()
    body = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{header}\n{body}# diverged={flag} step={step}\n")


def read_trajectory(path):
    """Read a trajectory written by :func:`write_trajectory`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    if not lines:
        raise FormatError(f"{path}: empty trajectory file")
    header = [tok.strip() for tok in lines[0].split(",")]
    if header[0] != "t" or any(
        tok != f"x_{i}" for i, tok in enumerate(header[1:])
    ):
        raise FormatError(f"{path}: malformed trajectory header {lines[0]!r}")
    d = len(header) - 1
    diverged = False
    step = None
    rows = []
    for line in lines[1:]:
        if line.lstrip().startswith("#"):
            tokens = line.lstrip("# ").split()
            fields = dict(tok.split("=", 1) for tok in tokens if "=" in tok)
            if "diverged" not in fields or "step" not in fields:
                raise FormatError(f"{path}: malformed trailer {line!r}")
            if fields["diverged"] not in ("true", "false"):
                raise FormatError(f"{path}: malformed divergence flag {line!r}")
            diverged = fields["diverged"] == "true"
            try:
                step = int(fields["step"])
            except ValueError as exc:
                msg = f"{path}: malformed divergence step {line!r}"
                raise FormatError(msg) from exc
            step = None if step < 0 else step
            continue
        values = line.split(",")
        if len(values) != d + 1:
            raise FormatError(f"{path}: row has {len(values)} fields, expected {d + 1}")
        try:  # float() ignores the whitespace around a value
            rows.append(list(map(float, values)))
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric row {line!r}") from exc
    data = np.array(rows) if rows else np.zeros((0, d + 1))
    return Trajectory(
        times=data[:, 0],
        states=data[:, 1:],
        divergence_flag=diverged,
        divergence_step=step,
    )
