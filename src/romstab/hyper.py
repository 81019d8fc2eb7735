"""Hyper-reduction: force sampling on top of a projection basis.

Collocation evaluates the nodal force at a subset of DoFs only.  The
*reach* of a sample set is the set of DoFs those sampled force rows
actually touch through the damping/stiffness sparsity; keeping it
explicit is what makes sampled evaluation cheap and is validated here
against the matrix structure.

DEIM/GNAT replace plain row selection by an oblique projection built
from a force basis (DEIM is GNAT with one sample row per force-basis
column).  ECSW instead re-weights element force contributions with
sparse nonnegative weights trained on snapshots; it preserves symmetry,
which the interpolation methods generally do not.

Two model types come out.  Projected collocation, DEIM, GNAT and ECSW
give a square :class:`~romstab.reduction.ReducedModel`, stepped by plain
central differences.  Naive collocation gives a :class:`SampledModel`
with rectangular ``p x k`` sampled rows; :func:`hrom_step` is its update
rule and :func:`sampled_step_matrix` the one-step matrix its stable step
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, RankDeficiencyError
from .kernels import sparse_nnls
from .models import ForceTable, assemble, read_json, require_keys, write_json
from .reduction import (
    MASS_ORTHONORMAL,
    ReducedBasis,
    MatrixStepped,
    ReducedModel,
    galerkin_mass,
    operator_step,
    reduced_load_table,
)

__all__ = [
    "SampleSet",
    "SampledModel",
    "EcswWeights",
    "deim_points",
    "collocate_naive",
    "collocate_projected",
    "deim_reduce",
    "gnat_reduce",
    "ecsw_training_system",
    "ecsw_train",
    "ecsw_reduce",
    "ecsw_weighted_operator",
    "hrom_step",
    "sampled_step_matrix",
    "sample_set_to_dict",
    "sample_set_from_dict",
    "write_sample_set",
    "read_sample_set",
    "weights_to_dict",
    "weights_from_dict",
    "write_weights",
    "read_weights",
]


@dataclass(frozen=True)
class SampleSet:
    """Collocation DoFs plus the DoFs their force rows reach.

    ``collocation`` keeps its given order (point order matters to the
    interpolation methods); the reach tuples are sorted.  Both reaches
    must contain every collocation DoF.
    """

    collocation: tuple
    damping_reach: tuple
    stiffness_reach: tuple

    def __post_init__(self):
        coll = tuple(int(i) for i in self.collocation)
        if len(coll) == 0:
            raise ValueError("sample set needs at least one collocation DoF")
        if len(set(coll)) != len(coll):
            raise ValueError(f"collocation DoFs must be distinct, got {coll}")
        if min(coll) < 0:
            raise ValueError(f"collocation DoFs must be nonnegative, got {coll}")
        reaches = {}
        for name in ("damping_reach", "stiffness_reach"):
            reach = tuple(sorted(int(i) for i in getattr(self, name)))
            if len(set(reach)) != len(reach):
                raise ValueError(f"{name} has duplicate entries")
            if not set(coll) <= set(reach):
                raise ValueError(f"{name} must contain all collocation DoFs")
            reaches[name] = reach
        object.__setattr__(self, "collocation", coll)
        object.__setattr__(self, "damping_reach", reaches["damping_reach"])
        object.__setattr__(self, "stiffness_reach", reaches["stiffness_reach"])

    @classmethod
    def from_model(cls, model, collocation):
        """Sample set with reaches computed from the matrix sparsity."""
        coll = tuple(int(i) for i in collocation)
        if any(not 0 <= i < model.m for i in coll):
            raise ValueError(
                f"collocation DoFs must lie in [0, {model.m - 1}], got {coll}"
            )
        rows = np.asarray(coll, dtype=int)
        op = model.operator
        pos, _ = op.gather(rows)
        touched = [op.indices[pos][data[pos] != 0.0] for data in (op.damping, op.stiffness)]
        return cls(coll, *(tuple(np.union1d(rows, t).tolist()) for t in touched))


@dataclass(frozen=True)
class EcswWeights:
    """Trained nonnegative element weights.

    ``support`` lists the indices of the strictly positive weights in
    increasing order; ``residual`` is the relative training residual.
    """

    xi: np.ndarray
    support: tuple
    residual: float

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        if xi.ndim != 1:
            raise ValueError(f"weights must be 1-D, got shape {xi.shape}")
        if not np.all(np.isfinite(xi)) or np.any(xi < 0.0):
            raise ValueError("weights must be finite and nonnegative")
        support = tuple(int(i) for i in self.support)
        if support != tuple(np.flatnonzero(xi).tolist()):
            raise ValueError(
                "support must list exactly the positive-weight indices, ascending"
            )
        if not (np.isfinite(self.residual) and self.residual >= 0.0):
            raise ValueError(f"residual must be nonnegative, got {self.residual}")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "support", support)


def _check_reach(model, samples):
    """A sampled force row must not touch DoFs outside the declared reach.

    It scans the sampled rows' nonzeros.  The error names the first
    offending row in collocation order (its damping row before its
    stiffness row) and the DoFs it touches outside.
    """
    if samples.collocation and max(samples.collocation) >= model.m:
        raise ValueError(
            f"collocation DoF {max(samples.collocation)} outside model of "
            f"order {model.m}"
        )
    rows = np.asarray(samples.collocation, dtype=int)
    op = model.operator
    pos, counts = op.gather(rows)
    cols = op.indices[pos]

    def outside(reach):  # per nonzero: its column is not in ``reach``
        reach = np.asarray(reach, dtype=int)
        mask = np.ones(model.m, dtype=bool)
        mask[reach[(reach >= 0) & (reach < model.m)]] = False
        return mask[cols]

    damping_out = (op.damping[pos] != 0.0) & outside(samples.damping_reach)
    stiffness_out = (op.stiffness[pos] != 0.0) & outside(samples.stiffness_reach)
    bad = damping_out | stiffness_out
    if bad.any():
        segment = np.repeat(np.arange(rows.size), counts)  # row by row, collocation order
        r = segment[np.argmax(bad)]
        in_row = segment == r
        if (damping_out & in_row).any():
            name, out = "damping", damping_out
        else:
            name, out = "stiffness", stiffness_out
        raise ValueError(
            f"{name} row {rows[r]} touches DoFs {cols[out & in_row].tolist()} "
            f"outside the declared {name} reach"
        )


def deim_points(force_basis):
    """Greedy interpolation points for a force basis.

    The first point maximizes ``|U[:, 0]|``; each later point maximizes
    the magnitude of the residual of the next column after interpolating
    it at the points found so far.  Ties resolve to the lowest index.
    """
    u = np.asarray(force_basis, dtype=float)
    if u.ndim != 2 or u.shape[1] < 1:
        raise ValueError(f"force basis must be 2-D with columns, got {u.shape}")
    if u.shape[1] > u.shape[0]:
        raise ValueError("force basis has more columns than rows")
    if not np.all(np.isfinite(u)):
        raise ValueError("force basis contains non-finite entries")
    points = [int(np.argmax(np.abs(u[:, 0])))]
    for j in range(1, u.shape[1]):
        sub = u[np.ix_(points, range(j))]
        try:
            coef = np.linalg.solve(sub, u[points, j])
        except np.linalg.LinAlgError as exc:
            raise RankDeficiencyError(
                f"interpolation submatrix is singular after {j} points",
                column=j,
            ) from exc
        residual = u[:, j] - u[:, :j] @ coef
        pick = int(np.argmax(np.abs(residual)))
        if pick in points:
            raise RankDeficiencyError(
                f"degenerate force basis: column {j} adds no new point",
                column=j,
            )
        points.append(pick)
    return np.array(points, dtype=int)


def _sampled_blocks(model, basis, samples):
    """Sampled rows ``P.T V``, ``P.T C V`` and ``P.T K V``, the latter two
    from nonzeros that :func:`_check_reach` keeps inside the reaches."""
    _check_reach(model, samples)
    v = basis.matrix
    if basis.m != model.m:
        raise ValueError(f"basis has {basis.m} rows for model order {model.m}")
    rows = np.asarray(samples.collocation, dtype=int)
    op = model.operator
    return rows, v[rows], *op.rows_times((op.damping, op.stiffness), v, rows)


def _require_full_rank(a, what, pinv=False):
    """Reject ``a`` when its condition number exceeds 1e12; with ``pinv``,
    return its pseudo-inverse from the same SVD: no singular value falls
    below the cutoff of ``np.linalg.pinv(a, rcond=1e-12)``, so this product,
    in this order, is numpy's bit for bit."""
    if pinv:
        u, sv, vt = np.linalg.svd(a, full_matrices=False)
    else:
        sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0] or sv[0] == 0.0:
        cond = np.inf if sv[-1] == 0.0 else sv[0] / sv[-1]
        raise RankDeficiencyError(
            f"{what} is rank-deficient (condition number {cond:.3e})"
        )
    if pinv:
        return vt.T @ ((1.0 / sv)[:, None] * u.T)


def _collocation_blocks(model, basis, samples, pinv=False):
    """Sampled blocks for the collocation variants, at least ``k`` rows of
    full column rank, and with ``pinv`` the pseudo-inverse of ``P.T V``
    (else None)."""
    blocks = _sampled_blocks(model, basis, samples)
    row_basis = blocks[1]
    if row_basis.shape[0] < basis.k:
        raise ValueError(
            f"need at least k={basis.k} collocation DoFs, got {row_basis.shape[0]}"
        )
    return (*blocks, _require_full_rank(row_basis, "sampled basis block P.T V", pinv))


@dataclass(frozen=True, eq=False)
class SampledModel(MatrixStepped):
    """Naive collocation: forces evaluated at ``p`` sampled DoFs only.

    ``damping`` and ``stiffness`` are the ``p x k`` sampled rows of ``C V``
    and ``K V``, ``row_mass`` the lumped mass at the sampled DoFs,
    ``row_basis`` the sampled basis rows ``P.T V`` and ``row_basis_pinv``
    their pseudo-inverse; ``load`` is the
    external load table restricted to the sampled DoFs.  It is stepped by
    :func:`hrom_step` with :func:`sampled_step_matrix`, the matrix its
    stable step comes from, not by a square mass solve.
    """

    provenance = "naive-collocation"

    damping: np.ndarray
    stiffness: np.ndarray
    row_mass: np.ndarray
    row_basis: np.ndarray
    row_basis_pinv: np.ndarray
    basis: ReducedBasis
    samples: SampleSet
    a1: float = 0.0
    a2: float = 0.0
    load: ForceTable | None = None

    @property
    def mass(self):
        """Sampled mass rows ``P.T M V`` (``p x k``)."""
        return self.row_mass[:, None] * self.row_basis

    @property
    def dim(self):
        return self.stiffness.shape[1]

    def _step_matrices(self, dt):
        """On ``z = [x; v_rows]``: ``A`` is :func:`sampled_step_matrix` and
        ``B = [dt pinv D; D]``, ``D = dt diag(1 / row_mass)``."""
        rows = np.diag(dt / self.row_mass)
        return sampled_step_matrix(self, dt), np.vstack([dt * (self.row_basis_pinv @ rows), rows])


def collocate_naive(model, basis, samples):
    """Row-sampled model: forces evaluated at the collocation DoFs only.

    Stores rectangular ``p x k`` operator blocks (p sampled rows) — with
    more rows than basis columns the displacement update solves a least
    squares problem each step, see :func:`hrom_step`.
    """
    rows, row_basis, damping_rows, stiffness_rows, row_basis_pinv = _collocation_blocks(
        model, basis, samples, pinv=True
    )
    return SampledModel(
        damping=damping_rows,
        stiffness=stiffness_rows,
        row_mass=model.mass[rows],
        row_basis=row_basis,
        row_basis_pinv=row_basis_pinv,
        basis=basis,
        samples=samples,
        a1=model.a1,
        a2=model.a2,
        load=reduced_load_table(model.external_force, rows=rows),
    )


def collocate_projected(model, basis, samples):
    """Collocation re-projected onto the basis (square ``k x k`` system).

    The reduced mass ``(P.T V).T diag(mass) (P.T V)`` is symmetric
    positive semi-definite by construction; damping and stiffness are in
    general *not* symmetric because sampling acts from one side only.
    """
    rows, row_basis, damping_rows, stiffness_rows, _ = _collocation_blocks(
        model, basis, samples
    )
    return ReducedModel(
        mass=row_basis.T @ (model.mass[rows, None] * row_basis),
        damping=row_basis.T @ damping_rows,
        stiffness=row_basis.T @ stiffness_rows,
        provenance="projected-collocation",
        symmetric=False,
        basis=basis,
        a1=model.a1,
        a2=model.a2,
        load=reduced_load_table(model.external_force, row_basis.T, rows),
        samples=samples,
    )


def _force_basis(model, force_basis):
    u = np.asarray(force_basis, dtype=float)
    if u.ndim != 2 or u.shape[0] != model.m:
        raise ValueError(
            f"force basis shaped {u.shape} does not match model order {model.m}"
        )
    return u


def _interpolation_reduce(model, basis, u, rows, provenance):
    """Force interpolation ``V.T U pinv(P.T U)`` applied to the sampled rows.

    The rank check rejects a condition number of ``P.T U`` beyond 1e12,
    so the pseudo-inverse truncates nothing and equals the inverse when
    ``P.T U`` is square.
    """
    samples = SampleSet.from_model(model, rows)
    rows, _, damping_rows, stiffness_rows = _sampled_blocks(model, basis, samples)
    pinv = _require_full_rank(u[rows], "sampled force basis P.T U", pinv=True)
    left = (basis.matrix.T @ u) @ pinv
    return ReducedModel(
        mass=galerkin_mass(model, basis),
        damping=left @ damping_rows,
        stiffness=left @ stiffness_rows,
        provenance=provenance,
        symmetric=False,
        basis=basis,
        a1=model.a1,
        a2=model.a2,
        load=reduced_load_table(model.external_force, left, rows),
        samples=samples,
    )


def deim_reduce(model, basis, force_basis, points):
    """Oblique interpolation of the force at exactly one row per column.

    The square selection ``U[points]`` must be well conditioned; a
    condition number beyond 1e12 raises :class:`RankDeficiencyError`
    naming it.  The reduced mass stays Galerkin (identity for a
    mass-orthonormal basis) — only the force terms are interpolated.
    """
    u = _force_basis(model, force_basis)
    if len(points) != u.shape[1]:
        raise ValueError(
            f"DEIM needs one point per force-basis column: "
            f"{len(points)} points for {u.shape[1]} columns"
        )
    return _interpolation_reduce(model, basis, u, points, "deim")


def gnat_reduce(model, basis, force_basis, rows):
    """Least-squares variant of force interpolation: more sample rows than
    force-basis columns, gappy reconstruction via the pseudo-inverse."""
    u = _force_basis(model, force_basis)
    if len(rows) < u.shape[1]:
        raise ValueError(
            f"need at least as many sample rows as force-basis columns: "
            f"{len(rows)} rows for {u.shape[1]} columns"
        )
    return _interpolation_reduce(model, basis, u, rows, "gnat")


# ---------------------------------------------------------------------------
# ECSW
# ---------------------------------------------------------------------------


def _require_mass_orthonormal(basis):
    if basis.kind != MASS_ORTHONORMAL:
        raise ValueError("ECSW requires a mass-orthonormal basis")


def ecsw_training_system(model, basis, snapshots):
    """Training matrix and target for the weight fit.

    Column ``e`` stacks, over all snapshots, the basis-projected force
    contribution of element ``e`` evaluated at the snapshot's reduced
    coordinates; the target is the total (all elements, weight one), so
    the all-ones weight vector reproduces it exactly.
    """
    _require_mass_orthonormal(basis)
    if model.elements is None:
        raise ValueError("model carries no element blocks to weight")
    snaps = np.asarray(snapshots, dtype=float)
    if snaps.ndim == 1:
        snaps = snaps[:, None]
    if snaps.ndim != 2 or snaps.shape[0] != model.m:
        raise ValueError(
            f"snapshots shaped {snaps.shape} do not match model order {model.m}"
        )
    v, es = basis.matrix, model.elements
    reduced_coords = v.T @ (model.mass[:, None] * snaps)
    g = np.empty((snaps.shape[1] * v.shape[1], len(es)))  # G row s * k + i
    # element blocks of at most ~256 KiB, so no second full copy of G is held
    step = max(1, 2**15 // max(1, g.shape[0]))
    for e in range(0, len(es), step):
        ve = v[es.dofs[e:e + step]]  # (c, n, k)
        fe = es.stiffness[e:e + step] @ (ve @ reduced_coords)  # (c, n, n_s)
        g[:, e:e + step] = (ve.transpose(0, 2, 1) @ fe).transpose(2, 1, 0).reshape(g.shape[0], -1)
    return g, g.sum(axis=1)


def ecsw_train(model, basis, snapshots, tau):
    """Fit sparse nonnegative element weights on stiffness-force snapshots."""
    g, b = ecsw_training_system(model, basis, snapshots)
    if float(np.linalg.norm(b)) == 0.0:
        raise ValueError(
            "snapshots produce zero projected element forces; nothing to train on"
        )
    xi = sparse_nnls(g, b, tau)
    residual = float(np.linalg.norm(g @ xi - b) / np.linalg.norm(b))
    return EcswWeights(
        xi=xi, support=tuple(np.flatnonzero(xi).tolist()), residual=residual
    )


def ecsw_weighted_operator(model, weights):
    """Mass-normalized weighted stiffness ``M^-1/2 (sum xi_e Ke) M^-1/2``.

    Its eigenvalues are what the weighted reduced stiffness inherits
    bounds from; exposed separately for reporting.
    """
    _, stiffness_w = assemble(
        model.elements, model.m, weights=getattr(weights, "xi", weights)
    )
    inv_sqrt = 1.0 / np.sqrt(model.mass)
    return stiffness_w.toarray() * np.outer(inv_sqrt, inv_sqrt)


def ecsw_reduce(model, weights, basis):
    """Weighted-element reduced model: identity mass, symmetric operators.

    Stiffness and damping are assembled from the weighted elements (the
    support only) and projected, ``K_w V`` by ``RowSparse.stiffness_times``;
    Rayleigh damping keeps its structure with the weighted mass appearing in
    the mass-proportional part.
    """
    _require_mass_orthonormal(basis)
    if basis.m != model.m:
        raise ValueError(f"basis has {basis.m} rows for model order {model.m}")
    mass_w, stiffness_w = assemble(
        model.elements, model.m, weights=getattr(weights, "xi", weights)
    )
    v = basis.matrix
    stiffness_r = v.T @ stiffness_w.stiffness_times(v)
    damping_r = model.a1 * (v.T @ (mass_w[:, None] * v)) + model.a2 * stiffness_r
    return ReducedModel(
        mass=np.eye(basis.k),
        damping=damping_r,
        stiffness=stiffness_r,
        provenance="ecsw",
        symmetric=True,
        basis=basis,
        a1=model.a1,
        a2=model.a2,
        load=reduced_load_table(model.external_force, v.T),
    )


# ---------------------------------------------------------------------------
# Sampled stepping
# ---------------------------------------------------------------------------


def _require_sampled(model, name):
    if not isinstance(model, SampledModel):
        raise TypeError(
            f"{name} handles naive-collocation models, got {type(model).__name__}"
        )


def hrom_step(hrom, state, dt):
    """One explicit step of a naive-collocation model.

    Accelerations are formed at the sampled rows only, and the sampled-row
    velocities advance and persist across steps (``state.row_v_half``,
    ``P.T V v_half`` at first).  The reduced displacement solves
    ``(P.T V) x_new = (P.T V) x + dt * v_rows`` (least squares when there
    are more rows than basis columns), and the reduced half-step velocity
    is the displacement difference over ``dt``.  The step applies
    :func:`sampled_step_matrix` to ``[x; v_rows]``.
    """
    _require_sampled(hrom, "hrom_step")
    rows = hrom.row_basis @ state.v_half if state.row_v_half is None else state.row_v_half
    z = operator_step(hrom, (state.x, rows), state.t, dt)
    x = z[: hrom.dim]
    return replace(state, x=x, v_half=(x - state.x) / dt, t=state.t + dt,
                   n=state.n + 1, row_v_half=z[hrom.dim:])


def sampled_step_matrix(hrom, dt):
    """Exact one-step matrix of :func:`hrom_step` (zero load).

    State layout ``[reduced displacements (k), sampled row velocities (p)]``;
    after the first step the update is linear in that state, so its
    spectral radius governs stability of :func:`hrom_step`.
    """
    _require_sampled(hrom, "sampled_step_matrix")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    k = hrom.dim
    p = hrom.row_basis.shape[0]
    pinv = hrom.row_basis_pinv
    inv_mass = 1.0 / hrom.row_mass
    # v_rows' = v_rows + dt * a_rows,  a_rows = -Minv (Cr pinv v_rows + Kr x)
    block_vx = -dt * (inv_mass[:, None] * hrom.stiffness)
    block_vv = np.eye(p) - dt * (inv_mass[:, None] * (hrom.damping @ pinv))
    # x' = x + dt * pinv v_rows'
    top = np.hstack([np.eye(k) + dt * (pinv @ block_vx), dt * (pinv @ block_vv)])
    bottom = np.hstack([block_vx, block_vv])
    return np.vstack([top, bottom])


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------

_SAMPLE_KEYS = {"collocation", "damping_reach", "stiffness_reach"}
_WEIGHT_KEYS = {"xi", "support", "residual"}


def sample_set_to_dict(samples):
    return {
        "collocation": list(samples.collocation),
        "damping_reach": list(samples.damping_reach),
        "stiffness_reach": list(samples.stiffness_reach),
    }


def sample_set_from_dict(doc):
    if not isinstance(doc, dict):
        raise FormatError("sample-set document must be a JSON object")
    require_keys(doc, _SAMPLE_KEYS, _SAMPLE_KEYS, "sample set")
    try:
        return SampleSet(
            tuple(doc["collocation"]),
            tuple(doc["damping_reach"]),
            tuple(doc["stiffness_reach"]),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def write_sample_set(samples, path):
    write_json(sample_set_to_dict(samples), path)


def read_sample_set(path):
    return sample_set_from_dict(read_json(path))


def weights_to_dict(weights):
    return {
        "xi": [float(w) for w in weights.xi],
        "support": list(weights.support),
        "residual": float(weights.residual),
    }


def weights_from_dict(doc):
    if not isinstance(doc, dict):
        raise FormatError("weights document must be a JSON object")
    require_keys(doc, _WEIGHT_KEYS, _WEIGHT_KEYS, "weights")
    try:
        return EcswWeights(
            xi=np.array(doc["xi"], dtype=float),
            support=tuple(doc["support"]),
            residual=float(doc["residual"]),
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def write_weights(weights, path):
    write_json(weights_to_dict(weights), path)


def read_weights(weights_path):
    return weights_from_dict(read_json(weights_path))
