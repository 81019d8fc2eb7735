"""Projection bases and Galerkin-reduced models.

Snapshot data is handled as plain ``(m, n_snapshots)`` arrays, one
snapshot per column; :func:`snapshots_from_trajectory` turns a recorded
trajectory into that layout.

:class:`ReducedModel` is the square ``k x k`` model that every projected
reduction yields (Galerkin here; ECSW, projected collocation, DEIM and
GNAT in :mod:`romstab.hyper`).  It is stepped by plain central
differences.  Naive collocation keeps rectangular sampled rows and has
its own type and update rule, :class:`romstab.hyper.SampledModel`.

Two basis flavors exist.  A *plain-orthonormal* basis satisfies
``V.T V = I``; a *mass-orthonormal* one satisfies ``V.T M V = I`` for the
model's lumped mass, which makes the reduced mass matrix the identity
and is the flavor the stability results are stated for.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError, RankDeficiencyError
from .kernels import (
    m_orthonormalize,
    require_positive_diagonal,
    require_psd,
    thin_svd,
)
from .models import ForceTable, read_json, require_keys, write_json

__all__ = [
    "PLAIN_ORTHONORMAL",
    "MASS_ORTHONORMAL",
    "PROVENANCES",
    "ReducedBasis",
    "ReducedModel",
    "snapshots_from_trajectory",
    "pod_basis",
    "modal_basis",
    "galerkin_reduce",
    "reconstruct",
    "basis_to_dict",
    "basis_from_dict",
    "write_basis",
    "read_basis",
]

PLAIN_ORTHONORMAL = "plain-orthonormal"
MASS_ORTHONORMAL = "mass-orthonormal"

PROVENANCES = (
    "galerkin",
    "projected-collocation",
    "deim",
    "gnat",
    "ecsw",
)


def snapshots_from_trajectory(trajectory):
    """Snapshot matrix (one column per recorded state) from a trajectory."""
    if trajectory.states.size == 0:
        raise ValueError("trajectory holds no recorded states")
    return trajectory.states.T.copy()


@dataclass(frozen=True)
class ReducedBasis:
    """Orthonormal basis columns plus the flavor of orthonormality.

    ``mass`` must carry the lumped-mass diagonal for the
    mass-orthonormal flavor (it is what the basis is orthonormal
    against); it stays ``None`` for plain bases.
    """

    matrix: np.ndarray
    kind: str
    mass: np.ndarray | None = None

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError(f"basis must be 2-D, got shape {matrix.shape}")
        m, k = matrix.shape
        if not 1 <= k <= m:
            raise ValueError(f"basis needs 1 <= k <= m, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("basis contains non-finite entries")
        if self.kind == PLAIN_ORTHONORMAL:
            gram = matrix.T @ matrix
            mass = None
        elif self.kind == MASS_ORTHONORMAL:
            if self.mass is None:
                raise ValueError("mass-orthonormal basis needs the mass diagonal")
            mass = require_positive_diagonal(self.mass, "mass")
            if mass.shape[0] != m:
                raise ValueError(
                    f"mass has {mass.shape[0]} entries for basis with {m} rows"
                )
            gram = matrix.T @ (mass[:, None] * matrix)
        else:
            raise ValueError(
                f"kind must be {PLAIN_ORTHONORMAL!r} or {MASS_ORTHONORMAL!r}, "
                f"got {self.kind!r}"
            )
        if np.max(np.abs(gram - np.eye(k))) > 1e-10:
            raise ValueError(f"basis columns are not {self.kind} (within 1e-10)")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "mass", mass)

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1]


def pod_basis(snapshots, k, mass=None):
    """Leading ``k`` left singular vectors of the snapshot matrix.

    With ``mass`` given the result is re-orthonormalized against the mass
    inner product; the span of the returned columns is unchanged by that
    step.  Requesting more columns than the numerical rank (tail singular
    value below ``1e-12`` of the largest) raises
    :class:`RankDeficiencyError`.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.ndim != 2:
        raise ValueError(f"snapshots must be 2-D, got shape {snapshots.shape}")
    u, sigma, _ = thin_svd(snapshots)
    if not 1 <= k <= min(snapshots.shape):
        raise ValueError(
            f"k must lie in [1, {min(snapshots.shape)}], got {k}"
        )
    if sigma[k - 1] <= 1e-12 * sigma[0]:
        raise RankDeficiencyError(
            f"requested k={k} exceeds the numerical rank of the snapshots "
            f"(singular value {sigma[k - 1]:.3e} vs largest {sigma[0]:.3e})",
            column=k - 1,
        )
    cols = u[:, :k]
    if mass is None:
        return ReducedBasis(cols, PLAIN_ORTHONORMAL)
    mass = require_positive_diagonal(mass, "mass")
    return ReducedBasis(m_orthonormalize(cols, mass), MASS_ORTHONORMAL, mass=mass)


def modal_basis(model, modes):
    """Mass-orthonormal eigenvectors of ``inv(M) K`` for selected modes.

    ``modes`` are 0-based positions in the ascending spectrum; they are
    sorted and must be distinct.  They come from ``model.modes``: dense
    ``eigh``, or for a tridiagonal ``K`` with ``m >= 512`` and modes within
    the lowest ``min(64, m // 4)`` certified shift-invert Lanczos, whose
    vectors have their first entry within ``2**-20`` of the largest magnitude
    positive.
    """
    modes = [int(i) for i in modes]
    if len(modes) == 0:
        raise ValueError("at least one mode index is required")
    if len(set(modes)) != len(modes):
        raise ValueError(f"mode indices must be distinct, got {modes}")
    if min(modes) < 0 or max(modes) >= model.m:
        raise ValueError(
            f"mode indices must lie in [0, {model.m - 1}], got {modes}"
        )
    v = model.modes(sorted(modes)).vectors / np.sqrt(model.mass)[:, None]
    return ReducedBasis(v, MASS_ORTHONORMAL, mass=model.mass)


class MatrixStepped:
    """A model stepped by one matrix: ``z <- A z`` unloaded, and with a load table one
    product ``z <- [A | b_s | b_{s+1}] [z; 1 - w; w]``, ``(s, w) = load.segments(t)``
    and ``b_s``, ``b_{s+1}`` the load rows, mapped by the load columns ``B``, at the ends
    of segment ``s``; it defines ``_step_matrices(dt)``, the matrix ``A`` and ``B``.

    The ``(d, d + 2)`` matrix ``[A | b_s | b_{s+1}]`` is kept with ``A``, column-major so
    that a segment's two columns are one contiguous block; a loaded public step copies
    its segment's columns into it and multiplies under one lock, and
    :func:`~romstab.integrator.integrate` steps on a matrix of its own."""

    def step_operator(self, dt):
        """``(A, ends)`` at ``dt``, kept for the last ``dt``: ``ends`` is None unloaded,
        else the ``(N + 1, d, 2)`` array whose entry ``s`` is ``[b_s | b_{s+1}]``.
        Unchecked: an overflow at a huge ``dt`` is a divergent run."""
        return self._operator(dt)[:2]

    def _operator(self, dt):
        """``(A, ends, work)``: ``work`` the loaded step's ``[A | b_s | b_{s+1}]`` (None
        unloaded), whose last two columns hold the segment its last step set."""
        cached = self.__dict__.get("_step_operator")
        if cached is None or cached[0] != dt:
            matrix, columns = self._step_matrices(dt)
            ends = work = None
            if self.load is not None:
                ends = _segment_ends(self.load.values @ columns.T)
                work = _loaded_matrix(matrix, ends[0])
            cached = (dt, matrix, ends, work)
            object.__setattr__(self, "_step_operator", cached)
        return cached[1:]


_COLUMNS_LOCK = threading.Lock()


def _loaded_matrix(matrix, pair):
    """A new ``[A | b_s | b_{s+1}]``, column-major from a 64-byte boundary.  There the
    product took 0.48, 1.95 and 10.6 us at d = 40, 128 and 300 against up to 0.54, 2.94
    and 15.4 us at the other seven 8-byte offsets (OpenBLAS, one thread, 2-vCPU x86-64
    VM), with the same bits."""
    d, n = matrix.shape[0], matrix.shape[1] + 2
    memory = np.empty(d * n + 7)
    start = -(memory.ctypes.data // 8) % 8
    work = memory[start:start + d * n].reshape(n, d).T
    work[:, :-2], work[:, -2:] = matrix, pair
    return work


def _segment_ends(rows):
    """The load rows' ``(N + 1, d, 2)`` column pairs: entry ``s`` is ``[b_s | b_{s+1}]``,
    the rows at the ends of segment ``s`` of :meth:`~romstab.models.ForceTable.segments`.
    Segment ``s`` of ``1 .. N - 1`` runs from station ``s - 1`` to station ``s``; the end
    segments 0 and ``N``, before the first and past the last station, hold that end
    row twice.  A read-only view of the rows, each end row doubled; an entry is
    column-major."""
    return sliding_window_view(np.concatenate((rows[:1], rows, rows[-1:])), 2, axis=0)


def operator_step(model, parts, t, dt):
    """One step of a matrix-stepped model from ``z = [*parts]`` at time ``t``, the
    arithmetic that the public steps and :func:`~romstab.integrator.integrate` share:
    ``A z``, or with a load the one product ``[A | b_s | b_{s+1}] [z; 1 - w; w]`` of
    :class:`MatrixStepped`, whose load columns are rewritten in place."""
    matrix, ends, work = model._operator(dt)
    if ends is None:
        return matrix.dot(np.concatenate(parts))
    s, w = model.load.segments(t)
    z = np.concatenate((*parts, (1.0 - w, w)))
    with _COLUMNS_LOCK:  # another thread's step must not set its columns in between
        work[:, -2:] = ends[s]
        return work.dot(z)


@dataclass(frozen=True, eq=False)
class ReducedModel(MatrixStepped):
    """Square ``k x k`` projected second-order model.

    ``symmetric`` declares that damping and stiffness are symmetric up to
    round-off (Galerkin and ECSW); the flag is validated at construction.
    A mass-orthonormal reduction stores ``mass`` as the exact identity.
    ``load`` is the external load table already mapped to reduced
    coordinates (one column per basis vector).
    """

    mass: np.ndarray
    damping: np.ndarray
    stiffness: np.ndarray
    provenance: str
    symmetric: bool
    basis: ReducedBasis
    a1: float = 0.0
    a2: float = 0.0
    load: ForceTable | None = None
    samples: object | None = None

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        for name in ("mass", "damping", "stiffness"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if (self.mass.ndim != 2
                or not self.mass.shape == self.damping.shape == self.stiffness.shape):
            raise ValueError("reduced matrices must share one 2-D shape")
        if self.stiffness.shape[1] != self.basis.k:
            raise ValueError(f"reduced matrices have {self.stiffness.shape[1]} columns for "
                             f"a basis with k={self.basis.k}")
        if self.symmetric:
            for name, mat in (("damping", self.damping), ("stiffness", self.stiffness)):
                scale = max(float(np.max(np.abs(mat))), 1e-300)
                if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
                    raise ValueError(
                        f"reduced {name} marked symmetric but is not (within 1e-10)"
                    )
            require_psd(0.5 * (self.stiffness + self.stiffness.T), "reduced stiffness", 1e-8)

    @property
    def dim(self):
        return self.stiffness.shape[1]

    @cached_property
    def mass_inverse(self):
        """``inv(M_r)``, formed once (a singular mass raises ``ValueError``).  A mass
        equal to the identity, as a mass-orthonormal basis gives, is its own inverse."""
        if np.array_equal(self.mass, np.eye(self.dim)):
            return np.eye(self.dim)
        try:
            return np.linalg.inv(self.mass)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"reduced mass matrix is singular ({exc}); the sampling does "
                f"not resolve the basis"
            ) from exc

    def _step_matrices(self, dt):
        """On ``z = [x; v_half]``: ``A = [[I - dt^2 Minv K, dt (I - dt Minv C)],
        [-dt Minv K, I - dt Minv C]]`` and ``B = [dt^2 Minv; dt Minv]``."""
        eye, minv = np.eye(self.dim), self.mass_inverse
        block_vx = -dt * (minv @ self.stiffness)
        block_vv = eye - dt * (minv @ self.damping)
        return (np.block([[eye + dt * block_vx, dt * block_vv], [block_vx, block_vv]]),
                np.vstack([dt * (dt * minv), dt * minv]))


def reduced_load_table(force, left=None, rows=None):
    """A load table restricted to DoFs ``rows`` and then mapped by ``left``.

    Either step is skipped when its argument is ``None``; a missing table
    stays ``None``.  Interpolation in time commutes with both steps, so
    the reduced table gives the reduced load at every ``t``.
    """
    if force is None:
        return None
    values = force.values if rows is None else force.values[:, rows]
    return ForceTable(force.times, values if left is None else values @ left.T)


def galerkin_mass(model, basis):
    """Reduced mass ``V.T M V``, stored as the exact identity for a
    mass-orthonormal basis."""
    if basis.kind == MASS_ORTHONORMAL:
        return np.eye(basis.k)
    v = basis.matrix
    return v.T @ (model.mass[:, None] * v)


def galerkin_reduce(model, basis):
    """Project a full-order model onto a basis (Galerkin, both flavors).

    For a mass-orthonormal basis the reduced mass is the identity by
    construction and is stored exactly as such.  Rayleigh structure
    carries over: the reduced damping equals ``a1 Mr + a2 Kr`` up to
    round-off.  ``K V`` comes from ``model.stiffness_times``, dense
    below order ``_SPARSE_MIN_M`` and row-sparse from there up.
    """
    v = basis.matrix
    if basis.m != model.m:
        raise ValueError(
            f"basis has {basis.m} rows for a model of order {model.m}"
        )
    op = model.operator
    return ReducedModel(
        mass=galerkin_mass(model, basis),
        damping=v.T @ op.rows_times(op.damping, v),
        stiffness=v.T @ model.stiffness_times(v),
        provenance="galerkin",
        symmetric=True,
        basis=basis,
        a1=model.a1,
        a2=model.a2,
        load=reduced_load_table(model.external_force, v.T),
    )


def reconstruct(basis, reduced):
    """Lift reduced coordinates back to the full space.

    Accepts a single state ``(k,)`` or a stack of states ``(n, k)`` (the
    layout of ``Trajectory.states``) and returns the matching full-space
    array.
    """
    reduced = np.asarray(reduced, dtype=float)
    if reduced.ndim == 1:
        if reduced.shape[0] != basis.k:
            raise ValueError(
                f"state has {reduced.shape[0]} entries for k={basis.k}"
            )
        return basis.matrix @ reduced
    if reduced.ndim == 2:
        if reduced.shape[1] != basis.k:
            raise ValueError(
                f"states have {reduced.shape[1]} columns for k={basis.k}"
            )
        return reduced @ basis.matrix.T
    raise ValueError(f"reduced states must be 1-D or 2-D, got {reduced.ndim}-D")


# ---------------------------------------------------------------------------
# Basis JSON round-trip
# ---------------------------------------------------------------------------

_BASIS_KEYS = {"m", "k", "kind", "columns"}


def basis_to_dict(basis):
    return {
        "m": basis.m,
        "k": basis.k,
        "kind": basis.kind,
        "columns": [[float(v) for v in basis.matrix[:, j]] for j in range(basis.k)],
    }


def basis_from_dict(doc, mass=None):
    """Rebuild a basis from its plain-data form.

    A mass-orthonormal basis file does not store the mass diagonal; pass
    the model's mass so the orthonormality invariant can be validated.
    """
    if not isinstance(doc, dict):
        raise FormatError("basis document must be a JSON object")
    require_keys(doc, _BASIS_KEYS, _BASIS_KEYS, "basis")
    m, k, kind = doc["m"], doc["k"], doc["kind"]
    if kind not in (PLAIN_ORTHONORMAL, MASS_ORTHONORMAL):
        raise FormatError(f"unknown basis kind {kind!r}")
    columns = doc["columns"]
    try:
        shaped = len(columns) == k and all(len(col) == m for col in columns)
        matrix = np.array(columns, dtype=float).T if shaped else None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"basis columns must be lists of numbers ({exc})") from exc
    if matrix is None:
        raise FormatError(f"basis columns do not form an {m} x {k} array")
    if kind == MASS_ORTHONORMAL and mass is None:
        raise ValueError(
            "loading a mass-orthonormal basis requires the model's mass diagonal"
        )
    try:
        return ReducedBasis(matrix, kind, mass=mass if kind == MASS_ORTHONORMAL else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_basis(basis, path):
    write_json(basis_to_dict(basis), path)


def read_basis(path, mass=None):
    return basis_from_dict(read_json(path), mass=mass)
