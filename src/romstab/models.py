"""Lumped-mass structural models assembled from small element blocks.

A model is a second-order system ``M x'' + C x' + K x = f(t)`` with a
diagonal (lumped) mass matrix, exactly symmetric positive semi-definite
stiffness, and Rayleigh damping ``C = a1 M + a2 K``.  Models may carry
their element blocks as one :class:`ElementSet`; element-level data is
what the hyper-reduction and element-bound machinery feeds on.

The stiffness is stored row-sparse, as :attr:`FullOrderModel.operator`: its
values on the nonzeros of ``K`` plus the diagonal, scattered there straight
from the element blocks or the file's coordinate list.  The full-order force,
sampled rows, reaches and, from order ``_SPARSE_MIN_M`` up, the reduced
products ``K V`` read those nonzeros only; a dense ``K`` is kept only once
:attr:`FullOrderModel.stiffness` is read (the PSD check of a ``K`` that neither
its elements nor a Sturm count certify forms one and drops it).
Step reports and modal bases take a model's spectrum from
:meth:`FullOrderModel.max_eigenvalue` and :meth:`FullOrderModel.modes`, which use
the O(m) tridiagonal routines of :mod:`romstab.kernels` when they apply and dense
LAPACK otherwise.

The on-disk JSON format is documented with :func:`read_model`.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import FormatError, NumericalRangeError
from .kernels import (_SPARSE_MIN_M, EigenPairs, block_max_gen_eigenvalues,
                      gen_eig_diag_mass, max_gen_eigenvalue, require_positive_diagonal,
                      require_psd, tridiagonal_certifies_psd, tridiagonal_lowest_modes,
                      tridiagonal_max_bracket)

__all__ = [
    "ForceTable",
    "ElementSet",
    "RowSparse",
    "FullOrderModel",
    "assemble",
    "build_string_model",
    "model_to_dict",
    "model_from_dict",
    "write_model",
    "read_model",
]


@dataclass(frozen=True)
class ForceTable:
    """External load sampled at increasing time stations.

    Evaluation is piecewise linear between stations and clamps to the end
    rows outside the covered interval.  ``values`` has one row per time
    station, one column per DoF.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("force table needs at least one time station")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("force table times must be strictly increasing")
        if values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise ValueError(
                f"force values shaped {values.shape} do not match "
                f"{times.shape[0]} time stations"
            )
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("force table contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @cached_property
    def _stations(self):
        # a list of floats: bisect on it is cheaper than a numpy search per step
        return self.times.tolist()

    @cached_property
    def _edges(self):
        # the times with the first and the last doubled: entries s and s + 1 bound segment s
        return np.concatenate((self.times[:1], self.times, self.times[-1:]))

    def segments(self, t):
        """``(s, w)`` for a time or a 1-D array of times: the load at ``t`` is
        ``(1 - w) b_s + w b_{s+1}``, ``b_s`` and ``b_{s+1}`` the rows at the ends of
        segment ``s``.

        Between the first and the last station segment ``s`` runs from station ``s - 1``
        to station ``s``: ``s`` is ``bisect_right(times, t)`` and ``w`` the weight
        ``(t - times[s - 1]) / (times[s] - times[s - 1])``.  At or outside an end
        station ``s`` is 0 or ``N`` (the station count), a segment whose two ends are
        that end row, and ``w`` is ``+0.0``, so the load is that row exactly, signed
        zeros too.  A NaN time gets segment 0 and a NaN weight.  A float time is
        searched by ``bisect`` on floats, an array by one ``searchsorted``; both give
        the same segments and weights, bit for bit.
        """
        if not isinstance(t, np.ndarray):
            times = self._stations
            if t <= times[0]:
                return 0, 0.0
            if t >= times[-1]:
                return len(times), 0.0
            if t != t:
                return 0, t
            s = bisect.bisect_right(times, t)
            return s, (t - times[s - 1]) / (times[s] - times[s - 1])
        times, edges = self.times, self._edges
        s = times.searchsorted(t, side="right") * (t > times[0])  # 0 at or before the first
        start = edges[s]
        with np.errstate(divide="ignore", invalid="ignore"):  # the end segments' 0 widths
            w = (t - start) / (edges[s + 1] - start)
        return s, np.where((t <= times[0]) | (t >= times[-1]), 0.0, w)

    def at(self, t):
        """Force vector at time ``t`` (clamped linear interpolation) on the
        :meth:`segments` segment and weight.

        :meth:`FullOrderModel.force_at` looks its loads up here; the steps of a
        reduced model take theirs from the same segments and weights.
        """
        s, w = self.segments(t)
        values = self.values
        if w != w:  # NaN, which no station bounds
            return np.full(values.shape[1], np.nan)
        if s == 0 or s == len(values):
            return values[min(s, len(values) - 1)].copy()
        return (1.0 - w) * values[s - 1] + w * values[s]


@dataclass(frozen=True, eq=False)
class ElementSet:
    """A model's ``E`` elements of ``n`` DoFs each, stacked.

    ``dofs (E, n)``: each element's distinct, nonnegative global DoFs;
    ``stiffness (E, n, n)``: exactly symmetric blocks, each PSD within
    ``1e-10`` relative; ``mass (E, n)``: positive lumped-mass diagonals;
    optional ``length``/``wave_speed (E,)`` for CFL-style reporting.
    Validation names the first offending element.  ``scatter_is_psd``
    tells that the Weyl bound ``sum_e max(0, -lmin_e) <= 1e-10 (max_e
    lmax_e - that sum)`` holds, so that any exact scatter of the blocks is PSD.
    """

    dofs: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    length: np.ndarray | None = None
    wave_speed: np.ndarray | None = None

    def __post_init__(self):
        dofs = np.asarray(self.dofs)
        ke = np.asarray(self.stiffness, dtype=float)
        me = np.asarray(self.mass, dtype=float)
        if not (dofs.ndim == 2 and dofs.size and dofs.dtype.kind in "iu"
                and ke.shape == dofs.shape + dofs.shape[1:] and me.shape == dofs.shape):
            raise ValueError(
                f"elements need (E, n) integer DoFs, (E, n, n) stiffness, (E, n) mass, "
                f"E, n >= 1; got {dofs.dtype} {dofs.shape}, {ke.shape}, {me.shape}"
            )
        rows = np.sort(dofs, axis=1)
        checks = [  # (flag per element, what is wrong with it)
            ((rows[:, 1:] == rows[:, :-1]).any(axis=1), "DoFs must be distinct"),
            (rows[:, 0] < 0, "DoFs must be nonnegative"),
            (~np.isfinite(ke).all(axis=(1, 2)), "stiffness contains non-finite entries"),
            ((ke != ke.transpose(0, 2, 1)).any(axis=(1, 2)),
             "stiffness is not exactly symmetric; run symmetrize() on it first"),
            (~(np.isfinite(me) & (me > 0.0)).all(axis=1),
             "mass must be finite and strictly positive"),
        ]
        for name in ("length", "wave_speed"):
            if getattr(self, name) is not None:
                val = np.asarray(getattr(self, name), dtype=float)
                if val.shape != dofs.shape[:1]:
                    raise ValueError(f"element {name} shaped {val.shape} for {len(dofs)} elements")
                checks.append((~(np.isfinite(val) & (val > 0.0)), f"{name} must be positive"))
                object.__setattr__(self, name, val)
        for bad, message in checks:
            if bad.any():
                raise ValueError(f"element {np.argmax(bad)}: element {message}")
        eigs = require_psd(ke, "element {}: element stiffness", 1e-10)
        negative = float(np.maximum(-eigs[:, 0], 0.0).sum())
        psd = negative <= 1e-10 * (float(eigs[:, -1].max()) - negative)
        object.__setattr__(self, "scatter_is_psd", psd)
        object.__setattr__(self, "dofs", dofs)
        object.__setattr__(self, "stiffness", ke)
        object.__setattr__(self, "mass", me)

    def __len__(self):
        return self.dofs.shape[0]

    def max_eigenvalues(self):
        """Largest eigenvalue of each local ``inv(Me) Ke`` pencil, ``(E,)``; one
        beyond the double range raises :class:`NumericalRangeError`."""
        return block_max_gen_eigenvalues(self.stiffness, self.mass)


def assemble(elements, m, weights=None):
    """Scatter-add an :class:`ElementSet` into global (mass diagonal, stiffness).

    The stiffness is a :class:`RowSparse` without damping values.  Each
    entry receives its element addends in element order (``np.add.at`` is
    unbuffered and runs in index order), as a dense scatter would, so it is
    bit for bit that scatter; entries (i, j) and (j, i) accumulate identical
    addend sequences, so it is exactly symmetric.  ``weights``, if given,
    scales each element's mass and stiffness by its factor; elements of
    weight zero are skipped.  The unweighted scatter is formed once per element
    set and order and kept on the set, read-only: a builder's scatter is the
    one the model's element check compares against.
    """
    if m < 1:
        raise ValueError(f"model order must be at least 1, got {m}")
    if elements is None:
        raise ValueError("model carries no element blocks to assemble")
    kept = elements.__dict__.get("_scatter")
    if weights is None and kept is not None and kept[0] == m:
        return kept[1:]
    dofs, me, ke = elements.dofs, elements.mass, elements.stiffness
    top = dofs.max(axis=1)
    if np.any(top >= m):
        e = np.argmax(top >= m)
        raise ValueError(f"element {e} references DoF {top[e]} outside a model of order {m}")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] != len(elements):
            raise ValueError(f"{weights.shape[0]} weights for {len(elements)} elements")
        keep = weights != 0.0
        w = weights[keep]
        dofs, me, ke = dofs[keep], w[:, None] * me[keep], w[:, None, None] * ke[keep]
    mass = np.zeros(m)
    np.add.at(mass, dofs, me)
    dofs = dofs.astype(np.intp)
    rows, cols = (np.broadcast_to(ix, ke.shape).ravel()
                  for ix in (dofs[:, :, None], dofs[:, None, :]))
    stiffness = RowSparse.from_entries(m, rows, cols, ke.ravel())
    if weights is None:
        for array in (mass, stiffness.indptr, stiffness.row, stiffness.indices,
                      stiffness.stiffness):
            array.flags.writeable = False
        elements.__dict__["_scatter"] = (m, mass, stiffness)
    return mass, stiffness


@dataclass(frozen=True, eq=False)
class RowSparse:
    """Stiffness and damping on the row-major pattern of ``K``'s nonzeros plus the
    diagonal (no row is empty): ``row``/``indices`` hold each entry's row and column,
    ``indptr`` each row's first entry.  ``damping`` is ``a2 k_ij`` plus ``a1 m_i`` on
    the diagonal, the dense damping's arithmetic, so it matches that bit for bit; it
    is None on a bare stiffness, as :func:`assemble` returns it."""

    indptr: np.ndarray
    row: np.ndarray
    indices: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray | None = None

    @classmethod
    def from_entries(cls, m, rows, cols, values):
        """Order-``m`` stiffness summing ``values`` into ``(rows, cols)`` in input order."""
        keys = np.concatenate((rows * m + cols, np.arange(m) * (m + 1)))
        keys, pos = np.unique(keys, return_inverse=True)
        data = np.zeros(keys.size)
        np.add.at(data, pos[:rows.size], values)
        row, col = np.divmod(keys, m)
        keep = (data != 0.0) | (row == col)
        return cls._row_major(m, row[keep], col[keep], data[keep])

    @classmethod
    def from_dense(cls, a):
        """The stiffness of a dense square ``a``: its nonzeros plus the diagonal."""
        m = a.shape[0]
        keys = np.flatnonzero(a)  # row-major, with no m x m mask
        zeros = np.flatnonzero(a.diagonal() == 0.0) * (m + 1)  # stored all the same
        row, col = np.divmod(np.insert(keys, np.searchsorted(keys, zeros), zeros), m)
        return cls._row_major(m, row, col, a[row, col])

    @classmethod
    def _row_major(cls, m, row, col, data):
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=m))))
        return cls(indptr, row, col, data)

    def toarray(self, data=None):
        """Dense ``(m, m)`` matrix holding ``data`` (default the stiffness) on the pattern."""
        m = self.indptr.size - 1
        out = np.zeros((m, m))
        out[self.row, self.indices] = self.stiffness if data is None else data
        return out

    def gather(self, rows):
        """Positions of the nonzeros of ``rows``, row after row, and each row's count."""
        first, counts = self.indptr[rows], np.diff(self.indptr)[rows]
        starts = np.cumsum(counts) - counts  # where each row's run begins in the result
        return np.arange(counts.sum()) + np.repeat(first - starts, counts), counts

    def rows_times(self, data, v, rows=None):
        """Rows ``rows`` (default all) of ``A v``, ``A`` holding ``data``: a segment sum.
        A tuple of value arrays gives a tuple of products, from one gather of the
        rows' nonzeros and of the basis rows they meet."""
        pos, counts = self.gather(np.arange(self.indptr.size - 1) if rows is None else rows)
        starts, basis_rows = np.cumsum(counts) - counts, v[self.indices[pos]]
        if isinstance(data, tuple):
            return tuple(np.add.reduceat(d[pos, None] * basis_rows, starts) for d in data)
        return np.add.reduceat(data[pos, None] * basis_rows, starts)

    def stiffness_times(self, v):
        """``K V`` for a basis ``V``: below order ``_SPARSE_MIN_M`` the dense product,
        which keeps the digits of the steps reported from it, and from there up the
        segment sum, with no m x m array."""
        if self.indptr.size - 1 < _SPARSE_MIN_M:
            return self.toarray() @ v
        return self.rows_times(self.stiffness, v)


def _require_pattern(op):
    """A given :class:`RowSparse` as arrays, once its pattern is checked: integer indices,
    each entry once and in row-major order, every diagonal entry, ``indptr`` from the rows."""
    indptr, row, col = (np.asarray(a) for a in (op.indptr, op.row, op.indices))
    data = np.asarray(op.stiffness, dtype=float)
    if not (indptr.ndim == row.ndim == 1 and row.shape == col.shape == data.shape
            and indptr.dtype.kind == row.dtype.kind == col.dtype.kind == "i"):
        raise ValueError("a stiffness pattern needs 1-D integer indptr, row and indices "
                         "and one value per entry")
    indptr, row, col = (a.astype(np.intp, copy=False) for a in (indptr, row, col))
    m = indptr.size - 1
    inside = row.size == 0 or (min(row.min(), col.min()) >= 0 and max(row.max(), col.max()) < m)
    if not (inside and np.all(np.diff(row * m + col) > 0)):
        raise ValueError(f"stiffness pattern entries must lie inside order {m}, "
                         f"each once, in row-major order")
    if np.count_nonzero(row == col) != m:
        raise ValueError("stiffness pattern must store every diagonal entry")
    if not np.array_equal(indptr, np.concatenate(([0], np.cumsum(np.bincount(row, minlength=m))))):
        raise ValueError("stiffness pattern indptr does not match its rows")
    return RowSparse(indptr, row, col, data)


def _require_symmetric_rows(op):
    """:func:`~romstab.kernels.require_symmetric`'s value checks, on the pattern."""
    if not np.all(np.isfinite(op.stiffness)):
        raise ValueError("stiffness contains non-finite entries")
    m = op.indptr.size - 1
    transpose = np.argsort(op.indices * m + op.row)  # K.T's entries in row-major order
    if not (np.array_equal(op.indices[transpose], op.row)
            and np.array_equal(op.row[transpose], op.indices)
            and np.array_equal(op.stiffness[transpose], op.stiffness)):
        raise ValueError("stiffness is not exactly symmetric; run symmetrize() on it first")


def _scatter_gap(stored, scatter, m):
    """``|stored - scatter|`` entry by entry, over the union of the two patterns."""
    keys = np.concatenate([op.row * m + op.indices for op in (stored, scatter)])
    union, slot = np.unique(keys, return_inverse=True)
    gap = np.zeros(union.size)
    np.add.at(gap, slot, np.concatenate((stored.stiffness, -scatter.stiffness)))
    return np.abs(gap)


class _DenseStiffness:
    """The ``stiffness`` field of :class:`FullOrderModel`: given as a dense ``(m, m)``
    array or as a :class:`RowSparse` (what :func:`assemble` returns), stored as the
    model's ``operator``, and read as a dense array formed from it on first access."""

    def __get__(self, model, owner=None):
        if model is None:
            raise AttributeError("stiffness")  # the field has no default
        if "_dense_stiffness" not in model.__dict__:
            model.__dict__["_dense_stiffness"] = model.operator.toarray()
        return model.__dict__["_dense_stiffness"]

    def __set__(self, model, value):
        model.__dict__["_given_stiffness"] = value  # __post_init__ converts it


@dataclass(frozen=True, eq=False)
class FullOrderModel:
    """Assembled second-order model with Rayleigh damping.

    Invariants enforced at construction: strictly positive lumped mass,
    exactly symmetric PSD stiffness, finite ``a1, a2 >= 0``, and — when
    an :class:`ElementSet` is attached — agreement between the stored mass and
    stiffness and the scatter of the element blocks (element bounds are
    conservative only for the stiffness the elements sum to).  The PSD
    check is skipped for an exact scatter of ``scatter_is_psd`` elements; for a
    tridiagonal ``K`` of order ``_SPARSE_MIN_M`` up it is one Sturm count
    (:func:`~romstab.kernels.tridiagonal_certifies_psd`), and otherwise, or when
    that count does not certify, dense on a copy it drops.

    ``stiffness`` is given dense or as a :class:`RowSparse` whose pattern is
    checked; either is kept only as ``operator``, the :class:`RowSparse` of
    stiffness and damping, and reading ``stiffness`` (``dataclasses.replace``
    does) forms a dense array from it, once.  The symmetry and element checks
    run on the pattern; given the scatter that :func:`assemble` keeps on the
    elements, the model takes it as checked and exact.
    """

    m: int
    mass: np.ndarray
    stiffness: np.ndarray = _DenseStiffness()
    a1: float = 0.0
    a2: float = 0.0
    elements: ElementSet | None = None
    external_force: ForceTable | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "mass", require_positive_diagonal(self.mass, "mass"))
        op, dense = self.__dict__.pop("_given_stiffness"), None
        kept = None if self.elements is None else self.elements.__dict__.get("_scatter")
        # the elements' own scatter, as a builder passes it: a valid, exactly symmetric
        # pattern by construction, and exact
        own = kept is not None and kept[0] == self.m and kept[2] is op
        if isinstance(op, RowSparse):
            op = op if own else _require_pattern(op)
        else:
            dense = np.asarray(op, dtype=float)
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValueError(f"stiffness must be square, got shape {dense.shape}")
            op = RowSparse.from_dense(dense)
        if not own:
            _require_symmetric_rows(op)
        order = op.indptr.size - 1
        if self.mass.shape[0] != self.m or order != self.m:
            raise ValueError(
                f"mass/stiffness shapes {self.mass.shape}/{(order, order)} "
                f"do not match order {self.m}"
            )
        if not (0.0 <= self.a1 < math.inf and 0.0 <= self.a2 < math.inf):
            raise ValueError(
                f"Rayleigh coefficients must be nonnegative, got "
                f"a1={self.a1}, a2={self.a2}"
            )
        exact = False
        if self.elements is not None:
            mass, stiffness = assemble(self.elements, self.m)
            gaps = [("mass", mass, np.abs(mass - self.mass))]
            if not own:
                gaps.append(("stiffness", stiffness.stiffness,
                             _scatter_gap(op, stiffness, self.m)))
            for name, scatter, gap in gaps:
                tol = 1e-12 * max(float(np.max(np.abs(scatter))), 1e-300)
                if np.max(gap) > tol:
                    raise ValueError(
                        f"stored {name} differs from the scatter of the element "
                        f"{name}es; the element decomposition is inconsistent"
                    )
            exact = own or np.max(gaps[-1][2]) == 0.0
        damping = self.a2 * op.stiffness
        damping[op.row == op.indices] += self.a1 * self.mass
        object.__setattr__(self, "operator",
                           RowSparse(op.indptr, op.row, op.indices, op.stiffness, damping))
        if not (exact and self.elements.scatter_is_psd):
            band = self._tridiagonal  # a Sturm count, or the dense test on a transient K
            if band is None or not tridiagonal_certifies_psd(*band, 1e-10):
                require_psd(op.toarray() if dense is None else dense, "stiffness", 1e-10)
        if self.external_force is not None:
            if self.external_force.values.shape[1] != self.m:
                raise ValueError(
                    f"external force has {self.external_force.values.shape[1]} "
                    f"columns for a model of order {self.m}"
                )

    @cached_property
    def damping(self):
        """Rayleigh damping matrix ``a1 * M + a2 * K`` (exactly symmetric), dense."""
        return self.operator.toarray(self.operator.damping)

    # -- spectrum: the largest eigenvalue and the lowest modes ------------

    @cached_property
    def _tridiagonal(self):
        """``(diag, off)`` of ``K`` for the O(m) spectral routines of :mod:`~romstab.kernels`
        when its pattern is tridiagonal and ``m >= _SPARSE_MIN_M``; else None (dense)."""
        if self.m < _SPARSE_MIN_M:
            return None
        op = self.operator
        band = op.indices - op.row
        if np.any(np.abs(band) > 1):
            return None
        off = np.zeros(self.m - 1)
        off[op.row[band == 1]] = op.stiffness[band == 1]
        return op.stiffness[band == 0], off

    def max_eigenvalue(self):
        """Largest eigenvalue of ``inv(M) K``.  On the tridiagonal path, the certified
        upper end of :func:`~romstab.kernels.tridiagonal_max_bracket` (relative width at
        most 1e-13), so a step from it is never above the exact one; otherwise dense
        ``eigvalsh``.  One beyond the double range raises :class:`NumericalRangeError`."""
        bracket = None
        if self._tridiagonal is not None:
            bracket = tridiagonal_max_bracket(*self._tridiagonal, self.mass)
        if bracket is None:
            return max_gen_eigenvalue(self.stiffness, self.mass)
        return bracket[1]

    def modes(self, indices):
        """:class:`~romstab.kernels.EigenPairs` of ``inv(M) K`` at the sorted, distinct
        0-based ``indices``, vectors of the symmetric form as
        :func:`~romstab.kernels.gen_eig_diag_mass` gives them.  On the tridiagonal path,
        with every index within the lowest ``min(64, m // 4)``, they come from
        :func:`~romstab.kernels.tridiagonal_lowest_modes`; otherwise, or when that does
        not certify them, from dense ``eigh``, bit for bit."""
        pairs = None
        if self._tridiagonal is not None and indices[-1] < min(64, self.m // 4):
            pairs = tridiagonal_lowest_modes(*self._tridiagonal, self.mass, indices[-1] + 1)
        if pairs is None:
            pairs = gen_eig_diag_mass(self.stiffness, self.mass)
        return EigenPairs(pairs.values[indices], pairs.vectors[:, indices])

    def stiffness_times(self, v):
        """``K V`` for a basis ``V``: below order ``_SPARSE_MIN_M`` the dense product with
        :attr:`stiffness` (formed once, then kept), which keeps the digits of the steps
        reported from it; from there up :meth:`RowSparse.stiffness_times`."""
        if self.m < _SPARSE_MIN_M:
            return self.stiffness @ v
        return self.operator.stiffness_times(v)

    # -- interface consumed by the time integrator ------------------------

    @property
    def dim(self):
        return self.m

    def mass_inverse_apply(self, f):
        return f / self.mass

    def force_at(self, x, v_half, t):
        # -C v - K x = -K (x + a2 v) - a1 M v: one bincount over the nonzeros of K
        op = self.operator
        y = x + self.a2 * v_half
        f = -np.bincount(op.row, op.stiffness * y[op.indices], minlength=self.m)
        if self.a1:
            f -= (self.a1 * self.mass) * v_half
        if self.external_force is not None:
            f = f + self.external_force.at(t)
        return f


def build_string_model(
    m,
    element_mass,
    element_stiffness,
    length,
    boundary_factor=99.0,
    a1=0.0,
    a2=0.0,
):
    """Uniform chain of 2-node spring elements with stiff boundary springs.

    ``m`` nodes carry ``m - 1`` identical elements of stiffness
    ``element_stiffness * [[1, -1], [-1, 1]]`` and lumped mass
    ``element_mass / 2`` per node, so interior nodes accumulate
    ``element_mass`` and the two boundary nodes half of that.  Boundary
    springs of ``boundary_factor * element_stiffness`` tie the end nodes
    to ground; they are folded into the first and last element blocks so
    that the element decomposition reproduces the assembled stiffness
    exactly (which keeps element-level eigenvalue bounds valid).

    Each element records its length ``length / (m - 1)`` and the matching
    wave speed ``length/(m-1) * sqrt(element_stiffness / element_mass)``.
    """
    if m < 2:
        raise ValueError(f"a string model needs at least 2 nodes, got m={m}")
    for name, val in (
        ("element_mass", element_mass),
        ("element_stiffness", element_stiffness),
        ("length", length),
    ):
        if not (math.isfinite(val) and val > 0.0):
            raise ValueError(f"{name} must be positive, got {val}")
    if boundary_factor < 0.0:
        raise ValueError(f"boundary_factor must be nonnegative, got {boundary_factor}")

    el_len = length / (m - 1)
    wave_speed = el_len * math.sqrt(element_stiffness / element_mass)
    if not math.isfinite(wave_speed):  # K / M beyond the double range, or the length
        raise NumericalRangeError(
            "eigenvalues of inv(M) K overflow double precision"
            if math.isinf(element_stiffness / element_mass)
            else f"element wave speed {el_len} * sqrt(K / M) overflows double precision")
    ke = element_stiffness * np.array([[1.0, -1.0], [-1.0, 1.0]])
    stiffness = np.tile(ke, (m - 1, 1, 1))
    stiffness[0, 0, 0] += boundary_factor * element_stiffness
    stiffness[-1, 1, 1] += boundary_factor * element_stiffness
    elements = ElementSet(
        dofs=np.column_stack((np.arange(m - 1), np.arange(1, m))),
        stiffness=stiffness,
        mass=np.full((m - 1, 2), 0.5 * element_mass),
        length=np.full(m - 1, el_len),
        wave_speed=np.full(m - 1, wave_speed),
    )
    mass, stiffness = assemble(elements, m)
    return FullOrderModel(
        m=m, mass=mass, stiffness=stiffness, a1=a1, a2=a2, elements=elements
    )


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

_MODEL_KEYS = {"m", "mass", "stiffness_coo", "a1", "a2", "elements", "external_force"}
_ELEMENT_KEYS = {"dofs", "Ke", "Me", "length", "wave_speed"}
_FORCE_KEYS = {"times", "values"}


def read_json(path):
    """Parse a JSON file; invalid JSON raises :class:`FormatError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def write_json(doc, path):
    """Write a plain-data document as one-space-indented JSON plus a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def require_keys(mapping, allowed, required, what):
    """Reject a JSON object with keys outside ``allowed`` or without ``required``."""
    unknown = set(mapping) - allowed
    if unknown:
        raise FormatError(f"{what} has unknown keys: {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise FormatError(f"{what} is missing keys: {sorted(missing)}")


def _as_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what} must be an integer, got {value!r}")
    return value


def _as_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _plain(values, convert):
    """Whether every entry's type is a JSON one that ``convert`` takes as it is."""
    return set(map(type, values)) <= ({int} if convert is _as_int else {int, float})


def _as_list(value, what, convert=None, size=None):
    """A JSON list (of ``size`` entries if given), each through ``convert`` if given
    (plain entries pass unconverted, in one type pass; others name the first bad one)."""
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {value!r}")
    if size is not None and len(value) != size:
        raise FormatError(f"{what} has {len(value)} entries, expected {size}")
    if convert is None or _plain(value, convert):
        return value
    return [convert(v, f"{what} entry") for v in value]


def _check_coo(entries, m):
    """Raise the per-entry error of the first bad ``stiffness_coo`` entry."""
    seen = set()
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise FormatError(f"stiffness_coo entries must be [i, j, value], got {entry!r}")
        i = _as_int(entry[0], "stiffness_coo row")
        j = _as_int(entry[1], "stiffness_coo column")
        _as_number(entry[2], "stiffness_coo value")
        if not 0 <= i <= j < m:
            raise FormatError(f"stiffness_coo index ({i}, {j}) out of range "
                              f"(need 0 <= i <= j < {m})")
        if (i, j) in seen:
            raise FormatError(f"stiffness_coo has a duplicate entry for ({i}, {j})")
        seen.add((i, j))


def _check_elements(entries, m):
    """Raise the per-element error of the first bad element."""
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"element {pos} must be a JSON object")
        require_keys(entry, _ELEMENT_KEYS, {"dofs", "Ke", "Me"}, f"element {pos}")
        if set(entry) != set(entries[0]):
            raise FormatError(
                f"element {pos} has keys {sorted(entry)} but element 0 {sorted(entries[0])}; "
                f"give length and wave_speed on all elements or on none"
            )
        shared = len(entries[0]["dofs"]) if pos else None  # all have element 0's count
        dofs = _as_list(entry["dofs"], f"element {pos} dofs", _as_int, shared)
        if any(not 0 <= d < m for d in dofs):
            raise FormatError(f"element {pos} has DoFs {dofs} outside a model of order {m}")
        for key, size in (("Ke", len(dofs) ** 2), ("Me", len(dofs))):
            _as_list(entry[key], f"element {pos} {key}", _as_number, size)
        for key in ("length", "wave_speed"):
            if key in entry:
                _as_number(entry[key], f"element {pos} {key}")


def _plain_elements(columns, m):
    """Whether per-key element columns pass every per-element check."""
    dofs = columns.get("dofs", [None])
    n = len(dofs[0]) if type(dofs[0]) is list else -1
    shapes = (("dofs", n, _as_int), ("Ke", n * n, _as_number), ("Me", n, _as_number))
    return (columns.keys() <= _ELEMENT_KEYS and {"dofs", "Ke", "Me"} <= columns.keys()
            and all(set(map(type, columns[key])) == {list} and set(map(len, columns[key]))
                    == {size} and _plain(chain.from_iterable(columns[key]), convert)
                    for key, size, convert in shapes)
            and min(chain.from_iterable(dofs), default=0) >= 0
            and max(chain.from_iterable(dofs), default=0) < m
            and all(_plain(columns[key], _as_number) for key in ("length", "wave_speed")
                    if key in columns))


def model_to_dict(model):
    """Plain-data form of a model (see :func:`read_model` for the schema)."""
    op = model.operator
    upper = (op.indices >= op.row) & (op.stiffness != 0.0)  # row-major, i <= j
    coo = zip(op.row[upper].tolist(), op.indices[upper].tolist(), op.stiffness[upper].tolist())
    doc = {
        "m": model.m,
        "mass": [float(v) for v in model.mass],
        "stiffness_coo": [list(entry) for entry in coo],
        "a1": float(model.a1),
        "a2": float(model.a2),
        "elements": [],
    }
    es = model.elements
    if es is not None:
        columns = {"dofs": es.dofs, "Ke": es.stiffness.reshape(len(es), -1),
                   "Me": es.mass, "length": es.length, "wave_speed": es.wave_speed}
        columns = {key: col.tolist() for key, col in columns.items() if col is not None}
        doc["elements"] = [dict(zip(columns, entry)) for entry in zip(*columns.values())]
    if model.external_force is not None:
        doc["external_force"] = {
            "times": [float(t) for t in model.external_force.times],
            "values": [[float(v) for v in row] for row in model.external_force.values],
        }
    return doc


def model_from_dict(doc):
    """Rebuild a model from its plain-data form (strict: unknown keys fail)."""
    if not isinstance(doc, dict):
        raise FormatError("model document must be a JSON object")
    require_keys(doc, _MODEL_KEYS, {"m", "mass", "stiffness_coo", "a1", "a2"}, "model")
    m = _as_int(doc["m"], "m")
    if m < 1:
        raise FormatError(f"m must be at least 1, got {m}")
    mass = np.array(_as_list(doc["mass"], "mass", _as_number, size=m), dtype=float)

    coo = _as_list(doc["stiffness_coo"], "stiffness_coo")
    i = j = val = ()
    if coo:
        plain = set(map(type, coo)) == {list} and set(map(len, coo)) == {3}
        i, j, val = zip(*coo) if plain else ((),) * 3
        if not (plain and _plain(i + j, _as_int) and _plain(val, _as_number) and min(i) >= 0
                and max(j) < m and all(map(int.__le__, i, j)) and len(set(zip(i, j))) == len(i)):
            _check_coo(coo, m)
            i, j, val = zip(*coo)
    i, j, val = np.array(i, dtype=np.intp), np.array(j, dtype=np.intp), np.array(val, dtype=float)
    off = i != j  # mirrored below the diagonal
    stiffness = RowSparse.from_entries(m, np.concatenate((i, j[off])),
                                       np.concatenate((j, i[off])), np.concatenate((val, val[off])))

    entries = _as_list(doc.get("elements", []), "elements")
    uniform = (entries and set(map(type, entries)) == {dict}
               and len(set(map(frozenset, entries))) == 1)
    columns = {key: [entry[key] for entry in entries] for key in entries[0]} if uniform else {}
    if entries and not (uniform and _plain_elements(columns, m)):
        _check_elements(entries, m)
        columns = {key: [entry[key] for entry in entries] for key in entries[0]}

    force = None
    if "external_force" in doc:
        fdoc = doc["external_force"]
        if not isinstance(fdoc, dict):
            raise FormatError("external_force must be a JSON object")
        require_keys(fdoc, _FORCE_KEYS, _FORCE_KEYS, "external_force")
        times = _as_list(fdoc["times"], "force times", _as_number)
        values = [_as_list(row, "force values row", _as_number)
                  for row in _as_list(fdoc["values"], "force values")]
        try:
            force = ForceTable(np.array(times), np.array(values))
        except ValueError as exc:
            raise FormatError(f"external_force: {exc}") from exc

    try:
        elements = None
        if entries:
            shape = (len(entries), len(columns["dofs"][0]))
            elements = ElementSet(
                np.array(columns["dofs"], dtype=int).reshape(shape),
                np.array(columns["Ke"], dtype=float).reshape(shape + shape[1:]),
                np.array(columns["Me"], dtype=float).reshape(shape),
                *(np.array(columns[key], dtype=float) if key in columns else None
                  for key in ("length", "wave_speed")),
            )
        return FullOrderModel(
            m=m,
            mass=mass,
            stiffness=stiffness,
            a1=_as_number(doc["a1"], "a1"),
            a2=_as_number(doc["a2"], "a2"),
            elements=elements,
            external_force=force,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def write_model(model, path):
    """Write a model as JSON (schema documented with :func:`read_model`)."""
    write_json(model_to_dict(model), path)


def read_model(path):
    """Read a model from JSON.

    Schema (all indices 0-based, unknown keys rejected)::

        {
          "m": int,
          "mass": [m floats],
          "stiffness_coo": [[i, j, value], ...],   # upper triangle, i <= j
          "a1": float, "a2": float,
          "elements": [                            # optional
            {"dofs": [...], "Ke": [row-major floats], "Me": [floats],
             "length": float?, "wave_speed": float?}, ...
          ],
          "external_force": {"times": [...], "values": [[...], ...]}?  # optional
        }

    Off-diagonal COO entries are mirrored; duplicate (i, j) pairs are a
    format error, as is anything violating the model invariants.  All
    element blocks share one DoF count, and ``length``/``wave_speed`` are
    given on all elements or on none; a file breaking either rule is a
    format error naming the first element that does.
    """
    return model_from_dict(read_json(path))
