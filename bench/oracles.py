"""Reference computations the benchmark makes apart from romstab.

Every check of an op's output compares against something computed here,
from the benchmark's own assembly of the string model, or against a
property the method must have.  Nothing here calls romstab, and nothing
here is a copy of a number romstab printed once.
"""

import math

import numpy as np


def string_model(m, element_mass, element_stiffness, boundary_factor):
    """Lumped mass and tridiagonal stiffness ``(diag, off)`` of the string.

    ``m`` nodes joined by ``m - 1`` springs; the end nodes carry half an
    element mass and a grounding spring of ``boundary_factor`` times the
    element stiffness.
    """
    mass = np.full(m, element_mass)
    mass[[0, -1]] = 0.5 * element_mass
    diag = np.full(m, 2.0 * element_stiffness)
    diag[[0, -1]] = element_stiffness * (1.0 + boundary_factor)
    off = np.full(m - 1, -element_stiffness)
    return mass, diag, off


def string_elements(m, element_stiffness, boundary_factor):
    """Element stiffness blocks ``(m - 1, 2, 2)``; element ``e`` joins nodes e, e+1."""
    ke = element_stiffness * np.array([[1.0, -1.0], [-1.0, 1.0]])
    blocks = np.tile(ke, (m - 1, 1, 1))
    blocks[0, 0, 0] += boundary_factor * element_stiffness
    blocks[-1, 1, 1] += boundary_factor * element_stiffness
    return blocks


def weighted_tridiagonal(blocks, weights):
    """Scatter weighted element blocks into a tridiagonal ``(diag, off)``."""
    wk = weights[:, None, None] * blocks
    diag = np.zeros(blocks.shape[0] + 1)
    diag[:-1] += wk[:, 0, 0]
    diag[1:] += wk[:, 1, 1]
    return diag, wk[:, 0, 1].copy()


def tridiagonal_matmul(diag, off, x):
    """``K @ x`` for the symmetric tridiagonal ``K = (diag, off)``."""
    y = diag[:, None] * x
    y[:-1] += off[:, None] * x[1:]
    y[1:] += off[:, None] * x[:-1]
    return y


def tridiagonal_max_eigenvalue(diag, off):
    """Largest eigenvalue of a symmetric tridiagonal, by Sturm-count bisection.

    Bisects the Gershgorin interval until the bracket can shrink no more in
    double precision; no LAPACK routine is involved.
    """
    n = len(diag)
    reach = np.zeros(n)
    reach[:-1] += np.abs(off)
    reach[1:] += np.abs(off)
    lo = float(np.min(diag - reach))
    hi = float(np.max(diag + reach))
    d = diag.tolist()
    e2 = (off * off).tolist()
    pivmin = 1e-300 * max(1.0, abs(hi), abs(lo))

    def count_below(x):
        count = 0
        q = d[0] - x
        for i in range(n):
            if i:
                q = d[i] - x - e2[i - 1] / q
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0.0:
                count += 1
        return count

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if count_below(mid) == n:
            hi = mid
        else:
            lo = mid


def modal_dt(mu, a1, a2):
    """Critical central-difference step of modes with squared frequency ``mu``
    and Rayleigh damping ``a1 M + a2 K`` (elementwise, ``mu > 0``)."""
    mu = np.asarray(mu, dtype=float)
    root = np.sqrt(mu)
    xi = a1 / (2.0 * root) + a2 * root / 2.0
    return 2.0 / (root * (np.sqrt(xi * xi + 1.0) + xi))


def smooth_shape(rng, m, n_terms):
    """Random smooth displacement: a sine series with amplitudes ``±1/j``.

    Random signs with fixed magnitudes keep the work that the shape causes
    (ECSW support growth, above all) alike from seed to seed.
    """
    s = np.linspace(0.0, 1.0, m)
    j = np.arange(1, n_terms + 1)
    return np.sin(np.pi * np.outer(s, j)) @ (rng.choice([-1.0, 1.0], n_terms) / j)


def load_at(times, values, t):
    """Piecewise-linear load table at time ``t``, clamped to the end rows."""
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = int(np.searchsorted(times, t, side="right")) - 1
    w = (t - times[i]) / (times[i + 1] - times[i])
    return (1.0 - w) * values[i] + w * values[i + 1]


def two_step_final(minv, damping, stiffness, load, x0, dt, steps):
    """Final state of ``x_{n+1} = 2 x_n - x_{n-1} + dt^2 a_n`` from rest.

    ``a_n = minv @ (load(n dt) - damping @ (x_n - x_{n-1}) / dt - stiffness @ x_n)``
    with ``x_{-1} = x_0`` (zero initial velocity).
    """
    x_prev = x0.copy()
    x = x0.copy()
    for n in range(steps):
        force = load(n * dt) - damping @ ((x - x_prev) / dt) - stiffness @ x
        x_prev, x = x, 2.0 * x - x_prev + dt * dt * (minv @ force)
    return x


def real_spectrum(operator, tol=1e-8):
    """Eigenvalues of ``operator``, required real and nonnegative up to ``tol``
    relative to the largest magnitude; returns their real parts.

    Raises ``ValueError`` when the requirement fails, since the modal
    formula then says nothing about the step.
    """
    ev = np.linalg.eigvals(operator)
    scale = float(np.max(np.abs(ev)))
    if float(np.max(np.abs(ev.imag))) > tol * scale:
        raise ValueError(
            f"spectrum is not real: |imag| up to {np.max(np.abs(ev.imag)):.3e} "
            f"of {scale:.3e}"
        )
    if float(np.min(ev.real)) < -tol * scale:
        raise ValueError(f"spectrum has a negative eigenvalue {np.min(ev.real):.3e}")
    return ev.real


def rel_diff(a, b):
    return abs(a - b) / max(abs(b), math.ulp(0.0))
