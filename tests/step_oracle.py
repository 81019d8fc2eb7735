"""Independent oracle for the tests: the central-difference one-step matrix on
``(x_n, x_{n-1})``, built apart from the ``[x; v_half]`` matrix that reduced
models step with (``MatrixStepped._step_matrices``)."""

import numpy as np


def amplification_matrix(mass, damping, stiffness, dt):
    """One-step transfer matrix of the central-difference scheme.

    Maps ``(x_n, x_{n-1})`` to ``(x_{n+1}, x_n)``:

        [[2 I - dt^2 Minv K - dt Minv C,   dt Minv C - I],
         [I,                                0           ]]

    ``mass`` may be a 1-D diagonal or a general square matrix (reduced
    models have dense mass).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    mass = np.asarray(mass, dtype=float)
    damping = np.asarray(damping, dtype=float)
    stiffness = np.asarray(stiffness, dtype=float)
    d = stiffness.shape[0]
    if stiffness.shape != (d, d) or damping.shape != (d, d):
        raise ValueError("damping and stiffness must be square and same order")
    if mass.ndim == 1:
        if mass.shape != (d,):
            raise ValueError(f"mass diagonal has {mass.shape[0]} entries for order {d}")
        minv_k = stiffness / mass[:, None]
        minv_c = damping / mass[:, None]
    elif mass.ndim == 2:
        if mass.shape != (d, d):
            raise ValueError(f"mass shaped {mass.shape} for order {d}")
        minv_k = np.linalg.solve(mass, stiffness)
        minv_c = np.linalg.solve(mass, damping)
    else:
        raise ValueError("mass must be 1-D (diagonal) or 2-D")
    eye = np.eye(d)
    return np.block(
        [
            [2.0 * eye - dt * dt * minv_k - dt * minv_c, dt * minv_c - eye],
            [eye, np.zeros((d, d))],
        ]
    )
