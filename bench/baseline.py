"""One-off reference table: the stages of ROADMAP's Baseline at several sizes.

    python3 bench/baseline.py

Prints a markdown table of the median of five repeats per stage, with
BLAS pinned to one thread.  Not part of the benchmark's runs; its output
is pasted into bench/README.md when the table is re-measured.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import statistics
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np

import romstab as rs

REPEATS = 5
SIZES = (200, 1000, 2000)


def median_time(fn, per=1):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / per)
    return statistics.median(times)


def stages(m, workdir):
    model = rs.build_string_model(m, 1.0, 10.0, 1.0, 99.0)
    path = os.path.join(workdir, f"model-{m}.json")
    rs.write_model(model, path)
    dt = 0.9 * rs.critical_dt_report(model).dt_crit
    basis = rs.modal_basis(model, range(10))
    rom = rs.galerkin_reduce(model, basis)
    dt_rom = 0.9 * rs.critical_dt_report(rom).dt_crit
    x0 = np.random.default_rng(0).standard_normal(m)
    snapshots = rs.snapshots_from_trajectory(rs.integrate(model, x0, np.zeros(m), 50 * dt, dt))
    zero = np.zeros(10)
    return {
        "`build_string_model`": median_time(lambda: rs.build_string_model(m, 1.0, 10.0, 1.0, 99.0)),
        "`critical_dt_report`, full model": median_time(lambda: rs.critical_dt_report(model)),
        "`modal_basis`, 10 modes": median_time(lambda: rs.modal_basis(model, range(10))),
        "one full-model step": median_time(
            lambda: rs.integrate(model, x0, np.zeros(m), 50 * dt, dt), per=50),
        "one reduced step, k=10": median_time(
            lambda: rs.integrate(rom, zero, zero, 1000 * dt_rom, dt_rom), per=1000),
        "`read_model` (JSON load)": median_time(lambda: rs.read_model(path)),
        "`ecsw_train`, 51 snapshots": median_time(
            lambda: rs.ecsw_train(model, basis, snapshots, 0.01)),
    }


def fmt(seconds):
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    return f"{seconds:.2f} s"


def main():
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as workdir:
        columns = {m: stages(m, workdir) for m in SIZES}
    print("| stage | " + " | ".join(f"m={m}" for m in SIZES) + " |")
    print("|---|" + "---|" * len(SIZES))
    for row in columns[SIZES[0]]:
        print(f"| {row} | " + " | ".join(fmt(columns[m][row]) for m in SIZES) + " |")


if __name__ == "__main__":
    main()
