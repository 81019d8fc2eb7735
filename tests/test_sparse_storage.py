"""The row-sparse operator as the stored stiffness.

Oracles: the dense ``np.add.at`` scatter that ``assemble`` replaced, models
built from the dense ``stiffness`` of the same model, and the dense products
``V.T (K V)`` that the reductions keep below ``kernels._SPARSE_MIN_M``.  At
m = 20000 a dense stiffness, or any dense array formed from the operator,
fails the run, so those tests are O(m) by construction.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from romstab import (FullOrderModel, build_string_model, critical_dt_report, ecsw_reduce,
                     ecsw_train, galerkin_reduce, integrate, modal_basis, read_model,
                     snapshots_from_trajectory, write_model)
from romstab.kernels import _SPARSE_MIN_M, symmetrize
from romstab.models import (RowSparse, _DenseStiffness, assemble, model_from_dict,
                            model_to_dict)
from romstab.stability import critical_dt_system, verify_rom_dt_dominance
from romstab.verify import _random_chain

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = [12, _SPARSE_MIN_M - 1, _SPARSE_MIN_M, 1000]
OPERATOR_ARRAYS = ("indptr", "row", "indices", "stiffness", "damping")


def _dense_scatter(elements, m, weights=None):
    """The dense scatter ``assemble`` replaced (weights applied as it applies them)."""
    dofs, ke = elements.dofs, elements.stiffness
    if weights is not None:
        keep = weights != 0.0
        dofs, ke = dofs[keep], weights[keep, None, None] * ke[keep]
    stiffness = np.zeros((m, m))
    np.add.at(stiffness, (dofs[:, :, None], dofs[:, None, :]), ke)
    return stiffness


def _models():
    out = []
    for m in SIZES:
        rng = np.random.default_rng(m)
        out.append(build_string_model(m, 1.0, 10.0, 1.0, 99.0, a1=0.05, a2=1e-4))
        out.append(_random_chain(rng, m, grounded=True, a1=0.1, a2=0.01))
        out.append(_random_chain(rng, m, grounded=False, a2=0.02))
    return out


MODELS = _models()
IDS = [f"m{model.m}-{kind}" for model in MODELS[::3]
       for kind in ("string", "grounded", "ungrounded")]


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


def _rel(actual, expected):
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


@pytest.mark.parametrize("model", MODELS, ids=IDS)
class TestParity:
    def test_assemble_is_the_dense_scatter_bit_for_bit(self, model):
        es, m = model.elements, model.m
        weights = np.random.default_rng(m).uniform(0.0, 2.0, len(es))
        weights[::3] = 0.0
        for w in (None, weights):
            mass, stiffness = assemble(es, m, weights=w)
            dense = _dense_scatter(es, m, w)
            assert _bits(stiffness.toarray()) == _bits(dense)
            pattern = dense != 0.0
            pattern[np.diag_indices(m)] = True
            rows, cols = np.nonzero(pattern)
            assert np.array_equal(stiffness.row, rows) and np.array_equal(stiffness.indices, cols)
            assert np.array_equal(stiffness.indptr, np.searchsorted(rows, np.arange(m + 1)))
            assert stiffness.damping is None

    def test_built_and_read_models_equal_their_dense_twins(self, model, tmp_path):
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        for source in (model, back):
            twin = FullOrderModel(m=source.m, mass=source.mass, stiffness=source.stiffness,
                                  a1=source.a1, a2=source.a2, elements=source.elements)
            for name in OPERATOR_ARRAYS:
                assert _bits(getattr(source.operator, name)) == _bits(getattr(model.operator, name))
                assert _bits(getattr(twin.operator, name)) == _bits(getattr(model.operator, name))
            assert json.dumps(model_to_dict(twin)) == json.dumps(model_to_dict(model))
            assert critical_dt_report(twin).to_dict() == critical_dt_report(model).to_dict()
        assert path.read_text() == json.dumps(model_to_dict(back), indent=1) + "\n"

    def test_reductions_match_the_dense_products(self, model):
        basis = modal_basis(model, range(6))
        v = basis.matrix
        weights = np.random.default_rng(model.m + 1).uniform(0.5, 2.0, len(model.elements))
        weights[1::4] = 0.0
        cases = [(galerkin_reduce(model, basis), model.stiffness),
                 (ecsw_reduce(model, weights, basis), _dense_scatter(model.elements, model.m,
                                                                     weights))]
        for rom, dense in cases:
            expected = v.T @ (dense @ v)
            got = critical_dt_report(rom).to_dict()
            want = critical_dt_system(float(np.linalg.eigvalsh(symmetrize(expected))[-1]),
                                      model.a1, model.a2).to_dict()
            if model.m < _SPARSE_MIN_M:  # the dense product itself, bit for bit
                assert _bits(rom.stiffness) == _bits(expected)
                assert got["dt_crit"] == want["dt_crit"]
            else:
                assert _rel(rom.stiffness, expected) <= 1e-13
                assert got["dt_crit"] == pytest.approx(want["dt_crit"], rel=1e-12, abs=0.0)
        check = verify_rom_dt_dominance(model, basis)
        reduced = symmetrize(v.T @ (model.stiffness @ v))
        dense_dt = critical_dt_system(float(np.linalg.eigvalsh(reduced)[-1]),
                                      model.a1, model.a2).dt_crit
        assert check.ok and check.dt_rom == pytest.approx(dense_dt, rel=1e-12, abs=0.0)


def test_a_built_model_scatters_its_elements_once(monkeypatch):
    orders = []
    scatter = RowSparse.from_entries.__func__

    def counted(cls, m, *entries):
        orders.append(m)
        return scatter(cls, m, *entries)

    monkeypatch.setattr(RowSparse, "from_entries", classmethod(counted))
    string = build_string_model(12, 1.0, 10.0, 1.0, 99.0, a2=1e-4)
    chain = _random_chain(np.random.default_rng(3), 9, grounded=True)
    assert orders == [12, 9]  # the builder's scatter, which the element check reuses
    for model in (string, chain):
        mass, stiffness = assemble(model.elements, model.m)
        assert stiffness.stiffness is model.operator.stiffness and mass is model.mass
        with pytest.raises(ValueError, match="read-only"):
            stiffness.stiffness[0] = 0.0  # the kept scatter cannot drift from the model
    twin = FullOrderModel(m=12, mass=string.mass, stiffness=string.stiffness,
                          elements=string.elements)  # a dense input is still compared
    assert orders == [12, 9] and _bits(twin.operator.stiffness) == _bits(
        string.operator.stiffness)


def test_m_20000_stores_and_reduces_in_o_m_memory(tmp_path, monkeypatch):
    m = 20000

    def refused_stiffness(self, model, owner=None):
        if model is None:
            raise AttributeError("stiffness")
        raise AssertionError("a dense m x m stiffness was formed")

    def refused(self, data=None):
        raise AssertionError(f"a dense {self.indptr.size - 1} x {self.indptr.size - 1} array")

    monkeypatch.setattr(_DenseStiffness, "__get__", refused_stiffness)
    monkeypatch.setattr(RowSparse, "toarray", refused)
    tracemalloc.start()
    try:
        model = build_string_model(m, 1.0, 10.0, 1.0, 99.0, a2=1e-4)
        path = tmp_path / "model.json"
        write_model(model, path)
        model = read_model(path)
        bare = model_to_dict(model)  # no elements: the PSD check takes a Sturm count
        del bare["elements"]
        bare = model_from_dict(bare)
        report = critical_dt_report(model)
        basis = modal_basis(model, range(10))
        rom = galerkin_reduce(model, basis)
        dt = 0.9 * report.dt_crit
        run = integrate(model, np.sin(np.linspace(0.0, np.pi, m)), np.zeros(m), 10 * dt, dt)
        weights = ecsw_train(model, basis, snapshots_from_trajectory(run), 0.05)
        hrom = ecsw_reduce(model, weights, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert report.method == "modal-exact" and not run.divergence_flag
    assert critical_dt_report(bare).to_dict() == report.to_dict()
    assert len(run.times) >= 11
    assert critical_dt_report(rom).dt_crit >= report.dt_crit * (1.0 - 1e-10)
    assert hrom.dim == 10 and np.all(np.isfinite(hrom.stiffness))


CHILDREN_RSS = """
import os, resource, subprocess, sys
env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
path = os.path.join(sys.argv[1], "m20000.json")
for args in (["build", "string", "--m", "20000", "--M", "1", "--K", "10", "-o", path],
             ["timestep", path]):
    subprocess.run([sys.executable, "-m", "romstab.cli", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_cli_build_and_timestep_at_m_20000_stay_under_1_gib(tmp_path):
    # an intermediate process, so that only these two commands are its children
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", CHILDREN_RSS, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    maxrss_kib = int(result.stdout.split()[-1])  # Linux reports KiB
    assert maxrss_kib * 1024 < 2**30, f"{maxrss_kib / 1024:.0f} MiB"
