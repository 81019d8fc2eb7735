"""The row-sparse full-order operator against the dense formulas it replaced,
and the element-based skip of the dense PSD check."""

import json
import re

import numpy as np
import pytest

import romstab.models
from romstab import (
    ElementSet,
    FormatError,
    ForceTable,
    FullOrderModel,
    MASS_ORTHONORMAL,
    ReducedBasis,
    SampleSet,
    assemble,
    build_string_model,
    galerkin_reduce,
    m_orthonormalize,
)
from romstab.cli import run
from romstab.hyper import _check_reach, _sampled_blocks
from romstab.models import model_from_dict
from romstab.verify import _random_chain


def _laplacian_model(seed, m=24, a1=0.0, a2=0.0, zero_rows=(5, 23)):
    """COO-only model (no elements) on a random, non-banded graph Laplacian
    plus grounding springs; the DoFs in ``zero_rows`` (the last one
    included) have all-zero stiffness rows."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(1.0, 2.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.2)
    adjacency = np.triu(weights, 1)
    adjacency[list(zero_rows), :] = 0.0
    adjacency[:, list(zero_rows)] = 0.0
    adjacency = adjacency + adjacency.T
    stiffness = np.diag(adjacency.sum(axis=1)) - adjacency
    ground = rng.uniform(0.5, 1.0, m) * (rng.uniform(size=m) < 0.3)
    ground[list(zero_rows)] = 0.0
    stiffness[np.diag_indices(m)] += ground
    rows, cols = np.nonzero(np.triu(stiffness))
    doc = {
        "m": m,
        "mass": rng.uniform(0.5, 2.0, m).tolist(),
        "stiffness_coo": [[int(i), int(j), float(stiffness[i, j])] for i, j in zip(rows, cols)],
        "a1": a1,
        "a2": a2,
    }
    return model_from_dict(doc)


def _models():
    """Random chains, and COO-only Laplacians with zero rows, a1 = 0 and a1 > 0."""
    out = []
    for seed in range(4):
        rng = np.random.default_rng(100 + seed)
        a1, a2 = (0.0, 0.0) if seed == 0 else rng.uniform(0.0, 0.5, 2)
        out.append(_random_chain(rng, int(rng.integers(3, 30)), a1=a1, a2=a2))
    out.append(_laplacian_model(7, a1=0.0, a2=0.03))
    out.append(_laplacian_model(8, a1=0.2, a2=0.03))
    out.append(_laplacian_model(9, a1=0.2, a2=0.0))
    return out


MODELS = _models()


def _rel(actual, expected):
    return np.max(np.abs(actual - expected)) / max(np.max(np.abs(expected)), 1e-300)


def _dense_check_reach(model, samples):
    """The dense reach scan the operator replaced; its error message or None."""
    rows = np.asarray(samples.collocation, dtype=int)
    dofs = np.arange(model.m)
    damping_out = (model.damping[rows] != 0.0) & ~np.isin(dofs, samples.damping_reach)
    stiffness_out = (model.stiffness[rows] != 0.0) & ~np.isin(dofs, samples.stiffness_reach)
    bad = np.flatnonzero(damping_out.any(axis=1) | stiffness_out.any(axis=1))
    if not bad.size:
        return None
    r = bad[0]
    name, out = ("damping", damping_out) if damping_out[r].any() else ("stiffness", stiffness_out)
    return (f"{name} row {rows[r]} touches DoFs {np.flatnonzero(out[r]).tolist()} "
            f"outside the declared {name} reach")


@pytest.mark.parametrize("model", MODELS)
class TestRowSparseOracles:
    def test_values_are_the_dense_entries_bit_for_bit(self, model):
        op = model.operator
        pattern = model.stiffness != 0.0
        pattern[np.diag_indices(model.m)] = True
        rows, cols = np.nonzero(pattern)
        assert np.array_equal(op.row, rows) and np.array_equal(op.indices, cols)
        assert np.array_equal(op.indptr, np.searchsorted(rows, np.arange(model.m + 1)))
        assert np.array_equal(op.stiffness, model.stiffness[rows, cols])
        assert np.array_equal(op.damping, model.damping[rows, cols])
        outside = np.ones((model.m, model.m), dtype=bool)
        outside[rows, cols] = False
        assert not model.damping[outside].any()

    def test_force_at_matches_the_dense_force(self, model):
        rng = np.random.default_rng(model.m)
        x, v = rng.standard_normal((2, model.m))
        expected = -model.damping @ v - model.stiffness @ x
        assert _rel(model.force_at(x, v, 0.0), expected) <= 1e-13
        loaded = FullOrderModel(
            m=model.m, mass=model.mass, stiffness=model.stiffness, a1=model.a1,
            a2=model.a2, external_force=ForceTable([0.0, 1.0], rng.standard_normal((2, model.m))),
        )
        expected = expected + loaded.external_force.at(0.3)
        assert _rel(loaded.force_at(x, v, 0.3), expected) <= 1e-13

    def test_sampled_blocks_and_galerkin_match_dense_products(self, model):
        rng = np.random.default_rng(model.m + 1)
        k = min(3, model.m)
        basis = ReducedBasis(m_orthonormalize(rng.standard_normal((model.m, k)), model.mass),
                             MASS_ORTHONORMAL, mass=model.mass)
        v = basis.matrix
        rows = list(rng.permutation(model.m)[: max(1, model.m // 2)]) + [model.m - 1]
        samples = SampleSet.from_model(model, list(dict.fromkeys(int(i) for i in rows)))
        got_rows, row_basis, damping_rows, stiffness_rows = _sampled_blocks(model, basis, samples)
        rows = np.asarray(samples.collocation)
        dr, zr = np.asarray(samples.damping_reach), np.asarray(samples.stiffness_reach)
        assert np.array_equal(got_rows, rows) and np.array_equal(row_basis, v[rows])
        assert _rel(damping_rows, model.damping[np.ix_(rows, dr)] @ v[dr]) <= 1e-13
        assert _rel(stiffness_rows, model.stiffness[np.ix_(rows, zr)] @ v[zr]) <= 1e-13
        rom = galerkin_reduce(model, basis)
        assert np.array_equal(rom.stiffness, v.T @ (model.stiffness @ v))
        assert _rel(rom.damping, v.T @ (model.damping @ v)) <= 1e-13

    def test_reaches_match_a_row_by_row_scan(self, model):
        rng = np.random.default_rng(model.m + 2)
        for size in (1, 3, model.m):
            rows = rng.permutation(model.m)[:size].tolist()
            samples = SampleSet.from_model(model, rows)
            for name, matrix in (("damping_reach", model.damping),
                                 ("stiffness_reach", model.stiffness)):
                expected = set(rows)
                for i in rows:
                    expected.update(np.flatnonzero(matrix[i]).tolist())
                assert getattr(samples, name) == tuple(sorted(expected))
                assert all(type(i) is int for i in getattr(samples, name))

    def test_reach_errors_match_the_dense_scan(self, model):
        rng = np.random.default_rng(model.m + 3)
        checked = 0
        for _ in range(40):
            rows = rng.permutation(model.m)[: int(rng.integers(1, model.m + 1))].tolist()
            full = SampleSet.from_model(model, rows)
            reaches = []
            for reach in (full.damping_reach, full.stiffness_reach):
                keep = [i for i in reach if i in rows or rng.uniform() < 0.6]
                reaches.append(keep)
            samples = SampleSet(rows, *reaches)
            expected = _dense_check_reach(model, samples)
            if expected is None:
                _check_reach(model, samples)
            else:
                checked += 1
                with pytest.raises(ValueError, match=re.escape(expected) + "$"):
                    _check_reach(model, samples)
        assert checked > 0


def test_zero_stiffness_rows_keep_their_diagonal_entry():
    for a1 in (0.0, 0.2):
        model = _laplacian_model(3, a1=a1, a2=0.03)
        op = model.operator
        for i in (5, 23):
            start, stop = op.indptr[i], op.indptr[i + 1]
            assert op.indices[start:stop].tolist() == [i]
            assert op.stiffness[start] == 0.0
            assert op.damping[start] == a1 * model.mass[i]
        samples = SampleSet.from_model(model, [23, 5])
        assert samples.stiffness_reach == (5, 23)
        assert samples.damping_reach == (5, 23)


# ---------------------------------------------------------------------------
# PSD check: skipped only for an exact element scatter within the Weyl bound
# ---------------------------------------------------------------------------


@pytest.fixture()
def dense_checks(monkeypatch):
    """Names passed to the model's ``require_psd``, recorded as it runs."""
    names = []
    real = romstab.models.require_psd

    def spy(a, name, rtol):
        names.append(name)
        return real(a, name, rtol)

    monkeypatch.setattr(romstab.models, "require_psd", spy)
    return names


def _pair_elements(ke):
    """Elements ``ke[e]`` on DoFs (0, e + 1): a star sharing DoF 0."""
    n = len(ke)
    return ElementSet(np.column_stack((np.zeros(n, dtype=int), np.arange(1, n + 1))),
                      ke, np.ones((n, 2)))


class TestPsdSkip:
    def test_exact_scatter_skips_the_dense_check(self, dense_checks):
        model = build_string_model(30, 1.0, 10.0, 1.0)
        assert model.elements.scatter_is_psd
        assert dense_checks == ["element {}: element stiffness"]

    def test_near_but_inexact_scatter_keeps_the_dense_check(self, dense_checks):
        model = build_string_model(30, 1.0, 10.0, 1.0)
        stiffness = model.stiffness.copy()
        stiffness[3, 4] = stiffness[4, 3] = stiffness[3, 4] * (1.0 + 1e-14)
        assert not np.array_equal(stiffness, model.stiffness)
        dense_checks.clear()
        FullOrderModel(30, model.mass, stiffness, elements=model.elements)
        assert dense_checks == ["stiffness"]

    def test_summed_negative_eigenvalues_keep_the_dense_check(self, dense_checks):
        # each block has lambda_min = -0.9e-10 lambda_max (passes alone); three
        # of them sum past 1e-10 of the largest, and share their negative DoF
        ke = np.tile(np.diag([-0.9e-10, 1.0]), (3, 1, 1))
        elements = _pair_elements(ke)
        assert not elements.scatter_is_psd
        mass, stiffness = assemble(elements, 4)
        dense_checks.clear()
        with pytest.raises(ValueError, match=r"^stiffness is not positive semi-definite "
                                             r"\(min eigenvalue -2\.700e-10\)$"):
            FullOrderModel(4, mass, stiffness, elements=elements)
        assert dense_checks == ["stiffness"]
        # on disjoint DoFs two such blocks break the bound, and pass the dense check
        elements = ElementSet([[0, 1], [2, 3]], ke[:2], np.ones((2, 2)))
        assert not elements.scatter_is_psd
        dense_checks.clear()
        FullOrderModel(4, *assemble(elements, 4), elements=elements)
        assert dense_checks == ["stiffness"]

    def test_one_slightly_negative_block_may_skip(self, dense_checks):
        ke = np.stack([np.diag([-0.5e-10, 1.0]), np.diag([0.0, 1.0])])
        elements = _pair_elements(ke)
        assert elements.scatter_is_psd
        dense_checks.clear()
        FullOrderModel(3, *assemble(elements, 3), elements=elements)
        assert dense_checks == []

    def test_indefinite_coo_model_keeps_the_old_message(self, dense_checks, tmp_path, capsys):
        doc = {"m": 2, "mass": [1.0, 1.0], "stiffness_coo": [[0, 0, 1.0], [0, 1, 2.0], [1, 1, 1.0]],
               "a1": 0.0, "a2": 0.0}
        message = "stiffness is not positive semi-definite (min eigenvalue -1.000e+00)"
        with pytest.raises(FormatError, match=re.escape(message) + "$"):
            model_from_dict(doc)
        assert dense_checks == ["stiffness"]
        path = tmp_path / "indefinite.json"
        path.write_text(json.dumps(doc))
        assert run(["timestep", str(path)]) == 3
        assert message in capsys.readouterr().err
