"""Tests for model construction, element assembly, and the model file format."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from romstab import (
    ElementSet,
    ForceTable,
    FormatError,
    FullOrderModel,
    NumericalRangeError,
    assemble,
    build_string_model,
    galerkin_reduce,
    modal_basis,
    read_model,
    write_model,
)
from romstab.kernels import _SPARSE_MIN_M, max_gen_eigenvalue
from romstab.models import RowSparse, model_from_dict, model_to_dict
from romstab.stability import verify_rom_dt_dominance
from romstab.verify import _random_chain


def _loop_assemble(elements, m, weights=None):
    """Element-by-element scatter: the oracle for the stacked ``assemble``."""
    mass = np.zeros(m)
    stiffness = np.zeros((m, m))
    for e in range(len(elements)):
        me, ke = elements.mass[e], elements.stiffness[e]
        if weights is not None:
            if weights[e] == 0.0:
                continue
            me, ke = weights[e] * me, weights[e] * ke
        ix = elements.dofs[e]
        mass[ix] += me
        stiffness[np.ix_(ix, ix)] += ke
    return mass, stiffness


def _dense(assembled):
    """``assemble``'s (mass, RowSparse stiffness) with the stiffness dense."""
    mass, stiffness = assembled
    return mass, stiffness.toarray()


STIFFNESS_FORMS = [np.asarray, RowSparse.from_dense]  # a dense and a row-sparse input


def _oracle_models():
    """String models (m = 5 and 300) and verify-style random chains."""
    models = [build_string_model(m, element_mass=1.0, element_stiffness=10.0,
                                 length=1.0, boundary_factor=99.0)
              for m in (5, 300)]
    rng = np.random.default_rng(23)
    for grounded in (True, False, True, False):
        models.append(_random_chain(rng, int(rng.integers(3, 25)), grounded))
    return models


class TestForceTable:
    def test_linear_interpolation_between_knots(self):
        table = ForceTable(np.array([0.0, 1.0, 3.0]),
                           np.array([[0.0, 0.0], [2.0, -4.0], [2.0, 0.0]]))
        assert np.allclose(table.at(0.5), [1.0, -2.0])
        assert np.allclose(table.at(2.0), [2.0, -2.0])

    def test_exact_at_knots(self):
        table = ForceTable(np.array([0.0, 2.0]), np.array([[1.0], [5.0]]))
        assert table.at(0.0) == pytest.approx(1.0)
        assert table.at(2.0) == pytest.approx(5.0)

    def test_clamped_outside_range(self):
        table = ForceTable(np.array([1.0, 2.0]), np.array([[3.0], [7.0]]))
        assert table.at(-10.0) == pytest.approx(3.0)
        assert table.at(99.0) == pytest.approx(7.0)

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            ForceTable(np.array([0.0, 0.0]), np.array([[1.0], [2.0]]))

    def test_lookup_matches_searchsorted_reference(self):
        rng = np.random.default_rng(17)
        times = np.cumsum(rng.uniform(0.01, 1.0, 40))
        table = ForceTable(times, rng.standard_normal((40, 3)))
        probes = np.concatenate([times, rng.uniform(times[0] - 1.0,
                                                     times[-1] + 1.0, 500)])
        for t in probes.tolist() + [np.float64(times[7]), times[-1] + 1e-300]:
            if t <= times[0] or t >= times[-1]:
                expected = table.values[0 if t <= times[0] else -1]
            else:
                i = int(np.searchsorted(times, t, side="right")) - 1
                w = (t - times[i]) / (times[i + 1] - times[i])
                expected = (1.0 - w) * table.values[i] + w * table.values[i + 1]
            assert np.array_equal(table.at(t), expected)


class TestElementSet:
    def test_max_eigenvalue_of_rod_pair(self):
        """2-DoF spring element: eigenvalues of inv(Me) Ke are {0, 4 K / M}
        with M the total element mass (here 2, half per node)."""
        ke = 10.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        eigs = ElementSet([[0, 1]], [ke], [[1.0, 1.0]]).max_eigenvalues()
        assert eigs.shape == (1,)
        assert eigs[0] == pytest.approx(20.0, rel=1e-12)

    def test_max_eigenvalues_match_per_element_oracle(self):
        for model in _oracle_models():
            es = model.elements
            expected = [max_gen_eigenvalue(es.stiffness[e], es.mass[e])
                        for e in range(len(es))]
            assert np.array_equal(es.max_eigenvalues(), expected)

    def test_power_of_four_scaling_keeps_every_bit(self):
        """The scaled form equals the unscaled ``Ke * (s s)`` of before, bit for
        bit, over blocks from 1e-60 to 1e60."""
        rng = np.random.default_rng(88)
        for _ in range(100):
            e, n = int(rng.integers(1, 20)), int(rng.integers(1, 5))
            a = rng.standard_normal((e, n, n + 1)) * 10.0 ** rng.uniform(-30, 30, (e, 1, 1))
            ke = a @ a.transpose(0, 2, 1)
            ke = 0.5 * (ke + ke.transpose(0, 2, 1))
            me = rng.uniform(0.1, 10.0, (e, n)) * 10.0 ** rng.uniform(-5, 5, (e, 1))
            es = ElementSet(np.tile(np.arange(n), (e, 1)), ke, me)
            s = 1.0 / np.sqrt(es.mass)
            unscaled = np.linalg.eigvalsh(es.stiffness * (s[:, :, None] * s[:, None, :]))[:, -1]
            assert np.array_equal(es.max_eigenvalues(), unscaled)

    def test_eigenvalue_beyond_the_double_range_is_a_range_error(self):
        es = build_string_model(6, 1.0, 1e306, 1.0, 99.0).elements  # boundary: ~2e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalRangeError, match="overflow double precision"):
                es.max_eigenvalues()

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(ValueError):
            ElementSet([[0, 1]], [[[0.0, 1.0], [1.0, 0.0]]], [np.ones(2)])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ElementSet([[0, 1]], [np.eye(2)], [[1.0, 0.0]])

    @pytest.mark.parametrize("field, value, message", [
        ("dofs", [[0, 1], [2, 2], [3, 3]], "element 1: element DoFs must be distinct"),
        ("dofs", [[0, 1], [1, 2], [-1, 3]], "element 2: element DoFs must be nonnegative"),
        ("dofs", [[0.0, 1.0]] * 3, "need \\(E, n\\) integer DoFs"),
        ("stiffness", [np.eye(2), [[1.0, 0.5], [0.0, 1.0]], np.eye(2)],
         "element 1: element stiffness is not exactly symmetric"),
        ("stiffness", [np.eye(2), np.eye(2), [[1.0, 2.0], [2.0, 1.0]]],
         "element 2: element stiffness is not positive semi-definite"),
        ("stiffness", [np.eye(2), np.full((2, 2), np.nan), np.eye(2)],
         "element 1: element stiffness contains non-finite"),
        ("mass", [[1.0, 1.0], [1.0, -2.0], [0.0, 1.0]],
         "element 1: element mass must be finite and strictly positive"),
        ("mass", [[1.0, 1.0], [1.0, 1.0]], "\\(E, n\\) mass"),
        ("length", [1.0, 0.0, 1.0], "element 1: element length must be positive"),
        ("wave_speed", [1.0, 1.0, np.inf], "element 2: element wave_speed must be"),
        ("wave_speed", [1.0, 1.0], "wave_speed shaped \\(2,\\) for 3 elements"),
    ])
    def test_validation_names_first_offending_element(self, field, value, message):
        fields = {"dofs": [[0, 1], [1, 2], [2, 3]], "stiffness": [np.eye(2)] * 3,
                  "mass": np.ones((3, 2))}
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            ElementSet(**fields)

    def test_rejects_empty_and_dofless_sets(self):
        with pytest.raises(ValueError, match="E, n >= 1"):
            ElementSet(np.zeros((0, 2), dtype=int), np.zeros((0, 2, 2)), np.zeros((0, 2)))
        with pytest.raises(ValueError, match="E, n >= 1"):
            ElementSet(np.zeros((2, 0), dtype=int), np.zeros((2, 0, 0)), np.zeros((2, 0)))


class TestAssemble:
    def test_two_element_chain_by_hand(self):
        k1 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        k2 = 3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        blocks = ElementSet([[0, 1], [1, 2]], [k1, k2], [[1.0, 1.0], [2.0, 2.0]])
        mass, stiffness = assemble(blocks, 3)
        stiffness = stiffness.toarray()
        assert np.array_equal(mass, [1.0, 3.0, 2.0])
        expected = np.array([
            [2.0, -2.0, 0.0],
            [-2.0, 5.0, -3.0],
            [0.0, -3.0, 3.0],
        ])
        assert np.array_equal(stiffness, expected)

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        ke, me = [], []
        for e in range(6):
            ke.append(float(rng.uniform(0.5, 2.0)) * np.array([[1.0, -1.0], [-1.0, 1.0]]))
            me.append(rng.uniform(0.5, 2.0, 2))
        blocks = ElementSet([[e, e + 1] for e in range(6)], ke, me)
        stiffness = assemble(blocks, 7)[1].toarray()
        assert np.array_equal(stiffness, stiffness.T)

    def test_weights_scale_elements_and_skip_zeros(self):
        k1 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        blocks = ElementSet([[0, 1], [1, 2]], [k1, 3.0 * k1], [[1.0, 1.0], [2.0, 2.0]])
        mass, stiffness = assemble(blocks, 3, weights=[0.5, 0.0])
        stiffness = stiffness.toarray()
        assert np.array_equal(mass, [0.5, 0.5, 0.0])
        assert np.array_equal(stiffness[:2, :2], 0.5 * k1)
        assert not stiffness[2].any()
        with pytest.raises(ValueError, match="3 weights for 2 elements"):
            assemble(blocks, 3, weights=[1.0, 1.0, 1.0])

    def test_matches_per_element_loop_exactly(self):
        rng = np.random.default_rng(31)
        for model in _oracle_models():
            es, m = model.elements, model.m
            for got, expected in zip(_dense(assemble(es, m)), _loop_assemble(es, m)):
                assert np.array_equal(got, expected)
            xi = rng.uniform(0.0, 2.0, len(es))
            xi[rng.random(len(es)) < 0.4] = 0.0
            xi[0] = 0.0
            for got, expected in zip(_dense(assemble(es, m, weights=xi)),
                                     _loop_assemble(es, m, weights=xi)):
                assert np.array_equal(got, expected)

    def test_rejects_dof_outside_model(self):
        blocks = ElementSet([[0, 1], [1, 2], [3, 1]], [np.eye(2)] * 3, np.ones((3, 2)))
        with pytest.raises(ValueError, match="element 2 references DoF 3"):
            assemble(blocks, 3)


class TestStringModel:
    def test_three_node_operator_by_hand(self):
        """No boundary springs, K=1, M=2: inv(M) K has the textbook pattern."""
        model = build_string_model(3, element_mass=2.0, element_stiffness=1.0,
                                   length=1.0, boundary_factor=0.0)
        operator = model.stiffness / model.mass[:, None]
        expected = np.array([
            [1.0, -1.0, 0.0],
            [-0.5, 1.0, -0.5],
            [0.0, -1.0, 1.0],
        ])
        assert np.abs(operator - expected).max() < 1e-15
        assert np.array_equal(model.mass, [1.0, 2.0, 1.0])

    def test_boundary_springs_fold_into_end_elements(self):
        model = build_string_model(5, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=99.0)
        assert model.stiffness[0, 0] == pytest.approx(1000.0)
        assert model.stiffness[4, 4] == pytest.approx(1000.0)
        assert model.stiffness[0, 1] == pytest.approx(-10.0)
        # the element decomposition must scatter back to the stored matrices
        mass, stiffness = assemble(model.elements, model.m)
        assert np.array_equal(mass, model.mass)
        assert np.array_equal(stiffness.toarray(), model.stiffness)

    def test_trace_identity(self):
        """trace(inv(M) K) = (K/M) * (4 * boundary_factor + 2 m - 2 + 4)."""
        model = build_string_model(5, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, boundary_factor=99.0)
        trace = float(np.trace(model.stiffness / model.mass[:, None]))
        assert trace == pytest.approx(4060.0, rel=1e-14)

    def test_wave_speed_recorded(self):
        """Total length splits evenly; wave speed scales with element length."""
        model = build_string_model(4, element_mass=2.0, element_stiffness=8.0,
                                   length=0.5, boundary_factor=0.0)
        el_len = 0.5 / 3.0
        assert model.elements.length == pytest.approx([el_len] * 3, rel=1e-15)
        assert model.elements.wave_speed == pytest.approx([el_len * 2.0] * 3, rel=1e-15)

    @pytest.mark.parametrize("mass,stiffness,length,message", [
        (1e-300, 1e9, 1.0, r"eigenvalues of inv\(M\) K overflow double precision"),
        (1.0, 1e300, 1e300, r"element wave speed .* overflows double precision"),
    ])
    def test_overflowing_wave_speed_is_a_range_error(self, mass, stiffness, length, message):
        with pytest.raises(NumericalRangeError, match=message):
            build_string_model(100, mass, stiffness, length, 99.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_string_model(1, element_mass=1.0, element_stiffness=1.0, length=1.0)
        with pytest.raises(ValueError):
            build_string_model(3, element_mass=0.0, element_stiffness=1.0, length=1.0)
        with pytest.raises(ValueError):
            build_string_model(3, element_mass=1.0, element_stiffness=-1.0, length=1.0)
        with pytest.raises(ValueError):
            build_string_model(3, element_mass=1.0, element_stiffness=1.0, length=1.0,
                               boundary_factor=-0.5)


    @staticmethod
    def _segment_rows(table, t):
        """The loads at the times ``t`` from :meth:`ForceTable.segments`' segments and
        weights, on the rows with the first and the last doubled; each time's own
        float search gives the same segment and weight bit for bit."""
        s, w = table.segments(t)
        for one, segment, weight in zip(t.tolist(), s.tolist(), w.tolist()):
            assert repr(table.segments(one)) == repr((segment, weight))
        rows, w = np.concatenate((table.values[:1], table.values, table.values[-1:])), w[:, None]
        return (1.0 - w) * rows[s] + w * rows[s + 1]

    @pytest.mark.parametrize("stations", [1, 2, 7])
    def test_segments_give_the_scalar_lookup_bitwise(self, stations):
        rng = np.random.default_rng(23 + stations)
        times = np.cumsum(rng.uniform(0.01, 1.0, stations))
        table = ForceTable(times, rng.standard_normal((stations, 5)))
        between = rng.uniform(times[0], times[-1], 50) if stations > 1 else []
        probes = np.concatenate([times, between, times[0] - rng.uniform(0.0, 2.0, 5),
                                 times[-1] + rng.uniform(0.0, 2.0, 5),
                                 np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
                                 [np.nan]])
        rows = self._segment_rows(table, probes)
        assert rows.shape == (probes.size, 5)
        for t, row in zip(probes.tolist(), rows):
            assert table.at(t).tobytes() == row.tobytes()

        # signed zeros, also where the formula would give +0.0 at an end
        # station, and magnitudes from 1e-300 to 1e300
        values = rng.standard_normal((stations, 5)) * 10.0 ** rng.integers(-300, 301, (stations, 5))
        values[:, 0], values[:, 1], values[::2, 2] = -0.0, 0.0, -0.0
        ends = times[[0, -1]]
        cases = [
            np.sort(between),  # a block wholly inside the table
            ends,
            np.nextafter(ends, ends[::-1]),  # one ulp inside
            rng.permutation(probes),
            probes[3:4],
            np.array([-1e300, 1e300, 1e300, -1e300]),
        ]
        for lookup in (table, ForceTable(times, values)):
            for case in cases:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = self._segment_rows(lookup, case)
                assert rows.shape == (case.size, 5)
                for t, row in zip(case.tolist(), rows):
                    assert lookup.at(t).tobytes() == row.tobytes()

    @pytest.mark.parametrize("stations", [1, 2, 7])
    def test_segments_clamp_to_one_end_row_with_a_zero_weight(self, stations):
        times = np.cumsum(np.random.default_rng(stations).uniform(0.01, 1.0, stations))
        table = ForceTable(times, np.zeros((stations, 1)))
        ends = np.concatenate((times[0] - [1e300, 1.0, 0.0], times[-1] + [0.0, 1.0, 1e300]))
        s, w = table.segments(ends)
        assert s.tolist() == np.where(ends <= times[0], 0, stations).tolist()
        assert w.tolist() == [0.0] * 6 and not np.any(np.signbit(w))
        inside = times[:-1] + 0.25 * np.diff(times)
        s, w = table.segments(inside)
        assert s.tolist() == list(range(1, stations))
        assert np.allclose(w, 0.25, rtol=1e-12, atol=0.0)
        s, w = table.segments(np.nan)
        assert np.isnan(w)


class TestFullOrderModel:
    def test_damping_matrix_structure(self):
        model = build_string_model(4, element_mass=1.0, element_stiffness=2.0,
                                   length=1.0, boundary_factor=0.0, a1=0.3, a2=0.05)
        expected = 0.05 * model.stiffness + 0.3 * np.diag(model.mass)
        assert np.abs(model.damping - expected).max() < 1e-15

    def test_rejects_inconsistent_element_scatter(self):
        model = build_string_model(3, element_mass=1.0, element_stiffness=1.0,
                                   length=1.0, boundary_factor=0.0)
        for form in STIFFNESS_FORMS:
            with pytest.raises(ValueError):
                FullOrderModel(m=3, mass=model.mass + 0.5, stiffness=form(model.stiffness),
                               elements=model.elements)

    def test_rejects_inconsistent_element_stiffness(self):
        # an element bound is conservative only for the stiffness the elements
        # sum to; here the stored stiffness is four times that sum
        model = build_string_model(3, element_mass=1.0, element_stiffness=1.0,
                                   length=1.0, boundary_factor=0.0)
        spread = model.stiffness.copy()  # an entry off the elements' pattern
        spread[0, 2] = spread[2, 0] = -1e-3
        for form in STIFFNESS_FORMS:
            for stiffness in (4.0 * model.stiffness, spread):
                with pytest.raises(ValueError, match="stored stiffness differs"):
                    FullOrderModel(m=3, mass=model.mass, stiffness=form(stiffness),
                                   elements=model.elements)
            nudged = model.stiffness * (1.0 + 1e-14)  # within the 1e-12 tolerance
            FullOrderModel(m=3, mass=model.mass, stiffness=form(nudged), elements=model.elements)

    @pytest.mark.parametrize("form", STIFFNESS_FORMS)
    @pytest.mark.parametrize("entry,message", [
        ((0, 1, 0.5), "stiffness is not exactly symmetric; run symmetrize"),
        ((1, 1, np.nan), "stiffness contains non-finite entries"),
        ((0, 2, np.inf), "stiffness contains non-finite entries"),
    ])
    def test_rejects_asymmetric_or_non_finite_stiffness(self, form, entry, message):
        stiffness = 2.0 * np.eye(3)
        stiffness[entry[:2]] = entry[2]
        with pytest.raises(ValueError, match=message):
            FullOrderModel(m=3, mass=np.ones(3), stiffness=form(stiffness))

    def test_rejects_non_square_or_mismatched_stiffness(self):
        with pytest.raises(ValueError, match=r"stiffness must be square, got shape \(2, 3\)"):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=np.ones((2, 3)))
        for form in STIFFNESS_FORMS:
            with pytest.raises(ValueError, match=r"shapes \(3,\)/\(2, 2\) do not match order 3"):
                FullOrderModel(m=3, mass=np.ones(3), stiffness=form(np.eye(2)))

    def test_rejects_indefinite_stiffness(self):
        k = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {3, -1}
        for form in STIFFNESS_FORMS:
            with pytest.raises(ValueError):
                FullOrderModel(m=2, mass=np.ones(2), stiffness=form(k))

    @pytest.mark.parametrize("form", STIFFNESS_FORMS)
    @pytest.mark.parametrize("shift", [0.0, 1e-12, 1e-9])
    def test_tridiagonal_psd_check_matches_the_dense_one(self, form, shift, monkeypatch):
        # an element-free free-free chain of order 600, shifted by -shift * its top
        # eigenvalue: the Sturm count certifies the first two (-1e-12 is inside the
        # 1e-10 tolerance) without the dense eigensolve, and the third fails as it did
        m = _SPARSE_MIN_M + 88
        k = np.diag(np.r_[1.0, np.full(m - 2, 2.0), 1.0]) - np.eye(m, k=1) - np.eye(m, k=-1)
        k -= shift * 4.0 * np.eye(m)
        stiffness = form(k)
        if shift < 1e-10:
            monkeypatch.setattr(np.linalg, "eigvalsh", None)  # any dense solve fails
            model = FullOrderModel(m=m, mass=np.ones(m), stiffness=stiffness)
            assert "_dense_stiffness" not in model.__dict__
        else:
            with pytest.raises(ValueError, match="stiffness is not positive semi-definite"):
                FullOrderModel(m=m, mass=np.ones(m), stiffness=stiffness)

    @pytest.mark.parametrize("change,message", [
        (lambda op: op.indptr.__setitem__(1, 1), "indptr does not match its rows"),
        (lambda op: (op.indices.__setitem__(1, 0), op.stiffness.__setitem__(1, 0.0)),
         "each once, in row-major order"),
        (lambda op: op.indices.__setitem__(slice(2, 4), [1, 0]), "each once, in row-major order"),
        (lambda op: op.indices.__setitem__(0, 3), "inside order 3"),
    ])
    def test_rejects_a_malformed_row_sparse_stiffness(self, change, message):
        # entries (0, 0) (0, 1) | (1, 0) (1, 1) (1, 2) | (2, 1) (2, 2); the changes are a
        # wrong indptr, a repeated (0, 0), entries out of order, a column outside the order
        k = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        op = RowSparse.from_dense(k)
        change(op)
        with pytest.raises(ValueError, match=message):
            FullOrderModel(m=3, mass=np.ones(3), stiffness=op)

    def test_rejects_a_row_sparse_stiffness_without_its_diagonal(self):
        k = np.array([[2.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        op = RowSparse.from_dense(k)
        keep = np.flatnonzero((op.row != 1) | (op.indices != 1))
        row, col = op.row[keep], op.indices[keep]
        gapped = RowSparse(np.searchsorted(row, np.arange(4)), row, col, op.stiffness[keep])
        with pytest.raises(ValueError, match="must store every diagonal entry"):
            FullOrderModel(m=3, mass=np.ones(3), stiffness=gapped)
        with pytest.raises(ValueError, match="integer indptr, row and indices"):
            FullOrderModel(m=3, mass=np.ones(3),
                           stiffness=RowSparse(op.indptr, op.row * 1.0, op.indices, op.stiffness))

    def test_small_reductions_reuse_the_kept_dense_stiffness(self, monkeypatch):
        model = build_string_model(40, 1.0, 10.0, 1.0, 99.0, a2=1e-3)
        dense = model.stiffness
        monkeypatch.setattr(RowSparse, "toarray", None)  # no second dense K
        basis = modal_basis(model, range(4))
        galerkin_reduce(model, basis)
        verify_rom_dt_dominance(model, basis)
        assert model.stiffness is dense

    def test_rejects_negative_damping_coefficients(self):
        with pytest.raises(ValueError):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2), a1=-0.1)

    @pytest.mark.parametrize("name", ["a1", "a2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_damping_coefficients(self, name, value):
        with pytest.raises(ValueError, match="Rayleigh coefficients must be"):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2),
                           **{name: value})

    def test_fields_are_frozen(self):
        # a reassigned a2 would leave the cached damping and operator stale
        model = build_string_model(6, element_mass=1.0, element_stiffness=10.0,
                                   length=1.0, a2=0.1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.a2 = 0.5
        assert model.operator.damping[0] == 0.1 * model.stiffness[0, 0]

    def test_force_at_combines_terms(self):
        model = FullOrderModel(
            m=2, mass=np.array([2.0, 1.0]), stiffness=np.eye(2), a1=0.5,
            external_force=ForceTable(np.array([0.0, 1.0]),
                                      np.array([[1.0, 0.0], [1.0, 0.0]])),
        )
        x = np.array([1.0, 2.0])
        v = np.array([0.5, -0.5])
        f = model.force_at(x, v, 0.25)
        expected = -model.damping @ v - model.stiffness @ x + np.array([1.0, 0.0])
        assert np.allclose(f, expected, rtol=0, atol=1e-15)


class TestModelFile:
    def _model(self):
        return build_string_model(
            4, element_mass=1.5, element_stiffness=3.0, length=0.5,
            boundary_factor=9.0, a1=0.1, a2=0.02,
        )

    def test_round_trip(self, tmp_path):
        model = self._model()
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        assert back.m == model.m
        assert np.array_equal(back.mass, model.mass)
        assert np.array_equal(back.stiffness, model.stiffness)
        assert back.a1 == model.a1 and back.a2 == model.a2
        ours, theirs = model.elements, back.elements
        for name in ("dofs", "stiffness", "mass", "length", "wave_speed"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name))

    def test_force_table_round_trip(self, tmp_path):
        table = ForceTable(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [0.0, 2.0]]))
        model = FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2),
                               external_force=table)
        path = tmp_path / "forced.json"
        write_model(model, path)
        back = read_model(path)
        assert np.array_equal(back.external_force.times, table.times)
        assert np.array_equal(back.external_force.values, table.values)

    def test_write_is_deterministic(self, tmp_path):
        model = self._model()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_model(model, a)
        write_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_key_rejected(self):
        doc = model_to_dict(self._model())
        doc["comment"] = "nope"
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_missing_key_rejected(self):
        doc = model_to_dict(self._model())
        del doc["mass"]
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_upper_triangle_enforced(self):
        doc = model_to_dict(self._model())
        i, j, v = doc["stiffness_coo"][1]
        assert i <= j
        doc["stiffness_coo"][1] = [j + 1, i, v] if i == j else [j, i, v]
        with pytest.raises(FormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_coo_value_is_format_error(self, value):
        doc = model_to_dict(self._model())
        doc["stiffness_coo"][1][2] = value
        with pytest.raises(FormatError, match="stiffness contains non-finite entries"):
            model_from_dict(doc)

    def test_duplicate_entry_rejected(self):
        doc = model_to_dict(self._model())
        doc["stiffness_coo"].append(list(doc["stiffness_coo"][0]))
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_boolean_is_not_a_number(self):
        doc = model_to_dict(self._model())
        doc["a1"] = True
        with pytest.raises(FormatError):
            model_from_dict(doc)

    def test_constructor_errors_become_format_errors(self):
        doc = model_to_dict(self._model())
        doc["mass"][0] = -1.0
        with pytest.raises(FormatError):
            model_from_dict(doc)

    @pytest.mark.parametrize("name", ["a1", "a2"])
    def test_non_finite_damping_coefficient_is_format_error(self, name, tmp_path):
        doc = model_to_dict(self._model())
        doc[name] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes the bare token NaN
        with pytest.raises(FormatError, match="Rayleigh coefficients"):
            read_model(path)

    def test_stiffness_coo_matches_upper_triangle_loop(self):
        for model in [self._model()] + _oracle_models():
            k = model.stiffness
            expected = [[i, j, float(k[i, j])] for i in range(model.m)
                        for j in range(i, model.m) if k[i, j] != 0.0]
            coo = model_to_dict(model)["stiffness_coo"]
            assert coo == expected
            assert all(type(i) is int and type(j) is int and type(v) is float
                       for i, j, v in coo)

    def test_model_without_elements_round_trips(self, tmp_path):
        model = FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2))
        assert model_to_dict(model)["elements"] == []
        path = tmp_path / "bare.json"
        write_model(model, path)
        assert read_model(path).elements is None

    def test_mixed_element_sizes_rejected(self):
        doc = model_to_dict(self._model())
        doc["elements"][2].update(dofs=[1, 2, 3], Ke=np.eye(3).ravel().tolist(),
                                  Me=[1.0, 1.0, 1.0])
        with pytest.raises(FormatError, match="element 2 dofs has 3 entries, expected 2"):
            model_from_dict(doc)

    @pytest.mark.parametrize("dof", [4, -1, 10**20, -10**20])
    def test_element_dof_outside_model_rejected(self, dof):
        doc = model_to_dict(self._model())
        doc["elements"][1]["dofs"] = [1, dof]
        with pytest.raises(FormatError, match="element 1 has DoFs .* outside a model "
                                              "of order 4"):
            model_from_dict(doc)

    @pytest.mark.parametrize("name", ["length", "wave_speed"])
    @pytest.mark.parametrize("pos", [0, 2])
    def test_annotation_on_some_elements_rejected(self, name, pos):
        doc = model_to_dict(self._model())
        del doc["elements"][pos][name]
        pos = max(pos, 1)
        with pytest.raises(FormatError, match=f"element {pos} has keys .* give length "
                                              f"and wave_speed on all elements or on none"):
            model_from_dict(doc)

    def test_element_errors_name_the_element(self):
        doc = model_to_dict(self._model())
        doc["elements"][2]["Ke"] = [1.0, 2.0, 2.0, 1.0]
        with pytest.raises(FormatError, match="element 2: element stiffness is not "
                                              "positive semi-definite"):
            model_from_dict(doc)
        doc["elements"][2]["Ke"] = [1.0, 2.0, 2.0]
        with pytest.raises(FormatError, match="element 2 Ke has 3 entries"):
            model_from_dict(doc)

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[not json")
        with pytest.raises(FormatError):
            read_model(path)


def _session_doc():
    """Plain-JSON form of a 5-node string (COO entry 4 is (2, 2)) with a load table."""
    model = build_string_model(5, 1.0, 10.0, 1.0, 99.0, a1=0.1, a2=1e-3)
    model = dataclasses.replace(model, external_force=ForceTable([0.0, 1.0], np.ones((2, 5))))
    return json.loads(json.dumps(model_to_dict(model)))


def _set(*path):
    """A mutation that sets ``doc[path[0]]...[path[-2]] = path[-1]``."""
    def mutate(doc):
        for key in path[:-2]:
            doc = doc[key]
        doc[path[-2]] = path[-1]
    return mutate


_MALFORMED = [  # (mutation, the reader's message), in the order of its checks
    (_set("m", "5"), "m must be an integer, got '5'"),
    (_set("m", 0), "m must be at least 1, got 0"),
    (_set("mass", 3.0), "mass must be a list, got 3.0"),
    (lambda d: d["mass"].pop(), "mass has 4 entries, expected 5"),
    (_set("mass", 3, True), "mass entry must be a number, got True"),
    (_set("mass", 0, "1"), "mass entry must be a number, got '1'"),
    (_set("stiffness_coo", {}), "stiffness_coo must be a list, got {}"),
    (lambda d: d["stiffness_coo"][4].pop(),
     "stiffness_coo entries must be [i, j, value], got [2, 2]"),
    (_set("stiffness_coo", 0, 3), "stiffness_coo entries must be [i, j, value], got 3"),
    (_set("stiffness_coo", 4, 0, 1.5), "stiffness_coo row must be an integer, got 1.5"),
    (_set("stiffness_coo", 4, 1, True), "stiffness_coo column must be an integer, got True"),
    (_set("stiffness_coo", -1, 2, "1"), "stiffness_coo value must be a number, got '1'"),
    (_set("stiffness_coo", 4, 0, -1),
     "stiffness_coo index (-1, 2) out of range (need 0 <= i <= j < 5)"),
    (_set("stiffness_coo", 4, 0, 10**30),
     f"stiffness_coo index ({10**30}, 2) out of range (need 0 <= i <= j < 5)"),
    (lambda d: d["stiffness_coo"].append([2, 2, 1.0]),
     "stiffness_coo has a duplicate entry for (2, 2)"),
    (lambda d: (d["stiffness_coo"].insert(1, [0, 0, 1.0]), d["stiffness_coo"][-1].__setitem__(1, 9)),
     "stiffness_coo has a duplicate entry for (0, 0)"),
    (lambda d: (d["stiffness_coo"][0].__setitem__(1, 99), d["stiffness_coo"].append([1, 1, 1.0])),
     "stiffness_coo index (0, 99) out of range (need 0 <= i <= j < 5)"),
    (lambda d: (d["stiffness_coo"][1].__setitem__(0, -1), d["stiffness_coo"][-1].__setitem__(2, "x")),
     "stiffness_coo index (-1, 1) out of range (need 0 <= i <= j < 5)"),
    (_set("elements", {}), "elements must be a list, got {}"),
    (_set("elements", 2, [1]), "element 2 must be a JSON object"),
    (_set("elements", 2, "zz", 1), "element 2 has unknown keys: ['zz']"),
    (lambda d: d["elements"][2].pop("Ke"), "element 2 is missing keys: ['Ke']"),
    (lambda d: d["elements"][2].pop("length"),
     "element 2 has keys ['Ke', 'Me', 'dofs', 'wave_speed'] but element 0 ['Ke', 'Me', 'dofs', "
     "'length', 'wave_speed']; give length and wave_speed on all elements or on none"),
    (_set("elements", 2, "dofs", 1), "element 2 dofs must be a list, got 1"),
    (lambda d: d["elements"][2]["dofs"].pop(), "element 2 dofs has 1 entries, expected 2"),
    (_set("elements", 2, "dofs", 1, 1.5), "element 2 dofs entry must be an integer, got 1.5"),
    (_set("elements", 2, "dofs", 1, 5), "element 2 has DoFs [2, 5] outside a model of order 5"),
    (lambda d: d["elements"][2]["Ke"].append(1), "element 2 Ke has 5 entries, expected 4"),
    (_set("elements", 2, "Ke", 1, True), "element 2 Ke entry must be a number, got True"),
    (_set("elements", 2, "Me", 1, "1"), "element 2 Me entry must be a number, got '1'"),
    (_set("elements", 2, "length", None), "element 2 length must be a number, got None"),
    (_set("elements", 2, "wave_speed", -1), "element 2: element wave_speed must be positive"),
    (_set("elements", 2, "dofs", [1, 1]), "element 2: element DoFs must be distinct"),
    (lambda d: (d["elements"][1]["dofs"].__setitem__(0, 7), d["elements"][3]["Me"].__setitem__(0, "x")),
     "element 1 has DoFs [7, 2] outside a model of order 5"),
    (lambda d: (d["elements"][3]["dofs"].__setitem__(0, 7), d["elements"][1]["Me"].__setitem__(0, "x")),
     "element 1 Me entry must be a number, got 'x'"),
    (lambda d: [e.update(dofs=[], Ke=[], Me=[]) for e in d["elements"]],
     "elements need (E, n) integer DoFs, (E, n, n) stiffness, (E, n) mass, E, n >= 1; "
     "got int64 (4, 0), (4, 0, 0), (4, 0)"),
    (_set("external_force", []), "external_force must be a JSON object"),
    (_set("external_force", "times", 1, "x"), "force times entry must be a number, got 'x'"),
    (_set("external_force", "values", 1, 2, None), "force values row entry must be a number, got None"),
    (_set("a1", "0"), "a1 must be a number, got '0'"),
]


class TestModelReader:
    """One bulk type pass per list; a failing pass hands over to the per-entry
    checks, so each message names the first offending entry as before."""

    @pytest.mark.parametrize("mutate,message", _MALFORMED)
    def test_malformed_document_message(self, mutate, message):
        doc = _session_doc()
        mutate(doc)
        with pytest.raises(FormatError) as err:
            model_from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("model", [
        build_string_model(300, 1.0, 10.0, 1.0, 99.0, a2=1e-4),
        _random_chain(np.random.default_rng(5), 40, grounded=False, a1=0.3, a2=0.01),
    ])
    def test_valid_file_reads_bit_identically(self, model, tmp_path):
        path = tmp_path / "model.json"
        write_model(model, path)
        back = read_model(path)
        assert np.array_equal(back.mass, model.mass)
        assert np.array_equal(back.stiffness, model.stiffness)
        assert (back.a1, back.a2) == (model.a1, model.a2)
        for name in ("dofs", "stiffness", "mass", "length", "wave_speed"):
            ours, theirs = getattr(model.elements, name), getattr(back.elements, name)
            assert (ours is None and theirs is None) or np.array_equal(ours, theirs)
            assert theirs is None or theirs.dtype == ours.dtype

    def test_integers_and_number_subclasses_read_as_floats(self):
        doc = _session_doc()
        expected = model_from_dict(doc)
        doc["mass"] = [np.float64(v) for v in doc["mass"]]  # takes the per-entry path
        doc["stiffness_coo"] = [tuple(e) for e in doc["stiffness_coo"]]
        for e in doc["elements"]:
            e["Me"] = [int(v) if v == int(v) else v for v in e["Me"]]
            e["Ke"] = [int(v) for v in e["Ke"]]
        doc["external_force"]["times"] = [0, 1]
        back = model_from_dict(doc)
        for name in ("mass", "stiffness"):
            assert getattr(back, name).dtype == float
            assert np.array_equal(getattr(back, name), getattr(expected, name))
        assert np.array_equal(back.elements.stiffness, expected.elements.stiffness)
        assert np.array_equal(back.external_force.times, expected.external_force.times)
