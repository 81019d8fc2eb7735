"""Tests for model construction, element assembly, and the model file format."""

import json

import numpy as np
import pytest

from romstab import (
    ElementBlock,
    ForceTable,
    FormatError,
    FullOrderModel,
    assemble,
    build_string_model,
    read_model,
    write_model,
)
from romstab.models import model_from_dict, model_to_dict


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


class TestElementBlock:
    def test_max_eigenvalue_of_rod_pair(self):
        """2-DoF spring element: eigenvalues of inv(Me) Ke are {0, 4 K / M}
        with M the total element mass (here 2, half per node)."""
        ke = 10.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        me = np.array([1.0, 1.0])
        block = ElementBlock((0, 1), ke, me)
        assert block.max_eigenvalue() == pytest.approx(20.0, rel=1e-12)

    def test_rejects_indefinite_stiffness(self):
        with pytest.raises(ValueError):
            ElementBlock((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones(2))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ElementBlock((0, 1), np.eye(2), np.array([1.0, 0.0]))


class TestAssemble:
    def test_two_element_chain_by_hand(self):
        k1 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        k2 = 3.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        blocks = [
            ElementBlock((0, 1), k1, np.array([1.0, 1.0])),
            ElementBlock((1, 2), k2, np.array([2.0, 2.0])),
        ]
        mass, stiffness = assemble(blocks, 3)
        assert np.array_equal(mass, [1.0, 3.0, 2.0])
        expected = np.array([
            [2.0, -2.0, 0.0],
            [-2.0, 5.0, -3.0],
            [0.0, -3.0, 3.0],
        ])
        assert np.array_equal(stiffness, expected)

    def test_result_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        blocks = []
        for e in range(6):
            ke = float(rng.uniform(0.5, 2.0)) * np.array([[1.0, -1.0], [-1.0, 1.0]])
            blocks.append(ElementBlock((e, e + 1), ke, rng.uniform(0.5, 2.0, 2)))
        _, stiffness = assemble(blocks, 7)
        assert np.array_equal(stiffness, stiffness.T)

    def test_weights_scale_elements_and_skip_zeros(self):
        k1 = 2.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
        blocks = [
            ElementBlock((0, 1), k1, np.array([1.0, 1.0])),
            ElementBlock((1, 2), 3.0 * k1, np.array([2.0, 2.0])),
        ]
        mass, stiffness = assemble(blocks, 3, weights=[0.5, 0.0])
        assert np.array_equal(mass, [0.5, 0.5, 0.0])
        assert np.array_equal(stiffness[:2, :2], 0.5 * k1)
        assert not stiffness[2].any()
        with pytest.raises(ValueError, match="3 weights for 2 elements"):
            assemble(blocks, 3, weights=[1.0, 1.0, 1.0])


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
        assert np.array_equal(stiffness, model.stiffness)

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
        for block in model.elements:
            assert block.length == pytest.approx(el_len, rel=1e-15)
            assert block.wave_speed == pytest.approx(el_len * 2.0, rel=1e-15)

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


class TestFullOrderModel:
    def test_damping_matrix_structure(self):
        model = build_string_model(4, element_mass=1.0, element_stiffness=2.0,
                                   length=1.0, boundary_factor=0.0, a1=0.3, a2=0.05)
        expected = 0.05 * model.stiffness + 0.3 * np.diag(model.mass)
        assert np.abs(model.damping - expected).max() < 1e-15

    def test_rejects_inconsistent_element_scatter(self):
        model = build_string_model(3, element_mass=1.0, element_stiffness=1.0,
                                   length=1.0, boundary_factor=0.0)
        with pytest.raises(ValueError):
            FullOrderModel(m=3, mass=model.mass + 0.5, stiffness=model.stiffness,
                           elements=model.elements)

    def test_rejects_inconsistent_element_stiffness(self):
        # an element bound is conservative only for the stiffness the elements
        # sum to; here the stored stiffness is four times that sum
        model = build_string_model(3, element_mass=1.0, element_stiffness=1.0,
                                   length=1.0, boundary_factor=0.0)
        with pytest.raises(ValueError, match="stored stiffness differs"):
            FullOrderModel(m=3, mass=model.mass, stiffness=4.0 * model.stiffness,
                           elements=model.elements)
        nudged = model.stiffness * (1.0 + 1e-14)  # within the 1e-12 tolerance
        FullOrderModel(m=3, mass=model.mass, stiffness=nudged, elements=model.elements)

    def test_rejects_indefinite_stiffness(self):
        k = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues {3, -1}
        with pytest.raises(ValueError):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=k)

    def test_rejects_negative_damping_coefficients(self):
        with pytest.raises(ValueError):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2), a1=-0.1)

    @pytest.mark.parametrize("name", ["a1", "a2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_damping_coefficients(self, name, value):
        with pytest.raises(ValueError, match="Rayleigh coefficients must be"):
            FullOrderModel(m=2, mass=np.ones(2), stiffness=np.eye(2),
                           **{name: value})

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
        assert len(back.elements) == len(model.elements)
        for ours, theirs in zip(model.elements, back.elements):
            assert ours.dofs == theirs.dofs
            assert np.array_equal(ours.stiffness, theirs.stiffness)
            assert np.array_equal(ours.mass, theirs.mass)
            assert ours.length == theirs.length

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

    def test_non_json_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[not json")
        with pytest.raises(FormatError):
            read_model(path)
