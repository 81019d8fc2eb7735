"""End-to-end command-line tests, run in process through ``cli.run``."""

import argparse
import json
import warnings

import numpy as np
import pytest

from romstab import build_string_model, read_basis, read_model, read_sample_set, write_model
from romstab import cli
from romstab.cli import _resolve, build_parser, run
from romstab.verify import PROPERTY_NAMES, frozen_deim_instance


def _out(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


@pytest.fixture()
def model5(tmp_path):
    path = tmp_path / "m5.json"
    assert run(["build", "string", "--m", "5", "--M", "1", "--K", "10",
                "-o", str(path)]) == 0
    return str(path)


@pytest.fixture()
def model20(tmp_path):
    path = tmp_path / "m20.json"
    assert run(["build", "string", "--m", "20", "--M", "1", "--K", "10",
                "-o", str(path)]) == 0
    return str(path)


class TestBuild:
    def test_reports_largest_eigenvalue(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        rc = run(["build", "string", "--m", "5", "--M", "1", "--K", "10",
                  "--json", "-o", str(path)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["m"] == 5
        assert doc["mu_max"] == pytest.approx(2000.101, abs=1e-2)
        model = read_model(path)
        assert model.m == 5

    def test_large_chain_eigenvalue_window(self, tmp_path, capsys):
        path = tmp_path / "m100.json"
        rc = run(["build", "string", "--m", "100", "--M", "1", "--K", "10",
                  "--json", "-o", str(path)])
        out, _ = _out(capsys)
        assert rc == 0
        assert 1990.0 <= json.loads(out)["mu_max"] <= 2010.0

    def test_human_output_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        rc = run(["build", "string", "--m", "4", "--M", "2", "--K", "8",
                  "-o", str(path)])
        out, _ = _out(capsys)
        assert rc == 0
        assert str(path) in out and "mu_max" in out

    def test_invalid_stiffness_is_usage_error(self, tmp_path, capsys):
        rc = run(["build", "string", "--m", "5", "--M", "1", "--K", "0",
                  "-o", str(tmp_path / "x.json")])
        _, err = _out(capsys)
        assert rc == 2
        assert "romstab:" in err

    @pytest.mark.parametrize("flag", ["--a1", "--a2"])
    def test_non_finite_rayleigh_coefficient_writes_nothing(self, tmp_path,
                                                            capsys, flag):
        path = tmp_path / "x.json"
        rc = run(["build", "string", "--m", "5", "--M", "1", "--K", "10",
                  flag, "nan", "-o", str(path)])
        _, err = _out(capsys)
        assert rc == 2
        assert "Rayleigh coefficients must be" in err
        assert not path.exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        rc = run(["build", "string", "--m", "5", "--M", "1",
                  "-o", str(tmp_path / "x.json")])
        _, err = _out(capsys)
        assert rc == 2
        assert "--element-stiffness" in err

    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["build", "string", "--m", "6", "--M", "1", "--K", "3", "-o", str(a)])
        run(["build", "string", "--m", "6", "--M", "1", "--K", "3", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestTimestep:
    def test_full_model_report(self, model5, capsys):
        rc = run(["timestep", model5])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["method"] == "modal-exact"
        assert doc["model_kind"] == "fom"
        assert doc["dt_crit"] == pytest.approx(0.0447202, abs=1e-5)
        assert doc["scale"] == 1.0

    def test_scale_multiplies_the_step(self, model5, capsys):
        run(["timestep", model5])
        base = json.loads(_out(capsys)[0])
        rc = run(["timestep", model5, "--scale", "0.9"])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["dt_crit"] == pytest.approx(0.9 * base["dt_crit"], rel=1e-12)

    @pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0"])
    def test_scale_must_be_finite_and_positive(self, model5, capsys, scale):
        rc = run(["timestep", model5, f"--scale={scale}"])  # "=": -inf is no flag
        out, err = _out(capsys)
        assert rc == 2
        assert out == ""
        assert "--scale must be finite and positive" in err

    def test_reduced_report_via_basis(self, model5, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        assert run(["reduce", model5, "--modes", "0,1", "-o", str(basis)]) == 0
        _out(capsys)
        rc = run(["timestep", model5, "--basis", str(basis)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["model_kind"] == "rom"
        assert doc["dt_crit"] > 0.0447202  # projection relaxes the step

    def test_element_bound_method(self, model5, capsys):
        rc = run(["timestep", model5, "--element-bound"])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["method"] == "element-bound"
        assert doc["dt_crit"] <= 0.0447203

    def test_element_bound_rejects_basis(self, model5, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        run(["reduce", model5, "--modes", "0", "-o", str(basis)])
        _out(capsys)
        rc = run(["timestep", model5, "--element-bound", "--basis", str(basis)])
        assert rc == 2

    def test_missing_model_file(self, tmp_path, capsys):
        rc = run(["timestep", str(tmp_path / "nope.json")])
        _, err = _out(capsys)
        assert rc == 3
        assert "romstab:" in err


class TestReduce:
    def test_modal_basis_file(self, model5, tmp_path, capsys):
        basis = tmp_path / "basis.json"
        rc = run(["reduce", model5, "--modes", "0:3", "--json", "-o", str(basis)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert (doc["m"], doc["k"]) == (5, 3)
        assert doc["kind"] == "mass-orthonormal"
        model = read_model(model5)
        loaded = read_basis(basis, mass=model.mass)
        assert loaded.k == 3

    def test_snapshot_basis_from_trajectory(self, model5, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run(["integrate", model5, "--dt-frac", "0.5", "--steps", "40",
                    "--x0-random", "1.0", "-o", str(traj)]) == 0
        _out(capsys)
        basis = tmp_path / "pod.json"
        rc = run(["reduce", model5, "--pod", str(traj), "--k", "2",
                  "--json", "-o", str(basis)])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["kind"] == "mass-orthonormal"
        plain = tmp_path / "pod_plain.json"
        rc = run(["reduce", model5, "--pod", str(traj), "--k", "2", "--plain",
                  "--json", "-o", str(plain)])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["kind"] == "plain-orthonormal"

    def test_mode_and_pod_are_exclusive(self, model5, tmp_path, capsys):
        rc = run(["reduce", model5, "--modes", "0", "--pod", "x.csv",
                  "-o", str(tmp_path / "b.json")])
        assert rc == 2
        rc = run(["reduce", model5, "-o", str(tmp_path / "b.json")])
        assert rc == 2

    def test_pod_requires_k(self, model5, tmp_path, capsys):
        rc = run(["reduce", model5, "--pod", "traj.csv",
                  "-o", str(tmp_path / "b.json")])
        assert rc == 2


class TestHyper:
    @pytest.fixture()
    def training(self, model5, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run(["integrate", model5, "--dt-frac", "0.5", "--steps", "60",
                    "--x0-random", "1.0", "-o", str(traj)]) == 0
        basis = tmp_path / "basis.json"
        assert run(["reduce", model5, "--modes", "0,1", "-o", str(basis)]) == 0
        _out(capsys)
        return str(traj), str(basis)

    def test_ecsw_weight_training(self, model5, training, tmp_path, capsys):
        traj, basis = training
        weights = tmp_path / "weights.json"
        rc = run(["hyper", model5, "--method", "ecsw", "--basis", basis,
                  "--snapshots", traj, "--tau", "0.5", "--json",
                  "-o", str(weights)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["n_elements"] == 4
        assert 1 <= len(doc["support"]) <= 4
        assert doc["residual"] <= 0.5

        rc = run(["timestep", model5, "--element-bound", "--weights",
                  str(weights)])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["method"] == "ecsw-bound"

        rc = run(["integrate", model5, "--basis", basis, "--weights",
                  str(weights), "--dt-frac", "0.5", "--steps", "20",
                  "-o", str(tmp_path / "hrom.csv")])
        assert rc == 0
        _out(capsys)

    def test_collocation_sample_set(self, model5, tmp_path, capsys):
        out_path = tmp_path / "samples.json"
        rc = run(["hyper", model5, "--method", "collocation",
                  "--points", "0,2,4", "--json", "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["collocation"] == [0, 2, 4]
        samples = read_sample_set(out_path)
        assert samples.collocation == (0, 2, 4)

    def test_greedy_point_selection(self, model5, training, tmp_path, capsys):
        traj, _ = training
        out_path = tmp_path / "deim.json"
        rc = run(["hyper", model5, "--method", "deim", "--snapshots", traj,
                  "--k-force", "2", "--json", "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["collocation"]) == 2
        assert len(set(doc["collocation"])) == 2

    def test_ecsw_needs_basis_and_snapshots(self, model5, tmp_path, capsys):
        rc = run(["hyper", model5, "--method", "ecsw",
                  "-o", str(tmp_path / "w.json")])
        assert rc == 2

    def test_tau_range_enforced(self, model5, training, tmp_path, capsys):
        traj, basis = training
        rc = run(["hyper", model5, "--method", "ecsw", "--basis", basis,
                  "--snapshots", traj, "--tau", "1.5",
                  "-o", str(tmp_path / "w.json")])
        assert rc == 2

    def test_deim_needs_force_rank(self, model5, training, tmp_path, capsys):
        traj, _ = training
        rc = run(["hyper", model5, "--method", "deim", "--snapshots", traj,
                  "-o", str(tmp_path / "d.json")])
        assert rc == 2


class TestIntegrate:
    def test_stable_fraction_stays_bounded(self, model20, tmp_path, capsys):
        out_path = tmp_path / "stable.csv"
        rc = run(["integrate", model20, "--dt-frac", "0.99", "--steps", "2000",
                  "--x0-random", "0.001", "--record-every", "100", "--json",
                  "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["diverged"] is False
        assert doc["divergence_step"] is None

    def test_unstable_fraction_flags_divergence(self, model20, tmp_path, capsys):
        out_path = tmp_path / "blow.csv"
        rc = run(["integrate", model20, "--dt-frac", "1.01", "--steps", "2000",
                  "--x0-random", "0.001", "--json", "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 4
        doc = json.loads(out)
        assert doc["diverged"] is True
        assert doc["divergence_step"] >= 0
        text = out_path.read_text()
        assert "# diverged=true" in text

    def test_zero_end_time_writes_header_only(self, model5, tmp_path, capsys):
        out_path = tmp_path / "empty.csv"
        rc = run(["integrate", model5, "--dt", "0.01", "--t-end", "0",
                  "--json", "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["rows"] == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("t, x_0")
        assert lines[1].startswith("# diverged=false")
        assert len(lines) == 2

    def test_steps_alternative_counts_rows(self, model5, tmp_path, capsys):
        out_path = tmp_path / "steps.csv"
        rc = run(["integrate", model5, "--dt", "0.01", "--steps", "10",
                  "--json", "-o", str(out_path)])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["rows"] == 11  # initial state plus 10 steps

    def test_seeded_runs_are_byte_identical(self, model5, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["integrate", model5, "--dt-frac", "0.9", "--steps", "50",
                "--x0-random", "1.0", "--seed", "3"]
        assert run(args + ["-o", str(a)]) == 0
        assert run(args + ["-o", str(b)]) == 0
        _out(capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_dt_choices_are_exclusive(self, model5, tmp_path, capsys):
        base = ["integrate", model5, "-o", str(tmp_path / "x.csv")]
        assert run(base + ["--dt", "0.01", "--dt-frac", "0.5",
                           "--t-end", "1"]) == 2
        assert run(base + ["--t-end", "1"]) == 2
        assert run(base + ["--dt", "0.01"]) == 2
        assert run(base + ["--dt", "0.01", "--t-end", "1",
                           "--steps", "5"]) == 2

    def test_argument_validation(self, model5, tmp_path, capsys):
        base = ["integrate", model5, "-o", str(tmp_path / "x.csv")]
        assert run(base + ["--dt", "-0.1", "--t-end", "1"]) == 2
        assert run(base + ["--dt-frac", "-1", "--t-end", "1"]) == 2
        assert run(base + ["--dt", "0.01", "--steps", "-2"]) == 2
        assert run(base + ["--dt", "0.01", "--t-end", "1",
                           "--record-every", "0"]) == 2


    @pytest.mark.parametrize("name, args", [
        ("dt", ["--dt", "inf", "--steps", "3"]),
        ("dt", ["--dt", "nan", "--t-end", "1"]),
        ("t_end", ["--dt", "0.01", "--t-end", "inf"]),
        ("t_end", ["--dt", "0.01", "--t-end", "nan"]),
    ])
    def test_non_finite_step_or_end_is_usage_error(self, model5, tmp_path,
                                                   capsys, name, args):
        path = tmp_path / "x.csv"
        rc = run(["integrate", model5, "-o", str(path)] + args)
        _, err = _out(capsys)
        assert rc == 2
        assert f"{name} must be finite" in err
        assert not path.exists()


    @pytest.mark.parametrize("args", [
        ["--dt", "5e-324", "--t-end", "1e-300"],
        ["--t-end", "1e300", "--dt", "5e-324"],
        ["--dt", "1e-3", "--steps", "2000000000"],
    ])
    def test_too_many_steps_is_usage_error(self, model5, tmp_path, capsys, args):
        path = tmp_path / "x.csv"
        rc = run(["integrate", model5, "-o", str(path)] + args)
        _, err = _out(capsys)
        assert rc == 2
        assert "t_end=" in err and "dt=" in err and "at most 1e9" in err
        assert not path.exists()


class TestVerify:
    def test_small_suite_passes(self, capsys):
        rc = run(["verify", "--trials", "2"])
        out, _ = _out(capsys)
        assert rc == 0
        assert "all properties hold" in out
        assert out.count("[PASS]") == len(PROPERTY_NAMES) - 1  # witness excluded

    def test_json_schema_and_witness_flag(self, capsys):
        rc = run(["verify", "--trials", "2", "--break-symmetry", "--json"])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert doc["trials"] == 2
        names = [r["name"] for r in doc["results"]]
        assert list(PROPERTY_NAMES) == names

    def test_zero_trials_is_usage_error(self, capsys):
        assert run(["verify", "--trials", "0"]) == 2

    def test_seeded_output_is_deterministic(self, capsys):
        assert run(["verify", "--trials", "2", "--seed", "7", "--json"]) == 0
        first, _ = _out(capsys)
        assert run(["verify", "--trials", "2", "--seed", "7", "--json"]) == 0
        second, _ = _out(capsys)
        assert first == second


class TestReproduce:
    def test_full_report_passes_and_shows_operator(self, capsys):
        rc = run(["reproduce"])
        out, _ = _out(capsys)
        assert rc == 0
        assert "[FAIL]" not in out
        assert "reference operator inv(M) K:" in out

    def test_group_restriction(self, capsys):
        rc = run(["reproduce", "--only", "ecsw"])
        out, _ = _out(capsys)
        assert rc == 0
        assert "ecsw-weighted-spectrum" in out
        assert "ecsw-reduced-eigenvalue" in out
        assert "string5-spectrum" not in out
        assert "reference operator" not in out

    def test_json_schema(self, capsys):
        rc = run(["reproduce", "--json"])
        out, _ = _out(capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["all_pass"] is True
        assert {c["group"] for c in doc["checks"]} == {
            "string5", "galerkin", "ecsw", "string100"
        }

    def test_unknown_group_rejected(self, capsys):
        assert run(["reproduce", "--only", "nope"]) == 2


class TestConfigAndUsage:
    def test_config_supplies_required_options(self, tmp_path, capsys):
        out_path = tmp_path / "model.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "m": 5, "element_mass": 1.0, "element_stiffness": 10.0,
            "output": str(out_path),
        }))
        rc = run(["build", "string", "--config", str(config)])
        assert rc == 0
        assert read_model(out_path).m == 5

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        out_path = tmp_path / "model.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "m": 5, "element_mass": 1.0, "element_stiffness": 10.0,
            "output": str(out_path),
        }))
        rc = run(["build", "string", "--m", "7", "--config", str(config)])
        assert rc == 0
        assert read_model(out_path).m == 7

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"filename": "x"}))
        assert run(["verify", "--config", str(config)]) == 2

    def test_invalid_config_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{")
        assert run(["verify", "--config", str(config)]) == 3

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["verify", "--config", str(tmp_path / "no.json")]) == 3

    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 2
        _, err = _out(capsys)
        assert "usage" in err.lower()

    def test_unknown_flag(self, capsys):
        assert run(["build", "string", "--nope"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        out, _ = _out(capsys)
        assert "COMMAND" in out


class TestFormatErrors:
    """Malformed input files exit 3 (file or format error), not 2 (usage)."""

    @pytest.fixture()
    def basis_doc(self, model5, tmp_path, capsys):
        path = tmp_path / "basis.json"
        assert run(["reduce", model5, "--modes", "0,1", "-o", str(path)]) == 0
        _out(capsys)
        return json.loads(path.read_text())

    def _timestep_with_basis(self, model5, tmp_path, capsys, doc):
        path = tmp_path / "bad_basis.json"
        path.write_text(json.dumps(doc))
        rc = run(["timestep", model5, "--basis", str(path)])
        return rc, _out(capsys)[1]

    def test_non_numeric_basis_entry(self, model5, basis_doc, tmp_path, capsys):
        basis_doc["columns"][0][1] = "abc"
        rc, err = self._timestep_with_basis(model5, tmp_path, capsys, basis_doc)
        assert rc == 3
        assert "basis columns" in err

    def test_non_list_basis_column(self, model5, basis_doc, tmp_path, capsys):
        basis_doc["columns"][1] = 7
        rc, err = self._timestep_with_basis(model5, tmp_path, capsys, basis_doc)
        assert rc == 3
        assert "basis columns" in err

    def test_non_integer_trailer_step(self, model5, tmp_path, capsys):
        traj = tmp_path / "traj.csv"
        assert run(["integrate", model5, "--dt", "0.01", "--steps", "5",
                    "--x0-random", "1.0", "-o", str(traj)]) == 0
        text = traj.read_text()
        assert "# diverged=false step=-1" in text
        traj.write_text(text.replace("step=-1", "step=abc"))
        _out(capsys)
        rc = run(["reduce", model5, "--pod", str(traj), "--k", "2",
                  "-o", str(tmp_path / "pod.json")])
        _, err = _out(capsys)
        assert rc == 3
        assert "malformed divergence step" in err

    def test_elements_disagreeing_with_stiffness(self, model5, tmp_path, capsys):
        # scaled element blocks would give an element "bound" of twice the exact step
        with open(model5, encoding="utf-8") as fh:
            doc = json.load(fh)
        for element in doc["elements"]:
            element["Ke"] = [0.25 * v for v in element["Ke"]]
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(doc))
        for extra in ([], ["--element-bound"]):
            rc = run(["timestep", str(path)] + extra)
            _, err = _out(capsys)
            assert rc == 3
            assert "stored stiffness differs" in err

    def _timestep_on(self, doc, tmp_path, capsys):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        rc = run(["timestep", str(path)])
        return rc, _out(capsys)[1]

    def test_mixed_element_sizes(self, model5, tmp_path, capsys):
        with open(model5, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["elements"][3].update(dofs=[2, 3, 4], Ke=np.eye(3).ravel().tolist(),
                                  Me=[1.0, 1.0, 1.0])
        rc, err = self._timestep_on(doc, tmp_path, capsys)
        assert rc == 3
        assert "element 3 dofs has 3 entries, expected 2" in err

    def test_length_on_some_elements(self, model5, tmp_path, capsys):
        with open(model5, encoding="utf-8") as fh:
            doc = json.load(fh)
        for element in doc["elements"][1:]:
            del element["length"]
        rc, err = self._timestep_on(doc, tmp_path, capsys)
        assert rc == 3
        assert "element 1 has keys" in err
        assert "give length and wave_speed on all elements or on none" in err

    @pytest.mark.parametrize("name", ["a1", "a2"])
    def test_non_finite_rayleigh_coefficient(self, model5, tmp_path, capsys, name):
        with open(model5, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc[name] = float("nan")
        rc, err = self._timestep_on(doc, tmp_path, capsys)
        assert rc == 3
        assert "Rayleigh coefficients must be" in err

    @pytest.mark.parametrize("where", [
        "mass", "stiffness_coo", "elements", "dofs", "Ke", "Me", "times",
        "values", "values row",
    ])
    def test_non_list_model_field(self, model5, tmp_path, capsys, where):
        with open(model5, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["external_force"] = {"times": [0.0, 1.0], "values": [[0.0] * 5] * 2}
        if where in ("mass", "stiffness_coo", "elements"):
            doc[where] = 5
        elif where in ("dofs", "Ke", "Me"):
            doc["elements"][1][where] = 3
        elif where == "values row":
            doc["external_force"]["values"][1] = 0.0
        else:
            doc["external_force"][where] = 1.0
        rc, err = self._timestep_on(doc, tmp_path, capsys)
        assert rc == 3
        assert "must be a list" in err


# (command, config key, flag, flag value or None for a switch, the same value in
# a config file, a config value of the wrong JSON type); values differ from the
# defaults, so a config value that was ignored would show
_OPTION_CASES = [
    ("build", "m", "--m", "7", 7, 7.5),
    ("build", "element_mass", "--M", "2", 2, "2"),
    ("build", "element_stiffness", "--element-stiffness", "3.5", 3.5, True),
    ("build", "length", "--L", "2", 2.0, "long"),
    ("build", "boundary", "--boundary", "5", 5, [5]),
    ("build", "a1", "--a1", "0.1", 0.1, "0.1"),
    ("build", "a2", "--a2", "0.01", 0.01, False),
    ("build", "output", "-o", "other.json", "other.json", 3),
    ("build", "seed", "--seed", "3", 3, "3"),
    ("timestep", "basis", "--basis", "b.json", "b.json", 1),
    ("timestep", "weights", "--weights", "w.json", "w.json", ["w.json"]),
    ("timestep", "element_bound", "--element-bound", None, True, 1),
    ("timestep", "scale", "--scale", "0.5", 0.5, "0.5"),
    ("timestep", "seed", "--seed", "4", 4, 4.0),
    ("reduce", "modes", "--modes", "0:3", "0:3", 3),
    ("reduce", "pod", "--pod", "t.csv", "t.csv", True),
    ("reduce", "k", "--k", "4", 4, 4.0),
    ("reduce", "plain", "--plain", None, True, "yes"),
    ("reduce", "output", "--output", "x.json", "x.json", {"path": "x.json"}),
    ("reduce", "seed", "--seed", "5", 5, None),
    ("hyper", "method", "--method", "deim", "deim", 1),
    ("hyper", "basis", "--basis", "b.json", "b.json", 2.5),
    ("hyper", "snapshots", "--snapshots", "t.csv", "t.csv", False),
    ("hyper", "tau", "--tau", "0.5", 0.5, "0.5"),
    ("hyper", "points", "--points", "0,2", "0,2", [0, 2]),
    ("hyper", "k_force", "--k-force", "3", 3, 3.5),
    ("hyper", "output", "-o", "s.json", "s.json", 0),
    ("hyper", "seed", "--seed", "6", 6, True),
    ("integrate", "basis", "--basis", "b.json", "b.json", 1),
    ("integrate", "weights", "--weights", "w.json", "w.json", 1),
    ("integrate", "dt", "--dt", "0.01", 0.01, "0.01"),
    ("integrate", "dt_frac", "--dt-frac", "0.5", 0.5, True),
    ("integrate", "t_end", "--t-end", "2", 2, "2"),
    ("integrate", "steps", "--steps", "10", 10, 10.5),
    ("integrate", "record_every", "--record-every", "5", 5, "5"),
    ("integrate", "x0_random", "--x0-random", "1", 1, "1"),
    ("integrate", "output", "--output", "y.csv", "y.csv", 1),
    ("integrate", "seed", "--seed", "7", 7, "7"),
    ("verify", "trials", "--trials", "7", 7, 7.0),
    ("verify", "break_symmetry", "--break-symmetry", None, True, 1),
    ("verify", "seed", "--seed", "8", 8, [8]),
    ("reproduce", "only", "--only", "ecsw", "ecsw", 5),
    ("reproduce", "seed", "--seed", "9", 9, 9.5),
]

# positionals and the required options of each command, by config key
_BASE = {
    "build": (["string"], {"m": ["--m", "5"], "element_mass": ["--M", "1"],
                           "element_stiffness": ["--K", "10"],
                           "output": ["-o", "out.json"]}),
    "timestep": (["model.json"], {}),
    "reduce": (["model.json"], {"output": ["-o", "basis.json"]}),
    "hyper": (["model.json"], {"method": ["--method", "ecsw"],
                               "output": ["-o", "w.json"]}),
    "integrate": (["model.json"], {"output": ["-o", "traj.csv"]}),
    "verify": ([], {}),
    "reproduce": ([], {}),
}


class TestNumericalFailures:
    """Numerical failures exit 6, not 2 (usage) or 3 (file or format)."""

    def test_pod_of_a_run_at_rest_is_rank_deficient(self, model5, tmp_path, capsys):
        traj = tmp_path / "rest.csv"
        assert run(["integrate", model5, "--dt", "0.01", "--steps", "5",
                    "-o", str(traj)]) == 0
        _out(capsys)
        out_path = tmp_path / "pod.json"
        rc = run(["reduce", model5, "--pod", str(traj), "--k", "2", "-o", str(out_path)])
        _, err = _out(capsys)
        assert rc == 6
        assert "exceeds the numerical rank" in err
        assert not out_path.exists()

    def test_unreachable_ecsw_tolerance_is_infeasible(self, model5, tmp_path, capsys):
        traj, basis = tmp_path / "traj.csv", tmp_path / "basis.json"
        assert run(["integrate", model5, "--dt", "0.01", "--steps", "30",
                    "--x0-random", "1.0", "-o", str(traj)]) == 0
        assert run(["reduce", model5, "--modes", "0:3", "-o", str(basis)]) == 0
        _out(capsys)
        rc = run(["hyper", model5, "--method", "ecsw", "--basis", str(basis),
                  "--snapshots", str(traj), "--tau", "1e-300",
                  "-o", str(tmp_path / "w.json")])
        _, err = _out(capsys)
        assert rc == 6
        assert "cannot reach tau=1e-300" in err

    def test_failed_eigensolve_is_a_convergence_error(self, model5, monkeypatch, capsys):
        # LAPACK rarely fails on a valid model, so the failure is injected
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        rc = run(["timestep", model5])
        _, err = _out(capsys)
        assert rc == 6
        assert "eigensolve did not converge" in err

    def test_overflowing_spectrum_writes_nothing(self, tmp_path, capsys):
        for size in (["--m", "6", "--M", "1", "--K", "1e306"],  # mu_max is about 2e308
                     ["--m", "100", "--M", "1e-300", "--K", "1e9"]):  # K / M is inf
            path = tmp_path / "big.json"
            rc = run(["build", "string", *size, "-o", str(path)])
            out, err = _out(capsys)
            assert rc == 6 and out == ""
            assert "eigenvalues of inv(M) K overflow double precision" in err
            assert not path.exists()

    def test_overflowing_model_file_is_reported(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_model(build_string_model(6, 1.0, 1e306, 1.0, 99.0), path)
        rc = run(["timestep", str(path)])
        out, err = _out(capsys)
        assert rc == 6 and out == ""
        assert "overflow double precision" in err

    def test_overflowing_element_bound_is_reported(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        write_model(build_string_model(6, 1.0, 1e306, 1.0, 99.0), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["timestep", str(path), "--element-bound"])
        out, err = _out(capsys)
        assert rc == 6 and out == ""
        assert "overflow double precision" in err
        assert caught == []

    def test_largest_finite_spectrum_still_builds(self, tmp_path, capsys):
        rc = run(["build", "string", "--m", "6", "--M", "1", "--K", "1e305",
                  "--json", "-o", str(tmp_path / "big.json")])
        out, _ = _out(capsys)
        assert rc == 0
        assert json.loads(out)["mu_max"] == pytest.approx(2.000101e307, rel=1e-6)


class TestNoStableStep:
    """A reduction with no stable step exits 7.  No file the CLI reads
    yields an interpolated reduction, so the frozen DEIM instances come in
    through ``_load_reduction``."""

    @pytest.fixture(params=range(1, 8))
    def unstable(self, request, monkeypatch, model5):
        _, hrom, _ = frozen_deim_instance(seed=request.param, m=8, n_modes=3)
        monkeypatch.setattr(cli, "_load_reduction", lambda model, opts: hrom)
        return model5

    def test_timestep_prints_the_report_and_exits_7(self, unstable, capsys):
        rc = run(["timestep", unstable, "--scale", "0.5"])
        out, err = _out(capsys)
        assert rc == 7 and err == ""
        doc = json.loads(out)
        assert doc["stable"] is False and doc["dt_crit"] == 0.0
        assert doc["method"] == "amplification-exact"
        assert doc["eigenvalue"][0] < 0.0 and doc["eigenvalue"][1] == 0.0

    def test_integrate_dt_frac_exits_7_without_output(self, unstable, tmp_path, capsys):
        path = tmp_path / "traj.csv"
        rc = run(["integrate", unstable, "--dt-frac", "0.9", "--steps", "5",
                  "-o", str(path)])
        out, err = _out(capsys)
        assert rc == 7 and out == ""
        assert "no stable step" in err
        assert not path.exists()

    def test_integrate_with_explicit_dt_still_runs(self, unstable, tmp_path):
        assert run(["integrate", unstable, "--dt", "0.01", "--steps", "5",
                    "-o", str(tmp_path / "traj.csv")]) == 0


def _base_args(command, without):
    positionals, required = _BASE[command]
    args = [command, *positionals]
    for key, flag_args in required.items():
        if key != without:
            args += flag_args
    return args


class TestOptionTable:
    """Each option, given as a flag or through --config, means the same."""

    def test_cases_cover_every_option(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_BASE)
        for command, p in sub.choices.items():
            declared = {a.dest for a in p._actions if a.option_strings
                        and a.dest not in ("help", "json", "config")}
            covered = {case[1] for case in _OPTION_CASES if case[0] == command}
            assert declared == covered, command

    @pytest.mark.parametrize(
        "command, key, flag, text, value, wrong", _OPTION_CASES,
        ids=[f"{case[0]}-{case[1]}" for case in _OPTION_CASES],
    )
    def test_flag_and_config_agree(self, tmp_path, command, key, flag, text,
                                   value, wrong):
        parser = build_parser()
        base = _base_args(command, key)
        by_flag = _resolve(
            parser.parse_args(base + ([flag] if text is None else [flag, text])),
            command,
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        by_config = _resolve(parser.parse_args(base + ["--config", str(config)]),
                             command)
        assert by_flag == by_config
        assert by_flag[key] == value
        if key not in _BASE[command][1]:
            assert _resolve(parser.parse_args(base), command)[key] != value

    @pytest.mark.parametrize(
        "command, key, flag, text, value, wrong", _OPTION_CASES,
        ids=[f"{case[0]}-{case[1]}" for case in _OPTION_CASES],
    )
    def test_wrongly_typed_config_value(self, tmp_path, monkeypatch, capsys,
                                        command, key, flag, text, value, wrong):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: wrong}))
        assert run(_base_args(command, key) + ["--config", str(config)]) == 2
        _, err = _out(capsys)
        assert f"config key {key!r} must" in err
