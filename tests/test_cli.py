import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qme.cli import (
    Scenario,
    ScenarioError,
    apply_overrides,
    bundled_scenarios,
    main,
    parse_scenario,
    resolve_scenario_path,
    run,
    scenario_from_dict,
    scenario_to_dict,
)

GALLERY = [
    "appendix_d",
    "fock_closure_2mode",
    "homogeneous_chain",
    "low_density_sweep",
    "two_state_boson",
    "two_state_fermion",
]


def minimal_scenario(**updates):
    raw = {
        "name": "mini",
        "equation": "nonlinear_master",
        "statistics": "fermion",
        "dimension": 2,
        "initial": {"diagonal": [1.0, 0.0]},
        "network": {"rates": [{"from": 0, "to": 1, "rate": 1.0}]},
        "integrator": {"t0": 0.0, "t1": 0.1, "dt": 0.01},
    }
    raw.update(updates)
    return raw


def write_scenario(tmp_path, raw, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return header, np.array([[float(x) for x in row] for row in data])


class TestParsing:
    def test_gallery_is_complete(self):
        assert bundled_scenarios() == GALLERY

    @pytest.mark.parametrize("name", GALLERY)
    def test_bundled_scenarios_parse_and_round_trip(self, name):
        scenario = parse_scenario(resolve_scenario_path(name))
        again = scenario_from_dict(scenario_to_dict(scenario))
        assert again == scenario

    def test_appendix_d_preset_matrix(self):
        scenario = parse_scenario(resolve_scenario_path("appendix_d"))
        m = scenario.initial_matrix()
        assert np.allclose(np.diag(m), 1 / 3)
        assert m[0, 1] == pytest.approx(10 / 27)
        assert m[1, 2] == pytest.approx(2 / 9)

    def test_empty_preset_gives_zero_matrix(self, tmp_path):
        raw = minimal_scenario(initial={"preset": "empty"}, dimension=3,
                               network={"rates": []})
        scenario = scenario_from_dict(raw)
        assert not np.any(scenario.initial_matrix())
        assert scenario.initial_matrix().shape == (3, 3)

    def test_negative_rate_names_the_entry(self, tmp_path):
        raw = minimal_scenario(network={"rates": [{"from": 1, "to": 2, "rate": -0.5}]},
                               dimension=3, initial={"diagonal": [1.0, 0.0, 0.0]})
        with pytest.raises(ScenarioError, match=r"rates\[\(2,1\)\]"):
            scenario_from_dict(raw)

    def test_unknown_equation(self):
        with pytest.raises(ScenarioError, match="unknown equation"):
            scenario_from_dict(minimal_scenario(equation="schroedinger"))

    def test_missing_required_group(self):
        raw = minimal_scenario()
        del raw["network"]
        with pytest.raises(ScenarioError, match="network.*missing"):
            scenario_from_dict(raw)

    def test_extra_group_rejected(self):
        raw = minimal_scenario(jump_operators=[[[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(ScenarioError, match="jump_operators.*not accepted"):
            scenario_from_dict(raw)

    def test_hamiltonian_rejected_for_occupation_equations(self):
        raw = minimal_scenario(
            equation="quasiclassical",
            initial={"occupations": [1.0, 0.0]},
            hamiltonian={"diagonal": [0.0, 1.0]},
        )
        with pytest.raises(ScenarioError, match="hamiltonian.*not accepted"):
            scenario_from_dict(raw)

    def test_bad_statistics(self):
        with pytest.raises(ScenarioError, match="statistics"):
            scenario_from_dict(minimal_scenario(statistics="anyon"))

    def test_nonpsd_initial_rejected(self):
        raw = minimal_scenario(initial={"matrix": [[1.0, 0.9], [0.9, 0.1]]})
        with pytest.raises(ScenarioError, match="initial.*positive semidefinite"):
            scenario_from_dict(raw)

    def test_complex_entries_round_trip(self):
        raw = minimal_scenario(
            initial={"matrix": [[0.5, [0.1, 0.2]], [[0.1, -0.2], 0.5]]}
        )
        scenario = scenario_from_dict(raw)
        m = scenario.initial_matrix()
        assert m[0, 1] == pytest.approx(0.1 + 0.2j)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_wrong_matrix_shape(self):
        raw = minimal_scenario(initial={"matrix": [[1.0, 0.0]]})
        with pytest.raises(ScenarioError, match="initial.matrix"):
            scenario_from_dict(raw)

    def test_preset_requires_dimension_three(self):
        raw = minimal_scenario(initial={"preset": "appendix_d"})
        with pytest.raises(ScenarioError, match="dimension 3"):
            scenario_from_dict(raw)

    def test_parse_scenario_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            parse_scenario(path)

    def test_resolve_prefers_local_files(self, tmp_path, monkeypatch):
        local = write_scenario(tmp_path, minimal_scenario(), name="two_state_fermion.json")
        monkeypatch.chdir(tmp_path)
        assert resolve_scenario_path("two_state_fermion.json") == Path("two_state_fermion.json")
        assert resolve_scenario_path(local.name).read_text(encoding="utf-8").startswith("{")

    def test_resolve_missing(self):
        with pytest.raises(FileNotFoundError):
            resolve_scenario_path("no_such_scenario")


class TestOverrides:
    def test_dot_path_and_shorthand(self):
        raw = minimal_scenario()
        apply_overrides(raw, ["integrator.dt=0.005", "t1=0.2", "name=renamed"])
        assert raw["integrator"]["dt"] == 0.005
        assert raw["integrator"]["t1"] == 0.2
        assert raw["name"] == "renamed"

    def test_malformed_override(self):
        with pytest.raises(ScenarioError, match="key=value"):
            apply_overrides(minimal_scenario(), ["dt0.005"])

    def test_override_needs_a_scenario_object(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            apply_overrides([minimal_scenario()], ["t1=0.2"])


class TestRun:
    def test_two_state_fermion_matches_closed_form(self, tmp_path):
        out = tmp_path / "run"
        code = run("two_state_fermion", out_dir=str(out), quiet=True)
        assert code == 0
        header, data = read_csv(out / "states.csv")
        t = data[:, 0]
        n_f = data[:, header.index("re_1_1")]
        assert np.abs(n_f - (1 - 1 / (1 + t))).max() <= 1e-6
        dheader, ddata = read_csv(out / "diagnostics.csv")
        assert dheader == ["t", "trace", "min_eig", "max_eig", "herm_defect", "duality_residual"]
        assert ddata[:, dheader.index("duality_residual")].max() <= 1e-10
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["violations"] == []
        assert summary["trace_drift_max"] <= 1e-10

    def test_appendix_d_run_reports_expected_violations(self, tmp_path):
        out = tmp_path / "dephasing"
        code = run("appendix_d", out_dir=str(out), quiet=True)
        assert code == 0  # violations are declared expected
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["min_eig_final"] == pytest.approx(1 / 3 - 10 * np.sqrt(2) / 27, abs=1e-4)
        assert summary["violations"]
        assert summary["min_eig_crossing_time"] is None  # starts already indefinite

    def test_unexpected_violation_exits_two(self, tmp_path):
        raw = json.loads(
            resolve_scenario_path("appendix_d").read_text(encoding="utf-8")
        )
        raw["expect_violations"] = False
        raw["integrator"]["t1"] = 0.5
        path = write_scenario(tmp_path, raw)
        code = run(path, out_dir=str(tmp_path / "o"), quiet=True)
        assert code == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        overrides = ["t1=0.5", "integrator.record_every=5"]
        assert run("two_state_fermion", overrides=overrides, out_dir=str(a), quiet=True) == 0
        assert run("two_state_fermion", overrides=overrides, out_dir=str(b), quiet=True) == 0
        for name in ("states.csv", "diagnostics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_reruns_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("homogeneous_chain", overrides=["t1=0.2"], out_dir=str(out), quiet=True) == 0
        for name in ("states.csv", "diagnostics.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        summaries = [json.loads((out / "summary.json").read_text(encoding="utf-8"))
                     for out in (a, b)]
        for summary in summaries:
            del summary["wall_time_s"]
        assert summaries[0] == summaries[1]
        assert "duality_residual_max" in summaries[0]

    def test_override_changes_grid(self, tmp_path):
        out = tmp_path / "fine"
        code = run(
            "two_state_fermion",
            overrides=["dt=0.0005", "t1=0.01", "integrator.record_every=1"],
            out_dir=str(out),
            quiet=True,
        )
        assert code == 0
        _, data = read_csv(out / "states.csv")
        assert data.shape[0] == 21
        assert data[1, 0] == pytest.approx(5e-4)

    def test_quasiclassical_embedding(self, tmp_path):
        raw = minimal_scenario(
            equation="quasiclassical",
            initial={"occupations": [1.0, 0.0]},
            network={"rates": [{"from": 0, "to": 1, "rate": 1.0}]},
            integrator={"t0": 0.0, "t1": 3.0, "dt": 0.001, "record_every": 100},
        )
        path = write_scenario(tmp_path, raw)
        out = tmp_path / "qc"
        assert run(path, out_dir=str(out), quiet=True) == 0
        header, data = read_csv(out / "states.csv")
        t = data[:, 0]
        n_f = data[:, header.index("re_1_1")]
        assert np.abs(n_f - (1 - 1 / (1 + t))).max() <= 1e-6
        assert not np.any(data[:, header.index("re_0_1")])

    def test_homogeneous_chain_matches_quasiclassical_run(self, tmp_path):
        # diagonal everything: the matrix run's populations equal the
        # occupation-kinetics run's, column by column
        chain_out = tmp_path / "chain"
        assert run("homogeneous_chain", overrides=["t1=1.0", "dt=0.0001"],
                   out_dir=str(chain_out), quiet=True) == 0
        raw = json.loads(resolve_scenario_path("homogeneous_chain").read_text(encoding="utf-8"))
        qc = {
            "name": "chain_qc",
            "equation": "quasiclassical",
            "statistics": "fermion",
            "dimension": raw["dimension"],
            "initial": {"occupations": raw["initial"]["diagonal"]},
            "network": raw["network"],
            "integrator": dict(raw["integrator"], t1=1.0, dt=0.0001),
        }
        qc_path = write_scenario(tmp_path, qc, name="chain_qc.json")
        qc_out = tmp_path / "qc"
        assert run(qc_path, out_dir=str(qc_out), quiet=True) == 0
        header, a = read_csv(chain_out / "states.csv")
        _, b = read_csv(qc_out / "states.csv")
        cols = [header.index(f"re_{i}_{i}") for i in range(raw["dimension"])]
        assert np.abs(a[:, cols] - b[:, cols]).max() <= 1e-8

    def test_fock_scenario_reports_closure(self, tmp_path):
        out = tmp_path / "fock"
        assert run("fock_closure_2mode", out_dir=str(out), quiet=True) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["closure_residual_t0"] <= 1e-10
        assert summary["many_body_trace_drift"] <= 1e-9
        header, data = read_csv(out / "states.csv")
        assert header[1:5] == ["re_0_0", "im_0_0", "re_0_1", "im_0_1"]
        # one particle has no occupation correlations: exact transfer is the
        # linear law 1 - exp(-t), not the mean-field blocked law
        n_f = data[:, header.index("re_1_1")]
        t = data[:, 0]
        assert np.abs(n_f - (1 - np.exp(-t))).max() <= 1e-6

    def test_divergence_exits_one_naming_the_time(self, tmp_path, capsys):
        # unbounded bosonic gain overflows near t = 709 (exp growth)
        raw = {
            "name": "runaway",
            "equation": "general",
            "statistics": "boson",
            "dimension": 1,
            "initial": {"diagonal": [0.0]},
            "loss_operator": [[0.0]],
            "gain_operator": [[-0.5]],
            "integrator": {"t0": 0.0, "t1": 800.0, "dt": 0.5},
        }
        path = write_scenario(tmp_path, raw)
        assert run(path, out_dir=str(tmp_path / "d"), quiet=True) == 1
        err = capsys.readouterr().err
        assert "diverged at t" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert run(tmp_path / "absent.json", quiet=True) == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        path = write_scenario(tmp_path, minimal_scenario(equation="bogus"))
        assert run(path, quiet=True) == 1
        assert "unknown equation" in capsys.readouterr().err

    def test_env_var_out_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QME_OUT_DIR", str(tmp_path))
        assert run("two_state_fermion", overrides=["t1=0.05"], quiet=True) == 0
        assert (tmp_path / "two_state_fermion" / "summary.json").exists()

    def test_main_entry_point(self, tmp_path):
        code = main(
            ["run", "two_state_boson", "--override", "t1=0.05", "--out-dir",
             str(tmp_path / "m"), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "m" / "states.csv").exists()


def _rate(value):
    return {"network": {"rates": [{"from": 0, "to": 1, "rate": value}]}}


class TestMalformedInput:
    """Each malformed value exits 1 with one `error:` line naming the field."""

    @pytest.mark.parametrize(
        "updates, overrides, field",
        [
            (_rate(float("nan")), [], "network.rates[0].rate"),
            (_rate("x"), [], "network.rates[0].rate"),
            ({}, ["t1=abc"], "integrator.t1"),
            ({}, ["t1=Infinity"], "integrator.t1"),
            ({}, ["record_every=2.7"], "integrator.record_every"),
            ({}, ["dimension=true"], "dimension"),
            ({}, ["statistics=5"], "statistics"),
            ({}, ["network.rates=5"], "network.rates"),
            ({}, ["network.basis=[[1, 0], [0]]"], "network.basis[1]"),
            ({}, ["output.dir=5"], "output.dir"),
            ({}, ["dt=1e-300"], "integrator.dt"),
            ({}, ["t1=1e300", "dt=1e-10"], "integrator.dt"),
        ],
        ids=["nan_rate", "string_rate", "t1_abc", "t1_infinity", "record_every_fraction",
             "dimension_bool", "statistics_number", "rates_not_a_list", "basis_ragged",
             "out_dir_number", "steps_over_limit", "steps_infinite"],
    )
    def test_exits_one_naming_the_field(self, tmp_path, capsys, updates, overrides, field):
        path = write_scenario(tmp_path, minimal_scenario(**updates))
        argv = ["run", str(path), "--out-dir", str(tmp_path / "o"), "--quiet"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_unreadable_scenario_file_exits_one(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"name": "\xe9"}')
        for path in (tmp_path, latin1):  # a directory, then a file that is not UTF-8
            assert run(path, quiet=True) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1


class TestScenarioEquality:
    def test_equality_ignores_object_identity(self):
        a = scenario_from_dict(minimal_scenario())
        b = scenario_from_dict(minimal_scenario())
        assert a == b

    def test_inequality_on_changed_rate(self):
        a = scenario_from_dict(minimal_scenario())
        b = scenario_from_dict(
            minimal_scenario(network={"rates": [{"from": 0, "to": 1, "rate": 2.0}]})
        )
        assert a != b

    def test_not_a_scenario(self):
        assert scenario_from_dict(minimal_scenario()) != "scenario"

    def test_dataclass_is_exported(self):
        assert isinstance(scenario_from_dict(minimal_scenario()), Scenario)
