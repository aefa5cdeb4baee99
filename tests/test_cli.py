import copy
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qme import cli, integrator, operators
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
)
from qme.fock_oracle import (
    FockModel,
    PopulationFlow,
    closure_residual_at_t0,
    reduce_one_particle,
)
from qme.dynamics import JumpFlow, NetworkFlow, OccupationFlow, Statistics, TransitionNetwork
from duality_reference import duality_residuals, hole_start
from fock_reference import population_generator
from occupation_reference import occupation_row
from qme.integrator import Trajectory, evolve, snapshots, spectrum
from qme.operators import DensityMatrix

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
    def test_bundled_scenarios_parse(self, name):
        scenario = parse_scenario(resolve_scenario_path(name))
        assert scenario.name == name

    def test_appendix_d_preset_matrix(self):
        scenario = parse_scenario(resolve_scenario_path("appendix_d"))
        m = scenario.start.matrix
        assert np.allclose(np.diag(m), 1 / 3)
        assert m[0, 1] == pytest.approx(10 / 27)
        assert m[1, 2] == pytest.approx(2 / 9)

    def test_empty_preset_gives_zero_matrix(self, tmp_path):
        raw = minimal_scenario(initial={"preset": "empty"}, dimension=3,
                               network={"rates": []})
        scenario = scenario_from_dict(raw)
        assert not np.any(scenario.start.matrix)
        assert scenario.start.matrix.shape == (3, 3)

    def test_negative_rate_names_the_entry(self, tmp_path):
        raw = minimal_scenario(network={"rates": [{"from": 1, "to": 2, "rate": -0.5}]},
                               dimension=3, initial={"diagonal": [1.0, 0.0, 0.0]})
        with pytest.raises(ScenarioError, match=r"rates\[\(2,1\)\]"):
            scenario_from_dict(raw)

    def test_unknown_equation(self):
        with pytest.raises(ScenarioError, match="^equation: expected one of "):
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

    @pytest.mark.parametrize("equation, extra", [
        ("quasiclassical", {}),
        ("fock_oracle", {"fock": {"energies": [0.0, 1.0]}}),
    ])
    def test_network_basis_rejected_for_occupation_equations(self, tmp_path, capsys, equation, extra):
        # both read only the rates: a basis would be ignored, not used
        raw = minimal_scenario(
            equation=equation,
            initial={"occupations": [1.0, 0.0]},
            network={"rates": [{"from": 0, "to": 1, "rate": 1.0}],
                     "basis": [[0.5**0.5, 0.5**0.5], [0.5**0.5, -(0.5**0.5)]]},
            **extra,
        )
        with pytest.raises(ScenarioError, match="^network.basis: not accepted"):
            scenario_from_dict(raw)
        path = write_scenario(tmp_path, raw)
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: network.basis: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        del raw["network"]["basis"]
        assert scenario_from_dict(raw).network.rates == {(1, 0): 1.0}

    def test_bad_statistics(self):
        with pytest.raises(ScenarioError, match="statistics"):
            scenario_from_dict(minimal_scenario(statistics="anyon"))

    def test_nonpsd_initial_rejected(self):
        raw = minimal_scenario(initial={"matrix": [[1.0, 0.9], [0.9, 0.1]]})
        with pytest.raises(ScenarioError, match="initial.*positive semidefinite"):
            scenario_from_dict(raw)

    def test_complex_entries_parse(self):
        raw = minimal_scenario(
            initial={"matrix": [[0.5, [0.1, 0.2]], [[0.1, -0.2], 0.5]]}
        )
        scenario = scenario_from_dict(raw)
        m = scenario.start.matrix
        assert m[0, 1] == pytest.approx(0.1 + 0.2j)
        assert m[1, 0] == pytest.approx(0.1 - 0.2j)

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

    @pytest.mark.parametrize("name, overrides, groups", [
        ("two_state_fermion", ["dt=0.002", "statistics=boson", "initial.diagonal=[0.5,1.5]"],
         {"integrator": {"t0": 0.0, "t1": 3.0, "dt": 0.002, "record_every": 10},
          "statistics": "boson", "initial": {"diagonal": [0.5, 1.5]}}),
        ("fock_closure_2mode", ["initial.occupations=[0.75,0.25]"],
         {"initial": {"occupations": [0.75, 0.25]}}),
    ])
    def test_override_run_equals_a_run_of_the_edited_file(self, tmp_path, name, overrides, groups):
        # a variant is made on the raw JSON: by --override, or by editing the file
        raw = json.loads(resolve_scenario_path(name).read_text(encoding="utf-8"))
        raw.update(groups)
        edited, overridden = tmp_path / "edited", tmp_path / "overridden"
        argv = ["run", name, "--out-dir", str(overridden), "--quiet"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        assert run(write_scenario(tmp_path, raw), out_dir=str(edited), quiet=True) == 0
        for file in ("states.csv", "diagnostics.csv"):
            assert (edited / file).read_bytes() == (overridden / file).read_bytes()
        summaries = [json.loads((out / "summary.json").read_text(encoding="utf-8"))
                     for out in (edited, overridden)]
        for summary in summaries:
            del summary["wall_time_s"]
        assert summaries[0] == summaries[1]


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

    def test_a_start_a_rounding_error_below_zero_reports_its_crossing(self, tmp_path):
        # at the coupling sqrt(5/54) the counterexample matrix is positive
        # and rank-deficient, and its minimum eigenvalue rounds to -1.1e-16;
        # dephasing drives it to -0.0008 by the first snapshot
        b = math.sqrt(5.0 / 54.0)
        raw = json.loads(resolve_scenario_path("appendix_d").read_text(encoding="utf-8"))
        raw["initial"] = {"matrix": [[1 / 3, b, b], [b, 1 / 3, 2 / 9], [b, 2 / 9, 1 / 3]]}
        raw["integrator"] = {"t0": 0.0, "t1": 0.1, "dt": 0.01}
        out = tmp_path / "o"
        assert run(write_scenario(tmp_path, raw), out_dir=str(out), quiet=True) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        _, diagnostics = read_csv(out / "diagnostics.csv")
        assert -1e-15 < diagnostics[0, 2] < 0.0
        assert diagnostics[1, 2] < -1e-4
        assert 0.0 < summary["min_eig_crossing_time"] < 0.01

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
        # occupation, oracle and matrix runs: the dense jumps, a coherent
        # start and a mapped run store packed hermitian snapshots
        dense = write_scenario(tmp_path, _dense_jumps_raw(t1=0.02), "dense_jumps.json")
        for scenario, overrides, key in (
            ("homogeneous_chain", ["t1=0.2"], "duality_residual_max"),
            ("fock_closure_2mode", [], "closure_residual_t0"),
            (str(dense), [], "duality_residual_max"),
            ("low_density_sweep", ["t1=0.5"], "duality_residual_max"),
            ("appendix_d", ["t1=5"], "violations"),
        ):
            a, b = (tmp_path / Path(scenario).stem / side for side in "ab")
            for out in (a, b):
                assert run(scenario, overrides=overrides, out_dir=str(out), quiet=True) == 0
            for name in ("states.csv", "diagnostics.csv"):
                assert (a / name).read_bytes() == (b / name).read_bytes()
            summaries = [json.loads((out / "summary.json").read_text(encoding="utf-8"))
                         for out in (a, b)]
            for summary in summaries:
                del summary["wall_time_s"]
            assert summaries[0] == summaries[1]
            assert key in summaries[0]

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
        # occupation-kinetics run's, column by column, and both follow the
        # kinetics of tests/occupation_reference.py integrated by scipy
        chain_out = tmp_path / "chain"
        assert run("homogeneous_chain", overrides=["t1=1.0", "dt=0.0001"],
                   out_dir=str(chain_out), quiet=True) == 0
        raw = json.loads(resolve_scenario_path("homogeneous_chain").read_text(encoding="utf-8"))
        qc_path = write_scenario(tmp_path, _quasiclassical_twin(raw, t1=1.0, dt=0.0001),
                                 name="chain_qc.json")
        qc_out = tmp_path / "qc"
        assert run(qc_path, out_dir=str(qc_out), quiet=True) == 0
        header, a = read_csv(chain_out / "states.csv")
        _, b = read_csv(qc_out / "states.csv")
        cols = [header.index(f"re_{i}_{i}") for i in range(raw["dimension"])]
        assert np.abs(a[:, cols] - b[:, cols]).max() <= 1e-8

        from scipy.integrate import solve_ivp

        w = scenario_from_dict(raw).network.rate_matrix()
        sign = Statistics.FERMION.sign
        t = b[:, 0]
        reference = solve_ivp(lambda _, n: occupation_row(w, sign, n), (t[0], t[-1]),
                              raw["initial"]["diagonal"], method="DOP853", t_eval=t,
                              rtol=1e-12, atol=1e-14)
        assert reference.success
        for run_states in (a, b):
            assert np.abs(run_states[:, cols] - reference.y.T).max() <= 1e-9

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
        assert capsys.readouterr().err.startswith("error: equation: expected one of ")

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
            # refused before the 10^7 x 10^7 Hamiltonian is allocated
            ({"equation": "markoff", "initial": {"preset": "empty"}}, ["dimension=10000000"],
             "dimension"),
            # the name is a directory under $QME_OUT_DIR and may not leave it
            ({"name": "../beside"}, [], "name"),
            ({"name": "/tmp/elsewhere"}, [], "name"),
            ({"name": "a\\b"}, [], "name"),
            ({"name": ".."}, [], "name"),
            ({"name": "."}, [], "name"),
            # the removed duality switch is an unknown output key
            ({}, ["output.duality=false"], "output"),
            # 10^7 recorded steps of a 5 x 5 state would store 4 GB
            ({"dimension": 5, "initial": {"diagonal": [1.0, 0.0, 0.0, 0.0, 0.0]}},
             ["t1=1", "dt=1e-7", "record_every=1"], "integrator.record_every"),
            # 0.5 * (m + m^+) overflows, so the spectrum is NaN and passed every bound
            ({"initial": {"diagonal": [1.0, 1e308]}}, [], "initial"),
            # unhashable, so the equation table lookup itself raised
            ({"equation": []}, [], "equation"),
            ({"equation": {}}, [], "equation"),
            # too large to convert to a float in the snapshot budget
            ({}, ["record_every=1" + "0" * 400], "integrator.record_every"),
            # network and Fock model errors name the scenario key, not the field
            # of the object built from it
            ({}, ["network.basis=[[1e308,0],[0,1]]"], "network.basis"),
            ({}, ['network.rates=[{"from":0,"to":0,"rate":1.0}]'], "network.rates[(0,0)]"),
            ({"equation": "fock_oracle", "statistics": "boson", "initial": {"occupations": [1, 0]},
              "fock": {"energies": [0.0, 1.0], "boson_cutoff": 0}}, [], "fock.boson_cutoff"),
            # echoed values are shortened
            ({"name": "a/" * 3000}, [], "name"),
            ({"equation": "markoff", "initial": {"preset": "x" * 5000}}, [], "initial.preset"),
            # echoed keys and indices are shortened too
            ({}, ["k" * 5000 + "=1"], "['kkkkkkkkkkkk...kkkkkkkkkkkkk']"),
            ({"initial": {"k" * 5000: 1}}, [], "initial"),
            ({}, ["network." + "k" * 5000 + "=1"], "network"),
            ({"network": {"rates": [{"from": 10**3000, "to": 1, "rate": 1.0}]}}, [],
             "network.rates[(1,100000000000000000...0000000000000000000)]"),
            ({"equation": "markoff", "dephasing": [{"pair": [10**3000, 0], "rate": 1.0}]}, [],
             "dephasing[(100000000000000000...0000000000000000000,0)]"),
            # the Fock model's basis bound names the start, whose sectors it holds:
            # every sector of 18 fermion modes, and 600 bosons in 3 modes
            ({"equation": "fock_oracle", "dimension": 18, "initial": {"occupations": [0.5] * 18},
              "fock": {"energies": [0.0] * 18}}, [], "initial.occupations"),
            ({"equation": "fock_oracle", "statistics": "boson", "dimension": 3,
              "initial": {"occupations": [600, 0, 0]}, "fock": {"energies": [0.0, 1.0, 2.0]}},
             [], "initial.occupations"),
            # a fermion model ignores the cutoff but still refuses a malformed one
            ({"equation": "fock_oracle", "initial": {"occupations": [1, 0]},
              "fock": {"energies": [0.0, 1.0]}}, ["fock.boson_cutoff=-5"], "fock.boson_cutoff"),
            ({}, ["dimension=1" + "0" * 400], "dimension"),
            ({}, ["record_every=-1" + "0" * 3000], "integrator.record_every"),
            # a pair past the last ket of a partial basis, under a diagonal start
            ({"equation": "markoff", "network": {"rates": [], "basis": [[1, 0]]},
              "dephasing": [{"pair": [0, 1], "rate": 1.0}]}, [], "dephasing[(0,1)]"),
        ],
        ids=["nan_rate", "string_rate", "t1_abc", "t1_infinity", "record_every_fraction",
             "dimension_bool", "statistics_number", "rates_not_a_list", "basis_ragged",
             "out_dir_number", "steps_over_limit", "steps_infinite", "dimension_over_limit",
             "name_parent_path", "name_absolute", "name_backslash", "name_dotdot", "name_dot",
             "output_duality", "snapshots_over_budget", "fermion_occupation_1e308",
             "equation_list", "equation_object", "record_every_huge", "basis_overflows",
             "self_transition", "boson_cutoff_zero", "name_long", "preset_long",
             "override_key_long", "initial_key_long", "network_key_long", "rate_index_long",
             "dephasing_index_long", "fock_basis_over_limit", "boson_basis_over_limit",
             "fermion_boson_cutoff_negative", "dimension_huge",
             "record_every_negative_huge", "dephasing_past_partial_basis"],
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
        assert len(err) < 200

    def test_integer_past_the_digit_limit_exits_one(self, tmp_path, capsys):
        # Python refuses to convert an integer of more than 4300 digits
        huge = "1" * 5000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(minimal_scenario()).replace('"dimension": 2',
                                                              f'"dimension": {huge}'),
                        encoding="utf-8")
        assert run(path, quiet=True) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not valid JSON ") and err.count("\n") == 1
        argv = ["run", str(write_scenario(tmp_path, minimal_scenario())), "--quiet",
                "--out-dir", str(tmp_path / "o"), "--override", f"dimension={huge}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dimension: ") and err.count("\n") == 1
        # the 5000 digits are echoed shortened
        assert len(err) < 200

    def test_unreadable_scenario_file_exits_one(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"name": "\xe9"}')
        for path in (tmp_path, latin1):  # a directory, then a file that is not UTF-8
            assert run(path, quiet=True) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("blocked", ["parent", "states.csv", "summary.json"])
    def test_unwritable_output_exits_one(self, tmp_path, capsys, blocked):
        # a regular file where the output directory's parent should be, or a
        # directory where an output file should be
        if blocked == "parent":
            (tmp_path / "file").write_text("", encoding="utf-8")
            out = tmp_path / "file" / "sub"
        else:
            out = tmp_path / "o"
            (out / blocked).mkdir(parents=True)
        argv = ["run", "two_state_boson", "--override", "t1=0.05", "--out-dir", str(out), "--quiet"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output.dir: ")
        assert err.count("\n") == 1 and "Traceback" not in err


def _bundled_raw(name, *overrides):
    raw = json.loads(resolve_scenario_path(name).read_text(encoding="utf-8"))
    return apply_overrides(raw, overrides)


class TestMemoryBounds:
    """Inputs that would allocate gigabytes are refused at parse time."""

    def _exits_one(self, tmp_path, capsys, overrides, prefix):
        argv = ["run", "fock_closure_2mode", "--out-dir", str(tmp_path / "o"), "--quiet"]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_boson_sector_over_the_bound_exits_one(self, tmp_path, capsys):
        # N = 131072 bosons in 2 modes: 131073 states, one above the bound
        self._exits_one(tmp_path, capsys, ["statistics=boson", "initial.occupations=[131072,0]"],
                        "error: initial.occupations: the basis of these particle numbers over 2 "
                        "modes exceeds the limit of 131072 states")

    def test_boson_sector_bound_is_2_to_the_17(self):
        # two modes: N = 131071 is 131072 states, N = 131072 one more; the
        # window records three snapshots so that the budget is not what decides
        overrides = ("statistics=boson", "record_every=1000")
        scenario = scenario_from_dict(_bundled_raw("fock_closure_2mode", *overrides,
                                                   "initial.occupations=[131071,0]"))
        assert scenario.model.dim == 2**17
        with pytest.raises(ScenarioError, match="^initial.occupations: the basis .* exceeds the limit of 131072 states$"):
            scenario_from_dict(_bundled_raw("fock_closure_2mode", *overrides,
                                            "initial.occupations=[0,131072]"))

    def test_oracle_budget_counts_the_fock_dimension(self, tmp_path, capsys):
        # a snapshot is the S = 1024 populations of every sector of 10 fermion
        # modes, 8 KB: the bundled window's 101 snapshots run, while
        # 2 * 10^5 + 1 exceed the 2^30 / (8 S) = 131072 that fit
        overrides = ["dimension=10", f"fock.energies={[0.0] * 10}",
                     f"initial.occupations={[0.5] * 10}"]
        argv = ["run", "fock_closure_2mode", "--out-dir", str(tmp_path / "o"), "--quiet"]
        assert main(argv + [arg for item in overrides for arg in ("--override", item)]) == 0
        self._exits_one(tmp_path, capsys, overrides + ["dt=1e-5", "record_every=1"],
                        "error: integrator.record_every: ")

    @pytest.mark.parametrize("d, coherence", [(8, 0.0), (8, 0.01), (48, 0.0)],
                             ids=["diagonal", "coherent", "diagonal_d48"])
    def test_budget_counts_the_state_the_run_integrates(self, monkeypatch, d, coherence):
        # a fermion chain of nonlinear_master (a dual run) over 64 steps
        # recorded every step stores 65 states, each one member of the pair:
        # the 8 d bytes of the particle occupations, which a diagonal start
        # integrates and which are counted as SNAPSHOT_MIN_BYTES = 512 up to
        # d = 64, or at d = 8 a 16 d^2 = 1024-byte matrix.  At d = 48 the
        # pair [n, 1 - n], 16 d = 768 bytes, would not fit; one member does
        monkeypatch.setattr(integrator, "MAX_SNAPSHOT_BYTES", 65 * 512)
        start = np.diag(np.linspace(0.9, 0.1, d))
        start[0, 1] = start[1, 0] = coherence
        rates = [{"from": s, "to": t, "rate": 0.5} for s in range(d) for t in (s - 1, s + 1)
                 if 0 <= t < d]
        raw = {"name": "chain8", "equation": "nonlinear_master", "statistics": "fermion",
               "dimension": d, "initial": {"matrix": start.tolist()},
               "hamiltonian": {"diagonal": np.linspace(0.0, 2.0, d).tolist()},
               "network": {"rates": rates},
               "integrator": {"t1": 1.0, "dt": 1 / 64, "record_every": 1}}
        if coherence:
            with pytest.raises(ScenarioError, match="^integrator.record_every: .* 65 states of 1024 bytes"):
                scenario_from_dict(raw)
            return
        scenario = scenario_from_dict(raw)
        flow, start = scenario.occupation_run
        assert scenario.dual and start.nbytes == 8 * d and flow is scenario.occupation_run[0]
        traj, _ = cli._run_matrix(scenario)
        assert len(traj) == len(traj.duality) == 65 and traj.states[0].shape == (d,)

    def test_ten_million_tiny_snapshots_are_refused(self):
        # 10^7 recorded steps of the particle occupations of a d = 5 chain
        # hold 400 MB of data, and their arrays and diagnostics rows about 4.5 GB
        raw = _bundled_raw("homogeneous_chain", "t1=1", "dt=1e-7", "record_every=1")
        with pytest.raises(ScenarioError, match=r"states of 40 bytes \(counted as 512\), more than"):
            scenario_from_dict(raw)


class TestFockOverflow:
    """Oracle energies or rates whose many-body generator overflows are refused
    while the model is built: one `error:` line naming the field, no numpy
    warning on stderr."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (["fock.energies=[1e308,-1e308]"], "fock.energies"),
            (['network.rates=[{"from": 0, "to": 1, "rate": 1e308}]'], "network.rates"),
            # finite alone; at N = 4 the boson factors n_src (n_dest + 1) sum to 20,
            # which takes it out of range
            (["statistics=boson", "initial.occupations=[4,0]",
              'network.rates=[{"from": 0, "to": 1, "rate": 1e307}]'], "network.rates"),
        ],
        ids=["energies", "rate", "boson_rate"],
    )
    def test_exits_one_with_one_line(self, tmp_path, overrides, field):
        argv = [sys.executable, "-m", "qme.cli", "run", "fock_closure_2mode",
                "--out-dir", str(tmp_path / "o"), "--quiet"]
        for item in overrides:
            argv += ["--override", item]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {field}: the many-body ")
        assert result.stderr.count("\n") == 1, result.stderr


class TestFockPopulationPath:
    """`qme run` integrates the oracle's populations; the coherent flow through
    `evolve` is the reference."""

    @pytest.mark.parametrize(
        "overrides",
        [(), ("statistics=boson",), ("initial.occupations=[0.5,0.5]",)],
        ids=["fermion", "boson", "half_filled"],
    )
    def test_matches_the_coherent_integration(self, overrides):
        scenario = scenario_from_dict(_bundled_raw("fock_closure_2mode", *overrides))
        traj, extra = cli._run_fock(scenario)
        p0, model = scenario.start, scenario.model
        initial = DensityMatrix(np.diag(p0), scenario.statistics)
        coherent = evolve(cli._spec(scenario, model.flow), initial)
        assert traj.duality is None
        assert np.array_equal(traj.times, coherent.times)
        reduced = [reduce_one_particle(model, m) for m in coherent.states]
        # the run records the occupations, the diagonal of each reduced matrix
        assert all(z.shape == (model.modes,) for z in traj.states)
        assert max(np.abs(np.diag(z) - m).max() for z, m in zip(traj.states, reduced)) <= 1e-13
        drift = np.abs(coherent.trace - coherent.trace[0]).max()
        assert abs(extra["many_body_trace_drift"] - drift) <= 1e-13
        assert "cutoff_contamination_final" not in extra
        assert extra["closure_residual_t0"] == closure_residual_at_t0(model, p0)

    def test_coherent_flow_is_evaluated_once(self, monkeypatch):
        # the benchmark's tracer wraps these two names in qme.cli as its
        # fock_oracle.rhs and fock_oracle.closure spans
        calls = {"rhs_fock_lindblad": [], "closure_residual_at_t0": []}
        for name, seen in calls.items():
            wrapped = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, f=wrapped, seen=seen: seen.append(a) or f(*a))
        scenario = scenario_from_dict(_bundled_raw("fock_closure_2mode", "t1=0.1"))
        traj, _ = cli._run_fock(scenario)
        assert len(traj) == 6
        assert [len(seen) for seen in calls.values()] == [1, 1]
        (model, p0), = calls["closure_residual_at_t0"]
        assert p0.shape == (model.dim,) and p0.dtype == float
        # the t0 guard reads the populations themselves: no D x D object, and
        # the coherent flow is never built
        (_, guarded), = calls["rhs_fock_lindblad"]
        assert guarded is p0
        assert "flow" not in vars(model)
        assert "one_particle_entries" not in vars(model)

    @pytest.mark.parametrize("overrides", [(), ("statistics=boson",)], ids=["fermion", "boson"])
    def test_a_run_builds_its_model_once(self, overrides, monkeypatch, tmp_path):
        # parsing builds the start state to fail fast; the run takes it over
        built = []

        class CountingModel(FockModel):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(cli, "FockModel", CountingModel)
        assert run("fock_closure_2mode", overrides=overrides, out_dir=str(tmp_path), quiet=True) == 0
        assert len(built) == 1

    def test_corrupted_population_table_is_refused(self, monkeypatch, tmp_path, capsys):
        class CorruptedModel(FockModel):
            def __post_init__(self):
                super().__post_init__()
                good = self.populations
                # cached on the instance, so the run reads the mutated table
                self.__dict__["populations"] = PopulationFlow(good.dim, good.src, good.dst,
                                                              good.rate * (1 + 1e-9))

        monkeypatch.setattr(cli, "FockModel", CorruptedModel)
        scenario = scenario_from_dict(_bundled_raw("fock_closure_2mode"))
        with pytest.raises(ValueError, match="population flow departs from the many-body flow"):
            cli._run_fock(scenario)
        argv = ["run", "fock_closure_2mode", "--out-dir", str(tmp_path / "o"), "--quiet"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fock oracle: the population flow departs")
        assert err.count("\n") == 1


#: A coherent start for the two-orbital fermion scenarios: it takes the matrix path.
COHERENT_START = 'initial={"matrix": [[0.8, 0.2], [0.2, 0.2]]}'


def _counting_trajectories(monkeypatch):
    """Patch ``Trajectory.__init__`` to note every trajectory built."""
    built = []
    init = Trajectory.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Trajectory, "__init__", counting_init)
    return built


def test_fermion_run_builds_one_trajectory(monkeypatch, tmp_path):
    """A coherent fermion run steps its particle and hole states as one pair
    (``flow.paired()``) in one ``evolve`` call and builds one trajectory, of
    the particle state with the duality residuals of the pair: no hole run
    is integrated or streamed beside it."""
    built = _counting_trajectories(monkeypatch)
    calls = []
    monkeypatch.setattr(cli, "evolve",
                        lambda spec, initial: calls.append((spec.rhs.pair, initial)) or evolve(spec, initial))
    argv = ["run", "two_state_fermion", "--override", "t1=0.2", "--override", COHERENT_START,
            "--out-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert len(built) == 1 and [pair for pair, _ in calls] == [True]
    assert isinstance(calls[0][1], DensityMatrix)
    assert built[0].states[0].shape == (2, 2) and len(built[0].duality) == 21
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header[-1] == "duality_residual" and len(rows) == 21


def test_fermion_occupation_run_builds_one_trajectory(monkeypatch, tmp_path):
    """A diagonal fermion start runs its particle and hole occupations as one
    pair: one ``evolve`` call and one trajectory, of the d particle
    occupations, and no hole run of its own."""
    built = _counting_trajectories(monkeypatch)
    stored = []

    def spying(spec, initial):
        traj = evolve(spec, initial)
        stored.append([z.shape for z in traj.states])
        return traj

    monkeypatch.setattr(cli, "evolve", spying)
    argv = ["run", "two_state_fermion", "--override", "t1=0.2", "--out-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 0
    assert [traj.states[0].shape for traj in built] == [(2,)]
    assert stored == [[(2,)] * 21]
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header[-1] == "duality_residual" and len(rows) == 21


def test_no_trajectory_is_rewritten_after_it_is_built(monkeypatch, tmp_path):
    """A paired occupation run returns a new trajectory of its particle
    occupations: no field of a built trajectory is reassigned, so its
    diagnostics stay those of its states."""
    rewritten = []
    assign = Trajectory.__setattr__

    def noting(self, name, value):
        if name in vars(self):
            rewritten.append(name)
        assign(self, name, value)

    monkeypatch.setattr(Trajectory, "__setattr__", noting)
    for name in ("two_state_fermion", "two_state_boson"):
        assert run(name, overrides=["t1=0.2"], out_dir=str(tmp_path / name), quiet=True) == 0
    assert rewritten == []


def test_occupation_fermion_run_takes_one_flow_call_a_stage(monkeypatch, tmp_path):
    """``qme run homogeneous_chain`` evaluates its flow 4 times a step, once
    per RK stage for the particle and hole occupations together (stepped
    apart, they took 8).  Its duality column is exactly that of a hole run
    of ``flow.hole()`` integrated on its own through ``snapshots``."""
    calls = []
    call = OccupationFlow.__call__
    monkeypatch.setattr(OccupationFlow, "__call__",
                        lambda self, t, n: calls.append(n.size) or call(self, t, n))
    assert run("homogeneous_chain", overrides=["t1=1"], out_dir=str(tmp_path), quiet=True) == 0
    scenario = scenario_from_dict(_bundled_raw("homogeneous_chain", "t1=1"))
    steps = round((scenario.t1 - scenario.t0) / scenario.dt)
    assert calls == [2 * scenario.dimension] * (4 * steps)

    monkeypatch.setattr(OccupationFlow, "__call__", call)
    n = scenario.start.matrix.diagonal().real
    flow = cli._EQUATIONS[scenario.equation].build(scenario).occupation_flow()
    particle = evolve(cli._spec(scenario, flow), n)
    hole = snapshots(cli._spec(scenario, flow.hole()), 1.0 - n)
    header, rows = read_csv(tmp_path / "diagnostics.csv")
    assert header[-1] == "duality_residual"
    assert rows[:, -1].tolist() == duality_residuals(particle, hole)


@pytest.mark.parametrize("name", ["homogeneous_chain", "low_density_sweep", "two_state_fermion"])
def test_streamed_duality_equals_the_stored_check(name):
    """The CLI's residuals, read from the live pair, are bitwise those of
    its particle trajectory against a stored hole trajectory, and those of
    lone particle and hole runs, each an ``evolve`` of its own: of the
    matrix flow and ``flow.hole()`` from the coherent start of
    low_density_sweep, and of ``occupation_flow()`` and its hole flow from
    the diagonal starts of the others, which record occupations."""
    scenario = scenario_from_dict(_bundled_raw(name))
    assert cli._EQUATIONS[scenario.equation].dual and scenario.statistics is Statistics.FERMION
    traj, _ = cli._run_matrix(scenario)
    streamed = traj.duality
    flow = cli._EQUATIONS[scenario.equation].build(scenario)
    if traj.states[0].ndim == 1:
        n = scenario.start.matrix.diagonal().real
        flow, start, complement = flow.occupation_flow(), n, 1.0 - n
    else:
        start, complement = scenario.start, hole_start(scenario.start)
    particle = evolve(cli._spec(scenario, flow), start)
    hole = evolve(cli._spec(scenario, flow.hole()), complement)
    assert streamed.tolist() == duality_residuals(traj, hole)
    assert streamed.tolist() == duality_residuals(particle, hole)
    assert [a.tobytes() for a in traj.stored] == [a.tobytes() for a in particle.stored]


#: The linear Markoff equation from a diagonal start, with dephasing.
MARKOFF_DIAGONAL = {
    "name": "markoff_diagonal", "equation": "markoff", "statistics": "fermion", "dimension": 3,
    "initial": {"diagonal": [0.5, 0.25, 0.0]}, "hamiltonian": {"diagonal": [0.0, 1.0, 2.5]},
    "network": {"rates": [{"from": 0, "to": 1, "rate": 1.0}, {"from": 1, "to": 2, "rate": 0.7},
                          {"from": 2, "to": 0, "rate": 0.3}]},
    "dephasing": [{"pair": [0, 1], "rate": 0.4}, {"pair": [1, 2], "rate": 2.0}],
    "integrator": {"t1": 0.5, "dt": 1e-3, "record_every": 20},
}


#: A fermion network with every rate present: a change in the order of the
#: rate sums would show here, where the sparse bundled networks hide it.
_DENSE_RNG = np.random.default_rng(6)
DENSE_FERMION = {
    "name": "dense_fermion", "equation": "nonlinear_master", "statistics": "fermion", "dimension": 6,
    "initial": {"diagonal": [1.0, 0.0] + [float(v) for v in _DENSE_RNG.uniform(0.0, 1.0, 4)]},
    "hamiltonian": {"diagonal": [float(v) for v in _DENSE_RNG.uniform(-2.0, 2.0, 6)]},
    "network": {"rates": [{"from": a, "to": b, "rate": float(_DENSE_RNG.uniform(0.1, 1.0))}
                          for a in range(6) for b in range(6) if a != b]},
    "integrator": {"t1": 0.5, "dt": 1e-3, "record_every": 20},
}


def _particle_starts(monkeypatch):
    """Patch ``cli.evolve`` to note whether each run it starts is on
    occupations (True) or on a matrix (False)."""
    starts = []

    def spying(spec, initial):
        starts.append(isinstance(initial, np.ndarray))
        return evolve(spec, initial)

    monkeypatch.setattr(cli, "evolve", spying)
    return starts


def _numbers_close(a, b, tol: float) -> bool:
    """Two summaries with the same keys, their numbers within ``tol``, and
    everything else equal."""
    if a.keys() != b.keys():
        return False
    for key, x in a.items():
        y = b[key]
        if isinstance(x, (int, float, list)):
            x, y = np.array(x, float), np.array(y, float)
            if x.shape != y.shape or not np.abs(x - y).max(initial=0.0) <= tol:
                return False
        elif x != y:
            return False
    return True


def _occupation_and_matrix_outputs(path, tmp_path, monkeypatch, repeat):
    """The outputs of ``path`` run on its occupations and then with
    ``NetworkFlow.occupation_flow`` off (the matrix path), t1 = 0.5: the
    states and diagnostics bytes and the summary less its wall time.  With
    ``repeat`` each run is made twice and must repeat byte for byte."""
    def outputs(folder):
        assert run(path, overrides=["t1=0.5"], out_dir=str(folder), quiet=True) == 0
        summary = json.loads((folder / "summary.json").read_text(encoding="utf-8"))
        del summary["wall_time_s"]
        return [(folder / f).read_bytes() for f in ("states.csv", "diagnostics.csv")], summary

    on_occupations = outputs(tmp_path / "occupations")
    if repeat:
        assert outputs(tmp_path / "occupations_again") == on_occupations
    monkeypatch.setattr(NetworkFlow, "occupation_flow", lambda self: None)
    on_matrix = outputs(tmp_path / "matrix")
    if repeat:
        assert outputs(tmp_path / "matrix_again") == on_matrix
    return on_occupations, on_matrix


@pytest.mark.parametrize("name", ["homogeneous_chain", "two_state_fermion", "two_state_boson"])
def test_occupation_run_writes_the_matrix_run_bytes(name, tmp_path, monkeypatch):
    """A diagonal start under a homogeneous flow runs on its occupations and
    writes what the matrix run writes, byte for byte; the summary differs in
    its wall time only."""
    starts = _particle_starts(monkeypatch)
    on_occupations, on_matrix = _occupation_and_matrix_outputs(name, tmp_path, monkeypatch, False)
    assert on_matrix == on_occupations
    assert starts == [True, False]


def _quasiclassical_twin(raw, **integrator):
    """The quasiclassical scenario of a bundled homogeneous nonlinear_master
    scenario: its rates, its diagonal start as occupations, its window with
    ``integrator`` overrides, and no Hamiltonian."""
    return {
        "name": raw["name"] + "_qc",
        "equation": "quasiclassical",
        "statistics": raw["statistics"],
        "dimension": raw["dimension"],
        "initial": {"occupations": raw["initial"]["diagonal"]},
        "network": raw["network"],
        "integrator": dict(raw["integrator"], **integrator),
    }


@pytest.mark.parametrize("name", ["two_state_fermion", "two_state_boson", "homogeneous_chain"])
def test_quasiclassical_twin_writes_the_bundled_run_states(name, tmp_path):
    """The quasiclassical equation is the homogeneous network flow with no
    Hamiltonian: from the bundled diagonal start it writes the states of the
    bundled nonlinear_master run, byte for byte."""
    raw = _bundled_raw(name)
    assert raw["equation"] == "nonlinear_master"
    twin = write_scenario(tmp_path, _quasiclassical_twin(raw))
    assert run(name, out_dir=str(tmp_path / "bundled"), quiet=True) == 0
    assert run(twin, out_dir=str(tmp_path / "twin"), quiet=True) == 0
    states = [(tmp_path / folder / "states.csv").read_bytes() for folder in ("bundled", "twin")]
    assert states[0] == states[1]


@pytest.mark.parametrize("name", ["markoff_diagonal", "dense_fermion"])
def test_occupation_run_matches_the_matrix_run_to_1e_14(name, tmp_path, monkeypatch):
    """Two diagonal starts whose occupation run agrees with the matrix run to
    rounding: on a network with every rate present the occupation flow's
    quadratic form sums in another order than the matrix flow, and the
    linear markoff flow takes its exact map on d occupations against one on
    2d^2 matrix entries.  There the states, diagnostics and summary numbers
    of the two runs agree to 1e-14, and each run repeats byte for byte."""
    raw = {"markoff_diagonal": MARKOFF_DIAGONAL, "dense_fermion": DENSE_FERMION}[name]
    path = write_scenario(tmp_path, raw)
    starts = _particle_starts(monkeypatch)
    on_occupations, on_matrix = _occupation_and_matrix_outputs(path, tmp_path, monkeypatch, True)
    assert starts == [True, True, False, False]
    for a, b in zip(on_matrix[0], on_occupations[0]):
        assert a.splitlines()[0] == b.splitlines()[0]
        x, y = (np.loadtxt(io.BytesIO(z), delimiter=",", skiprows=1) for z in (a, b))
        assert x.shape == y.shape and np.abs(x - y).max() <= 1e-14
    assert _numbers_close(on_matrix[1], on_occupations[1], 1e-14)


@pytest.mark.parametrize("case", [
    "off_diagonal_h", "rotated_basis", "coherent_start", "generalized_jumps", "general",
])
def test_occupation_run_declined(case, monkeypatch):
    raw = {
        "off_diagonal_h": minimal_scenario(hamiltonian={"matrix": [[0.0, 0.1], [0.1, 1.0]]}),
        "rotated_basis": minimal_scenario(network={
            "rates": [{"from": 0, "to": 1, "rate": 1.0}],
            "basis": [[0.5**0.5, 0.5**0.5], [0.5**0.5, -(0.5**0.5)]]}),
        "coherent_start": _bundled_raw("low_density_sweep", "t1=0.1"),
        "generalized_jumps": {k: v for k, v in minimal_scenario(
            equation="generalized_jumps", jump_operators=[[[0.0, 0.0], [1.0, 0.0]]]).items()
            if k != "network"},
        "general": {k: v for k, v in minimal_scenario(
            equation="general", loss_operator=[[-0.5, 0.0], [0.0, 0.0]],
            gain_operator=[[0.0, 0.0], [0.0, -0.5]]).items() if k != "network"},
    }[case]
    starts = _particle_starts(monkeypatch)
    cli._run_matrix(scenario_from_dict(raw))
    cli._run_matrix(scenario_from_dict(minimal_scenario()))
    assert starts == [False, True]


def _dense_jumps_raw(t1):
    """A d=32 ``generalized_jumps`` fermion scenario in the benchmark's
    ``jumps_dense`` shape: 4 dense jumps, a hermitian H and a coherent start."""
    d, rng = 32, np.random.default_rng(3)

    def random_complex():
        return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

    def to_json(m):
        return [[[z.real, z.imag] for z in row] for row in m.tolist()]

    x = random_complex()
    q, _ = np.linalg.qr(random_complex())
    rho = (q * rng.uniform(0.2, 0.8, d)) @ q.conj().T
    return {
        "name": "dense_jumps", "equation": "generalized_jumps", "statistics": "fermion",
        "dimension": d, "initial": {"matrix": to_json(0.5 * (rho + rho.conj().T))},
        "hamiltonian": {"matrix": to_json((x + x.conj().T) / (2.0 * np.sqrt(d)))},
        "jump_operators": [to_json(random_complex() * np.sqrt(0.5 / d)) for _ in range(4)],
        "integrator": {"t0": 0.0, "t1": t1, "dt": 2e-3},
    }


#: Peak of the d = 32 dual run below when its hole run was a second stream
#: of snapshots beside the particle run (tracemalloc, fresh interpreter,
#: 1.1933 to 1.1948 MB over six runs), rounded up.
STREAMED_DUAL_RUN_PEAK = 1.195e6


@pytest.mark.memory
def test_fermion_run_peak_memory_stays_below_two_trajectories(tmp_path):
    """A dense fermion run (d=32, 76 snapshots) through ``run`` peaks within
    one d x d complex matrix (16 d^2 bytes) of its peak when the hole run was
    streamed beside the particle run, so that stepping both as one pair
    holds no extra pair-sized (32 d^2-byte) array, let alone a trajectory's
    states (76 * 16 d^2 bytes); the parsed JSON is not held while the
    trajectory is."""
    d = 32
    path = write_scenario(tmp_path, _dense_jumps_raw(t1=0.15))
    tracemalloc.start()
    try:
        code = run(path, out_dir=str(tmp_path / "o"), quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    header, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
    assert header[-1] == "duality_residual" and len(rows) == 76
    assert peak < STREAMED_DUAL_RUN_PEAK + 16 * d**2


#: (scenario, snapshots, rebuilds) of each run whose rebuilds are counted.
_REBUILD_CASES = {
    "dense_jumps_d32": (lambda: _dense_jumps_raw(t1=0.02), 11, 11),
    "appendix_d": (lambda: _bundled_raw("appendix_d", "t1=1"), 21, 21),
    "fock_closure_2mode": (lambda: _bundled_raw("fock_closure_2mode"), 101, 0),
}


@pytest.mark.parametrize("name", list(_REBUILD_CASES))
def test_a_run_rebuilds_each_packed_snapshot_once(tmp_path, monkeypatch, name):
    """A matrix run (the d=32 dense fermion run, and appendix_d, whose rows
    are formatted by one % call) rebuilds each recorded matrix once, in the
    check that packs it, and no more: the summary's final spectrum is the
    one its trajectory took, a duality residual is read from the live pair,
    and both states.csv formatters read the stored reals.  An oracle run
    reads its stored populations and copies none."""
    raw, snapshots_, rebuilds = _REBUILD_CASES[name]
    calls, packing = [], []
    packed, unpacked = integrator._packed, integrator._unpacked

    def counted_packed(state):
        packing.append(state)
        try:
            return packed(state)
        finally:
            packing.pop()

    monkeypatch.setattr(integrator, "_packed", counted_packed)
    monkeypatch.setattr(integrator, "_unpacked",
                        lambda s: calls.append((s.ndim, bool(packing))) or unpacked(s))
    path = write_scenario(tmp_path, raw())
    assert run(path, out_dir=str(tmp_path / "o"), quiet=True) == 0
    assert len(read_csv(tmp_path / "o" / "diagnostics.csv")[1]) == snapshots_
    # each rebuild is of a packed state, inside the check that packs it
    assert calls == [(3, True)] * rebuilds


def test_a_diverging_dual_run_names_the_step_of_its_particle_run(tmp_path, capsys):
    """A fermion jump run whose particle and hole states blow up within the
    first interval exits 1 naming the step at which its particle run alone
    diverges, t = 0.1, as when its hole run followed the particle run."""
    raw = {"name": "runaway_jumps", "equation": "generalized_jumps", "statistics": "fermion",
           "dimension": 2, "initial": {"diagonal": [0.75, 0.25]},
           "hamiltonian": {"matrix": [[0.0, 1.0], [1.0, 0.5]]},
           "jump_operators": [[[0.0, 30.0], [0.0, 0.0]], [[1.0, 0.0], [20.0, 0.0]]],
           "integrator": {"t1": 2.0, "dt": 0.05, "record_every": 4}}
    path = write_scenario(tmp_path, raw)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o"), "--quiet"]) == 1
    assert "integration diverged at t = 0.1 " in capsys.readouterr().err
    scenario = scenario_from_dict(raw)
    flow = cli._EQUATIONS[scenario.equation].build(scenario)
    with pytest.raises(integrator.IntegrationDivergedError) as info:
        evolve(cli._spec(scenario, flow), scenario.start)
    assert info.value.t == 0.1


def test_a_dual_run_validates_each_start_once(tmp_path, monkeypatch):
    """A dense fermion run (d=32) checks one density matrix, its start, when
    the scenario is parsed, and not again when its run begins.  The hole
    start I - rho of its pair is a density matrix when rho is one, and is
    not checked."""
    checked, check = [], operators.require_hermitian
    monkeypatch.setattr(operators, "require_hermitian",
                        lambda m, tol, name="matrix": checked.append(name) or check(m, tol, name))
    path = write_scenario(tmp_path, _dense_jumps_raw(t1=0.02))
    assert run(path, out_dir=str(tmp_path / "o"), quiet=True) == 0
    assert read_csv(tmp_path / "o" / "diagnostics.csv")[0][-1] == "duality_residual"
    assert checked == ["density matrix"]


def test_a_diagonal_start_of_a_jump_run_builds_one_flow(monkeypatch):
    """Only a network flow can keep a diagonal start diagonal, so the parse
    builds no flow to ask: a ``generalized_jumps`` run from a diagonal start
    builds its JumpFlow, with its O(R d^3) drain, once."""
    built = []

    class CountingJumpFlow(JumpFlow):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(cli, "JumpFlow", CountingJumpFlow)
    raw = _dense_jumps_raw(t1=0.02)
    raw["initial"] = {"diagonal": np.linspace(0.9, 0.1, raw["dimension"]).tolist()}
    scenario = scenario_from_dict(raw)
    assert scenario.occupation_run is None and built == []
    traj, _ = cli._run_matrix(scenario)
    assert len(traj) == len(traj.duality) == 11 and len(built) == 1


@pytest.mark.memory
def test_a_parsed_scenario_holds_its_start_once():
    """A parsed d = 256 markoff scenario from a coherent start retains three
    d x d complex matrices, the Hamiltonian, the network's kets and the
    start, and no second copy of the start."""
    d = 256
    start = np.diag(np.full(d, 0.5))
    start[0, 1] = start[1, 0] = 0.25
    raw = {"name": "coherent_markoff", "equation": "markoff", "statistics": "fermion",
           "dimension": d, "initial": {"matrix": start.tolist()},
           "hamiltonian": {"diagonal": np.linspace(0.0, 2.0, d).tolist()},
           "network": {"rates": [{"from": k, "to": k + 1, "rate": 0.5} for k in range(d - 1)]},
           "integrator": {"t1": 0.01, "dt": 1e-3}}
    scenario_from_dict(raw)  # numpy's first-call caches are not the scenario's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scenario = scenario_from_dict(raw)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert scenario.occupation_run is None
    assert retained <= 3 * 16 * d**2 + 256 * 1024


def _ring_rates(modes, base):
    """Hops between neighbouring modes of a ring, both ways."""
    return [{"from": s, "to": d, "rate": base + 0.05 * ((3 * d + s) % 7)}
            for s in range(modes) for d in ((s + 1) % modes, (s - 1) % modes)]


#: Oracle runs past the 4 modes of a full Fock space: 12 fermion modes with a
#: fractional start (the sectors N = 1..11, 4094 states) and 8 bosons in 8
#: modes (one sector of 6435 states, where the cutoff-8 space held 9^8).
LARGE_ORACLES = {
    "fermion_12_modes": dict(
        statistics="fermion", dimension=12,
        initial={"occupations": [1.0, 0.9, 0.7, 0.5, 0.3, 0.1, 0.0, 0.2, 0.4, 0.6, 0.8, 0.95]},
        fock={"energies": np.linspace(0.0, 2.0, 12).tolist()}, network={"rates": _ring_rates(12, 0.3)}),
    "boson_8_in_8_modes": dict(
        statistics="boson", dimension=8, initial={"occupations": [3, 0, 2, 0, 1, 0, 2, 0]},
        fock={"energies": np.linspace(0.0, 2.0, 8).tolist()}, network={"rates": _ring_rates(8, 0.1)}),
}


def _large_oracle(name):
    raw = _bundled_raw("fock_closure_2mode", "t1=0.2", "dt=0.002", "record_every=10")
    raw.update(LARGE_ORACLES[name])
    return raw


def _run_peak(tmp_path, raw):
    """The ``tracemalloc`` peak of a successful ``run`` of the scenario ``raw``."""
    path = write_scenario(tmp_path, raw)
    tracemalloc.start()
    try:
        code = run(path, out_dir=str(tmp_path / "o"), quiet=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


@pytest.mark.memory
def test_oracle_run_peak_memory_holds_no_many_body_matrix(tmp_path):
    """8 bosons in 8 modes (S = 6435) run through ``run`` with a peak below
    10 MB, where one S x S complex state is 662 MB: the populations, the
    transition tables and the t0 guard are all of size S or of the
    transition count."""
    peak = _run_peak(tmp_path, _large_oracle("boson_8_in_8_modes"))
    summary = json.loads((tmp_path / "o" / "summary.json").read_text(encoding="utf-8"))
    assert summary["equation"] == "fock_oracle" and len(summary["final_spectrum"]) == 8
    assert peak < 10e6


@pytest.mark.memory
def test_oracle_run_holds_one_transition_table(tmp_path):
    """8 bosons in 8 modes with every one of the 56 directed rates (S = 6435,
    192,192 transitions) run through ``run`` with a peak below 10 MB: the t0
    guard streams the jumps, so the run holds only the population table it
    integrates, not a coherent flow beside it."""
    raw = _large_oracle("boson_8_in_8_modes")
    raw["network"] = {"rates": [{"from": s, "to": d, "rate": 0.1 + 0.05 * ((3 * d + s) % 7)}
                                for s in range(8) for d in range(8) if d != s]}
    assert _run_peak(tmp_path, raw) < 10e6


@pytest.mark.memory
def test_occupation_run_holds_its_snapshot_budget(tmp_path, monkeypatch):
    """A diagonal fermion chain at d = 64 with 501 snapshots is budgeted at
    the paired occupations it integrates, 2d floats (1 KB) a snapshot, and
    runs within that: its trajectory records the d occupations of each
    snapshot, not their 64 KB diagonal matrix, so the run peaks below 4 MB,
    where 501 such matrices alone take 33 MB unpacked and 16 MB packed."""
    d = 64
    rng = np.random.default_rng(d)
    raw = {"name": "chain_64", "equation": "nonlinear_master", "statistics": "fermion",
           "dimension": d, "initial": {"diagonal": rng.uniform(0.0, 1.0, d).tolist()},
           "network": {"rates": _ring_rates(d, 0.3)},
           "integrator": {"t1": 0.5, "dt": 1e-3, "record_every": 1}}
    starts = _particle_starts(monkeypatch)
    peak = _run_peak(tmp_path, raw)
    assert starts == [True]
    header, rows = read_csv(tmp_path / "o" / "diagnostics.csv")
    assert header[-1] == "duality_residual" and len(rows) == 501
    assert peak <= 4e6


class TestLargeOracles:
    """`qme run` reaches 12 fermion modes and 8 bosons in 8 modes, because the
    oracle holds only the sectors of its start."""

    @pytest.mark.parametrize("name", LARGE_ORACLES)
    def test_runs_and_matches_the_reference(self, name, tmp_path):
        from scipy import sparse
        from scipy.sparse.linalg import expm_multiply

        raw = _large_oracle(name)
        out = tmp_path / "o"
        assert run(write_scenario(tmp_path, raw), out_dir=str(out), quiet=True) == 0
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["many_body_trace_drift"] <= 1e-13
        assert summary["closure_residual_t0"] <= 1e-14
        # each sector's generator is the restricted Kronecker construction
        scenario = scenario_from_dict(raw)
        p0, model = scenario.start, scenario.model
        assert model.sectors == ((8,) if raw["statistics"] == "boson" else tuple(range(1, 12)))
        flow = model.populations
        generator = (sparse.csr_matrix((flow.rate, (flow.dst, flow.src)), shape=(model.dim,) * 2)
                     - sparse.diags(np.bincount(flow.src, flow.rate, minlength=model.dim)))
        reference = population_generator(model)
        assert abs(generator - reference).max() <= 1e-13
        # block by block: no transition leaves its sector
        n = model.occupancies.sum(axis=1)
        assert np.array_equal(n[flow.src], n[flow.dst])
        # and the run's RK4 trajectory ends on the reference's exponential
        exact = model.occupancies.T @ expm_multiply(reference.tocsc() * raw["integrator"]["t1"], p0)
        header, data = read_csv(out / "states.csv")
        final = [data[-1, header.index(f"re_{k}_{k}")] for k in range(model.modes)]
        assert np.abs(final - exact).max() <= 1e-12


#: A valid value for every parameter group at dimension 2.
_GROUP_VALUES = {
    "a_operator": [[-0.5, 0.0], [0.0, -0.2]],
    "loss_operator": [[-0.5, 0.0], [0.0, -0.2]],
    "gain_operator": [[-0.1, 0.0], [0.0, -0.3]],
    "network": {"rates": [{"from": 0, "to": 1, "rate": 1.0}]},
    "dephasing": [{"pair": [0, 1], "rate": 0.1}],
    "jump_operators": [[[0.0, 0.0], [1.0, 0.0]]],
    "fock": {"energies": [0.0, 1.0]},
}


def _table_scenario(equation):
    """A minimal fermion scenario of ``equation`` with its required groups."""
    entry = cli._EQUATIONS[equation]
    raw = {
        "name": f"table_{equation}",
        "equation": equation,
        "statistics": "fermion",
        "dimension": 2,
        "initial": {"occupations": [1.0, 0.0]} if entry.occupations else {"diagonal": [1.0, 0.0]},
        "integrator": {"t1": 0.02, "dt": 0.01},
    }
    raw.update({group: _GROUP_VALUES[group] for group in entry.required})
    return raw


@pytest.mark.parametrize("equation", sorted(cli._EQUATIONS))
class TestEquationTable:
    """Every entry of the equation table is honoured by parsing and running."""

    def test_minimal_scenario_parses(self, equation):
        scenario = scenario_from_dict(_table_scenario(equation))
        assert scenario.equation == equation

    def test_each_required_group_is_missing_when_deleted(self, equation):
        for group in cli._EQUATIONS[equation].required:
            raw = _table_scenario(equation)
            del raw[group]
            with pytest.raises(ScenarioError, match=rf"'{group}'.*required by .* but missing"):
                scenario_from_dict(raw)

    def test_groups_of_other_equations_are_not_accepted(self, equation):
        entry = cli._EQUATIONS[equation]
        foreign = set(_GROUP_VALUES) - set(entry.required) - set(entry.optional)
        assert foreign
        for group in foreign:
            raw = _table_scenario(equation)
            raw[group] = _GROUP_VALUES[group]
            with pytest.raises(ScenarioError, match=rf"'{group}'.*not accepted"):
                scenario_from_dict(raw)

    def test_hamiltonian_rejected_exactly_for_occupation_equations(self, equation):
        raw = _table_scenario(equation)
        raw["hamiltonian"] = {"diagonal": [0.0, 1.0]}
        if cli._EQUATIONS[equation].occupations:
            with pytest.raises(ScenarioError, match="'hamiltonian'.*not accepted"):
                scenario_from_dict(raw)
        else:
            assert scenario_from_dict(raw).hamiltonian[1, 1] == 1.0

    def test_fermion_run_writes_duality_exactly_when_dual(self, equation, tmp_path):
        path = write_scenario(tmp_path, _table_scenario(equation))
        assert run(path, out_dir=str(tmp_path / "o"), quiet=True) == 0
        header, _ = read_csv(tmp_path / "o" / "diagnostics.csv")
        assert ("duality_residual" in header) == cli._EQUATIONS[equation].dual


def _readme_table_keys(heading):
    """The backquoted names in the first column of the table under ``heading``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = text.split(f"\n{heading}\n", 1)[1].splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("|"))
    end = next(k for k in range(start, len(lines)) if not lines[k].startswith("|"))
    keys = set()
    for row in lines[start + 2:end]:  # skip the header and its rule
        first_column = row.split("|")[1]
        keys.update(first_column.split("`")[1::2])
    return keys


def test_readme_tables_match_the_equation_table():
    # "Capabilities" names every equation, "Scenario schema" every top-level key
    assert _readme_table_keys("## Capabilities") == set(cli._EQUATIONS)
    accepted = set(cli._COMMON_KEYS)
    for entry in cli._EQUATIONS.values():
        accepted.update(entry.required, entry.optional)
    assert _readme_table_keys("### Scenario schema") == accepted


def reference_parse_matrix(rows, dim, where):
    """The per-entry matrix parser the inline-typed one replaced."""
    if not isinstance(rows, list) or len(rows) != dim:
        raise ScenarioError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioError(f"{where}[{i}]: expected {dim} entries")
        for j, value in enumerate(row):
            out[i, j] = cli._entry_to_complex(value, f"{where}[{i}][{j}]")
    return out


class TestParseMatrix:
    """``_parse_matrix`` against the per-entry reference: the same bits for
    valid matrices, the same message for the first malformed entry."""

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, -0.0], [[0.5, -0.0], 2**53 + 1]],
            [[0, 0.1], [[-0.0, 5e-324], [2**63 + 1, 1e308]]],
            [[np.float64(0.25), 1.0], [0.0, [1, 2]]],  # a float subclass takes the slow path
            [[3]],
        ],
        ids=["mixed", "extremes", "numpy_scalar", "d1"],
    )
    def test_valid_matrices_are_bitwise_the_reference(self, rows):
        got = cli._parse_matrix(rows, len(rows), "m")
        ref = reference_parse_matrix(rows, len(rows), "m")
        assert got.dtype == complex and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            "x",
            [[1.0, 0.0]],
            [[1.0, 0.0], [0.0]],
            [[1.0, 0.0], "row"],
            [[1.0, float("nan")], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, float("-inf")]],
            [[1.0, [0.0, float("inf")]], [0.0, 1.0]],
            [[1.0, 10**400], [0.0, 1.0]],
            [[1.0, True], [0.0, 1.0]],
            [[1.0, [True, 0.0]], [0.0, 1.0]],
            [[1.0, [0.0, 1.0, 2.0]], [0.0, 1.0]],
            [[1.0, "0.5"], [0.0, 1.0]],
            [[1.0, None], [0.0, 1.0]],
            # the first bad entry in row-major order wins over a later bad row
            [[float("nan"), 0.0], [0.0]],
            [[1.0, 0.0], [float("nan"), "x"]],
        ],
    )
    def test_malformed_matrices_keep_the_reference_message(self, rows):
        with pytest.raises(ScenarioError) as ref:
            reference_parse_matrix(rows, 2, "initial.matrix")
        with pytest.raises(ScenarioError) as got:
            cli._parse_matrix(rows, 2, "initial.matrix")
        assert str(got.value) == str(ref.value)


def _fmt(x):
    return f"{float(x):.17g}"


def reference_states_csv(path, traj):
    """The per-entry CSV writers the streamed ones replaced; a 1-D state is
    written as its diagonal matrix."""
    dim = traj.states[0].shape[0]
    header = ["t"]
    for i in range(dim):
        for j in range(dim):
            header += [f"re_{i}_{j}", f"im_{i}_{j}"]
    lines = [",".join(header)]
    for t, m in zip(traj.times, traj.states):
        if m.ndim == 1:
            m = np.diag(m).astype(complex)
        row = [_fmt(t)]
        for i in range(dim):
            for j in range(dim):
                row += [_fmt(m[i, j].real), _fmt(m[i, j].imag)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def reference_diagnostics_csv(path, traj):
    duality = traj.duality
    header = "t,trace,min_eig,max_eig,herm_defect"
    if duality is not None:
        header += ",duality_residual"
    lines = [header]
    for k in range(len(traj)):
        row = [
            _fmt(traj.times[k]),
            _fmt(traj.trace[k]),
            _fmt(traj.min_eig[k]),
            _fmt(traj.max_eig[k]),
            _fmt(traj.herm_defect[k]),
        ]
        if duality is not None:
            row.append(_fmt(duality[k]))
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


#: Doubles whose 17-digit form needs care: signed zero, subnormals, the top
#: of the range, a non-dyadic fraction and its negation, integral values and
#: non-finite values.  Python writes a NaN with its sign bit set as ``nan``.
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.1, 3.0, -2.0, 0.0, 1e16, 2.0**53 + 2,
               float("inf"), float("nan"), float(np.copysign(np.nan, -1.0))]


def _complex(re, im):
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@dataclasses.dataclass(frozen=True)
class _Recorded:
    """What the writers read of a trajectory, holding any values: a
    Trajectory takes its diagnostics from its states, which a run keeps
    finite, and the states here hold NaN and Inf.  Each state is the array
    given, in its own memory order; the diagnostics may be left out for
    the states writer, and ``duality`` holds the residuals of a pair run."""

    times: np.ndarray
    states: list
    trace: np.ndarray | None = None
    min_eig: np.ndarray | None = None
    max_eig: np.ndarray | None = None
    herm_defect: np.ndarray | None = None
    duality: np.ndarray | None = None

    def __len__(self):
        return len(self.times)

    @property
    def stored(self):
        """The states as a Trajectory keeps them: packed when hermitian by
        bit pattern, otherwise as given."""
        return tuple(integrator._packed(state) for state in self.states)


def _synthetic_trajectory(states, duality):
    n = len(states)
    column = (EDGE_VALUES * n)[:n]
    return _Recorded(np.array([0.0, 0.1, 1e-3, 2.0, 1e308][:n]), list(states), np.array(column),
                     np.array(column[::-1]), np.array([-0.0] * n), np.array([5e-324] * n),
                     np.array(duality))


def _without_duality(traj):
    """A shallow copy of the trajectory ``traj`` with no duality residuals."""
    bare = copy.copy(traj)
    object.__setattr__(bare, "duality", None)
    return bare


def _edge_state(d, shift=0):
    values = np.resize(np.roll(EDGE_VALUES, shift), 2 * d * d)
    return _complex(values[: d * d].reshape(d, d), values[d * d:].reshape(d, d))


def _hermitian_edge_state(d, shift=0):
    """A state hermitian by bit pattern, so that a trajectory packs it, with
    EDGE_VALUES in its real part on and above the diagonal and its
    imaginary part below it: each imaginary entry above the diagonal is 0.0
    minus its mirror, and the imaginary diagonal is +0.0."""
    values = np.resize(np.roll(EDGE_VALUES, shift), d * d).reshape(d, d)
    upper = np.triu(np.ones((d, d), dtype=bool))
    re = np.where(upper, values, values.T)
    im = np.where(upper, 0.0 - values.T, values)
    im[np.diag_indices(d)] = 0.0
    return _complex(re, im)


def _bundled_run(name, *overrides):
    return _scenario_run(scenario_from_dict(_bundled_raw(name, *overrides)))


def _scenario_run(scenario):
    run_scenario = cli._run_fock if scenario.equation == "fock_oracle" else cli._run_matrix
    traj, _ = run_scenario(scenario)
    return traj


def _writer_case(name):
    """The trajectory, with its duality residuals or None, of one writer test case."""
    edge = _edge_state(3)
    big = _edge_state(6, shift=5)
    if name == "edge_values":
        return _synthetic_trajectory([edge, _edge_state(3, 4)], [0.1, -0.0])
    if name == "edge_values_vector":  # whole rows long enough to be formatted by numpy
        d = cli._VECTOR_MIN_DIM
        return _synthetic_trajectory([_edge_state(d), _edge_state(d, 7)], [np.nan, -np.inf])
    if name in ("edge_values_packed", "edge_values_packed_d3"):
        # rows cut from the packed reals, or formatted from them by one % call:
        # signed zeros, subnormals and each imaginary part 0.0 minus its mirror
        d = cli._VECTOR_MIN_DIM if name == "edge_values_packed" else 3
        states = [_hermitian_edge_state(d), _hermitian_edge_state(d, 4)]
        assert all(state.ndim == 3 for state in _Recorded(None, states).stored)
        return _synthetic_trajectory(states, [0.5, 1e-5])
    if name == "fortran_ordered":
        return _synthetic_trajectory([np.asfortranarray(edge), edge.T], [1.0, 2.0])
    if name == "strided_view":
        return _synthetic_trajectory([big[::2, 1::2], big[1:4, :3]], [5e-324, 1e308])
    if name == "d1":
        return _synthetic_trajectory([_complex([[-0.0]], [[5e-324]])] * 3, [0.0, 3.0, -2.0])
    if name == "dense_jumps_d32":
        return _scenario_run(scenario_from_dict(_dense_jumps_raw(t1=0.01)))
    # a short window of each bundled scenario: fock_closure_2mode writes its
    # reduced one-particle trajectory, homogeneous_chain diagonal matrices
    return _bundled_run(name, "t1=0.2")


#: The bundled scenarios that write no duality residuals.
_NO_DUALITY = {"appendix_d", "fock_closure_2mode", "two_state_boson"}


class TestCsvWriters:
    @pytest.mark.parametrize("name", ["edge_values", "edge_values_vector", "edge_values_packed",
                                      "edge_values_packed_d3", "fortran_ordered", "strided_view",
                                      "d1", "dense_jumps_d32", *GALLERY])
    def test_bytes_equal_the_per_entry_writers(self, tmp_path, name):
        traj = _writer_case(name)
        assert (traj.duality is None) == (name in _NO_DUALITY)
        cli._write_states_csv(tmp_path / "states.csv", traj)
        reference_states_csv(tmp_path / "states_ref.csv", traj)
        assert (tmp_path / "states.csv").read_bytes() == (tmp_path / "states_ref.csv").read_bytes()
        # each column set: with no duality residuals, and as the trajectory has them
        for recorded in (_without_duality(traj), traj):
            cli._write_diagnostics_csv(tmp_path / "diag.csv", recorded)
            reference_diagnostics_csv(tmp_path / "diag_ref.csv", recorded)
            assert (tmp_path / "diag.csv").read_bytes() == (tmp_path / "diag_ref.csv").read_bytes()

    @pytest.mark.memory
    def test_states_writer_holds_one_row_at_a_time(self, tmp_path):
        """The tracemalloc peak of writing 60 d=32 snapshots stays below twice
        that of writing one: neither the file's text nor its rows are held."""
        d, rng = 32, np.random.default_rng(5)
        states = []
        for _ in range(60):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            states.append(0.5 * (a + a.conj().T))
        trajectories = [
            Trajectory(zip(np.linspace(0.0, 1.0, n), states[:n], np.zeros(n)))
            for n in (1, 60)
        ]
        peaks = []
        for traj in trajectories:
            tracemalloc.start()
            try:
                cli._write_states_csv(tmp_path / "states.csv", traj)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (tmp_path / "states.csv").stat().st_size > 60 * 2 * d * d * 10
        assert peaks[1] < 2 * peaks[0]

    @pytest.mark.memory
    def test_a_packed_row_takes_less_than_the_distinct_magnitude_writer(self, tmp_path):
        """Writing one packed d=32 row, with the formatter's tables built in
        the traced region, peaks below 300 KB.  The writer that formatted
        each distinct magnitude by one % call took 310 KB here (Python 3.11,
        numpy 2.4), and a (cells, 22) intp index of the row's bytes alone
        would take 360 KB."""
        d, rng = 32, np.random.default_rng(5)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        traj = Trajectory([(0.0, 0.5 * (a + a.conj().T), 0.0)])
        assert traj.stored[0].ndim == 3
        path = tmp_path / "states.csv"
        cli._write_states_csv(path, traj)  # numpy's dispatch caches warmed
        cli._text_tables.cache_clear()
        integrator._layout.cache_clear()
        tracemalloc.start()
        try:
            cli._write_states_csv(path, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 300 * 1024


#: Occupations whose text or sum needs care: signed zeros, the smallest
#: subnormal and the top of the range, among ordinary values.
DIAGONAL_EDGES = [-0.0, 0.0, 5e-324, 1e308, 0.25, 1.0, 0.1, 3.0]


def _diagonal_matrix(z):
    """The complex diagonal matrix that the 1-D state ``z`` stands for."""
    return np.diag(z).astype(complex)


def _occupation_trajectory(states):
    """A trajectory of the 1-D ``states``, one a unit of time, with no defects."""
    return Trajectory((float(t), z, 0.0) for t, z in enumerate(states))


def _eigvalsh(z):
    """The eigenvalues of ``z``'s diagonal matrix as a matrix state's are taken."""
    m = _diagonal_matrix(z)
    return np.linalg.eigvalsh(0.5 * (m + m.conj().T))


class TestDiagonalStates:
    """A 1-D state is the diagonal of a diagonal matrix: its ``states.csv``
    row, trace, extremes and spectrum are those of that matrix, taken from
    its d entries."""

    @pytest.mark.parametrize("d", [*range(1, 13), 33, 64])
    def test_rows_equal_the_per_entry_rows_of_the_matrix(self, tmp_path, d):
        states = [np.resize(np.roll(DIAGONAL_EDGES, k), d) for k in range(len(DIAGONAL_EDGES))]
        states.append(np.random.default_rng(d).uniform(0.0, 1.0, d))
        times = np.linspace(0.0, 1.0, len(states))
        cli._write_states_csv(tmp_path / "states.csv", _Recorded(times, states))
        reference_states_csv(tmp_path / "states_ref.csv",
                             _Recorded(times, [_diagonal_matrix(z) for z in states]))
        assert (tmp_path / "states.csv").read_bytes() == (tmp_path / "states_ref.csv").read_bytes()

    def test_trace_is_that_of_the_matrix_bit_for_bit(self):
        rng = np.random.default_rng(11)
        dims = (*range(1, 65), 100, 255, 256, 257, 1000, 1024)
        states = [rng.uniform(0.0, 1.0, d) * 10.0 ** rng.integers(-8, 8, d) for d in dims for _ in range(3)]
        states.append(np.array(DIAGONAL_EDGES))
        traj = _occupation_trajectory(states)
        exact = np.array([np.trace(_diagonal_matrix(z)).real for z in states])
        assert traj.trace.tobytes() == exact.tobytes()
        # summed as floats, some of these traces move by an ulp
        assert any(z.sum() != t for z, t in zip(states, exact))

    def test_extremes_and_spectrum_are_those_of_eigvalsh(self):
        rng = np.random.default_rng(12)
        states = [rng.uniform(0.0, 2.0, d) for d in range(1, 33)]
        states += [np.array([0.5, 0.25, 0.5, 0.0, 1.0]), np.array([1.0, 1.0 + 2.0**-52, 1.0])]
        traj = _occupation_trajectory(states)
        for k, z in enumerate(states):
            e = _eigvalsh(z)
            assert traj.min_eig[k].tobytes() == e[0].tobytes()
            assert traj.max_eig[k].tobytes() == e[-1].tobytes()
            assert spectrum(z).tobytes() == e.tobytes()

    def test_signed_zeros_are_the_exact_entries(self):
        # both zeros are exact; eigvalsh of the matrix may order them either
        # way (it gave -0.0 first on this state where np.min gives +0.0), and
        # the 1-D state's extremes and spectrum are its own entries
        z = np.array([-0.0, 0.0])
        traj = _occupation_trajectory([z])
        assert traj.min_eig[0].tobytes() == z.min().tobytes()
        assert traj.max_eig[0].tobytes() == z.max().tobytes()
        assert spectrum(z).tobytes() == np.sort(z).tobytes()
        assert np.array_equal(_eigvalsh(z), [0.0, 0.0])

    def test_tiny_entries_are_the_exact_entries(self):
        # LAPACK scales a matrix this small, which may move an eigenvalue by
        # an ulp; the 1-D state's extremes and spectrum are its own entries
        rng = np.random.default_rng(13)
        for d in range(1, 13):
            z = rng.uniform(0.5, 2.0, d) * 1e-300
            traj = _occupation_trajectory([z])
            assert (traj.min_eig[0], traj.max_eig[0]) == (z.min(), z.max())
            assert spectrum(z).tobytes() == np.sort(z).tobytes()
            assert np.abs(_eigvalsh(z) - np.sort(z)).max() <= 4 * np.spacing(z.max())


def _double(bits):
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


#: Any double by its bit pattern (NaN of either sign and any payload,
#: subnormals, ±0.0, ±inf), and the values named in EDGE_VALUES.
_doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(_double),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_VALUES),
)


@st.composite
def _repeated_magnitudes(draw):
    """Entries drawn from a few values, each entry signed at random, so that
    magnitudes repeat and appear with both signs."""
    base = draw(st.lists(_doubles, min_size=1, max_size=6))
    n = draw(st.integers(0, 40))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return np.copysign(np.array(base)[picks], signs)


@st.composite
def _hermitian_rows(draw):
    """The float view of an exactly hermitian matrix 0.5 * (a + a^H), d = 1..8."""
    d = draw(st.integers(1, 8))
    finite = st.floats(-1e300, 1e300, allow_subnormal=True)
    values = np.array(draw(st.lists(finite, min_size=2 * d * d, max_size=2 * d * d)))
    a = _complex(values[: d * d].reshape(d, d), values[d * d:].reshape(d, d))
    return (0.5 * (a + a.conj().T)).view(float).ravel()


def _row_texts(x):
    """The texts that ``_csv_row`` cuts for each entry of ``x`` and then
    for 0.0 minus each entry, the text of a mirrored imaginary part."""
    row = cli._csv_row(x, np.arange(2 * len(x)))
    assert row[-1] == ord("\n")
    return row[:-1].tobytes().decode().split(",")


def _largest_below(v):
    """The largest double below the real number ``v`` (a Fraction)."""
    x = float(v)
    return x if x < v else math.nextafter(x, 0.0)


class TestRowFormatter:
    """``_csv_row`` cuts the text of each entry, and of 0.0 minus each,
    from the slots of ``_texts``: every text is that of ``f"{v:.17g}"``."""

    @staticmethod
    def _check(x):
        if x.size == 0:  # a states.csv row always holds t
            return
        values = x.tolist()
        assert _row_texts(x) == [f"{v:.17g}" for v in values] + [f"{0.0 - v:.17g}" for v in values]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_doubles, max_size=40))
    def test_any_doubles(self, values):
        self._check(np.array(values, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(_repeated_magnitudes())
    def test_repeated_and_negated_magnitudes(self, x):
        self._check(x)

    @settings(max_examples=150, deadline=None)
    @given(_hermitian_rows())
    def test_hermitian_matrices(self, x):
        self._check(x)

    def test_edges_of_the_fixed_notation_range(self):
        # numpy formats [1e-4, 1e16) and Python every other magnitude; each
        # power of ten in and around the range, and its two neighbours
        powers = [Fraction(10) ** k for k in range(-6, 19)]
        values = [1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e16,
                  9999999999999998.0]
        for v in powers:
            x = float(v)
            values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        self._check(np.array(values))

    def test_no_mantissa_rounds_into_the_next_decade(self):
        # the double nearest below each power of ten 10^-3 ... 10^16 is the
        # one most nearly rounded up to it at 17 digits; none is, so the
        # 17-digit mantissa of the range never carries to 10^17
        below = np.array([_largest_below(Fraction(10) ** k) for k in range(-3, 17)])
        self._check(below)
        assert all(f"{v:.17g}".lstrip("0.").startswith("9") for v in below.tolist())

    def test_ties_round_half_to_even(self):
        # dyadic values whose exact decimal expansion has 18 significant
        # digits, the last a 5: the 17-digit text is a tie, rounded to even
        rng = np.random.default_rng(2024)
        ties, parities = [], set()
        for e in range(-4, 16):
            k = 17 - e
            low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
            for m in rng.integers(low, high, 40).tolist():
                m |= 1
                if m >= high:
                    continue
                digits = str(m * 5**k)
                assert len(digits) == 18 and digits[-1] == "5"
                ties.append(math.ldexp(m, -k))
                parities.add(int(digits[-2]) % 2)
        assert parities == {0, 1}  # rounded down and up
        self._check(np.array(ties))


class TestScenarioRecord:
    def test_dataclass_is_exported(self):
        assert isinstance(scenario_from_dict(minimal_scenario()), Scenario)

    def test_every_field_is_frozen(self):
        # a variant is made on the raw JSON: no field can go stale behind its start
        scenario = scenario_from_dict(minimal_scenario())
        for field in dataclasses.fields(Scenario):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(scenario, field.name, getattr(scenario, field.name))

    def test_defines_no_equality(self):
        assert "__eq__" not in vars(Scenario)
        assert scenario_from_dict(minimal_scenario()) != scenario_from_dict(minimal_scenario())

    def test_every_array_is_read_only(self):
        # a run reads the arrays one parse produced: none can be written to
        scenario = scenario_from_dict(_bundled_raw("homogeneous_chain"))
        with pytest.raises(ValueError, match="read-only"):
            scenario.hamiltonian[0, 0] = 99.0
        without_network = {k: v for k, v in minimal_scenario().items() if k != "network"}
        raws = [
            _bundled_raw("homogeneous_chain"),
            minimal_scenario(initial={"matrix": [[0.75, [0.125, 0.25]], [[0.125, -0.25], 0.25]]},
                             network={"rates": [{"from": 0, "to": 1, "rate": 1.0}],
                                      "basis": [[0.6, 0.8], [0.8, -0.6]]}),
            {**without_network, "equation": "generalized_jumps",
             "jump_operators": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.5], [0.0, 0.0]]]},
            {**without_network, "equation": "general", "loss_operator": [[-0.5, 0.0], [0.0, 0.0]],
             "gain_operator": [[0.0, 0.0], [0.0, -0.5]]},
            {**without_network, "equation": "meanfield_nonhermitian",
             "a_operator": [[-0.5, 0.0], [0.0, -0.25]]},
            _bundled_raw("fock_closure_2mode"),
        ]
        seen = set()
        for raw in raws:
            scenario = scenario_from_dict(raw)
            for field in dataclasses.fields(Scenario):
                value = getattr(scenario, field.name)
                if field.name == "network" and value is not None:
                    name, arrays = "network.kets", [value.kets]
                elif isinstance(value, DensityMatrix):
                    name, arrays = field.name, [value.matrix]
                elif isinstance(value, np.ndarray):
                    name, arrays = field.name, [value]
                elif isinstance(value, tuple) and value and isinstance(value[0], np.ndarray):
                    name, arrays = field.name, list(value)
                else:
                    continue
                seen.add(name)
                for array in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        array[(0,) * array.ndim] = 99.0
        # the start matrix, and the oracle's start populations
        assert seen == {"start", "hamiltonian", "network.kets", "jump_operators",
                        "loss_operator", "gain_operator", "a_operator"}

    def test_no_rate_can_be_rewritten(self):
        # a rate written after the parse would skip the check that refuses a
        # negative one: appendix_d under gamma = -3 grows without bound
        markoff = scenario_from_dict(_bundled_raw("appendix_d"))
        oracle = scenario_from_dict(_bundled_raw("fock_closure_2mode"))
        for rates in (markoff.network.rates, markoff.dephasing.gamma, oracle.network.rates,
                      oracle.model.rates, oracle.model.network.rates):
            key = next(iter(rates), (1, 0))
            with pytest.raises(TypeError):
                rates[key] = -5.0
            assert all(value >= 0 for value in rates.values())

    def test_rates_are_copied_from_the_caller(self):
        rates = {(1, 0): 1.0}
        network = TransitionNetwork.computational(2, rates)
        model = FockModel(Statistics.FERMION, (0.0, 1.0), rates)
        rates[(1, 0)] = -5.0
        assert network.rates == model.rates == {(1, 0): 1.0}
