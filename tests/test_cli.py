"""Command-line interface: reports, round-trips, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaugeforge
from gaugeforge.cli import main
from gaugeforge.extraction import ExtractionError
from gaugeforge.opensys import OpenSysError
from gaugeforge.spectra import ConvergenceError

M412 = "1 1\n1 1\n"
M622 = "1 1 0\n0 1 1\n1 0 1\n"
M55 = "0 1 0 1 1\n1 0 1 0 1\n0 1 0 1 1\n1 0 1 0 1\n1 1 1 1 0\n"
M11 = "1 1\n"  # no auxiliary qubits: each sector matrix is 1 x 1


@pytest.fixture
def matrices(tmp_path):
    paths = {}
    for name, text in (("m412", M412), ("m622", M622), ("m55", M55), ("m11", M11)):
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_code_info_reports_parameters(capsys, matrices):
    for name, n, k, d in (("m412", 4, 1, 2), ("m622", 6, 2, 2), ("m55", 16, 2, 3)):
        code, out, _ = run(capsys, "code", "info", matrices[name])
        assert code == 0
        rep = json.loads(out)
        assert (rep["n"], rep["k"], rep["d"]) == (n, k, d)
        assert "matrix_sha256" in rep and "config" in rep


def test_code_info_one_by_one(capsys, tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("1\n")
    code, out, _ = run(capsys, "code", "info", str(p))
    assert code == 0
    rep = json.loads(out)
    assert (rep["n"], rep["k"], rep["d"]) == (1, 1, 1)


def test_reduce_counts_and_verification(capsys, matrices):
    code, out, _ = run(capsys, "code", "reduce", matrices["m55"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["x_stabilizers"]) == 3
    assert len(rep["z_stabilizers"]) == 3
    assert len(rep["aux_pairs"]) == 8
    assert rep["verification"]["passed"]


def test_spectrum_closed_forms(capsys, matrices):
    code, out, _ = run(capsys, "spectrum", matrices["m412"], "--weights", "uniform:1")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["separation"] - 0.8284271247461903) < 1e-10
    code, out, _ = run(capsys, "spectrum", matrices["m622"], "--weights", "xz:1,1")
    assert code == 0
    assert abs(json.loads(out)["separation"] - 0.5358983848622456) < 1e-10


def test_spectrum_weights_file_matches_uniform(capsys, matrices, tmp_path):
    (tmp_path / "w.json").write_text(json.dumps([1, 1, 1, 1]))
    reports = []
    for spec in ("uniform:1", f"file:{tmp_path}/w.json"):
        code, out, _ = run(capsys, "spectrum", matrices["m412"], "--weights", spec)
        assert code == 0
        reports.append({key: json.loads(out)[key] for key in ("sectors", "e0_code", "separation")})
    assert reports[0] == reports[1]


def test_spectrum_basis_round_trip(capsys, matrices, tmp_path):
    rb_path = tmp_path / "rb.json"
    code, _, _ = run(capsys, "code", "reduce", matrices["m622"], "--out", str(rb_path))
    assert code == 0
    code, direct, _ = run(capsys, "spectrum", matrices["m622"])
    assert code == 0
    code, via_basis, _ = run(capsys, "spectrum", matrices["m622"], "--basis", str(rb_path))
    assert code == 0
    a, b = json.loads(direct), json.loads(via_basis)
    a.pop("config")
    b.pop("config")
    assert a == b


def test_spectrum_sector_table_and_full_check(capsys, matrices, tmp_path):
    table = tmp_path / "sectors.csv"
    code, out, _ = run(capsys, "spectrum", matrices["m412"],
                       "--sector-table", str(table), "--full-check")
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["full_ground_energy"] - rep["e0_code"]) < 1e-8
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "s1,s2,ground_energy"
    assert len(lines) == 5


def test_outputs_are_byte_identical(capsys, matrices):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "spectrum", matrices["m55"], "--weights", "uniform:1")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_simulate_writes_trajectory_csv(matrices, tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code = main(["simulate", matrices["m412"], "--initial", "plusL",
                 "--gamma", "1.2,0.8", "--t-max", "5e-9", "--samples", "3",
                 "--out", str(out_csv)])
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "gamma,t,trace_distance,purity"
    assert len(lines) == 2 + 2 * 3
    # gammas emitted in sorted order
    assert [ln.split(",")[0] for ln in lines[2:]] == ["0.8"] * 3 + ["1.2"] * 3


def test_simulate_config_file_with_flag_override(matrices, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gamma": "0.8", "t-max": 5e-9, "samples": 3}))
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["--config", str(cfg), "simulate", matrices["m412"],
                 "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "simulate", matrices["m412"],
                 "--samples", "4", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert len(out1.read_text().strip().splitlines()) == 2 + 3
    assert len(out2.read_text().strip().splitlines()) == 2 + 4


def test_encode_count_reports_weights(capsys, tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "blocks": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                   [[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
        "h": {"1": 1.0},
        "J": {"1,2": 1.0, "2,3": 0.5},
        "assignment": {"1": [0, 0], "2": [0, 1], "3": [1, 0]},
        "transverse": False,
    }))
    code, out, _ = run(capsys, "encode-count", str(prob))
    assert code == 0
    rep = json.loads(out)
    assert rep["num_terms"] == 3
    weights = {t["logical"]: t["weight"] for t in rep["terms"]}
    assert weights["Z1"] <= 2
    assert weights["Z1 Z2"] <= 2
    assert weights["Z2 Z3"] == 4


def test_encode_count_takes_logical_qubit_keys_past_63(capsys, tmp_path):
    """A key names a logical qubit, not a qubit of a Pauli operator, so 64 is no limit."""
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({"blocks": [[[1, 1], [1, 1]]], "assignment": {"64": [0, 0]}}))
    code, out, err = run(capsys, "encode-count", str(prob))
    assert (code, err) == (0, "")
    assert [t["logical"] for t in json.loads(out)["terms"]] == ["X64"]


def test_exit_code_2_for_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "code", "info", str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    code, _, err = run(capsys, "code", "reduce", str(bad))
    assert code == 2 and "error" in err
    m = tmp_path / "m.txt"
    m.write_text(M412)
    code, _, err = run(capsys, "spectrum", str(m), "--weights", "nonsense:1")
    assert code == 2
    code, _, err = run(capsys, "simulate", str(m), "--gamma", "abc")
    assert code == 2
    code, _, err = run(capsys, "simulate", str(m), "--blocks", "separate")
    assert code == 2  # separate requires bell


@pytest.mark.parametrize("files, argv", [
    pytest.param({"cfg.json": {"samples": "abc"}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-samples"),
    pytest.param({"cfg.json": {"samples": 2.5}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412", "--t-max", "1e-9"],
                 id="config-samples-fraction"),
    pytest.param({"cfg.json": {"t-max": "x"}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-t-max"),
    pytest.param({"cfg.json": {"t-max": True}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-t-max-bool"),
    pytest.param({"cfg.json": {"bath": 5}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-bath"),
    pytest.param({}, ["simulate", "m412", "--bath", "chi=abc"], id="bath-value"),
    pytest.param({}, ["simulate", "m412", "--bath", "chi=nan"], id="bath-nan"),
    pytest.param({}, ["simulate", "m412", "--t-max", "nan"], id="t-max-nan"),
    pytest.param({}, ["simulate", "m412", "--samples", "2.5"], id="samples-fraction"),
    pytest.param({}, ["simulate", "m412", "--gamma", "nan"], id="gamma-nan"),
    pytest.param({}, ["simulate", "m412", "--gamma", "0"], id="gamma-zero"),
    pytest.param({"cfg.json": {"gamma": float("inf")}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-gamma-inf"),
    pytest.param({}, ["simulate", "m412", "--gamma", "-1.2"], id="gamma-negative"),
    pytest.param({}, ["simulate", "m412", "--gamma", "5e298"], id="gamma-sum-overflow"),
    pytest.param({}, ["spectrum", "m412", "--weights", "uniform:1e308"],
                 id="weights-sum-overflow"),
    pytest.param({}, ["spectrum", "m412", "--weights", "uniform:1e308", "--full-check"],
                 id="weights-sum-overflow-full-check"),
    pytest.param({}, ["spectrum", "m412", "--weights", "uniform:4e307"],
                 id="weights-doubled-sum-overflow"),
    pytest.param({}, ["simulate", "m412", "--gamma", "2e298", "--t-max", "1e-10", "--samples", "2"],
                 id="gamma-doubled-sum-overflow"),
    pytest.param({}, ["simulate", "m412", "--bath", "chi=1e300", "--samples", "3",
                      "--t-max", "1e-12"], id="bath-rate-scale-overflow"),
    pytest.param({"m.txt": "\u0661 1\n1 1\n".encode()}, ["code", "info", "{tmp}/m.txt"],
                 id="matrix-arabic-indic-one"),
    pytest.param({"cfg.json": {"gamma": -0.5}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m622", "--initial", "bell"],
                 id="config-gamma-negative"),
    pytest.param({}, ["simulate", "--t-max", "1e-9"], id="missing-matrix"),
    pytest.param({"cfg.json": {"t_max": 1e-10, "samples": 2}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-key-t_max"),
    pytest.param({"cfg.json": {"weights": "uniform:2"}},
                 ["--config", "{tmp}/cfg.json", "spectrum", "m412"], id="config-key-spectrum"),
    pytest.param({"w.json": 5}, ["spectrum", "m412", "--weights", "file:{tmp}/w.json"],
                 id="weights-file"),
    pytest.param({"w.json": [1, 1, 1]}, ["spectrum", "m412", "--weights", "file:{tmp}/w.json"],
                 id="weights-file-count"),
    pytest.param({"w.json": [True] * 4}, ["spectrum", "m412", "--weights", "file:{tmp}/w.json"],
                 id="weights-file-true"),
    pytest.param({"w.json": ["1"] * 4}, ["spectrum", "m412", "--weights", "file:{tmp}/w.json"],
                 id="weights-file-strings"),
    pytest.param({"w.json": b"[1" + b"0" * 400 + b", 1, 1, 1]"},
                 ["spectrum", "m412", "--weights", "file:{tmp}/w.json"],
                 id="weights-file-integer-past-float-range"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "assignment": [1]}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-assignment"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": "00"}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-assignment-string"),
    pytest.param({"prob.json": {"blocks": [[[True, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-true"),
    pytest.param({"prob.json": {"blocks": [[[1.0, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-1.0"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "h": {"1": True},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-true"),
    pytest.param({"prob.json": b'{"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": [0, 0]}, '
                               b'"h": {"1": 1' + b"0" * 400 + b"}}"},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-integer-past-float-range"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": [1, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-block-index"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": [0, 1]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-slot"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]],
                                "assignment": {"1": [0, 0], "2": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-shared-slot"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "h": {"3": 1},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-unassigned"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "J": {"1,2": 1},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-J-unassigned"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "J": {"1,1": 1},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-J-self"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "transverse": "false",
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-transverse"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "h": {"1": float("nan")},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-nan"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]] * 2, "J": {"1,2": float("inf")},
                                "assignment": {"1": [0, 0], "2": [1, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-J-infinity"),
    pytest.param({"prob.json": {"blocks": [[[-1, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-neg1"),
    pytest.param({"prob.json": {"blocks": [[[3, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-3"),
    pytest.param({"prob.json": {"blocks": [[[1.5, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-1.5"),
    pytest.param({"prob.json": {"blocks": [[[2, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-2"),
    pytest.param({"prob.json": {"blocks": [[[0.5, 1], [1, 1]]], "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-entry-0.5"),
    pytest.param({"prob.json": {"blocks": [[[1]]] * 21, "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-21-rows"),
    pytest.param({"prob.json": {"blocks": [[[1] * 6] * 6] * 2, "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-72-qubits"),
    pytest.param({"basis.json": {"x_stabilizers": [], "z_stabilizers": [],
                                 "aux_pairs": [["X[1,1] X[1,2]"]]}},
                 ["spectrum", "m412", "--basis", "{tmp}/basis.json"], id="basis-aux-pair"),
    pytest.param({"basis.json": {"x_stabilizers": [[1]], "z_stabilizers": [], "aux_pairs": []}},
                 ["spectrum", "m412", "--basis", "{tmp}/basis.json"],
                 id="basis-operator-not-string"),
    pytest.param({"basis.json": {"x_stabilizers": [], "z_stabilizers": [],
                                 "aux_pairs": [["X[1,1] X[1,2]", 7]]}},
                 ["spectrum", "m412", "--basis", "{tmp}/basis.json"], id="basis-aux-not-string"),
    pytest.param({}, ["spectrum", "m412", "--basis", "{tmp}/missing.json"], id="basis-unreadable"),
    pytest.param({}, ["encode-count", "{tmp}/missing.json"], id="encode-count-unreadable"),
    pytest.param({}, ["simulate", "m412", "--initial", "foo"], id="initial"),
    pytest.param({}, ["simulate", "m412", "--blocks", "foo"], id="blocks"),
    pytest.param({}, ["simulate", "m412", "--metrics", "foo"], id="metrics"),
    pytest.param({"cfg.json": b"{samples: 3"},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-not-json"),
    pytest.param({"cfg.json": ["samples", 3]},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-list"),
    pytest.param({"cfg.json": b'{"gamma": "0.8", "gamma": "1.2", "t-max": 1e-10, "samples": 2}'},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"], id="config-gamma-twice"),
    pytest.param({"cfg.json": b"[" * 100000 + b"]" * 100000},
                 ["--config", "{tmp}/cfg.json", "code", "info", "m412"], id="config-deep-nesting"),
    pytest.param({}, ["simulate", "m412", "--bath", "chi=0,chi=3.18e-4", "--t-max", "1e-10",
                      "--samples", "2"], id="bath-chi-twice"),
    pytest.param({"prob.json": b'{"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": [0, 0]}, '
                               b'"h": {"1": 0.5, "1": 0.25}}'},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-twice"),
    pytest.param({"prob.json": b'{"blocks": [[[1, 1], [1, 1]]], "assignment": {"1": [0, 0]}, '
                               b'"h": {"1": 0.5}, "transverse": \xff}'},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-not-utf8"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "h": {"\u0661": 0.5, " +1": 0.25},
                                "assignment": {"1": [0, 0]}, "transverse": False}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-one-qubit-two-keys"),
    pytest.param({"prob.json": {"blocks": [[[1, 1], [1, 1]]], "h": {" +1": 0.25},
                                "assignment": {"1": [0, 0]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-h-key-signed"),
    pytest.param({"prob.json": {"blocks": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
                                "assignment": {"1": [0, 0], "01": [0, 1]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-assignment-01"),
    pytest.param({"prob.json": {"blocks": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]], "J": {"1, 2": 1.0},
                                "assignment": {"1": [0, 0], "2": [0, 1]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-J-key-space"),
    pytest.param({"prob.json": {"blocks": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
                                "J": {"1,2": 1.0, "2,1": 2.0},
                                "assignment": {"1": [0, 0], "2": [0, 1]}}},
                 ["encode-count", "{tmp}/prob.json"], id="encode-count-J-pair-twice"),
    # numbers are ASCII text without '_', which float() and int() would both take
    pytest.param({}, ["simulate", "m412", "--samples", "\u0661_0", "--t-max", "1e-10"],
                 id="samples-arabic-indic-underscore"),
    pytest.param({}, ["simulate", "m412", "--samples", "1_0", "--t-max", "1e-10"],
                 id="samples-underscore"),
    pytest.param({}, ["simulate", "m412", "--t-max", "\u0661e-10", "--samples", "2"],
                 id="t-max-arabic-indic"),
    pytest.param({}, ["simulate", "m412", "--gamma", "\u0660.8", "--t-max", "1e-10",
                      "--samples", "2"], id="gamma-arabic-indic"),
    pytest.param({}, ["simulate", "m412", "--bath", "chi=\u0661", "--t-max", "1e-12",
                      "--samples", "2"], id="bath-arabic-indic"),
    pytest.param({}, ["spectrum", "m412", "--weights", "uniform:\u0661_0"],
                 id="weights-uniform-arabic-indic-underscore"),
    pytest.param({}, ["spectrum", "m412", "--weights", "xz:1_0,1"], id="weights-xz-underscore"),
    pytest.param({"cfg.json": {"t-max": "\u0661e-10", "samples": 2}},
                 ["--config", "{tmp}/cfg.json", "simulate", "m412"],
                 id="config-t-max-arabic-indic"),
])
def test_exit_code_2_for_malformed_values(capsys, matrices, tmp_path, files, argv):
    for name, value in files.items():  # bytes are written as they are, anything else as JSON
        raw = value if isinstance(value, bytes) else json.dumps(value).encode()
        (tmp_path / name).write_bytes(raw)
    code, out, err = run(capsys, *(matrices.get(a, a.format(tmp=tmp_path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["spectrum"], ["spectrum", "--all-pairs"], ["simulate"]])
def test_code_without_gauge_generators_names_itself(capsys, tmp_path, command):
    """No weight or gamma is at fault when the code has nothing to weigh."""
    m = tmp_path / "id3.txt"
    m.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, command[0], str(m), *command[1:])
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "no gauge generators" in err and "--" not in err


def test_cached_parser_carries_no_flag_into_the_next_call(matrices, tmp_path):
    import gaugeforge.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()
    first, second, fresh = (str(tmp_path / f"{name}.csv") for name in ("first", "second", "fresh"))
    sim = ["simulate", matrices["m412"], "--t-max", "1e-9"]
    assert main(sim + ["--samples", "3", "--out", first]) == 0
    assert main(sim + ["--out", second]) == 0
    cli_mod.build_parser.cache_clear()
    assert main(sim + ["--out", fresh]) == 0
    assert Path(second).read_text() == Path(fresh).read_text()
    assert len(Path(first).read_text().splitlines()) == 2 + 3  # config and header lines
    assert len(Path(second).read_text().splitlines()) == 2 + 26  # the default --samples


@pytest.mark.parametrize("argv", [
    pytest.param(["code", "info", "m412", "--out", "{tmp}/missing/r.json"], id="code-info"),
    pytest.param(["spectrum", "m412", "--out", "{tmp}/missing/r.json"], id="spectrum"),
    pytest.param(["spectrum", "m412", "--out", "{tmp}/r.json",
                  "--sector-table", "{tmp}/missing/s.csv"], id="sector-table"),
    pytest.param(["simulate", "m412", "--out", "{tmp}/missing/t.csv"], id="simulate"),
])
def test_exit_code_2_for_unwritable_output_before_any_work(capsys, monkeypatch, matrices,
                                                           tmp_path, argv):
    import gaugeforge.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output path check")

    monkeypatch.setattr(cli_mod, "build_code", no_work)
    monkeypatch.setattr(cli_mod.spectra, "energy_separation", no_work)
    monkeypatch.setattr(cli_mod.opensys, "simulate_code", no_work)
    code, out, err = run(capsys, *(matrices.get(a, a.format(tmp=tmp_path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(p.stat().st_size == 0 for p in tmp_path.glob("*.json"))  # no report written


@pytest.mark.parametrize("command", [["code", "info"], ["code", "reduce"], ["spectrum"]])
@pytest.mark.parametrize("text, message", [
    pytest.param("1\n" * 21, "21x1 too large for exhaustive distance", id="21x1"),
    pytest.param(("1" * 8 + "\n") * 8, "64 qubits", id="8x8"),  # one past PauliOp's 63
])
def test_exit_code_2_for_oversized_matrix(capsys, tmp_path, command, text, message):
    m = tmp_path / "big.txt"
    m.write_text(text)
    code, out, err = run(capsys, *command, str(m))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_full_check_refuses_oversized_code(capsys, monkeypatch, tmp_path):
    import gaugeforge.cli as cli_mod

    def no_sectors(*args, **kwargs):
        raise AssertionError("sector solves started before the full-space size check")

    monkeypatch.setattr(cli_mod.spectra, "energy_separation", no_sectors)
    # the 11 x 11 identity plus its superdiagonal: 21 qubits, one past the full-space limit
    m = tmp_path / "m21.txt"
    m.write_text("".join(" ".join("1" if c - r in (0, 1) else "0" for c in range(11)) + "\n"
                         for r in range(11)))
    code, out, err = run(capsys, "spectrum", str(m), "--full-check")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "n <= 20" in err


@pytest.mark.parametrize("t_max", ["1e-300", "1e300"])  # 3.4e10 steps; a count past the floats
def test_simulate_refuses_a_step_count_over_the_limit(capsys, matrices, t_max):
    """At chi = 1e296 the RK4 step bound is 3e-311 s: the run is refused before any step."""
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", matrices["m412"], "--bath", "chi=1e296",
                         "--samples", "2", "--t-max", t_max)
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "RK4 steps" in err


# One valid document per JSON input of the CLI, with the command that reads it as ``{doc}``.
FUZZ_INPUTS = {
    "problem": (["encode-count", "{doc}"], {
        "blocks": [[[1, 1], [1, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
        "h": {"1": 1.0, "2": -0.5, "3": 0.25},
        "J": {"1,2": 1.0, "2,3": -1.0, "1,3": 0.5},
        "assignment": {"1": [0, 0], "2": [1, 0], "3": [1, 1]},
        "transverse": False,
    }),
    "weights": (["spectrum", "{m412}", "--weights", "file:{doc}"], [1.0, 0.5, 2, 1.0]),
    "basis": (["spectrum", "{m412}", "--basis", "{doc}"], {
        "x_stabilizers": ["X[1,1] X[1,2] X[2,1] X[2,2]"],
        "z_stabilizers": ["Z[1,1] Z[1,2] Z[2,1] Z[2,2]"],
        "aux_pairs": [["X[2,1] X[2,2]", "Z[1,2] Z[2,2]"]],
    }),
    "config": (["--config", "{doc}", "code", "info", "{m412}"], {
        "gamma": "0.8,1.2", "t-max": 1e-9, "samples": 3, "bath": "chi=1e-4",
    }),
}
FUZZ_KEYS = st.sampled_from(["1", "2", "3", "4", "64", "100", "0", "01", " 1", "1 ", "+1", "-1",
                             "\u0661", "1,2", "2,1", "1, 2", "1,1", "1,2,3", "", "h", "J",
                             "blocks", "assignment", "gamma", "samples", "aux_pairs"])
FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 4), st.just(10**400),
    st.sampled_from([0.0, -0.0, 0.5, 1e308, float("nan"), float("inf"), -float("inf")]),
    st.sampled_from(["1", "0.5", "", "01", "\u0661", "true", "X[1,1]", "Z[1,1] Z[2,1]"]))
# A JSON object is a tuple of (key, value) pairs here, so that a renamed key can repeat one.
FUZZ_VALUES = st.recursive(FUZZ_SCALARS, lambda inner: st.lists(inner, max_size=3) | st.lists(
    st.tuples(FUZZ_KEYS, inner), max_size=3, unique_by=lambda pair: pair[0]).map(tuple),
    max_leaves=6)


def _pairs(doc):
    """``doc`` with each object as a tuple of its (key, value) pairs."""
    if isinstance(doc, dict):
        return tuple((k, _pairs(v)) for k, v in doc.items())
    return [_pairs(v) for v in doc] if isinstance(doc, list) else doc


def _dump(node) -> str:
    """JSON text of a ``_pairs`` document, a repeated key included, NaN as NaN."""
    if isinstance(node, tuple):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_dump, node)) + "]"
    return json.dumps(node)


def _draw_path(data, node) -> tuple:
    """A path from the root of ``node``: at each object or list it stops, or goes on into one
    of the children, each choice equally likely."""
    path = ()
    while isinstance(node, (tuple, list)) and node:
        i = data.draw(st.integers(-1, len(node) - 1))
        if i < 0:
            break
        path, node = path + (i,), node[i][1] if isinstance(node, tuple) else node[i]
    return path


def _mutate(node, path, value, key=None):
    """``node`` with the value at ``path`` replaced by ``value``, or, when ``key`` is given and
    ``path`` ends in an object, with the key that leads there renamed to ``key``."""
    if not path:
        return value
    i, rest = path[0], path[1:]
    if isinstance(node, list):
        return node[:i] + [_mutate(node[i], rest, value, key)] + node[i + 1:]
    k, v = node[i]
    pair = (key, v) if key is not None and not rest else (k, _mutate(v, rest, value, key))
    return node[:i] + (pair,) + node[i + 1:]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_fuzzed_json_inputs_exit_with_one_line_or_a_report(tmp_path):
    """Each draw mutates one path of a valid input: a value replaced (wrong type, boolean,
    numeric string, huge or non-finite number, nesting) or an object key renamed."""
    paths = {"m412": str(tmp_path / "m412.txt"), "doc": str(tmp_path / "doc.json")}
    Path(paths["m412"]).write_text(M412)
    out = tmp_path / "out.json"

    @settings(max_examples=1000, derandomize=True)
    @given(st.data())
    def check(data):
        name = data.draw(st.sampled_from(sorted(FUZZ_INPUTS)))
        argv, doc = FUZZ_INPUTS[name]
        doc = _pairs(doc)
        path = _draw_path(data, doc)
        key = data.draw(st.none() | FUZZ_KEYS)
        text = _dump(_mutate(doc, path, data.draw(FUZZ_SCALARS | FUZZ_VALUES), key))
        Path(paths["doc"]).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main([a.format(**paths) for a in argv] + ["--out", str(out)])
        assert rc in (0, 1, 2) and stdout.getvalue() == ""
        if rc:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            return
        report = json.loads(out.read_text(), parse_constant=_refuse_constant)
        if name == "problem":  # every nonzero h and J entry is one term, none merged or lost
            top = json.loads(text, object_pairs_hook=list)
            want = [("Z" + k, v) for field, obj in top if field == "h" for k, v in obj if v]
            want += [("Z" + k.replace(",", " Z"), v)
                     for field, obj in top if field == "J" for k, v in obj if v]
            got = [(t["logical"], t["coefficient"]) for t in report["terms"]
                   if t["logical"].startswith("Z")]
            assert sorted(got) == sorted(want)

    check()


# Text for one number on the command line: ASCII with spaces and signs, non-ASCII digits,
# '_', non-finite and out-of-range values, empty text.
NUMBER_TEXT = st.one_of(
    st.sampled_from(["1", "3", "0.5", " 2 ", "+2", "-1", "0", "1e-10", "1e999", "nan", "inf",
                     "-inf", "", "1_0", "\u0661", "\u0661_0", "\u0660.8"]),
    st.text(st.sampled_from("0123456789.e+-_ \u0661\u0660"), max_size=6))
BATH_KEYS = st.sampled_from(["chi", "omega_c", "omega_T"])


def test_fuzzed_number_text_exits_0_only_on_ascii_numbers(matrices, monkeypatch, tmp_path):
    """Each draw puts text into the numbers of one setting, from its flag or from a --config
    string: --t-max, --samples, --gamma items, --bath values, --weights uniform:/xz:.  The
    simulation is stubbed, so a draw costs only the parsing (and a 4-qubit spectrum)."""
    import gaugeforge.cli as cli_mod

    seen = []
    real_separation = cli_mod.spectra.energy_separation

    def stub_simulation(code, rho_L, gamma, bath, t_grid, metrics):
        seen.append((gamma, bath, t_grid))
        return SimpleNamespace(metrics=[])

    def spy_separation(code, rb, w):
        seen.append(w)
        return real_separation(code, rb, w)

    monkeypatch.setattr(cli_mod.opensys, "simulate_code", stub_simulation)
    monkeypatch.setattr(cli_mod.spectra, "energy_separation", spy_separation)
    cfg, out = tmp_path / "cfg.json", str(tmp_path / "out")

    @settings(max_examples=400, derandomize=True)
    @given(st.data())
    def check(data):
        key = data.draw(st.sampled_from(["t-max", "samples", "gamma", "bath", "uniform", "xz"]))
        if key == "bath":
            items = data.draw(st.lists(st.tuples(BATH_KEYS, NUMBER_TEXT), max_size=3))
            nums = [v for _, v in items]
            text = ",".join(f"{k}={v}" for k, v in items)
        else:
            size = {"gamma": (1, 3), "xz": (2, 2)}.get(key, (1, 1))
            nums = data.draw(st.lists(NUMBER_TEXT, min_size=size[0], max_size=size[1]))
            text = ",".join(nums)
        if key in ("uniform", "xz"):
            argv = ["spectrum", matrices["m412"], f"--weights={key}:{text}"]
        elif data.draw(st.booleans()):
            cfg.write_text(json.dumps({key: text}))
            argv = ["--config", str(cfg), "simulate", matrices["m412"]]
        else:
            argv = ["simulate", matrices["m412"], f"--{key}={text}"]
        seen.clear()
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as stdout:
            rc = main(argv + ["--out", out])
        assert rc in (0, 2) and stdout.getvalue() == ""
        if rc:
            assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
            return
        assert all(t.isascii() and "_" not in t for t in nums)
        values = [float(t) for t in nums]
        if key in ("uniform", "xz"):  # M412: two XX generators, then two ZZ
            assert seen[0].weights == tuple(values * 4 if key == "uniform" else
                                            [values[0]] * 2 + [values[1]] * 2)
        elif key == "gamma":
            assert [gamma for gamma, _, _ in seen] == sorted(values)
        elif key == "bath":
            assert all(getattr(seen[0][1], k) == v for (k, _), v in zip(items, values))
        else:
            t_grid = seen[0][2]
            assert (t_grid[-1] == values[0] if key == "t-max" else t_grid.size == int(nums[0]))

    check()


def test_number_text_with_spaces_reads_as_without(matrices, tmp_path):
    sim = ["simulate", matrices["m412"], "--t-max", "1e-10", "--samples", "2"]
    spaced, plain = str(tmp_path / "spaced.csv"), str(tmp_path / "plain.csv")
    assert main(sim + ["--gamma", "0.8, 1.2", "--out", spaced]) == 0
    assert main(sim + ["--gamma", "0.8,1.2", "--out", plain]) == 0
    assert Path(spaced).read_text() == Path(plain).read_text()


# Runs the CLI under a 2 GB address-space cap, so that a time grid the CLI failed to
# refuse is an allocation error at once, never a machine's worth of memory.
CAPPED_RUN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from gaugeforge.cli import main
start = time.perf_counter()
rc = main(sys.argv[1:])
print(rc, time.perf_counter() - start)
"""


@pytest.mark.parametrize("samples", ["100000001", "100000002", "1000000000000"])
def test_simulate_refuses_samples_past_the_row_bound(matrices, samples):
    """simulate holds every CSV row until it writes them: a count past the bound on rows
    is refused before the time grid is built."""
    src = str(Path(gaugeforge.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CAPPED_RUN, "simulate", matrices["m412"],
                           "--samples", samples, "--t-max", "1e-9"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, seconds = proc.stdout.split()
    assert rc == "2" and float(seconds) < 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "--samples" in proc.stderr


def test_exit_code_1_for_verification_failure(capsys, monkeypatch, tmp_path):
    import gaugeforge.cli as cli_mod
    from gaugeforge.extraction import VerificationReport

    def fake_verify(code, rb):
        rep = VerificationReport()
        rep.add("forced", False, "injected failure")
        return rep

    monkeypatch.setattr(cli_mod.extraction, "verify_reduced_basis", fake_verify)
    m = tmp_path / "m.txt"
    m.write_text(M412)
    code, _, err = run(capsys, "code", "reduce", str(m))
    assert code == 1 and "verification failed" in err


def test_exit_code_2_for_basis_outside_gauge_group(capsys, matrices, tmp_path):
    code, out, _ = run(capsys, "code", "reduce", matrices["m412"])
    assert code == 0
    rep = json.loads(out)
    rep["x_stabilizers"] = ["X[1,1]"]
    basis = tmp_path / "bad-basis.json"
    basis.write_text(json.dumps(rep))
    code, _, err = run(capsys, "spectrum", matrices["m412"], "--basis", str(basis))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, module, name, error, message", [
    pytest.param(["code", "reduce", "m412"], "extraction", "extract_reduced_basis",
                 ExtractionError, "injected failure", id="reduce-extraction"),
    pytest.param(["spectrum", "m412"], "extraction", "extract_reduced_basis",
                 ExtractionError, "injected failure", id="spectrum-extraction"),
    pytest.param(["spectrum", "m412", "--full-check"], "spectra", "full_ground_energy",
                 ConvergenceError, "injected failure", id="full-check-convergence"),
    pytest.param(["simulate", "m412", "--gamma", "0.8,1.2"], "opensys", "simulate_code",
                 OpenSysError, "gamma=0.8: injected failure", id="simulate"),
])
def test_exit_code_1_for_computation_failures(capsys, monkeypatch, matrices, argv, module, name,
                                              error, message):
    import gaugeforge.cli as cli_mod

    def fail(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(getattr(cli_mod, module), name, fail)
    code, out, err = run(capsys, *(matrices.get(a, a) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and message in err


def test_exit_code_2_for_logical_qubit_mismatch(capsys, monkeypatch, matrices):
    import gaugeforge.cli as cli_mod

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation started before the input check")

    monkeypatch.setattr(cli_mod.opensys, "simulate_code", no_simulation)
    monkeypatch.setattr(cli_mod.opensys, "simulate_two_blocks", no_simulation)
    for argv in (["--initial", "plusL"],                          # k = 2
                 ["--initial", "bell"],                           # on the k = 1 code
                 ["--initial", "bell", "--blocks", "separate"]):  # k = 4
        name = "m412" if argv == ["--initial", "bell"] else "m622"
        code, _, err = run(capsys, "simulate", matrices[name], *argv)
        assert code == 2 and "logical qubit" in err


def test_simulate_refuses_oversized_block_before_dense_work(capsys, matrices, tmp_path):
    m23 = tmp_path / "m23.txt"
    m23.write_text("1 1 1\n1 1 1\n")  # n = 6, k = 1: a 12-qubit two-block composite
    for argv in ([matrices["m55"], "--initial", "bell"],
                 [str(m23), "--initial", "bell", "--blocks", "separate"]):
        start = time.perf_counter()
        code, _, err = run(capsys, "simulate", *argv)
        assert time.perf_counter() - start < 2.0
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1


# SHA-256 of each report with its ``config`` key (which holds the input path)
# removed, and of the ``simulate`` CSV after its ``# config`` line.  The
# 16-qubit sector eigenvalues differ in their last bits between BLAS thread
# counts, so the reports are made in a child process with one.
GOLDEN_REPORTS = {
    ("code", "info", "m412"): "221466d32ad00f2404057438501ecfd02d323776cc1a494ec12829b4a6b68f42",
    ("code", "reduce", "m412"): "4cbdfe4722cd3252619226996fc5e1acf1d25df537b6cf6d205af49fd625fefa",
    ("spectrum", "m412"): "99210af770fd688a77a8ce21bcef86962f505838d60191ff43417f0d0c32cee0",
    ("code", "info", "m622"): "cdc1ecd96ba4e0517f42d1eddda08811a63b0abbbd4ebeae846782efd91379fe",
    ("code", "reduce", "m622"): "588edc10bcb06466977bfc4a3cedd66e97194bbc966663af83f90ddd1833ddb6",
    ("spectrum", "m622"): "64f95f3ec1bf920aff7575a5315bc34ca948b3a1b0e09e30c39160061c95d233",
    ("code", "info", "m55"): "0c7b4cb1b705f82d608ab5113713b97646a3ea4bf2878bf40fb4d29f2d5d2a03",
    ("code", "reduce", "m55"): "8c26464fb89e5a52c2ef7b6ef9b8e29920fb387ab029a737b27087f8e6716f24",
    ("spectrum", "m55"): "74b6dd61bde705c57db84fa2b1685381f011df69e4a99cbc4e35111f11227b6c",
    ("spectrum", "m55", "--full-check"):
        "94764157fd6107be8e0af883fa255555540313b11f0cf7a3c052f43c5e8ad6e7",
    ("spectrum", "m11"): "80226034307ea19fd0f448d7c66edcc2e2db16484cc70614a60d0203a269ab79",
    ("spectrum", "m11", "--full-check"):
        "d010a25c7bac8ed8867b07ff80866197c65f756d7d2570607ce0d022c3fd40a2",
    ("simulate", "m412", "--initial", "plusL", "--gamma", "0.8,1.2", "--t-max", "2e-8",
     "--samples", "6"): "48f1607ccf5df779bf6f6825088b8393d20280607a1d6ba776977bd068b9aa89",
    ("simulate", "m622", "--initial", "bell", "--gamma", "0.2,1.2", "--t-max", "2e-10",
     "--samples", "3"): "c6aa461287f38c5806284a8e35556ec54c0b0b4f8823ebc894ed25997cf6e038",
    ("simulate", "m412", "--initial", "bell", "--blocks", "separate", "--gamma", "1.2",
     "--t-max", "5e-10", "--samples", "3"):
        "a6b77a20710ac10cadffdb3b7b2b87c087eb7e077cc24b6e9ee895dfe37abd12",
    ("simulate", "m412", "--metrics", "physical", "--t-max", "1e-9", "--samples", "3"):
        "c5b9939d693fbcae8d7c2b0e28ad4ab3b6ae22baab9ea1a860adcd311859b37f",
    ("encode-count", "two-m622"): "eaa285e3631a717bd34e65fb5571b0f94b6124735cb8439a0614c448fa642c4f",
    ("encode-count", "three-blocks"):
        "95e4221a185c3cf9eca676b511582fbe340e8675e3442336294b57d8c607ab42",
}

# Problem files of the ``encode-count`` digests: the benchmark's two-block
# problem, and three different blocks without the transverse field.
PROBLEMS = {
    "two-m622": {
        "blocks": [[[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]],
        "h": {"1": 1.0, "2": 1.0, "3": 1.0, "4": 1.0},
        "J": {"1,2": 1.0, "3,4": 1.0, "2,3": 1.0},
        "assignment": {"1": [0, 0], "2": [0, 1], "3": [1, 0], "4": [1, 1]},
    },
    "three-blocks": {
        "blocks": [[[1, 1], [1, 1]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]], [[1, 1, 1], [1, 1, 1]]],
        "h": {"1": 1.0, "2": -0.5, "3": 0.25, "4": 2.0},
        "J": {"1,2": 1.0, "2,3": -1.0, "3,4": 0.5, "1,4": 0.75, "2,4": 1.5},
        "assignment": {"1": [0, 0], "2": [1, 0], "3": [1, 1], "4": [2, 0]},
        "transverse": False,
    },
}

REPORT_DIGESTS = """
import contextlib, hashlib, io, json, sys
from gaugeforge.cli import main
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    text = buf.getvalue()
    if text.startswith("# config "):
        text = text.split("\\n", 1)[1]
    else:
        rep = json.loads(text)
        del rep["config"]
        text = json.dumps(rep, indent=2, sort_keys=True) + "\\n"
    print(rc, hashlib.sha256(text.encode()).hexdigest())
"""


def test_reports_match_golden_digests(matrices, tmp_path):
    paths = dict(matrices)
    for name, problem in PROBLEMS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(problem))
    argvs = [[paths.get(arg, arg) for arg in key] for key in GOLDEN_REPORTS]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(gaugeforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", REPORT_DIGESTS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = dict(zip(GOLDEN_REPORTS, proc.stdout.split("\n")))
    assert got == {key: f"0 {digest}" for key, digest in GOLDEN_REPORTS.items()}


SCIPY_GUARD = """
import json, sys
from gaugeforge.cli import main
m, problem, out = sys.argv[1:]
for commands in ([["code", "info", m], ["code", "reduce", m], ["spectrum", m],
                  ["encode-count", problem]],
                 [["spectrum", m, "--full-check"],
                  ["simulate", m, "--t-max", "1e-10", "--samples", "2"]]):
    for argv in commands:
        if main(argv + ["--out", out]) != 0:
            sys.exit(f"{argv} failed")
    print(json.dumps(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
"""


def test_scipy_loads_only_for_the_full_check_and_simulate(matrices, tmp_path):
    # a fresh process, as the test session may have imported scipy already
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(PROBLEMS["three-blocks"]))
    src = str(Path(gaugeforge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCIPY_GUARD, matrices["m412"], str(problem),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    before, after = (json.loads(line) for line in proc.stdout.splitlines())
    assert before == []
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(after)
