import argparse
import csv
import ctypes
import json
import os
import re
import struct
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from hodgeflow import cli, diagnostics, flows, forms, reduced
from hodgeflow.cli import (ConfigError, RunConfig, snapshot_read, snapshot_write,
                           write_series)
from hodgeflow.errors import FormatError
from hodgeflow.flows import FlowState

from conftest import random_form


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FLOW_INI = """
[grid]
dims = 8 8 8 8
[flow]
scheme = conformal
t_end = 0.05
sample_every = 0.01
[scenario]
kind = random_near_omega
eps = 0.05
band = 3
seed = 3
[output]
dir = {out}
"""


# ---------------------------------------------------------------------------
# configuration

def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, "[flow]\nbogus = 1\n")
    with pytest.raises(ConfigError):
        RunConfig.load(path)
    path = write_config(tmp_path, "[nope]\nx = 1\n", "b.ini")
    with pytest.raises(ConfigError):
        RunConfig.load(path)


@pytest.mark.parametrize("section,key", [("scenario", "ny"),
                                         ("scenario", "t_end"),
                                         ("flow", "snapshot_every")])
def test_config_rejects_keys_nothing_reads(tmp_path, section, key):
    # the grid's second axis sets ny, [flow] t_end the horizon, and the
    # final snapshot is written on every clean run
    text = FLOW_INI.format(out=tmp_path / "out").replace(
        f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    assert cli.main(["flow", write_config(tmp_path, text)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_config_missing_file():
    with pytest.raises(ConfigError):
        RunConfig.load("/does/not/exist.ini")


def test_config_overrides_and_casts(tmp_path):
    path = write_config(tmp_path, "[flow]\nt_end = 1.0\n")
    cfg = RunConfig.load(path, overrides=["flow.t_end=2.5", "grid.dims=8 8 8 8",
                                          "flow.scheme=Power_U:0.25"])
    assert cfg.get("flow", "t_end") == 2.5
    assert cfg.get("grid", "dims") == (8, 8, 8, 8)
    assert cfg.get("flow", "scheme") == forms.FlowScheme("power_u", 0.25)
    with pytest.raises(ConfigError):
        RunConfig.load(path, overrides=["no-dot"])
    with pytest.raises(ConfigError):
        cfg.get("flow", "sample_every")
    assert cfg.get("flow", "sample_every", 0.1) == 0.1
    # an unset fixed_dt reads as None, the CFL step
    assert cfg.get("flow", "fixed_dt", None) is None


def test_config_digest_is_stable(tmp_path):
    p1 = write_config(tmp_path, "[flow]\nt_end = 1.0\nscheme = linear\n", "a.ini")
    p2 = write_config(tmp_path, "[flow]\nscheme = linear\nt_end = 1.0\n", "b.ini")
    assert RunConfig.load(p1).digest() == RunConfig.load(p2).digest()


def test_bad_cast_is_config_error(tmp_path):
    # every key is checked when the file loads, whether a command reads it
    path = write_config(tmp_path, "[flow]\nt_end = soon\n")
    with pytest.raises(ConfigError, match=r"bad value for flow\.t_end: 'soon'"):
        RunConfig.load(path)


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_roundtrip_bitwise(tmp_path, grid8):
    rho = random_form(grid8, 0.2, seed=6)
    state = FlowState(rho=rho, t=0.75, step=12, dt=0.003)
    path = tmp_path / "state.nhf"
    snapshot_write(state, path, scheme_name="conformal", config_digest="abc")
    back = snapshot_read(path)
    assert back.rho.comps.tobytes() == rho.comps.tobytes()
    assert back.t == 0.75 and back.step == 12 and back.dt == 0.003
    meta = json.loads((tmp_path / "state.nhf.json").read_text())
    assert meta["scheme"] == "conformal" and meta["config_digest"] == "abc"


@pytest.mark.parametrize(
    "scheme", forms.ALL_SCHEMES + (forms.FlowScheme("power_u", 0.25),),
    ids=lambda s: f"{s.kind}:{s.r}")
def test_flow_sidecar_names_the_scheme_that_ran(tmp_path, scheme):
    # the sidecar's scheme tag parses back to the scheme of the run: it used
    # to hold the kind alone, so power_u:0.25 read back as the conformal flow
    name = scheme.kind if scheme.r is None else f"{scheme.kind}:{scheme.r}"
    path = write_config(tmp_path, FLOW_INI.format(out=tmp_path / "out"))
    assert cli.main(["flow", path, "--set", f"flow.scheme={name}",
                     "--set", "flow.t_end=0.01"]) == cli.EXIT_OK
    sidecar = json.loads((tmp_path / "out" / "final.nhf.json").read_text())
    assert sidecar["scheme"] == scheme.tag
    assert forms.scheme_from_name(sidecar["scheme"]) == scheme


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.nhf"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(FormatError):
        snapshot_read(path)


def test_snapshot_truncated(tmp_path, grid8):
    rho = random_form(grid8, 0.2, seed=7)
    path = tmp_path / "trunc.nhf"
    snapshot_write(FlowState(rho=rho), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        snapshot_read(path)


@pytest.mark.parametrize("sidecar", ["{not json", '{"t": "abc"}',
                                     '{"step": null}', "[1, 2]"])
def test_snapshot_malformed_sidecar(tmp_path, grid8, sidecar):
    path = tmp_path / "state.nhf"
    snapshot_write(FlowState(rho=random_form(grid8, 0.2, seed=7)), path)
    Path(str(path) + ".json").write_text(sidecar)
    with pytest.raises(FormatError):
        snapshot_read(path)


@pytest.mark.parametrize("dims", [(8, 8), (7, 8, 8, 8), (8, 8, 8, 6)],
                         ids=["rank-2", "axis-7", "axis-6"])
def test_snapshot_bad_grid_header(tmp_path, dims):
    # a header whose payload length matches but whose grid cannot hold a 2-form
    rank = len(dims)
    path = tmp_path / "bad.nhf"
    path.write_bytes(cli.SNAPSHOT_MAGIC + struct.pack("<I", rank)
                     + struct.pack(f"<{rank}I", *dims)
                     + struct.pack(f"<{rank}d", *([2 * np.pi] * rank))
                     + struct.pack("<I", 6) + bytes(8 * 6 * int(np.prod(dims))))
    with pytest.raises(FormatError):
        snapshot_read(path)


def test_snapshot_missing_file():
    with pytest.raises(FormatError):
        snapshot_read("/does/not/exist.nhf")


# ---------------------------------------------------------------------------
# series output

def test_write_series_format(tmp_path, grid8):
    from hodgeflow import calculus, diagnostics
    rho = random_form(grid8, 0.1, seed=8)
    rec = diagnostics.make_record(rho, 0.0, 0.0,
                                  calculus.periods(forms.omega(grid8)))
    path = tmp_path / "series.csv"
    write_series([rec], path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(diagnostics.CSV_COLUMNS)
    cells = lines[1].split(",")
    assert len(cells) == len(diagnostics.CSV_COLUMNS)
    assert float(cells[2]) == pytest.approx(rec.E)
    assert "e" in cells[2]  # scientific notation


# ---------------------------------------------------------------------------
# subcommands (small, fast runs)

def test_main_flow_on_reference_is_trivial(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"""
[grid]
dims = 8 8 8 8
[flow]
scheme = conformal
t_end = 0.02
sample_every = 0.01
[scenario]
kind = omega
[output]
dir = {out}
""")
    assert cli.main(["flow", path]) == cli.EXIT_OK
    rows = (out / "series.csv").read_text().strip().split("\n")[1:]
    e0_col = diagnostics.CSV_COLUMNS.index("E0")
    for row in rows:
        assert float(row.split(",")[e0_col]) < 1e-24


def test_main_flow_random_run_and_determinism(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    p1 = write_config(tmp_path, FLOW_INI.format(out=out1), "r1.ini")
    p2 = write_config(tmp_path, FLOW_INI.format(out=out2), "r2.ini")
    assert cli.main(["flow", p1]) == cli.EXIT_OK
    assert cli.main(["flow", p2]) == cli.EXIT_OK
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["event"] is None


def test_main_reduced_run(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, f"""
[reduced]
model = fast_diffusion
dims = 32
amplitude = 0.5
t_end = 0.5
[output]
dir = {out}
""")
    assert cli.main(["reduced", path]) == cli.EXIT_OK
    rows = (out / "series.csv").read_text().strip().split("\n")
    assert rows[0].startswith("t,dt,mass")
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert abs(float(last[2]) - float(first[2])) < 1e-9  # mass conserved


def test_write_series_takes_the_reduced_columns_from_the_record(tmp_path):
    recs = [reduced.ReducedRecord(t=0.1 * k, dt=1.0 / 3.0, mass=2.0 * np.pi + k,
                                  minU=0.5, maxU=1.5 - 1e-17 * k) for k in range(3)]
    path = tmp_path / "series.csv"
    write_series(recs, path)
    lines = ["t,dt,mass,minU,maxU"] + [
        ",".join(format(v, ".17e") for v in (r.t, r.dt, r.mass, r.minU, r.maxU))
        for r in recs]
    assert path.read_text() == "\n".join(lines) + "\n"


HEAT_INI = """
[reduced]
model = heat
dims = 64
amplitude = 0.5
t_end = 0.02
[output]
dir = {out}
"""


SOLITON_INI = """
[soliton]
dims = 32 32
max_iter = 10
[output]
dir = {out}
"""


@pytest.mark.parametrize("command,text", [
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = nope")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u:abc")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u:nan")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u:inf")),
    # power_u takes its exponent after a colon, or none at all
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u0.25")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u_2")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_ufoo")),
    ("flow", FLOW_INI.replace("scheme = conformal", "scheme = power_u:")),
    ("flow", FLOW_INI.replace("dims = 8 8 8 8", "dims = 7")),
    ("flow", FLOW_INI.replace("dims = 8 8 8 8", "dims = 8 8")),
    ("flow", FLOW_INI.replace("dims = 8 8 8 8", "dims = 8 8 x 8")),
    ("reduced", HEAT_INI.replace("model = heat", "model = nope")),
    ("reduced", HEAT_INI.replace("dims = 64", "dims = 7")),
    ("reduced", HEAT_INI.replace("model = heat", "model = ab_system")
     .replace("dims = 64", "dims = 32")),
    ("reduced", HEAT_INI.replace("dims = 64", "dims = 8 8 8 8")),
    ("soliton", SOLITON_INI.replace("dims = 32 32", "dims = 32")),
    ("counterexample", FLOW_INI.replace("seed = 3", "seed = 3\nn1d = 7")),
    ("counterexample", FLOW_INI.replace("seed = 3", "seed = 3\nn1d = 256")),
    ("counterexample", FLOW_INI.replace("seed = 3", "seed = 3\na0 = abc")),
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = 0.05\nsafety = 2")),
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = -1")),
    ("flow", FLOW_INI.replace("sample_every = 0.01", "sample_every = 0")),
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = 0.05\nfixed_dt = -1")),
    ("reduced", HEAT_INI.replace("t_end = 0.02", "t_end = 0.02\nsafety = 2")),
    ("reduced", HEAT_INI.replace("t_end = 0.02", "t_end = -1")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 10\ntol = -1")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 10\nsafety = 0")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 10\nsafety = 2")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 0")),
    # the floor and the record constants are fixed, so setting one is refused
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = 0.05\nu_floor = 1e-6")),
    ("reduced", HEAT_INI.replace("t_end = 0.02", "t_end = 0.02\nu_floor = 1e-6")),
    ("flow", FLOW_INI + "[diagnostics]\nq1_weight = 10\n"),
    ("flow", FLOW_INI + "[diagnostics]\nmonitor_a = 10\n"),
    ("flow", FLOW_INI + "[diagnostics]\nmonitor_b = 100\n"),
    # so are the step fraction and the soliton's unforced problem
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = 0.05\nsafety = 0.25")),
    ("reduced", HEAT_INI.replace("t_end = 0.02", "t_end = 0.02\nsafety = 0.25")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 10\nsafety = 0.5")),
    ("soliton", SOLITON_INI.replace("max_iter = 10",
                                    "max_iter = 10\nmanufactured = yes")),
    # a float setting must be finite, and a perturbation needs a band
    ("flow", FLOW_INI.replace("eps = 0.05", "eps = nan")),
    ("flow", FLOW_INI.replace("eps = 0.05", "eps = inf")),
    ("flow", FLOW_INI.replace("band = 3", "band = 0")),
    ("flow", FLOW_INI.replace("dims = 8 8 8 8",
                              "dims = 8 8 8 8\nlengths = 6.28 6.28 6.28 inf")),
    ("flow", FLOW_INI.replace("kind = random_near_omega", "kind = product_u")
     .replace("eps = 0.05", "amplitude = nan")),
    ("counterexample", FLOW_INI.replace("seed = 3", "seed = 3\na0 = inf")),
    ("reduced", HEAT_INI.replace("amplitude = 0.5", "amplitude = nan")),
    ("soliton", SOLITON_INI.replace("max_iter = 10", "max_iter = 10\nv1 = nan")),
    # a file configparser cannot read
    ("flow", "dims = 8 8 8 8\n" + FLOW_INI),
    ("flow", FLOW_INI.replace("seed = 3", "seed = 3\nseed = 4")),
    ("flow", FLOW_INI.replace("eps = 0.05", "eps = 5%")),
    # every key present is checked, whether the command reads it or not
    ("flow", FLOW_INI.replace("kind = random_near_omega", "kind = omega")
     .replace("eps = 0.05", "eps = nan")),
    ("flow", FLOW_INI.replace("seed = 3", "seed = 3\nn1d = 7")),
    ("flow", FLOW_INI.replace("seed = 3", "seed = 3\na0 = banana")),
    ("flow", FLOW_INI + "[reduced]\nt_end = -1\n"),
    ("flow", FLOW_INI + "[soliton]\ntol = -3\n"),
    # a given fixed_dt is a step: unset, it is the CFL step
    ("flow", FLOW_INI.replace("t_end = 0.05", "t_end = 0.05\nfixed_dt = 0")),
    ("reduced", HEAT_INI.replace("t_end = 0.02", "t_end = 0.02\nfixed_dt = 0")),
    # a seed is a count
    ("flow", FLOW_INI.replace("seed = 3", "seed = -1")),
], ids=["scheme-nope", "scheme-power-abc", "scheme-power-nan",
        "scheme-power-inf", "scheme-power-u0.25", "scheme-power-u-2",
        "scheme-power-ufoo", "scheme-power-colon", "grid-dims-7", "grid-rank-2",
        "grid-dims-not-int", "reduced-model-nope", "reduced-dims-7",
        "ab-system-1d", "reduced-4d", "soliton-1d", "n1d-7", "n1d-256",
        "a0-not-float", "flow-safety-2", "flow-t-end-negative",
        "flow-sample-every-0", "flow-fixed-dt-negative", "reduced-safety-2",
        "reduced-t-end-negative", "soliton-tol-negative", "soliton-safety-0",
        "soliton-safety-2", "soliton-max-iter-0", "flow-u-floor",
        "reduced-u-floor", "diagnostics-q1-weight", "diagnostics-monitor-a",
        "diagnostics-monitor-b", "flow-safety", "reduced-safety",
        "soliton-safety", "soliton-manufactured", "eps-nan", "eps-inf",
        "band-0", "lengths-inf", "product-amplitude-nan", "a0-inf",
        "reduced-amplitude-nan", "soliton-v1-nan", "no-section-header",
        "duplicate-key", "percent-in-value", "omega-eps-nan", "flow-n1d-7",
        "flow-a0-banana", "flow-reduced-t-end-negative",
        "flow-soliton-tol-negative", "flow-fixed-dt-0", "reduced-fixed-dt-0",
        "seed-negative"])
def test_bad_input_is_a_config_error(tmp_path, command, text):
    # a value the run cannot use ends in "config error: ..." and exit 1, as a
    # user sees it from the command line, never in a traceback
    root = Path(__file__).resolve().parent.parent
    path = write_config(tmp_path, text.format(out=tmp_path / "out"))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeflow.cli", command, path],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("band", ["band = 10\n", ""], ids=["band-10", "unset"])
def test_a_band_the_grid_cannot_hold_is_a_config_error(tmp_path, capsys, band):
    # above n/2 - 1 on the shortest axis the band takes in the Nyquist rows
    # (band 10 on 8^4 was full-spectrum noise; unset, it is 4): exit 1,
    # naming the key, before anything is written
    text = FLOW_INI.replace("band = 3\n", band)
    path = write_config(tmp_path, text.format(out=tmp_path / "out"))
    assert cli.main(["flow", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "scenario.band" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n,band", [(8, 3), (16, 4), (24, 4)])
def test_a_band_the_grid_holds_still_runs(tmp_path, n, band):
    # n/2 - 1 on 8^4, and the benchmark's band 4 on 16^4 and 24^4
    text = FLOW_INI.replace("dims = 8 8 8 8", f"dims = {n} {n} {n} {n}") \
        .replace("band = 3", f"band = {band}") \
        .replace("t_end = 0.05", "t_end = 1e-4\nfixed_dt = 1e-4") \
        .replace("sample_every = 0.01", "sample_every = 1e-4")
    out = tmp_path / "out"
    path = write_config(tmp_path, text.format(out=out))
    assert cli.main(["flow", path]) == cli.EXIT_OK
    assert len((out / "series.csv").read_text().splitlines()) == 3


def test_override_with_a_percent_is_a_config_error(tmp_path, capsys):
    # values are read as written: a % is no interpolation, and 5% no number
    path = write_config(tmp_path, FLOW_INI.format(out=tmp_path / "out"))
    assert cli.main(["flow", path, "--set", "flow.t_end=5%"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["verify", "algebra", "--resolution", "7"],
    ["verify", "identities", "--resolution", "9"],
    ["verify", "reductions", "--resolution", "0"],
    ["poincare", "--resolution", "7"],
    ["poincare", "--resolution", "8", "--probes", "-3"],
    ["poincare", "--resolution", "8", "--probes", "0"],
], ids=["verify-7", "verify-9", "verify-0", "poincare-7", "probes-negative",
        "probes-0"])
def test_bad_suite_option_is_a_config_error(args):
    # a resolution that is no grid axis, or no probes at all, is refused
    # before any check runs
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeflow.cli", *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_main_reduced_honours_fixed_dt(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, HEAT_INI.format(out=out)
                        .replace("t_end = 0.02", "t_end = 0.02\nfixed_dt = 0.005"))
    assert cli.main(["reduced", path]) == cli.EXIT_OK
    rows = [[float(c) for c in r.split(",")]
            for r in (out / "series.csv").read_text().strip().split("\n")[1:]]
    assert len(rows) == 5
    assert [r[1] for r in rows[1:]] == pytest.approx([0.005] * 4, rel=1e-12)
    bad = write_config(tmp_path, HEAT_INI.format(out=tmp_path / "bad")
                       .replace("t_end = 0.02", "t_end = 0.02\nfixed_dt = banana"),
                       "bad.ini")
    assert cli.main(["reduced", bad]) == cli.EXIT_CONFIG


def test_main_reduced_writes_summary(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, HEAT_INI.format(out=out)
                        .replace("t_end = 0.02", "t_end = 0.02\nfixed_dt = 0.005"))
    assert cli.main(["reduced", path]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary.pop("wall_s") > 0.0 and summary.pop("peak_rss_mb") > 0.0
    assert summary == {"samples": 5, "final_t": pytest.approx(0.02),
                       "steps": 4, "event": None, "rhs_evals": 0,
                       "dt_min": pytest.approx(0.005), "dt_max": pytest.approx(0.005)}


def test_main_flow_summary_reports_wall_time_and_dt_range(tmp_path):
    # three CFL steps, the last one clipped to t_end: the dt range covers the
    # dt column of every record after the first, and steps is the same count
    out = tmp_path / "out"
    assert cli.main(["flow", write_config(tmp_path, FLOW_INI.format(out=out))]) \
        == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["steps"] == 3 and summary["samples"] == 4
    assert summary["wall_s"] > 0.0
    assert 0.0 < summary["dt_min"] <= summary["dt_max"]
    rows = (out / "series.csv").read_text().strip().split("\n")[2:]
    dts = [float(row.split(",")[1]) for row in rows]
    assert min(dts) == summary["dt_min"] and max(dts) == summary["dt_max"]
    assert "wall_s" not in (out / "series.csv").read_text()


def test_summary_reports_the_peak_resident_set(tmp_path, monkeypatch):
    # VmHWM in MB (of 1024 kB) when the summary is written, for a flow and
    # a reduced run, null where the status file is missing, never in
    # series.csv
    runs = (("flow", FLOW_INI), ("reduced", HEAT_INI))
    for command, text in runs:
        out = tmp_path / command
        assert cli.main([command, write_config(tmp_path, text.format(out=out))]) \
            == cli.EXIT_OK
        peak = json.loads((out / "summary.json").read_text())["peak_rss_mb"]
        assert 0.0 < peak <= cli._peak_rss_mb()
        assert "peak_rss" not in (out / "series.csv").read_text()
    monkeypatch.setattr(cli, "_PROC_STATUS", tmp_path / "no-such-file")
    for command, text in runs:
        out = tmp_path / f"{command}-without-status"
        assert cli.main([command, write_config(tmp_path, text.format(out=out))]) \
            == cli.EXIT_OK
        assert json.loads((out / "summary.json").read_text())["peak_rss_mb"] is None


def test_flow_command_frees_the_initial_form_after_the_first_step(
        tmp_path, monkeypatch):
    # cmd_flow hands the scenario's form to run_flow and keeps no name for
    # it, so the run can drop it once the first step has replaced it
    made, alive = [], []
    scenario, step = cli._scenario_from_config, flows.step_rk4

    def spy_scenario(cfg, grid):
        rho = scenario(cfg, grid)
        made.append(weakref.ref(rho.comps))
        return rho

    def spy_step(state, dt, *args):
        alive.append(made[0]() is not None)
        return step(state, dt, *args)

    monkeypatch.setattr(cli, "_scenario_from_config", spy_scenario)
    monkeypatch.setattr(flows, "step_rk4", spy_step)
    out = tmp_path / "out"
    assert cli.main(["flow", write_config(tmp_path, FLOW_INI.format(out=out))]) \
        == cli.EXIT_OK
    assert len(alive) >= 3 and alive[0] and not any(alive[1:])


def test_summary_counts_the_right_hand_sides(tmp_path, monkeypatch):
    # four per RK4 step, each one flow_rhs call; the exact LINEAR step
    # evaluates none (nor does the heat model's, above)
    calls = []
    rhs = flows.flow_rhs
    monkeypatch.setattr(flows, "flow_rhs",
                        lambda *args, **kw: calls.append(1) or rhs(*args, **kw))
    for scheme, evals in (("conformal", lambda steps: 4 * steps),
                          ("linear", lambda steps: 0)):
        out = tmp_path / scheme
        path = write_config(tmp_path, FLOW_INI.format(out=out)
                            .replace("conformal", scheme), f"{scheme}.ini")
        calls.clear()
        assert cli.main(["flow", path]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] >= 3
        assert summary["rhs_evals"] == evals(summary["steps"]) == len(calls)


def test_overflowing_weight_is_a_blowup_event(tmp_path):
    # u^-r overflows where u < 1: the step bound is then no number, and the
    # run ends in a blowup event at t = 0 with its summary, not in a traceback
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "out"
    path = write_config(tmp_path, FLOW_INI.format(out=out).replace(
        "scheme = conformal", "scheme = power_u:1e300"))
    proc = subprocess.run(
        [sys.executable, "-m", "hodgeflow.cli", "flow", path],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_BLOWUP, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["event"]["cause"] == "blowup" and summary["event"]["t"] == 0.0
    assert summary["steps"] == 0


def test_summary_final_t_is_the_event_time_before_the_first_sample(tmp_path):
    # the first sample is at t = 10, and u reaches the floor near t = 0.0065
    out = tmp_path / "out"
    path = write_config(tmp_path, f"[grid]\ndims = 32 8 8 8\n"
                        f"[flow]\nt_end = 500\n[output]\ndir = {out}\n")
    assert cli.main(["counterexample", path]) == cli.EXIT_DEGENERACY
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 1 and 0.0 < summary["event"]["t"] < 10.0
    assert summary["final_t"] == summary["event"]["t"]


def test_snapshot_is_byte_identical_across_output_dirs(tmp_path):
    outs = [tmp_path / "o1", tmp_path / "elsewhere" / "o2"]
    for n, out in enumerate(outs):
        path = write_config(tmp_path, FLOW_INI.format(out=out), f"r{n}.ini")
        assert cli.main(["flow", path]) == cli.EXIT_OK
    for name in ("final.nhf", "final.nhf.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_main_counterexample_sets_kind_and_defaults(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_flow", lambda cfg: seen.append(cfg) or 0)
    path = write_config(tmp_path, "[grid]\ndims = 8 8 8 8\n"
                        "[scenario]\nkind = omega\n")
    assert cli.main(["counterexample", path]) == cli.EXIT_OK
    cfg = seen.pop()
    assert cfg.get("scenario", "kind") == "counterexample"
    assert cfg.get("flow", "scheme") == forms.FlowScheme("linear")
    assert cfg.get("flow", "t_end") == 1.0
    path = write_config(tmp_path, "[flow]\nscheme = conformal\nt_end = 0.5\n",
                        "kept.ini")
    assert cli.main(["counterexample", path]) == cli.EXIT_OK
    cfg = seen.pop()
    assert cfg.get("scenario", "kind") == "counterexample"
    assert cfg.get("flow", "scheme") == forms.CONFORMAL
    assert cfg.get("flow", "t_end") == 0.5


def test_main_reduced_rejects_degenerate_start(tmp_path, capsys):
    path = write_config(tmp_path, """
[reduced]
model = fast_diffusion
dims = 32
amplitude = 1.5
t_end = 0.5
""")
    assert cli.main(["reduced", path]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: min u")


def test_main_bad_config_exit_code(tmp_path):
    path = write_config(tmp_path, "[flow]\nbogus = 1\n")
    assert cli.main(["flow", path]) == cli.EXIT_CONFIG


def test_main_verify_algebra_and_calculus():
    assert cli.main(["verify", "algebra", "--resolution", "8"]) == cli.EXIT_OK
    assert cli.main(["verify", "calculus", "--resolution", "8"]) == cli.EXIT_OK
    assert cli.main(["verify", "nope"]) == cli.EXIT_CONFIG


def test_verify_default_resolution_per_suite(monkeypatch):
    # identities needs 24 points per axis to pass; the other suites run at 16
    seen = {}

    def probe(name):
        def run(n):
            seen[name] = n
            return [("probe", 0.0, 1.0)]
        return run

    monkeypatch.setattr(cli, "_SUITES", {name: probe(name) for name in cli._SUITES})
    for name in cli._SUITES:
        assert cli.main(["verify", name]) == cli.EXIT_OK
    assert seen == {"algebra": 16, "calculus": 16, "identities": 24,
                    "reductions": 16, "inequalities": 16}
    assert cli.main(["verify", "identities", "--resolution", "8"]) == cli.EXIT_OK
    assert seen["identities"] == 8


def test_verify_prints_suite_wall_time(capsys):
    assert cli.main(["verify", "calculus", "--resolution", "8"]) == cli.EXIT_OK
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert re.fullmatch(r"calculus: 3/3 checks passed at resolution 8 "
                        r"in \d+\.\d\d s", last), last


def test_import_defaults_blas_to_one_thread():
    # a run uses one core unless the user asks for more BLAS threads
    root = Path(__file__).resolve().parent.parent
    probe = ("import hodgeflow, os, sys; "
             "sys.stdout.write(os.environ['OPENBLAS_NUM_THREADS'])")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    for preset, want in ((None, "1"), ("3", "3")):
        run_env = env if preset is None else {**env, "OPENBLAS_NUM_THREADS": preset}
        proc = subprocess.run([sys.executable, "-c", probe], env=run_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want


MALLOC_PROBE = """
import ctypes, sys
import hodgeflow
import numpy as np

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes = ()
libc.mallinfo2.restype = MallInfo2
before = libc.mallinfo2().hblks
held = np.ones(1 << 20)  # 8 MiB
sys.stdout.write(str(libc.mallinfo2().hblks - before))
"""


def test_import_keeps_freed_arrays_on_the_heap():
    # an 8 MiB array comes from the heap, not from its own mmap (glibc's
    # default above 128 KiB), unless the user has set the threshold
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(root / "src")
    for preset, mapped in ((None, "0"),
                           (("MALLOC_MMAP_THRESHOLD_", "131072"), "1"),
                           (("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"), "1")):
        run_env = env if preset is None else {**env, preset[0]: preset[1]}
        proc = subprocess.run([sys.executable, "-c", MALLOC_PROBE], env=run_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == mapped, preset


def test_heap_setting_is_skipped_without_mallopt(monkeypatch):
    import hodgeflow
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    hodgeflow._keep_freed_memory_on_heap()  # no mallopt: nothing to do


def test_main_verify_reductions():
    assert cli.main(["verify", "reductions", "--resolution", "16"]) == cli.EXIT_OK


def test_verify_reductions_runs_at_the_given_resolution(capsys):
    # the suite builds its grid at the resolution it reports: at 8 points the
    # product-embedding residual (4.5e-3) misses its 1e-5 bound
    assert cli.main(["verify", "reductions", "--resolution", "8"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("[FAIL] reductions/product embedding rhs: 4.4")
    assert out[-1].startswith("reductions: 1/2 checks passed at resolution 8 in ")


def test_main_poincare():
    assert cli.main(["poincare", "--resolution", "8", "--probes", "5"]) == cli.EXIT_OK


def test_scenario_from_config_unknown(tmp_path):
    path = write_config(tmp_path, """
[grid]
dims = 8 8 8 8
[flow]
scheme = linear
t_end = 0.01
[scenario]
kind = mystery
""")
    assert cli.main(["flow", path]) == cli.EXIT_CONFIG


def test_main_flow_with_too_few_late_samples_skips_the_fit(tmp_path):
    # 14 records: the second half holds 7, too few for a decay fit, so the
    # summary carries no rate and the finished run exits 0
    out = tmp_path / "out"
    text = FLOW_INI.format(out=out).replace(
        "t_end = 0.05", "t_end = 0.13\nfixed_dt = 0.01")
    path = write_config(tmp_path, text)
    assert cli.main(["flow", path]) == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 14
    assert summary["steps"] == 13
    assert "decay_rate" not in summary


def test_main_set_applies_override(tmp_path):
    for flag in ("--set", "--override"):
        out = tmp_path / flag.strip("-")
        path = write_config(tmp_path, FLOW_INI.format(out=out))
        assert cli.main(["flow", path, flag, "flow.t_end=0.02"]) == cli.EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_t"] == pytest.approx(0.02)


def test_main_usage_errors_are_config_errors(tmp_path):
    path = write_config(tmp_path, FLOW_INI.format(out=tmp_path / "out"))
    assert cli.main(["flow"]) == cli.EXIT_CONFIG
    assert cli.main([]) == cli.EXIT_CONFIG
    assert cli.main(["flow", path, "--bogus"]) == cli.EXIT_CONFIG
    assert cli.main(["poincare", "--probes", "many"]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# README.md as an executable contract

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_blocks(lang):
    """The bodies of README.md's fenced code blocks whose fence names `lang`."""
    return [body for name, body in re.findall(r"^```(\w*)\n(.*?)^```",
                                              README.read_text(), re.M | re.S)
            if name == lang]


def readme_usage_argvs():
    """(line, argv) for each `hodgeflow ...` line in README.md's plain code
    blocks, with every optional group filled in: a `{a,b}` choice gives one
    argv per alternative, and a metavar in capitals the value 8."""
    usages = []
    for block in readme_blocks(""):
        for line in block.splitlines():
            if line.startswith("hodgeflow "):
                words = re.sub(r"[][]|\.\.\.", " ", line.partition("#")[0])
                argvs = [[]]
                for word in words.split()[1:]:
                    alts = (word[1:-1].split(",") if word.startswith("{")
                            else ["8" if word.isupper() else word])
                    argvs = [argv + [alt] for argv in argvs for alt in alts]
                usages += [(line, argv) for argv in argvs]
    return usages


def cli_parser(monkeypatch):
    """The parser that `cli.main` builds, caught at its parse_args call."""
    caught = []

    def catch(parser, args=None, namespace=None):
        caught.append(parser)
        sys.exit(0)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", catch)
    assert cli.main([]) == cli.EXIT_OK
    monkeypatch.undo()
    return caught[0]


def test_every_readme_usage_line_parses_and_shows_every_option(monkeypatch):
    parser = cli_parser(monkeypatch)
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    usages = readme_usage_argvs()
    assert {argv[0] for _, argv in usages} == set(commands)
    for line, argv in usages:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line}")
        hidden = [action.option_strings[0] for action in commands[argv[0]]._actions
                  if action.option_strings
                  and not isinstance(action, argparse._HelpAction)
                  and not set(action.option_strings) & set(argv)]
        assert not hidden, f"{line}: options not shown: {hidden}"


def test_every_readme_config_runs(tmp_path):
    # each ini block runs as written, but for a short t_end and a temporary
    # output directory
    blocks = readme_blocks("ini")
    assert blocks
    for n, text in enumerate(blocks):
        command = next(c for c in ("reduced", "flow") if f"[{c}]" in text)
        out = tmp_path / f"out{n}"
        args = [command, write_config(tmp_path, text, f"readme{n}.ini"),
                "--set", f"{command}.t_end=0.01", "--set", f"output.dir={out}"]
        assert cli.main(args) == cli.EXIT_OK, text
        assert (out / "series.csv").is_file()


# ---------------------------------------------------------------------------
# benchmark contract: perfbench/launch.py traces the reduced march by name

def test_bench_trace_mode_wraps_the_reduced_march(tmp_path):
    root = Path(__file__).resolve().parent.parent
    path = write_config(tmp_path, HEAT_INI.format(out=tmp_path / "out"))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(report), "1",
         "reduced.run_reduced", "--", "reduced", path],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    trace = data["trace"]
    steps = trace["reduced.step_rk4_reduced"]["calls"]
    assert steps > 0
    # one exact step per record after the first, on the 64-point values: the
    # only transforms build the cached exponential of each distinct step size
    # (one rfft/irfft pair of the identity), and no Laplacian call
    with open(tmp_path / "out" / "series.csv") as fh:
        dts = [float(row["dt"]) for row in csv.DictReader(fh)][1:]
    assert len(dts) > 2 and steps == len(dts)
    assert trace["fft"]["calls"] == 2 * len(set(dts))
    assert trace["grid.laplacian_values"]["calls"] == 0
    assert data["aliases_before"] == [] and data["aliases_after"] == []
    assert data["main_loop_at"] is not None


MATRIX_B2_INI = """
[grid]
dims = 8 8 8 8
[flow]
scheme = matrix_b2
t_end = 0.001
fixed_dt = 0.001
sample_every = 0.001
[scenario]
kind = random_near_omega
eps = 0.05
band = 3
seed = 3
[output]
dir = {out}
"""


def test_bench_trace_mode_wraps_the_flow_and_builds_no_weight_matrix(tmp_path):
    # one matrix_b2 step under the benchmark's tracer: the flux goes through
    # flow_rhs and never through the explicit weight matrices
    root = Path(__file__).resolve().parent.parent
    path = write_config(tmp_path, MATRIX_B2_INI.format(out=tmp_path / "out"))
    report = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), str(report), "1",
         "flows.run_flow", "--", "flow", path],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    trace = data["trace"]
    assert trace["flows.flow_rhs"]["calls"] > 0
    assert trace["forms.matrix_ab"]["calls"] == 0
    assert trace["forms.weight_h"]["calls"] == 0
    assert data["aliases_before"] == [] and data["aliases_after"] == []
