"""Benchmark of the hodgeflow CLI: fresh processes, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`; nothing needs installing).  Each CLI run is a fresh process started
through `launch.py`, one at a time.  The benchmark writes a complete INI file
for the run from the seed, checks every run's output against the gates
below, and prints one JSON line with the results last.

--trace 0 runs the workload's command again and again for S seconds (it starts
a run only if the median run so far still fits) and reports the medians of
`wall_s`, `setup_s` and `peak_rss_mb`.  The two times are scaled to a fixed
core speed that a probe measures while each run goes (see SpeedProbe); the
raw times are in the line before the result.  --trace 1 runs it once plain
and once with every layer wrapped (layertrace.py), checks that both runs
wrote the same `series.csv` bytes, and reports the per-layer figures.  See README.md for why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
WORK = ROOT / ".bench_runs"

DEFAULT_SEED = 42
# Every run of the benchmark must end within this many seconds.
RUN_LIMIT_S = 170.0

# The cores of a shared VM change speed by up to 1.6x within seconds, with
# the load of other tenants on the host, and both cores together.  So while
# a CLI run goes, a thread of this process times one of three fixed probes
# (an interpreter loop, small FFTs, one large FFT; about 1.2 ms each) every
# PROBE_PERIOD_S, in turn, on the other core (about 3% of it).  The run's
# times are scaled by REFERENCE_PROBE_S / (geometric mean of the probes'
# median times during the run): they read as seconds at the speed at which
# the probes take REFERENCE_PROBE_S, about that of this VM's cores when the
# host is quiet.
PROBE_PERIOD_S = 0.04
REFERENCE_PROBE_S = 1.2e-3

FLOW_INI = """\
[grid]
dims = {n} {n} {n} {n}

[flow]
scheme = {scheme}
t_end = {t_end}
sample_every = {sample_every}

[scenario]
kind = random_near_omega
eps = 0.05
band = 4
seed = {seed}

[output]
dir = {out}
"""

REDUCED_INI = """\
[reduced]
model = heat
dims = {n}
amplitude = {amplitude}
t_end = {t_end}
sample_every = {sample_every}

[output]
dir = {out}
"""

# Final-row E0 and minU of each flow workload at DEFAULT_SEED, recorded from
# the program as it was when this benchmark was written.
FLOW_REFERENCE = {
    "flow16_conformal_dense": {"E0": 0.15149619450831348,
                               "minU": 0.9771259117251853},
    "flow24_matrix_b2_sparse": {"E0": 0.6981466781924748,
                                "minU": 0.9498671863300862},
}
# E0 is a difference of two energies about 3000 times larger than itself, so
# rounding-level changes upstream show in it magnified.
REFERENCE_RTOL = 1e-9
IDENTITY_TOL = 1e-10
# The reduced heat run is checked against the exact solution.
EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    command: str
    ini: str
    params: dict
    main_loop: str    # hodgeflow function whose first call ends set-up
    nominal_s: float  # rough wall time of one CLI run, before one is timed


WORKLOADS = {
    # 16^4 conformal flow with a record after every step: sample_every is
    # below the CFL step (4.65e-3), so make_record runs as often as the RK4
    # step.  One 2-form is 3.1 MB.  8 steps give 9 records; a horizon giving
    # 10 to 19 records makes the CLI exit 1 (see README.md, defects).
    "flow16_conformal_dense": Workload(
        "flow", FLOW_INI,
        {"n": 16, "scheme": "conformal", "t_end": 0.035, "sample_every": 0.001},
        main_loop="flows.run_flow", nominal_s=4.0),
    # 24^4 matrix-weight flow recorded only at start and end: the weight
    # layer (matrix_ab, weight_h) works hard and the record layer does not.
    # One 2-form is 15.9 MB and it writes a 15.9 MB snapshot.
    "flow24_matrix_b2_sparse": Workload(
        "flow", FLOW_INI,
        {"n": 24, "scheme": "matrix_b2", "t_end": 0.0045, "sample_every": 0.0045},
        main_loop="flows.run_flow", nominal_s=8.0),
    # The reduced heat model on 512 points, the march that makes up most of
    # the counterexample command's set-up: 5313 RK4 steps on 512-point
    # arrays, bound by per-call overhead.  The CFL step does not depend on
    # the amplitude, so every seed does the same work.
    "reduced_heat_512": Workload(
        "reduced", REDUCED_INI,
        {"n": 512, "t_end": 0.1, "sample_every": 0.01},
        main_loop="reduced.run_reduced", nominal_s=2.5),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# output gates: each returns a list of problems, empty when the run is correct

def _read_series(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def gate_flow(name: str, out: Path, code: int, seed: int) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows = _read_series(out / "series.csv")
    if len(rows) < 2:
        return [f"series.csv has {len(rows)} rows"]
    problems = []
    for i, r in enumerate(rows):
        if not (r["periodDrift"] < IDENTITY_TOL and r["dRhoResidual"] < IDENTITY_TOL
                and abs(r["meanU"] - 1.0) < IDENTITY_TOL):
            problems.append(f"row {i}: periodDrift={r['periodDrift']:.3e} "
                            f"dRhoResidual={r['dRhoResidual']:.3e} "
                            f"meanU-1={r['meanU'] - 1.0:.3e}")
        if i and r["E0"] > rows[i - 1]["E0"]:
            problems.append(f"row {i}: E0 increased")
    if seed == DEFAULT_SEED:
        for key, want in FLOW_REFERENCE[name].items():
            got = rows[-1][key]
            if abs(got - want) > REFERENCE_RTOL * abs(want):
                problems.append(f"final {key} = {got!r}, recorded {want!r}")
    return problems


def heat_amplitude(seed: int) -> float:
    """Amplitude a of the initial data 1 + a sin x, in [0.3, 0.7)."""
    return 0.3 + 0.4 * ((seed * 2654435761) % 2**32) / 2**32


def gate_reduced(name: str, out: Path, code: int, seed: int) -> list[str]:
    """Heat flow of 1 + a sin x is exactly 1 + a e^-t sin x; a grid point sits
    at x = 3 pi / 2, so minU and maxU are 1 -+ a e^-t and the mass is 2 pi."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    rows = _read_series(out / "series.csv")
    t_end = WORKLOADS[name].params["t_end"]
    if len(rows) < 2 or abs(rows[-1]["t"] - t_end) > 1e-12:
        return [f"series.csv ends at t = {rows[-1]['t'] if rows else None}, "
                f"expected {t_end}"]
    amp = heat_amplitude(seed)
    problems = []
    for i, r in enumerate(rows):
        decay = amp * math.exp(-r["t"])
        errors = (r["minU"] - (1.0 - decay), r["maxU"] - (1.0 + decay),
                  r["mass"] - 2.0 * math.pi)
        if max(abs(e) for e in errors) > EXACT_TOL:
            problems.append(f"row {i} (t = {r['t']!r}): minU, maxU, mass "
                            f"off the exact solution by {errors}")
    return problems


GATES = {"flow": gate_flow, "reduced": gate_reduced}


# ---------------------------------------------------------------------------
# one CLI run

class SpeedProbe:
    """Times the probes in turn, one every PROBE_PERIOD_S, in a thread, from
    entering the context to leaving it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        small, large = rng.standard_normal(512), rng.standard_normal((16,) * 4)
        fft = np.fft

        def loop():
            acc = 0
            for i in range(20_000):
                acc += i * i

        def small_ffts():
            for _ in range(60):
                fft.ifft(fft.fft(small))

        def large_fft():
            fft.ifft(fft.fft(large))

        self.probes = (loop, small_ffts, large_fft)
        self.samples: list[list[float]] = [[] for _ in self.probes]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        clock = time.perf_counter
        turn = 0
        while True:
            t0 = clock()
            self.probes[turn]()
            self.samples[turn].append(clock() - t0)
            turn = (turn + 1) % len(self.probes)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def probe_s(self) -> float:
        """Geometric mean of the probes' median times."""
        return statistics.geometric_mean(
            statistics.median(v) for v in self.samples if v)


def run_cli(name: str, seed: int, work: Path, tag: str, trace: bool,
            deadline: float) -> dict:
    wl = WORKLOADS[name]
    out = work / tag
    out.mkdir(parents=True)
    cfg = out / "run.ini"
    cfg.write_text(wl.ini.format(seed=seed, amplitude=heat_amplitude(seed),
                                 out=out / "result", **wl.params))
    report = out / "report.json"
    argv = [sys.executable, str(LAUNCH), str(report), "1" if trace else "0",
            wl.main_loop, "--", wl.command, str(cfg)]
    with open(out / "stderr.txt", "wb") as err, SpeedProbe() as probe:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=out, stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(max(1.0, deadline - started), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = time.monotonic()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4 above
    scale = REFERENCE_PROBE_S / probe.probe_s()
    res = {"tag": tag, "exit": code, "raw_wall_s": ended - started,
           "wall_s": (ended - started) * scale, "peak_rss_mb": None,
           "raw_setup_s": None, "setup_s": None, "probe_s": probe.probe_s(),
           # a cpu_s well below raw_wall_s means the process waited for a core
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "problems": [], "out": out / "result"}
    rep = json.loads(report.read_text()) if report.exists() else {}
    if rep.get("peak_rss_kb") is not None:
        res["peak_rss_mb"] = rep["peak_rss_kb"] / 1024.0
    if rep.get("main_loop_at") is not None:
        res["raw_setup_s"] = rep["main_loop_at"] - started
        res["setup_s"] = res["raw_setup_s"] * scale
    else:
        res["problems"].append("main loop never entered")
    if ended >= deadline:
        res["problems"].append("killed at the run's time limit")
    if not res["problems"]:
        try:
            res["problems"] += GATES[wl.command](name, out / "result", code, seed)
        except (OSError, ValueError, KeyError) as exc:
            res["problems"].append(f"unreadable output: {exc!r}")
    if trace:
        res["trace"] = rep.get("trace", {})
        aliases = rep.get("aliases_before", []) + rep.get("aliases_after", [])
        if aliases or "trace" not in rep:
            res["problems"].append(f"incomplete wrapping: {aliases}")
    if res["problems"]:
        tail = (out / "stderr.txt").read_text(errors="replace")[-2000:]
        print(f"{name} {tag}: {res['problems']}\n{tail}", file=sys.stderr)
    return res


# ---------------------------------------------------------------------------

def warm_up() -> None:
    """Import the program once, untimed, so that the timed runs find its
    bytecode compiled and its files in the page cache."""
    subprocess.run([sys.executable, "-c", "import hodgeflow.cli"], check=False,
                   cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=60)


def environment() -> dict:
    import numpy
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    backend = ("numpy.fft (pocketfft)"
               if hasattr(numpy.fft, "_pocketfft_umath") else "numpy.fft")
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy_version, "fft_backend": backend,
           "nproc": len(os.sched_getaffinity(0))}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var)
    for level in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            raw = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
            env[level.lower()] = int(raw) if raw.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            env[level.lower()] = None
    return env


def end_to_end(runs: list[dict]) -> dict:
    out = {}
    for key, unit in END_TO_END_UNITS.items():
        vals = [r[key] for r in runs if r[key] is not None]
        out[key] = {"value": statistics.median(vals) if vals else None,
                    "unit": unit}
    return out


def per_layer(plain: dict, traced: dict) -> dict:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    from layertrace import TRACED
    stats = traced["trace"]

    def get(fn, field):
        return stats.get(fn, {}).get(field, 0)

    def per_call(fn, count):
        return count / get(fn, "calls") if get(fn, "calls") else 0.0

    m = {"fft.calls": (get("fft", "calls"), "count"),
         "fft.self_s": (get("fft", "self_s"), "s"),
         "fft.points": (get("fft", "points"), "count"),
         "fft.bytes_computed": (get("fft", "bytes"), "B")}
    for layer, names in TRACED.items():
        for fname in names:
            m[f"{layer}.{fname}.calls"] = (get(f"{layer}.{fname}", "calls"), "count")
            m[f"{layer}.{fname}.self_s"] = (get(f"{layer}.{fname}", "self_s"), "s")
    for fn in ("flows.flow_rhs", "diagnostics.make_record"):
        m[f"{fn}.deriv_per_call"] = (per_call(fn, get(fn, "deriv")), "count")
    step = "flows.step_rk4"
    m[f"{step}.accepted_frac"] = (
        per_call(step, get(step, "calls") - get(step, "raised")), "ratio")
    for fn in ("flows.step_rk4", "flows.flow_rhs", "diagnostics.make_record",
               "flows.cfl_dt"):
        m[f"{fn}.call_median_s"] = (get(fn, "median_s"), "s")
    for fn in ("cli.write_series", "cli.snapshot_write"):
        m[f"{fn}.bytes"] = (get(fn, "bytes"), "B")
    m["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "hodgeflow" / "cli.py").is_file():
        print(f"error: no hodgeflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runs = []
        if args.trace:
            plain = run_cli(args.workload, args.seed, work, "plain", False, deadline)
            traced = run_cli(args.workload, args.seed, work, "traced", True, deadline)
            runs = [plain, traced]
            if not plain["problems"] and not traced["problems"]:
                a = (plain["out"] / "series.csv").read_bytes()
                b = (traced["out"] / "series.csv").read_bytes()
                if a != b:
                    traced["problems"].append("traced series.csv differs from plain")
            metrics = per_layer(plain, traced)
        else:
            warm_up()
            expected = WORKLOADS[args.workload].nominal_s
            started = time.monotonic()
            while not runs or (time.monotonic() - started + expected
                               <= min(args.seconds, deadline - started)):
                res = run_cli(args.workload, args.seed, work, f"run{len(runs)}",
                              False, deadline)
                shutil.rmtree(res["out"], ignore_errors=True)
                runs.append(res)
                if res["problems"]:
                    break
                expected = statistics.median(r["raw_wall_s"] for r in runs)
            metrics = end_to_end(runs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is using it
            pass

    failed = sum(1 for r in runs if r["problems"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(),
              "runs": [{k: r[k] for k in ("tag", "exit", "wall_s", "cpu_s", "probe_s",
                                          "raw_wall_s", "raw_setup_s", "setup_s",
                                          "peak_rss_mb", "problems")}
                       for r in runs]}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
