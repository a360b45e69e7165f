"""Command-line front end: config parsing, run orchestration, snapshots,
and CSV emission.

Subcommands: flow, reduced, counterexample, soliton, verify, poincare.
Exit codes: 0 clean, 1 config error, 2 degeneracy event, 3 blowup,
4 verification / convergence failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import struct
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import calculus, diagnostics, flows, forms, reduced, scenarios, soliton
from .errors import FormatError, HodgeFlowError, NoConvergence, NumericalBlowup
from .flows import FlowState
from .forms import TwoForm
from .grid import PeriodicGrid, ScalarField, integrate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DEGENERACY = 2
EXIT_BLOWUP = 3
EXIT_VERIFY = 4

SNAPSHOT_MAGIC = b"NHF1"


class ConfigError(HodgeFlowError):
    pass


# ---------------------------------------------------------------------------
# configuration

def _checked(cast, ok, why: str):
    """A setting's cast: `cast` of the raw string, refused with `why` unless
    `ok` holds of the value."""
    def check(raw: str):
        value = cast(raw)
        if not ok(value):
            raise ValueError(why)
        return value
    return check


_finite = _checked(float, np.isfinite, "not finite")
_positive = _checked(_finite, lambda v: v > 0.0, "must be positive")
_count = _checked(int, lambda n: n >= 1, "must be at least 1")


def _dims(raw: str) -> tuple:
    """The sizes of a valid PeriodicGrid, of any rank it allows."""
    return PeriodicGrid(tuple(int(tok) for tok in raw.split())).dims


def _one_of(names):
    return _checked(str, lambda name: name in names,
                    f"choose from {', '.join(names)}")


# Each key's cast and bound; a rule that depends on the command or on
# another key (a grid's rank, count of lengths or band) is checked where read.
_SCHEMA = {
    "grid": {"dims": _dims,
             "lengths": lambda raw: tuple(_finite(tok) for tok in raw.split())},
    "flow": {"scheme": forms.scheme_from_name, "t_end": _positive,
             "sample_every": _positive, "fixed_dt": _positive},
    "scenario": {"kind": _one_of(("omega", "random_near_omega", "product_u",
                                  "ab", "counterexample")),
                 "eps": _finite, "band": _count, "amplitude": _finite,
                 "seed": _checked(int, lambda n: n >= 0, "must be at least 0"),
                 "n1d": _checked(int, lambda n: n >= scenarios.MIN_N1D and n % 2 == 0,
                                 f"needs an even count >= {scenarios.MIN_N1D}"),
                 "a0": lambda raw: raw if raw == "auto" else _finite(raw)},
    "output": {"dir": str},
    "reduced": {"model": _one_of(reduced.MODELS), "dims": _dims,
                "amplitude": _finite, "t_end": _positive,
                "sample_every": _positive, "fixed_dt": _positive},
    "soliton": {"dims": _dims, "v1": _finite, "v2": _finite, "tol": _positive,
                "max_iter": _count},
}

_REQUIRED = object()


class RunConfig:
    """Flat key/value configuration: unknown keys are rejected, and every
    key is cast and checked by `_SCHEMA` when it is set."""

    def __init__(self, parser: configparser.ConfigParser):
        self._settings = {}  # (section, key) -> (raw string, checked value)
        for section in parser.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser[section].items():
                self.set(section, key, raw)

    @classmethod
    def load(cls, path: str, overrides=()) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
            if not read:
                raise ConfigError(f"cannot read config file {path!r}")
            for item in overrides:
                key, _, value = item.partition("=")
                if not _ or "." not in key:
                    raise ConfigError(f"override must look like "
                                      f"section.key=value: {item!r}")
                section, _, name = key.partition(".")
                if not parser.has_section(section):
                    parser.add_section(section)
                parser[section][name] = value
        except (configparser.Error, ValueError) as exc:
            # a malformed file, or one that is not text, or --set DEFAULT.x
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from exc
        return cls(parser)

    def set(self, section, key, raw: str, replace=True) -> None:
        """Set section.key to the checked value of `raw`; with replace=False
        only if it is unset."""
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        if not replace and (section, key) in self._settings:
            return
        try:
            self._settings[section, key] = raw, _SCHEMA[section][key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {section}.{key}: {raw!r} "
                              f"({exc})") from exc

    def get(self, section, key, default=_REQUIRED):
        """The checked value of section.key, or `default` when it is unset."""
        if (section, key) in self._settings:
            return self._settings[section, key][1]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {section}.{key}")
        return default

    def digest(self) -> str:
        """sha256 of every raw setting but [output], which says only where
        the files go: one run into two directories writes the same sidecar."""
        blob = "\n".join(f"{s}.{k}={raw}"
                         for (s, k), (raw, _) in sorted(self._settings.items())
                         if s != "output")
        return hashlib.sha256(blob.encode()).hexdigest()


def _grid_from_config(cfg: RunConfig, section: str, ranks, default=_REQUIRED,
                      lengths=()) -> PeriodicGrid:
    """The grid of `section`.dims, whose rank must be one of `ranks`."""
    dims = cfg.get(section, "dims", default)
    if len(dims) not in ranks:
        raise ConfigError(f"{section}.dims needs {' or '.join(map(str, ranks))} "
                          f"sizes, got {len(dims)}")
    try:
        return PeriodicGrid(dims, lengths)
    except ValueError as exc:
        raise ConfigError(f"bad grid for {section}.dims: {exc}") from exc


def _time_settings(cfg: RunConfig, section: str, samples: int):
    """(t_end, sample_every, fixed_dt) of `section`; sample_every defaults
    to t_end / samples, and an unset fixed_dt is None, the CFL step."""
    t_end = cfg.get(section, "t_end")
    return (t_end, cfg.get(section, "sample_every", t_end / samples),
            cfg.get(section, "fixed_dt", None))


def _scenario_from_config(cfg: RunConfig, grid: PeriodicGrid) -> TwoForm:
    kind = cfg.get("scenario", "kind", "omega")
    if kind == "omega":
        return forms.omega(grid)
    if kind == "random_near_omega":
        try:  # eps, and band >= 1, are checked at load; the band's top here
            return scenarios.make_random_near_omega(
                grid, cfg.get("scenario", "eps", 0.05),
                cfg.get("scenario", "band", 4), cfg.get("scenario", "seed", 0))
        except ValueError as exc:
            raise ConfigError(f"bad value for scenario.band: {exc}") from exc
    if kind == "product_u":
        amp = cfg.get("scenario", "amplitude", 0.3)
        g2 = PeriodicGrid(grid.dims[:2], grid.lengths[:2])
        u2 = ScalarField.from_function(g2, lambda x1, x2: 1.0 + amp * np.sin(x1))
        return reduced.embed_product(u2, dims34=grid.dims[2:])
    if kind == "ab":
        amp = cfg.get("scenario", "amplitude", 0.1)
        g2 = PeriodicGrid(grid.dims[:2], grid.lengths[:2])
        a = ScalarField.from_function(g2, lambda x1, x2: amp * np.sin(x1))
        b = ScalarField.from_function(g2, lambda x1, x2: amp * np.sin(x2))
        return reduced.embed_ab(a, b, dims34=grid.dims[2:])
    n1d = cfg.get("scenario", "n1d", scenarios.MIN_N1D)
    scen = scenarios.make_example_counterexample(PeriodicGrid((n1d,)),
                                                 cfg.get("scenario", "a0", "auto"))
    return scen.two_form(t=0.0, nx=grid.dims[0], ny=grid.dims[1],
                         dims34=grid.dims[2:])


# ---------------------------------------------------------------------------
# persistence

def snapshot_write(state: FlowState, path, scheme_name: str = "",
                   config_digest: str = "") -> None:
    rho = state.rho
    grid = rho.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<I", grid.rank))
        fh.write(struct.pack(f"<{grid.rank}I", *grid.dims))
        fh.write(struct.pack(f"<{grid.rank}d", *grid.lengths))
        fh.write(struct.pack("<I", rho.comps.shape[0]))
        fh.write(np.ascontiguousarray(rho.comps, dtype="<f8"))
    sidecar = {"scheme": scheme_name, "t": state.t, "step": state.step,
               "dt": state.dt, "config_digest": config_digest}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1))


def snapshot_read(path) -> FlowState:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read snapshot {path!r}: {exc}") from exc
    if raw[:4] != SNAPSHOT_MAGIC:
        raise FormatError("bad snapshot magic")
    off = 4
    try:
        (rank,) = struct.unpack_from("<I", raw, off)
        off += 4
        if rank != 4:
            raise FormatError(f"bad snapshot rank {rank}: a 2-form needs rank 4")
        dims = struct.unpack_from(f"<{rank}I", raw, off)
        off += 4 * rank
        lengths = struct.unpack_from(f"<{rank}d", raw, off)
        off += 8 * rank
        (ncomp,) = struct.unpack_from("<I", raw, off)
        off += 4
    except struct.error as exc:
        raise FormatError("truncated snapshot header") from exc
    if ncomp != 6:
        raise FormatError(f"expected 6 components, snapshot has {ncomp}")
    try:
        grid = PeriodicGrid(dims, lengths)
    except ValueError as exc:
        raise FormatError(f"bad snapshot grid: {exc}") from exc
    count = 6 * int(np.prod(dims))
    payload = raw[off:]
    if len(payload) != 8 * count:
        raise FormatError(f"snapshot payload has {len(payload)} bytes, "
                          f"expected {8 * count}")
    comps = np.frombuffer(payload, dtype="<f8").reshape((6,) + grid.dims).copy()
    state = FlowState(rho=TwoForm(grid, comps))
    meta_path = Path(str(path) + ".json")
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
            if not isinstance(meta, dict):
                raise ValueError("not a JSON object")
            state.t = float(meta.get("t", 0.0))
            state.step = int(meta.get("step", 0))
            state.dt = float(meta.get("dt", 0.0))
        except (OSError, TypeError, ValueError) as exc:
            raise FormatError(f"bad snapshot sidecar {str(meta_path)!r}: "
                              f"{exc}") from exc
    return state


def write_series(trajectory, path) -> None:
    """series.csv: one row per record, the columns in the field order of
    the records' dataclass (a flow's TrajectoryRecord or
    reduced.ReducedRecord); a march always records its start state."""
    columns = [f.name for f in dataclass_fields(trajectory[0])]
    lines = [",".join(columns)]
    for rec in trajectory:
        lines.append(",".join(format(getattr(rec, col), ".17e")
                              for col in columns))
    Path(path).write_text("\n".join(lines) + "\n")


_PROC_STATUS = Path("/proc/self/status")


def _peak_rss_mb():
    """This process's peak resident set so far (VmHWM in `_PROC_STATUS`) in
    MB of 1024 kB, or None where that file is missing."""
    try:
        lines = _PROC_STATUS.read_text().splitlines()
    except OSError:
        return None
    return next((int(line.split()[1]) / 1024.0 for line in lines
                 if line.startswith("VmHWM:")), None)


def _write_summary(out_dir: Path, trajectory, final, event, extra=None) -> None:
    """summary.json of a flow or reduced run: sample count, the final
    state's t and step count and the degeneracy event, plus `extra` (the
    march's wall_s, dt_min and dt_max, and a flow's decay fit) and peak_rss_mb."""
    summary = {"samples": len(trajectory),
               "final_t": final.t,
               "steps": final.step,
               "event": None}
    if event is not None:
        summary["event"] = {"t": event.t, "cause": event.cause,
                            "min_u": event.min_u,
                            "location": list(event.location)}
    if extra:
        summary.update(extra)
    summary["peak_rss_mb"] = _peak_rss_mb()
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=1))


def _decay_fit(trajectory) -> dict:
    """decay_rate and decay_r_squared of E0 over the late half of a flow
    run, or nothing when that half holds fewer than 10 positive values."""
    e0 = [(r.t, r.E0) for r in trajectory
          if np.isfinite(r.E0) and r.E0 > 0]
    late = e0[len(e0) // 2:]
    if len(late) < 10:
        return {}
    rate, r2 = diagnostics.decay_rate_fit(late)
    return {"decay_rate": rate, "decay_r_squared": r2}


# ---------------------------------------------------------------------------
# subcommands

def _event_exit(event) -> int:
    if event is None:
        return EXIT_OK
    return EXIT_DEGENERACY if event.cause == "u_floor" else EXIT_BLOWUP


def cmd_flow(cfg: RunConfig) -> int:
    grid = _grid_from_config(cfg, "grid", (4,),
                             lengths=cfg.get("grid", "lengths", ()))
    scheme = cfg.get("flow", "scheme", forms.CONFORMAL)
    t_end, sample_every, fixed_dt = _time_settings(cfg, "flow", 50)
    stats = {}
    # the initial form goes to run_flow unbound, so that the run can free it
    trajectory, final, event = flows.run_flow(
        _scenario_from_config(cfg, grid), scheme, t_end, sample_every,
        fixed_dt=fixed_dt, stats=stats)
    out_dir = Path(cfg.get("output", "dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(trajectory, out_dir / "series.csv")
    if event is None:
        snapshot_write(final, out_dir / "final.nhf", scheme.tag, cfg.digest())
    _write_summary(out_dir, trajectory, final, event,
                   {**stats, **_decay_fit(trajectory)})
    return _event_exit(event)


def cmd_reduced(cfg: RunConfig) -> int:
    model = cfg.get("reduced", "model")
    grid = _grid_from_config(cfg, "reduced",
                             (2,) if model == "ab_system" else (1, 2))
    t_end, sample_every, fixed_dt = _time_settings(cfg, "reduced", 20)
    amp = cfg.get("reduced", "amplitude", 0.5)
    if model == "ab_system":
        a = ScalarField.from_function(grid, lambda x1, x2: amp * np.sin(x1))
        b = ScalarField.from_function(grid, lambda x1, x2: amp * np.sin(x2))
        state = reduced.ReducedState(model, (a, b))
    else:
        base = ScalarField.from_function(grid, lambda x1, *rest: 1.0 + amp * np.sin(x1))
        state = reduced.ReducedState(model, (base,))
    # precondition: the initial data must already satisfy positivity
    reduced.reduced_cfl_dt(state)
    stats = {}
    trajectory, final, event = reduced.run_reduced(
        state, t_end, sample_every=sample_every, fixed_dt=fixed_dt, stats=stats)
    out_dir = Path(cfg.get("output", "dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    write_series(trajectory, out_dir / "series.csv")
    _write_summary(out_dir, trajectory, final, event, stats)
    return _event_exit(event)


def cmd_counterexample(cfg: RunConfig) -> int:
    """Shear-data run under the unweighted scheme; expected to degenerate."""
    cfg.set("scenario", "kind", "counterexample")
    cfg.set("flow", "scheme", "linear", replace=False)
    cfg.set("flow", "t_end", "1.0", replace=False)
    return cmd_flow(cfg)


def cmd_soliton(cfg: RunConfig) -> int:
    grid = _grid_from_config(cfg, "soliton", (2,), default=(128, 128))
    v = (cfg.get("soliton", "v1", 1.0), cfg.get("soliton", "v2", 0.5))
    tol = cfg.get("soliton", "tol", 1e-7)
    max_iter = cfg.get("soliton", "max_iter", 200000)
    a_star = ScalarField.from_function(
        grid, lambda x, y: 2.0 + 0.5 * np.cos(x) * np.cos(y))
    problem = soliton.SolitonProblem(ScalarField.constant(grid, a_star.mean()),
                                     v, soliton.manufactured_forcing(a_star, v))
    try:
        a, res_norm = soliton.solve_soliton(problem, tol=tol, max_iter=max_iter)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    out_dir = Path(cfg.get("output", "dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / "soliton_a.npy", a.values)
    report = {"residual_sup": res_norm, "mean": a.mean(), "v": list(v),
              "error_sup": float(np.abs(a.values - a_star.values).max())}
    (out_dir / "soliton.json").write_text(json.dumps(report, indent=1))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites

def _suite_algebra(n: int):
    grid = PeriodicGrid((n,) * 4)
    rng = np.random.default_rng(7)
    worst = {"star": 0.0, "2u": 0.0, "eig": 0.0, "ab": 0.0}
    for _ in range(5):
        rho = scenarios.make_random_near_omega(grid, 0.3, band=3,
                                               seed=int(rng.integers(1 << 30)))
        twice = forms.hodge_star(forms.hodge_star(rho))
        worst["star"] = max(worst["star"], float(np.abs(twice.comps - rho.comps).max()))
        u = forms.volume_potential_values(rho)
        pair = forms.dot(rho.comps, forms.hodge_star(rho).comps)
        worst["2u"] = max(worst["2u"], float(np.abs(2 * u - pair).max()))
        lam1, lam2 = forms.eigenvalue_values(rho)
        worst["eig"] = max(worst["eig"],
                           float(np.abs(lam1 * lam2 - u).max()),
                           float(np.abs(lam1 ** 2 + lam2 ** 2
                                        - forms.norm_sq_values(rho)).max()))
        a, b = forms.matrix_ab(rho)
        total = a + b
        eye = np.eye(4).reshape(4, 4, 1, 1, 1, 1)
        worst["ab"] = max(worst["ab"], float(
            np.abs(total - forms.norm_sq_values(rho) * eye).max()))
    return [("star involution", worst["star"], 1e-13),
            ("2u = <rho,*rho>", worst["2u"], 1e-12),
            ("eigenvalue identities", worst["eig"], 1e-11),
            ("a + b = |rho|^2 I", worst["ab"], 1e-12)]


def _suite_calculus(n: int):
    grid = PeriodicGrid((n,) * 4)
    rng = np.random.default_rng(11)
    checks = []
    zeta = calculus.OneForm(grid, np.stack(
        [scenarios._band_limited_field(rng, grid, 3) for _ in range(4)]))
    ddz = calculus.d_two(calculus.d_one(zeta))
    checks.append(("d o d = 0", calculus.max_abs_three(ddz), 1e-12))
    rho = scenarios.make_random_near_omega(grid, 0.3, band=3, seed=5)
    lhs = integrate(ScalarField(grid, forms.dot(calculus.d_one(zeta).comps,
                                                rho.comps)))
    rhs = integrate(ScalarField(grid, forms.dot(zeta.comps,
                                                calculus.codiff_two(rho).comps)))
    scale = max(abs(lhs), abs(rhs), 1e-30)
    checks.append(("adjointness", abs(lhs - rhs) / scale, 1e-11))
    drift = calculus.periods(rho) - calculus.periods(forms.omega(grid))
    checks.append(("period invariance", float(np.abs(drift).max()), 1e-11))
    return checks


def _suite_identities(n: int):
    grid = PeriodicGrid((n,) * 4)
    rho = _identity_probe(grid)
    pairs = [(scheme, quantity) for scheme in forms.ALL_SCHEMES
             for quantity in ("rho_sq", "u")]
    pairs += [(forms.FlowScheme(kind), quantity)
              for kind in diagnostics._LAMBDA_SCHEMES
              for quantity in ("lambda1", "lambda2")]
    residuals = diagnostics.evolution_residuals(rho, pairs)
    return [(f"{scheme.kind}/{quantity}", res, 1e-7)
            for (scheme, quantity), res in zip(pairs, residuals)]


def _identity_probe(grid: PeriodicGrid) -> TwoForm:
    """Band-limited probe with both eigenvalues bounded away from each other."""
    base = forms.omega(grid)
    base.comps[0] += 0.35
    base.comps[5] -= 0.35
    pert = scenarios.make_random_near_omega(grid, 0.003, band=3, seed=23)
    return TwoForm(grid, base.comps + (pert.comps - forms.omega(grid).comps))


def _suite_reductions(n: int):
    g2 = PeriodicGrid((n,) * 2)
    u2 = ScalarField.from_function(g2, lambda x1, x2: 1.0 + 0.3 * np.sin(x1))
    rho = reduced.embed_product(u2)
    full = flows.flow_rhs(rho, forms.CONFORMAL)
    fast = reduced.rhs_values("fast_diffusion", u2.values, g2)
    diff = float(np.abs(full.comps[0][:, :, 0, 0] - fast).max())
    checks = [("product embedding rhs", diff
               / max(float(np.abs(fast).max()), 1e-30), 1e-5)]
    others = float(np.abs(full.comps[1:]).max())
    checks.append(("off-product components", others, 1e-9))
    return checks


def _suite_inequalities(n: int):
    grid = PeriodicGrid((n,) * 4)
    checks = [("poincare ratio <= 1", _max_poincare_ratio(grid, 10), 1.0 + 1e-8)]
    mode = forms.omega(grid)
    x1 = grid.coordinates()[0]
    zeta = calculus.OneForm.zero(grid)
    zeta.comps[2] = 0.05 * np.sin(x1) * np.ones(grid.dims)
    lowest = TwoForm(grid, mode.comps + calculus.d_one(zeta).comps)
    ratio = diagnostics.poincare_ratio(lowest)
    checks.append(("lowest mode attains 1", abs(ratio - 1.0), 1e-8))
    return checks


def _max_poincare_ratio(grid: PeriodicGrid, probes: int) -> float:
    """Largest Poincare ratio over the random probes of seeds 0 .. probes-1."""
    return max(diagnostics.poincare_ratio(scenarios.make_random_near_omega(
        grid, 0.05, band=3, seed=seed)) for seed in range(probes))


_SUITES = {"algebra": _suite_algebra, "calculus": _suite_calculus,
           "identities": _suite_identities, "reductions": _suite_reductions,
           "inequalities": _suite_inequalities}


# At 16 points the matrix-b lambda identities carry aliasing residuals up to
# 2.5e-5 against their 1e-7 bound; at 24 every identity check passes.
_DEFAULT_RESOLUTION = {"identities": 24}


def _check_resolution(resolution: int) -> None:
    """A --resolution must be a valid axis of a PeriodicGrid."""
    try:
        PeriodicGrid((resolution,))
    except ValueError as exc:
        raise ConfigError(f"bad --resolution {resolution}: {exc}") from exc


def cmd_verify(suite: str, resolution=None) -> int:
    if resolution is None:
        resolution = _DEFAULT_RESOLUTION.get(suite, 16)
    _check_resolution(resolution)
    started = time.perf_counter()
    checks = _SUITES[suite](resolution)
    wall_s = time.perf_counter() - started
    failed = 0
    for name, measured, bound in checks:
        ok = measured <= bound
        failed += not ok
        print(f"[{'pass' if ok else 'FAIL'}] {suite}/{name}: "
              f"{measured:.3e} (bound {bound:.3e})")
    print(f"{suite}: {len(checks) - failed}/{len(checks)} checks passed "
          f"at resolution {resolution} in {wall_s:.2f} s")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


def cmd_poincare(resolution: int, probes: int = 50) -> int:
    _check_resolution(resolution)
    if probes < 1:
        raise ConfigError(f"--probes must be at least 1, got {probes}")
    worst = _max_poincare_ratio(PeriodicGrid((resolution,) * 4), probes)
    print(f"max ratio over {probes} random probes: {worst:.12f}")
    return EXIT_OK if worst <= 1.0 + 1e-8 else EXIT_VERIFY


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hodgeflow")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("flow", "reduced", "counterexample", "soliton"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--set", "--override", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE")
    p = sub.add_parser("verify")
    p.add_argument("suite", choices=_SUITES)
    p.add_argument("--resolution", type=int, default=None,
                   help="grid points per axis (default 24 for identities, 16 otherwise)")
    p = sub.add_parser("poincare")
    p.add_argument("--resolution", type=int, default=16)
    p.add_argument("--probes", type=int, default=50)
    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args.suite, args.resolution)
        if args.command == "poincare":
            return cmd_poincare(args.resolution, args.probes)
        cfg = RunConfig.load(args.config, args.overrides)
        handler = {"flow": cmd_flow, "reduced": cmd_reduced,
                   "counterexample": cmd_counterexample,
                   "soliton": cmd_soliton}[args.command]
        return handler(cfg)
    except SystemExit as exc:  # from argparse; its 2 would read as EXIT_DEGENERACY
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalBlowup as exc:
        print(f"blowup: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except HodgeFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
