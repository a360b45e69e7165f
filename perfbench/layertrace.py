"""Outside-in tracing of the hodgeflow layers.

`install()` replaces every binding of the traced functions in every
`hodgeflow.*` namespace, and the numpy.fft / scipy.fft entry points, with
timing wrappers.  Each wrapper counts calls and self time (inclusive time
minus the time of traced callees).  Nothing in the program is edited; the
wrappers live in this process only.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time

# The layers and the public functions of each that the benchmark reports.
TRACED = {
    "grid": ("deriv_values", "laplacian_values"),
    "calculus": ("codiff_two", "d_one", "d_two", "grad_norm_sq"),
    "forms": ("matrix_ab", "weight_h", "scalar_weight_values",
              "weight_spectral_radius", "eigenvalue_values",
              "volume_potential_values"),
    "flows": ("run_flow", "step_rk4", "flow_rhs", "cfl_dt"),
    "diagnostics": ("make_record", "evolution_residual"),
    "reduced": ("run_reduced", "step_rk4_reduced", "reduced_cfl_dt"),
    "scenarios": ("make_random_near_omega", "make_example_counterexample",
                  "counterexample_profiles"),
    "cli": ("write_series", "snapshot_write"),
}

# Functions whose per-call inclusive durations are kept, for medians.
KEEP_DURATIONS = ("flows.step_rk4", "flows.flow_rhs", "diagnostics.make_record",
                  "flows.cfl_dt")

# Functions whose second positional argument is the path they write.
WRITES_PATH = ("cli.write_series", "cli.snapshot_write")

DERIV = "grid.deriv_values"

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn",
                    "dct", "idct", "dst", "idst", "dctn", "idctn",
                    "dstn", "idstn")


class Stat:
    __slots__ = ("calls", "self_s", "raised", "deriv", "bytes", "points",
                 "durations")

    def __init__(self, keep_durations: bool = False):
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0
        self.deriv = 0  # deriv_values calls made while this function ran
        self.bytes = 0
        self.points = 0
        self.durations = [] if keep_durations else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        # one [child_time, stat] frame per active traced call
        self.stack: list = []
        self.in_fft = False
        self.originals: dict[int, str] = {}

    def stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat(name in KEEP_DURATIONS)
        return self.stats[name]

    def wrap(self, name: str, fn):
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter
        is_deriv = name == DERIV
        keep = st.durations
        writes = name in WRITES_PATH

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_deriv:
                for frame in stack:
                    frame[1].deriv += 1
            frame = [0.0, st]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if keep is not None:
                    keep.append(dt)
                if writes:
                    st.bytes += _written_bytes(args[1])

        return traced

    def wrap_fft(self, fn):
        """All FFT entry points feed one `fft` stat; nested calls count once."""
        st = self.stat("fft")
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            if tracer.in_fft:
                return fn(a, *args, **kwargs)
            tracer.in_fft = True
            frame = [0.0, st]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(a, *args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                tracer.in_fft = False
                st.calls += 1
                st.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            size = getattr(a, "size", None)
            st.points += size if size is not None else len(a)
            # computed from array sizes: one read of the input and one write
            # of the output; cache misses are not counted
            st.bytes += getattr(a, "nbytes", 0) + out.nbytes
            return out

        return traced


def _written_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".json"):
        if os.path.exists(p):
            total += os.path.getsize(p)
    return total


def _hodgeflow_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hodgeflow"
                                  or name.startswith("hodgeflow."))]


def _fft_modules():
    mods = [importlib.import_module("numpy.fft")]
    try:
        mods.append(importlib.import_module("scipy.fft"))
    except ImportError:
        pass
    return mods


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding in every hodgeflow module."""
    for layer in TRACED:
        importlib.import_module(f"hodgeflow.{layer}")
    importlib.import_module("hodgeflow.soliton")
    replacements = {}
    for layer, names in TRACED.items():
        mod = sys.modules[f"hodgeflow.{layer}"]
        for fname in names:
            fn = getattr(mod, fname)
            tracer.originals[id(fn)] = f"{layer}.{fname}"
            replacements[id(fn)] = tracer.wrap(f"{layer}.{fname}", fn)
    for mod in _fft_modules():
        for fname in FFT_ENTRY_POINTS:
            fn = getattr(mod, fname, None)
            if fn is None or id(fn) in replacements:
                continue
            tracer.originals[id(fn)] = f"{mod.__name__}.{fname}"
            replacements[id(fn)] = tracer.wrap_fft(fn)
            setattr(mod, fname, replacements[id(fn)])
    for mod in _hodgeflow_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in replacements:
                setattr(mod, attr, replacements[id(value)])


def unwrapped_aliases(tracer: Tracer) -> list[str]:
    """Bindings in hodgeflow namespaces (and their top-level dicts, lists and
    tuples) that still point at an original traced function."""
    found = []
    for mod in _hodgeflow_modules():
        for attr, value in vars(mod).items():
            values = [value]
            if isinstance(value, dict):
                values += list(value.values())
            elif isinstance(value, (list, tuple)):
                values += list(value)
            for v in values:
                if id(v) in tracer.originals:
                    found.append(f"{mod.__name__}.{attr} -> "
                                 f"{tracer.originals[id(v)]}")
    for mod in _fft_modules():
        for fname in FFT_ENTRY_POINTS:
            fn = getattr(mod, fname, None)
            if fn is not None and id(fn) in tracer.originals:
                found.append(f"{mod.__name__}.{fname} left unwrapped")
    return found


def report(tracer: Tracer) -> dict:
    out = {}
    for name, st in tracer.stats.items():
        entry = {"calls": st.calls, "self_s": st.self_s, "raised": st.raised,
                 "deriv": st.deriv, "bytes": st.bytes, "points": st.points}
        if st.durations:
            entry["median_s"] = statistics.median(st.durations)
        out[name] = entry
    return out
