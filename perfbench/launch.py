"""Run one hodgeflow CLI command in this process, as the `hodgeflow` console
script does, and write a small JSON report next to it.

    python3 perfbench/launch.py REPORT.json TRACE MAIN_LOOP -- <hodgeflow arguments>

The report holds `main_loop_at`, the CLOCK_MONOTONIC reading at the first
call of MAIN_LOOP, `module.function` inside hodgeflow (`flows.run_flow` for
the flow command, `reduced.run_reduced` for the reduced command), so that
the parent can time set-up from the moment it started this process, and
`peak_rss_kb`, this process's peak resident set (VmHWM) when the command
returns.  The rusage of the child is not used for that, because Linux carries
the parent's peak over into the child's `ru_maxrss` through fork and exec.  With TRACE = 1 every layer is wrapped first (see layertrace.py)
and the report also holds the per-function statistics.
"""

import importlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main() -> int:
    report_path, trace = Path(sys.argv[1]), sys.argv[2] == "1"
    module_name, fn_name = sys.argv[3].rsplit(".", 1)
    argv = sys.argv[5:]
    report = {"main_loop_at": None}

    from hodgeflow import cli

    module = importlib.import_module(f"hodgeflow.{module_name}")
    main_loop = getattr(module, fn_name)

    def marked_main_loop(*args, **kwargs):
        if report["main_loop_at"] is None:
            report["main_loop_at"] = time.monotonic()
        return main_loop(*args, **kwargs)

    setattr(module, fn_name, marked_main_loop)

    tracer = None
    if trace:
        import layertrace as layer_trace
        tracer = layer_trace.Tracer()
        layer_trace.install(tracer)
        report["aliases_before"] = layer_trace.unwrapped_aliases(tracer)
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            report["aliases_after"] = layer_trace.unwrapped_aliases(tracer)
            report["trace"] = layer_trace.report(tracer)
        report["peak_rss_kb"] = peak_rss_kb()
        report_path.write_text(json.dumps(report))


if __name__ == "__main__":
    sys.exit(main())
