"""Child process of the benchmark: one `hybridctl run`, timed from inside.

Usage: python3 bench/launch.py TIMING_JSON TRACE_JSON|- -- <hybridctl run args>

Runs ``hybridctl.cli.main`` on the given arguments. It records two
timestamps on the system-wide monotonic clock, which the parent shares:
entry into the first ``harness.run_scenario`` (set-up has ended: the
package is imported and the run config loaded and validated) and exit
from ``harness.write_diagnostics`` (the last output file is written).
With a trace path it also installs :class:`tracer.Tracer` and writes the
spans there when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    timing_path, trace_path, cli_args = argv[0], argv[1], argv[3:]

    from hybridctl import cli, harness

    marks: dict[str, int] = {}

    def first_entry(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            marks.setdefault(key, time.monotonic_ns())
            return fn(*args, **kwargs)
        return wrapper

    def last_exit(fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                marks[key] = time.monotonic_ns()
        return wrapper

    tracer = None
    if trace_path != "-":
        from tracer import Tracer  # the script's directory leads sys.path

        tracer = Tracer()
        tracer.install(trace_path)
    harness.run_scenario = first_entry(harness.run_scenario, "loop_start")
    harness.write_diagnostics = last_exit(harness.write_diagnostics, "loop_end")

    rc = cli.main(cli_args)
    with open(timing_path, "w") as fh:
        json.dump({"rc": rc, **marks}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
