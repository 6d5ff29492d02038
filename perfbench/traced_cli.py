"""Run one `qgames` command with every public qgames function traced.

    python -X importtime perfbench/traced_cli.py SPANS_JSON <qgames args...>

Mirrors the `qgames` console script (`from qgames.cli import main`),
writes the spans and phase timestamps to SPANS_JSON, then prints the
time the dump finished, so the parent can attribute every moment of
the process's life to a layer.
"""
import time

T_SCRIPT = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402

import qgames.cli  # noqa: E402

T_IMPORTED = time.monotonic()
tracer = spans.Tracer()
tracer.install()
T_INSTALLED = time.monotonic()
rc = 1
try:
    rc = qgames.cli.main(sys.argv[2:])
finally:
    T_MAIN_END = time.monotonic()
    with open(sys.argv[1], "w") as fh:
        json.dump({"t_script": T_SCRIPT, "t_imported": T_IMPORTED, "t_installed": T_INSTALLED,
                   "t_main_end": T_MAIN_END, "spans": tracer.to_dict()}, fh)
    print(time.monotonic())
sys.exit(rc)
