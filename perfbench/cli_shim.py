"""Traced stand-in for ``python -m gkmcalc.cli``.

    python3 perfbench/cli_shim.py STATS.json ARG...

Installs the layer wrappers, then calls ``gkmcalc.cli.main(ARG...)``; stdout
and the exit status are those of the real CLI.  The layer stats, including
the import time of ``gkmcalc.cli``, go to STATS.json and the spans to
STATS.json.spans.
"""

import json
import sys
from time import perf_counter

from layertrace import Tracer

stats_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer(span_cap=20_000)
t = perf_counter()
import gkmcalc.cli  # noqa: E402

import_s = perf_counter() - t
tracer.install()
tracer.active = True
status = 1
try:
    status = gkmcalc.cli.main(argv)
finally:
    tracer.active = False
    stats = tracer.layer_stats()
    stats["cli.import_s"] = import_s
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    tracer.dump(stats_path + ".spans")
sys.exit(status)
