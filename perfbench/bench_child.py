"""One child process of the benchmark: import the program, optionally run it.

Usage::

    python3 perfbench/bench_child.py RESULT_JSON [--trace SPANS_JSON] [-- RUN ARGS...]

With no run arguments the child only imports ``stability_meter.cli`` (a set-up
sample). Otherwise it calls ``cli.main(RUN ARGS)`` once, traced when
``--trace`` is given. RESULT_JSON receives the monotonic time at which the
import finished, the wall and CPU seconds ``cli.main`` took, its exit status, the
process's peak RSS and, when traced, the per-layer metrics; SPANS_JSON
receives the spans. The child exits with ``cli.main``'s status.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    rest = argv[1:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path = Path(rest[1])
        rest = rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]

    from stability_meter import cli

    imported_at = time.monotonic()
    import numpy

    record = {
        "imported_at": imported_at,
        "module": cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if rest:
        tracer = None
        if spans_path is not None:
            import bench_trace

            tracer = bench_trace.install(cli)
        cpu_start = time.process_time()
        start = time.perf_counter()
        status = cli.main(rest)
        record["run_s"] = time.perf_counter() - start
        record["cpu_s"] = time.process_time() - cpu_start
        record["status"] = status
        if tracer is not None:
            record["layers"] = tracer.metrics()
            spans_path.write_text(
                json.dumps({"spans": tracer.spans, "aggregates": tracer.aggregates()}) + "\n",
                encoding="utf-8",
            )
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return record.get("status", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
