"""One odegeom report in a fresh interpreter, as a user runs the tool.

    python3 report_proc.py RESULT.json TRACE [ODEGEOM ARGV...]

Times `import odegeom.cli` (set-up), then `cli.run(argv + ["--json"])`, and
writes the timings, the exit code and the report text to RESULT.json.  With
TRACE 1 the span tracer is installed after the import and its spans are
written too.  With no odegeom argv it only imports (a set-up sample).
"""

import json
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> None:
    out_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import odegeom.cli as cli
    result = {"setup_s": time.perf_counter() - t0}

    if argv:
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t1 = time.perf_counter()
        try:
            code, text = cli.run(argv + ["--json"])
            error = None
        except Exception:
            code, text, error = None, "", traceback.format_exc()
        result["report_s"] = time.perf_counter() - t1
        result["report_cpu_s"] = _cpu_s() - cpu0
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(peak_rss_mb=peak_kb / 1024.0, exit=code, text=text, error=error)
        if tracer is not None:
            result["trace"] = tracer.dump()

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
