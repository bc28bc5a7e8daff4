"""Run one ``htbounds`` command line in a fresh interpreter and time its set-up.

Usage: python3 child.py SRC RECORD TRACE -- ARGV...

SRC is the directory holding the ``htbounds`` package, RECORD the JSON file
this child writes (exit code, set-up and import seconds, compute CPU
seconds, versions), and TRACE either ``-`` or the JSON file a traced run
writes its per-layer aggregates to.  Set-up ends when ``htbounds`` is
imported and the command line parsed (the first ``parse_args`` return).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, record_path, trace_path = sys.argv[1:4]
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py SRC RECORD TRACE -- ARGV...")
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    tracer = None
    if trace_path != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
    t_imp = time.perf_counter()
    import htbounds.cli

    t_imported = time.perf_counter()
    parsed = []
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        result = parse_args(self, *args, **kwargs)
        if not parsed:
            parsed.append(time.perf_counter())
        return result

    argparse.ArgumentParser.parse_args = timed_parse_args
    if tracer is not None:
        tracer.install()
    cpu0 = time.process_time()
    rc = tracer.call_root(htbounds.cli.cli_main, argv) if tracer else htbounds.cli.cli_main(argv)
    compute_cpu = time.process_time() - cpu0
    t_setup_end = parsed[0] if parsed else t_imported
    import numpy
    import scipy

    record = {
        "rc": rc,
        "setup_s": t_setup_end - T0,
        "import_s": t_imported - t_imp,
        "compute_cpu_s": compute_cpu,
        "htbounds_file": htbounds.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hypotest_threads": os.environ.get("HYPOTEST_THREADS"),
    }
    if tracer is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
