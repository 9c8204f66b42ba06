"""Launcher for the ``repro serve`` daemon under the benchmark.

Run by ``run.py``, never imported by it::

    python3 perfbench/daemon.py --report FILE [--trace FILE] -- --socket PATH

Everything after ``--`` goes to ``repro serve`` unchanged.  With
``--trace`` the layer shims are installed before the daemon starts, and
the spans are written as a Chrome trace once a SIGTERM has drained it.
On exit the launcher writes ``{"peak_rss_mb": ...}`` to the report file.
"""

import argparse
import json
import resource
import sys


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv[:split])

    recorder = None
    if args.trace:
        import spans

        recorder = spans.SpanRecorder()
        spans.install_shims(recorder)
    from repro.cli import main as repro_main

    rc = repro_main(["serve"] + argv[split + 1:])
    if recorder is not None:
        spans.write_chrome_trace(recorder.spans, args.trace, pid=1)
    with open(args.report, "w") as fh:
        json.dump({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
