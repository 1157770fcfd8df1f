"""The service-mixed workload's worker: one warm serve-mode process.

Runs ``repro.runtime.worker.serve_queues`` at its defaults (0.2 s poll,
4-session pool) over the service root until the root's ``STOP`` file
appears, then writes its peak RSS (and, traced, its per-layer summary)
as JSON to ``--out``.  It writes ``--ready`` once imports and first-call
costs are paid, so spawn and import time stay out of every metric.  A
traced run (``--spans``) wraps the layer calls here too, starts recording
on SIGUSR1, which the benchmark sends when its timed phase begins, and
writes the spans to the ``--spans`` file at exit.
"""

import argparse
import json
import pathlib
import resource
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--serve", required=True)
    parser.add_argument("--ready", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="traced run: write spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    import spans
    import workloads
    from repro.runtime.worker import serve_queues

    recorder = spans.Recorder().install() if args.spans else None
    if recorder is not None:
        signal.signal(signal.SIGUSR1,
                      lambda signum, frame: setattr(recorder, "active", True))
    workloads.prime()
    pathlib.Path(args.ready).write_text("ready\n")
    serve_queues([args.serve])

    result = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        recorder.active = False
        recorder.dump(args.spans)
        result.update(layers=recorder.summary(), fired=sorted(recorder.fired),
                      absent=recorder.absent)
    pathlib.Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
