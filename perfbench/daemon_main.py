"""The benchmark's daemon process: ``chimera serve`` with an exit rule.

Runs ``SchedulerDaemon.serve`` exactly as ``chimera serve`` does, with
two additions owned by the benchmark: the daemon counts as idle only
once the generator has written its done marker (so a gap in an
open-loop schedule cannot end the run early), and with ``--trace 1``
the span wrappers are installed before the worker pool is forked and
the spans are written out when the daemon exits. On exit it writes a
small stats file: peak resident memory, fsync count, serve wall time
and, when traced, per-span totals.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

from common import nproc, peak_rss_mb, use_source_tree

#: Hard safety stop for the serve loop, s: longer than any run.
MAX_WALL_S = 150.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--done", required=True,
                        help="marker file the generator writes when done")
    parser.add_argument("--out", required=True, help="stats file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_source_tree()
    import spans
    from repro.harness.cache import ResultCache
    from repro.service.daemon import SchedulerDaemon

    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install_daemon(rec)
    daemon = SchedulerDaemon(directory=args.dir,
                             cache=ResultCache(args.cache),
                             workers=nproc(), poll_s=0.05)
    done = Path(args.done)
    idle = daemon._idle
    daemon._idle = lambda: idle() and done.exists()
    signal.signal(signal.SIGTERM, lambda *_: daemon.request_drain())
    start = time.perf_counter()
    daemon.serve(idle_exit_s=0.0, max_wall_s=MAX_WALL_S)
    wall_ms = (time.perf_counter() - start) * 1000.0
    stats = {"peak_rss_mb": peak_rss_mb(), "fsyncs": daemon.store.fsyncs,
             "wall_ms": wall_ms}
    if rec is not None:
        rec.uninstall()
        stats["totals"] = rec.totals()
        stats["counters"] = dict(rec.counters)
        stats["main_root_ms"] = rec.root_ms(threading.get_ident())
        rec.dump(str(Path(args.out).with_suffix(".spans.jsonl")))
    Path(args.out).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
