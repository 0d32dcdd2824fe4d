"""Launch the ``dualframes`` command line in a child process.

    python3 clirun.py <dualframes arguments>

The parent sets ``PYTHONPATH`` to the library's ``src`` directory.  When
``PERFBENCH_TRACE_OUT`` names a file, the child traces the library as a
traced benchmark run does and writes its spans there as JSON on exit,
also when the command fails.  The last line on standard error is always
``peak_rss_kb <n>``, the child's own peak resident memory.
"""

import os
import sys

from dualframes import cli


def traced_main(out_path):
    import json

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main()
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


def peak_rss_kb():
    """Peak resident memory of this program image (VmHWM).

    getrusage() would also count the parent's memory, which a child
    started by vfork inherits as its high-water mark.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


if __name__ == "__main__":
    out = os.environ.get("PERFBENCH_TRACE_OUT")
    try:
        code = traced_main(out) if out else cli.main()
    finally:
        print(f"peak_rss_kb {peak_rss_kb()}", file=sys.stderr)
    sys.exit(code)
