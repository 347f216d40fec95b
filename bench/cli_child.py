"""One traced ``sll`` command-line invocation.

    python3 bench/cli_child.py local-model tangents --q 3

Installs the benchmark's tracer, calls ``sll.cli.main`` with the given
arguments, passes the command's standard output through unchanged, writes
the trace (aggregates, spans, import time and time spent in this process)
as one JSON line on standard error, and exits with the command's code.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import Tracer  # noqa: E402


def main():
    t0 = time.perf_counter()
    import sll.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install(sll)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = sll.cli.main(sys.argv[1:])
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    state = tracer.state()
    state["import_s"] = import_s
    state["in_child_s"] = time.perf_counter() - START
    sys.stderr.write(json.dumps(state) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
