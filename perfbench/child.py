"""Fresh-interpreter probe for set-up time and peak memory.

Times ``import discretefdr`` plus ``warm_up()``, then, when given
arguments, runs that ``discretefdr`` command once. Prints one JSON line:
the set-up seconds, the command's exit code (null without a command)
and the process's peak resident set size in KiB.
"""

import contextlib
import io
import json
import resource
import sys
import time

start = time.perf_counter()
import discretefdr  # noqa: E402

discretefdr.warm_up()
setup_s = time.perf_counter() - start

exit_code = None
if len(sys.argv) > 1:
    from discretefdr import cli

    with contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli.main(sys.argv[1:])

print(
    json.dumps(
        {
            "setup_s": setup_s,
            "exit_code": exit_code,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    )
)
