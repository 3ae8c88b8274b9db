"""One pass of a benchmark workload in a fresh interpreter.

    python3 perfbench/passrun.py MODE WORKLOAD SEED INDEX

MODE is ``setup`` (set up, then exit), ``run`` (one untraced pass) or
``trace`` (one traced pass).  Prints one JSON object: the monotonic time at
which set-up ended, the peak resident set in KiB and, unless MODE is setup,
the pass result of ``workloads.Pass.run`` plus, when traced, the spans.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402
from workloads import Pass  # noqa: E402


def main(argv: list[str]) -> int:
    mode, workload, seed, index = argv
    tracer = Tracer() if mode == "trace" else None
    job = Pass(workload, int(seed), int(index), tracer)
    result = {"ready": time.monotonic()}
    if mode != "setup":
        result.update(job.run())
    if tracer:
        result["spans"] = tracer.spans
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
