"""Write the stored reference outputs of every workload.

    python3 perfbench/make_reference.py

Runs each pair once with the default modulus of its m.  For the verify
workloads the reference is the ``report_to_json`` text of all pairs in
``nmds verify --all`` order, and every pair must verify (exit status 0);
for dual-m7 it is each pair's outputs, counts as decimal strings.  The files
record the program's computed values, including the computed localities of
``e`` and ``e2`` that the external acceptance table disputes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REFERENCE_DIR, WORKLOADS, Layers, dual_pair  # noqa: E402


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    layers = Layers()
    for name, workload in WORKLOADS.items():
        pairs = [key.split("@") for key in workload.keys()]
        if workload.kind == "verify":
            outputs = []
            for cid, m in pairs:
                report, failures = layers("run_verification", cid, int(m), None)
                if failures:
                    raise SystemExit(f"{cid}@{m} fails {failures}; not a reference")
                outputs.append(report)
            text = layers("report_to_json", outputs)
        else:
            data = {}
            for cid, m in pairs:
                outcome = dual_pair(layers, f"{name}/reference", cid, int(m), None)
                if outcome.problems:
                    raise SystemExit(f"{cid}@{m} fails {outcome.problems}; not a reference")
                data[f"{cid}@{m}"] = outcome.output
            text = json.dumps(data, indent=1) + "\n"
        (REFERENCE_DIR / f"{name}.json").write_text(text)
        print(f"{name}: {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
