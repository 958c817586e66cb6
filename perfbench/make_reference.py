"""Write perfbench/reference.json: the final diagnostics record of every
workload at the default seed, as computed by the checked-out mmpsim.

    python3 perfbench/make_reference.py

The stored file is the correctness reference of the benchmark.  Regenerate
it only from a commit whose trajectories are known to be right, never to
make a failing reference check pass.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

from checks import REFERENCE_PATH
from run import Session, git_commit
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    reference = {}
    for name, w in WORKLOADS.items():
        session = Session(time.monotonic() + 600.0)
        result, _ = session.spawn({"mode": "run", "workload": asdict(w),
                                   "seed": DEFAULT_SEED, "trace": False})
        failed = [c for c in result["checks"] if not c[1]]
        if failed:
            print(f"{name}: checks failed, no reference written: {failed}",
                  file=sys.stderr)
            return 1
        reference[name] = {"seed": DEFAULT_SEED, "n": w.n,
                           "commit": git_commit(),
                           "final_record": result["final_record"]}
        print(f"{name}: t = {result['final_record']['t']!r}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
