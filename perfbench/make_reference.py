#!/usr/bin/env python3
"""Rewrite reference.json from the current sources.

Usage (from the repository root):

    python3 perfbench/make_reference.py

Runs each workload's fixed reference case and stores its bound totals and
exact distances.  Regenerate only on purpose: a later change that moves one of
these numbers beyond the tolerance fails the benchmark's correctness check.
"""

import json
import shutil
import sys
import tempfile

from run import HERE, ROOT, SRC, import_radstein
from workloads import WORKLOADS, Tally

TOLERANCE_REL = 1e-9


def main() -> int:
    sys.path.insert(0, str(SRC))
    rs = import_radstein()
    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=scratch)
    try:
        stored = {}
        for name, workload in WORKLOADS.items():
            tally = Tally()
            stored[name] = workload.reference(rs, workdir, tally)
            if tally.failed:
                print(f"{name}: reference case failed: {tally.messages}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    document = {"tolerance_rel": TOLERANCE_REL, "workloads": stored}
    (HERE / "reference.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
