"""Recompute ``reference.json``: the digest of the output of every input
key of every workload, after the workload's own checks pass.

    python3 perfbench/make_reference.py [workload ...]

Only rerun it when the benchmark's inputs change; a program change that
alters an output must show up as a failed check instead.
"""

from __future__ import annotations

import json
import sys
import time

from paths import REFERENCE, use_source_tree

use_source_tree()
import workloads  # noqa: E402  (needs the source tree on the path)


def main(names: list[str]) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        w = workloads.WORKLOADS[name]
        start = time.perf_counter()
        digests = {}
        for key in w.keys():
            inp = w.make_input(key)
            out = w.run(inp)
            problems = w.check(inp, out)
            if problems:
                raise SystemExit(f"{name} {key}: {problems}")
            digests[workloads.key_text(key)] = workloads.digest(w.canonical(out))
        reference[name] = digests
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{name}: {len(digests)} keys in {time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
