"""Recompute perfbench/pinned.json: the digests of the `check` workload's
reference corpus, which does not depend on --seed.

    python3 perfbench/pin.py

Run it only when a change to fsub's derivations or output format is
intended; the `check` workload fails every operation while the pinned
digests differ from the program's."""

import json
import os
import sys

from workloads import REFERENCE_LINES, REFERENCE_SEED, import_fsub, reference_digests

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    pinned = {"reference_seed": REFERENCE_SEED, "reference_lines": REFERENCE_LINES,
              "check_reference": reference_digests(import_fsub(SRC))}
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")
    print(json.dumps(pinned))
