"""Record perfbench/reference.json from the current code.

The warm-up pass of ``tree_csv`` and ``tree_wide`` must reproduce these trees
(parent vectors exactly, total weights to a relative 1e-9).  Re-record only
when a change is meant to alter the learned trees, and say so.  Run from the
checkout root::

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import OUT_DIR, REFERENCE, load_program  # noqa: E402
from perfbench.workloads import REFERENCE_SEED, WORKLOADS, Session  # noqa: E402


def main() -> None:
    program = load_program()
    workdir = OUT_DIR / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    trees = {}
    try:
        for size in ("full", "tiny"):
            for cls in WORKLOADS.values():
                if cls.has_reference:
                    workload = cls(size, workdir, 1)
                    done = workload.run(Session(program), REFERENCE_SEED)
                    trees[f"{cls.name}/{size}"] = done.outputs
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "trees": trees}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
