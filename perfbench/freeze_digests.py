"""Rewrite digests.json: the output digests of each workload at the default seed.

    python3 perfbench/freeze_digests.py

Run it only when a change is meant to alter miselect's outputs; a change
that only makes miselect faster must leave digests.json as it is.
"""

import json
import tempfile
from pathlib import Path

import run
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS


def main():
    frozen = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as work:
        for name, workload in WORKLOADS.items():
            config = Path(work) / f"{name}.json"
            config.write_text(json.dumps(workload.config))
            out = Path(work) / name
            _, problem = run.spawn(workload, config, out, DEFAULT_SEED)
            if problem is not None:
                raise SystemExit(f"{name}: {problem}")
            frozen[name] = run.digests(out)
    DIGESTS_PATH.write_text(json.dumps(frozen, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
