"""One benchmark run in a fresh interpreter: `miselect run` on the working tree.

Started by run.py; prints one JSON line with the run's exit code, timings
and peak RSS. BLAS pools are pinned to one thread before numpy is imported,
so they do not compete with `--threads`.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--cache-from", help="primed score cache to copy into <out>/cache")
    parser.add_argument("--trace-file", help="trace the run and write its spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from miselect import cli

    if args.cache_from:
        shutil.copytree(args.cache_from, Path(args.out) / "cache")
    argv = ["run", "--config", args.config, "--out", args.out,
            "--seed", str(args.seed), "--threads", str(args.threads)]

    tracer = None
    if args.trace_file:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.spawned_at
    start = time.perf_counter()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.span(ROOT_SPAN, cli.main, argv)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        Path(args.trace_file).write_text(
            json.dumps({"spans": tracer.spans, "absent": tracer.absent})
        )
    print(json.dumps(
        {"exit": code, "run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
