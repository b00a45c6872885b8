"""miselect benchmark: a full `miselect run` per child process, end to end and per layer.

    python3 perfbench/run.py --workload score_scale --seed 0 --seconds 30 --trace 0

Runs the named workload (see workloads.py and README.md) in fresh child
processes against this checkout's src/ until --seconds have passed, with at
least three runs. Every run's scores.csv and accuracy.csv are hashed and
checked: against the digests frozen in digests.json at the default seed,
and against each other at any seed. With --trace 1 one more traced run
follows and the per-layer metrics are reported instead of the end-to-end
ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn and prints a table of all end-to-end metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
CHECKED_FILES = ("scores.csv", "accuracy.csv")

from tracer import METRICS as LAYER_METRICS, rollup  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def spawn(workload, config_path, out, seed, cache_from=None, trace_file=None):
    """Run one child; returns (result dict or None, problem string or None)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config_path),
           "--out", str(out), "--seed", str(seed), "--threads", str(workload.threads)]
    if cache_from is not None:
        cmd += ["--cache-from", str(cache_from)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    error = (proc.stderr.strip().splitlines() or ["no diagnostics"])[-1]
    if proc.returncode != 0 or not lines:
        return None, f"child exited {proc.returncode}: {error}"
    result = json.loads(lines[-1])
    if result["exit"] != 0:
        return None, f"miselect run exited {result['exit']}: {error}"
    return result, None


def digests(out):
    """sha256 of each checked output file; raises FileNotFoundError if one is missing."""
    return {name: hashlib.sha256((Path(out) / name).read_bytes()).hexdigest()
            for name in CHECKED_FILES}


def verify(out, expected):
    """Problem string if the run's outputs are missing or differ from `expected`."""
    try:
        got = digests(out)
    except FileNotFoundError as exc:
        return f"missing output {Path(exc.filename).name}"
    bad = [name for name in CHECKED_FILES if expected is not None and got[name] != expected[name]]
    return f"digest mismatch in {', '.join(bad)}" if bad else None


def separation_auc(scores_csv):
    """P(a clean sample's final local_mi > a corrupted one's), ties counting 1/2."""
    with open(scores_csv, newline="") as f:
        rows = [(float(r["local_mi"]), r["provenance"] == "clean") for r in csv.DictReader(f)]
    rows.sort(key=lambda r: r[0])
    clean_rank_sum, i = 0.0, 0
    while i < len(rows):
        j = i
        while j < len(rows) and rows[j][0] == rows[i][0]:
            j += 1
        mid_rank = (i + 1 + j) / 2
        clean_rank_sum += mid_rank * sum(1 for r in rows[i:j] if r[1])
        i = j
    n_clean = sum(1 for r in rows if r[1])
    n_other = len(rows) - n_clean
    return (clean_rank_sum - n_clean * (n_clean + 1) / 2) / (n_clean * n_other)


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def check(workload, config_path, out, seed, expected, cache_from=None, trace_file=None):
    """Spawn one run and check its outputs; returns (result or None, problem or None)."""
    result, problem = spawn(workload, config_path, out, seed, cache_from, trace_file)
    return result, problem or verify(out, expected)


def measure(workload, seed, seconds, trace):
    """Run one set of `workload`; returns (result object, details for the summary)."""
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(workload.config))
        cache_from = None
        if workload.primed:
            # A separate child, so priming does not raise the runs' peak RSS.
            _, problem = spawn(workload, config_path, work / "prime", seed)
            if problem is not None:
                raise RuntimeError(f"priming the score cache failed: {problem}")
            cache_from = work / "prime" / "cache"
        expected = workload.frozen if seed == DEFAULT_SEED else None

        runs, problems, auc, attempted = [], [], None, 0
        start, last = time.monotonic(), 0.0
        while attempted < MIN_RUNS or time.monotonic() - start + last <= seconds:
            began = time.monotonic()
            out = work / f"run{attempted}"
            result, problem = check(workload, config_path, out, seed, expected, cache_from)
            attempted += 1
            if result is not None:
                runs.append(result)
            if problem is None:
                expected = expected or digests(out)
                if auc is None:
                    auc = separation_auc(out / "scores.csv")
            else:
                problems.append(problem)
            shutil.rmtree(out, ignore_errors=True)
            last = time.monotonic() - began
        if auc is None:
            raise RuntimeError(f"no run passed its checks: {problems[0]}")
        run_s = statistics.median(r["run_s"] for r in runs)
        metrics = {
            "run_s": (run_s, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MiB"),
            "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
            "separation_auc": (auc, "ratio"),
        }
        details = {"run_s": [r["run_s"] for r in runs], "problems": problems}

        if trace:
            out, trace_file = work / "traced", work / "trace.json"
            result, problem = check(workload, config_path, out, seed, expected, cache_from,
                                    trace_file)
            attempted += 1
            if result is None:
                raise RuntimeError(f"traced run failed: {problem}")
            if problem is not None:
                problems.append(problem)
            traced = json.loads(trace_file.read_text())
            report = json.loads((out / "report.json").read_text())
            affected = sum(stage["affected"] for stage in report["corruption_stages"])
            values, absent, layers = rollup(
                traced["spans"], traced["absent"], run_s, affected, dir_bytes(out)
            )
            metrics = {name: (values[name], unit) for name, unit, _ in LAYER_METRICS}
            details.update(absent=absent, layers=layers, absent_targets=traced["absent"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, details


def summarize(name, seed, result, details):
    """Human-readable lines for one set; printed before the JSON result."""
    lines = [f"workload {name}  seed {seed}  runs {len(details['run_s'])}  "
             f"attempted {result['attempted']}  failed {result['failed']}"]
    lines.append("  run_s per run: " + " ".join(f"{t:.3f}" for t in details["run_s"]))
    lines += [f"  problem: {p}" for p in details["problems"]]
    absent = set(details.get("absent", []))
    for metric, entry in result["metrics"].items():
        value = "absent" if metric in absent else f"{entry['value']:.6g} {entry['unit']}"
        lines.append(f"  {metric:<26} {value}")
    lines.append(f"  {'fail_rate':<26} {result['failed'] / result['attempted']:.6g} ratio")
    if "layers" in details:
        lines.append(f"  {'layer':<12} {'total_s':>10} {'self_s':>10} {'calls':>8}")
        for layer, row in sorted(details["layers"].items(), key=lambda kv: -kv[1]["total_s"]):
            lines.append(f"  {layer:<12} {row['total_s']:>10.4f} {row['self_s']:>10.4f} "
                         f"{row['calls']:>8}")
        lines += [f"  absent wrap target: {t}" for t in details["absent_targets"]]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for this long (at least three runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "miselect" / "cli.py").is_file():
        print(f"error: no miselect sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, details = measure(WORKLOADS[name], args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summarize(name, args.seed, result, details)), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
