"""The spunslice benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload runs in a fresh worker
process (perfbench/worker.py) that imports spunslice from src/; this process
generates the inputs from the seed, measures set-up, checks every output
against the golden files and invariants of perfbench/workloads.py, and
prints the metrics that BENCHMARK.json names: the end-to-end ones with
--trace 0, the per-layer ones (from perfbench/spans.py) with --trace 1.  Times
are in reference seconds (perfbench/hostspeed.py).  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics; a full record goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # set-up-only worker processes per run
WORKER_TIMEOUT = 170  # seconds; a run must end within 180


class BenchError(RuntimeError):
    pass


def spawn(inputs: Path, seconds: float, trace: int = 0, setup_only: bool = False) -> dict:
    """Run one worker process to completion; add its set-up time to its result."""
    argv = [sys.executable, str(HERE / "worker.py"), str(inputs), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same set orders in every worker
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT, env=env)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise BenchError(f"worker ran past {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def setup_time(inputs: Path) -> float:
    """Set-up seconds of one set-up-only worker, in reference seconds."""
    before = [hostspeed.kernel() for _ in range(3)]
    seconds = spawn(inputs, 0, setup_only=True)["setup_s"]
    return seconds * hostspeed.factor(before + [hostspeed.kernel() for _ in range(3)])


def pass_times(records: list[dict]) -> list[float]:
    """Reference seconds of each pass: the sum over its operations."""
    totals: dict[int, float] = {}
    for r in records:
        totals[r["pass"]] = totals.get(r["pass"], 0.0) + r["seconds"] * r["factor"]
    return list(totals.values())


def environment(inputs: dict, seconds: float, trace: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": inputs["workload"],
        "seed": inputs["seed"],
        "seconds": seconds,
        "trace": trace,
        "max_cosets": inputs["max_cosets"],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def check_records(inputs: dict, records: list[dict]) -> list[tuple[str, str]]:
    """(operation, reason) for each failed operation: the status "deadline" or
    "exception: ...", or what is wrong with its output."""
    ops = {op["id"]: op for op in inputs["ops"]}
    failures, facts, current = [], {}, None
    for rec in records:
        if rec["pass"] != current:
            facts, current = {}, rec["pass"]
        if rec["status"] != "ok":
            reason = rec["status"]
        else:
            try:
                reason = workloads.check(ops[rec["id"]], rec["output"], facts)
            except (KeyError, ValueError, TypeError) as exc:  # output not in the known form
                reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append((f"{rec['id']} (pass {rec['pass']})", reason))
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    workdir = HERE / "work" / f"{name}-s{seed}-t{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.build(name, seed, workdir)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(inputs, indent=1))
        if trace:
            untraced = spawn(inputs_path, seconds)  # the same run untraced, for the overhead
            result = spawn(inputs_path, seconds, trace)
            setup = []
        else:  # set-up samples before and after the run
            setup = [setup_time(inputs_path) for _ in range(SETUP_SAMPLES // 2)]
            result = spawn(inputs_path, seconds)
            setup += [setup_time(inputs_path) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    failures = check_records(inputs, records)
    wrong = [f for f in failures if f[1] != "deadline"]
    digest = hashlib.sha256(
        json.dumps([r["output"] for r in records if r["pass"] == 0], sort_keys=True).encode()
    ).hexdigest()
    passes = pass_times(records)
    if trace:
        values = defaultdict(float, result["layers"])  # 0 for layers the workload never calls
        untraced_pass = statistics.median(pass_times(untraced["records"]))
        values["trace.overhead_frac"] = statistics.median(passes) / untraced_pass - 1
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(passes),
            "op_p50_s": statistics.median(r["seconds"] * r["factor"] for r in records),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    detail = {
        "env": environment(inputs, seconds, trace),
        "summary": summary,
        "passes": passes,
        "passes_wall_s": result["passes"],
        "setup_samples": setup,
        "ops_failed_frac": len(failures) / len(records),
        "failures": [f"{op}: {reason}" for op, reason in failures],
        "outputs_sha256": digest,
        "operations": [{k: r[k] for k in ("id", "pass", "seconds", "factor", "status")}
                       for r in records],
    }
    if trace:
        detail["spans"] = result["spans"]
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-s{seed}-t{trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    return detail


def report(detail: dict) -> None:
    env, summary = detail["env"], detail["summary"]
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"{env['workload']}: passes {len(detail['passes'])}, operations {summary['attempted']}, "
        f"failed {summary['failed']}, ops_failed_frac {detail['ops_failed_frac']:.4f}, "
        f"setup samples {len(detail['setup_samples'])}, outputs sha256 {detail['outputs_sha256'][:16]}"
    )
    for failure in detail["failures"]:
        print(f"  failed {failure}")
    for name, m in summary["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spunslice" / "__init__.py").is_file():
        print(f"error: no spunslice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        details = [run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for detail in details:
        report(detail)
    if len(details) == 1:
        final = details[0]["summary"]
    else:
        final = {
            "correct": all(d["summary"]["correct"] for d in details),
            "attempted": sum(d["summary"]["attempted"] for d in details),
            "failed": sum(d["summary"]["failed"] for d in details),
            "metrics": {
                f"{d['env']['workload']}/{k}": v
                for d in details for k, v in d["summary"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
