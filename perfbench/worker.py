"""The workload process.

    python3 perfbench/worker.py INPUTS.json --seconds S [--trace 0|1] [--setup-only]

Imports spunslice from the checkout's src/, loads the input document that
run.py wrote, prints its set-up time stamp and, unless --setup-only, runs the
operations in passes: one client, one operation at a time, no threads.  A new
pass starts only while the elapsed time plus the last pass's time stays
within S seconds; there is always at least one pass.  Each operation runs
under its own deadline (SIGALRM); one that passes it is abandoned there and
recorded as failed, never retried.  A hostspeed.Sampler runs throughout; an
operation's record carries its wall time without the sampler's own time, and
the factor that turns it into reference seconds.  The last stdout line is
the result JSON; outputs are checked by run.py, not here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent


class Deadline(BaseException):
    """Raised from SIGALRM.  A BaseException, so no handler in the program
    under test (which catches only Exception subclasses) can swallow it."""


def _run_cli(cli, op, scratch: Path) -> dict:
    out_path = scratch / "certificate.json"
    argv = [str(out_path) if a == "{out}" else a for a in op["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    out = None
    if "{out}" in op["argv"]:
        out = out_path.read_text()
        out_path.unlink()
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def _sweep_row(ss, base, tv_list) -> dict:
    """The four twist-dependent premises of certify, through public functions."""
    tv = ss.diagrams.TwistVector(tuple(tv_list))
    su = ss.diagrams.build_symmetric_union(base, tv)
    ds = ss.decker.spin_plat(base)
    slice_report = ss.decker.criterion_report(ds, ss.decker.symmetric_union_curve(ds, tv))
    pd = ss.diagrams.plat_to_pd(su.knot)
    base_pd = ss.diagrams.plat_to_pd(base)
    sd = ss.covers.surgery_description(su)
    collapse = ss.groups.homcount.collapse_check(
        ss.groups.presentations.cobordism_presentation(su),
        ss.groups.presentations.wirtinger(base_pd),
        ss.certificate.CertifyConfig().battery_groups(),
    )
    return {
        "tv": list(tv_list),
        "slice": slice_report.verdict,
        "goeritz": ss.covers.goeritz_determinant(pd),
        "fox": ss.covers.alexander_det(pd),
        "base_det": ss.covers.goeritz_determinant(base_pd),
        "definiteness": ss.covers.is_definite(ss.covers.cobordism_linking_matrix(sd)),
        "collapse": collapse.verdict,
        "hom_counts": [list(row) for row in collapse.rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import spunslice as ss
    import spunslice.cli

    if not Path(ss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spunslice imported from {ss.__file__}, not from this checkout", file=sys.stderr)
        return 2
    inputs = json.loads(Path(args.inputs).read_text())
    ops = inputs["ops"]
    plats = {op["plat"]: ss.diagrams.parse_plat(Path(op["plat"]).read_text())
             for op in ops if "plat" in op}
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    def on_alarm(signum, frame):
        if rec is not None:
            rec.deadline_hit()
        raise Deadline

    signal.signal(signal.SIGALRM, on_alarm)
    scratch = Path(args.inputs).parent
    records, passes = [], []
    sampler = hostspeed.Sampler()
    sampler.start()
    start = time.monotonic()
    while True:
        pass_start = time.perf_counter()
        for op in ops:
            root = rec.open("op") if rec is not None else None
            t0, own = time.perf_counter(), sampler.own
            signal.setitimer(signal.ITIMER_REAL, op["deadline"])
            try:
                if op["kind"] == "cli":
                    output = _run_cli(spunslice.cli, op, scratch)
                else:
                    output = _sweep_row(ss, plats[op["plat"]], op["tv"])
                status = "ok"
            except Deadline:
                output, status = None, "deadline"
            except Exception as exc:  # an exception is a failed operation, not a crash
                output, status = None, f"exception: {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            if rec is not None:
                rec.close(root)
            records.append({"id": op["id"], "pass": len(passes), "interval": (t0, t1),
                            "seconds": t1 - t0 - (sampler.own - own), "status": status,
                            "output": output})
        passes.append(time.perf_counter() - pass_start)
        if time.monotonic() - start + passes[-1] > args.seconds:
            break
    sampler.stop()
    for r in records:
        r["factor"] = sampler.factor(*r.pop("interval"))

    result = {
        "ready": ready,
        "passes": passes,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec, len(passes), [r["factor"] for r in records])
        result["spans"] = rec.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
