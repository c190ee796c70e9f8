"""Record the golden outputs in perfbench/golden/ from the checkout's src/.

    python3 perfbench/record_golden.py

The files in golden/ were recorded at the seed commit; every later commit
must reproduce them byte for byte.  Re-record only for a deliberate change of
output format, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def outputs(name: str, keep=lambda op: True) -> dict:
    workdir = run.HERE / "work" / f"golden-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = workloads.build(name, 0, workdir)
        inputs["ops"] = [op for op in inputs["ops"] if keep(op)]
        path = workdir / "inputs.json"
        path.write_text(json.dumps(inputs))
        result = run.spawn(path, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [r for r in result["records"] if r["status"] != "ok"]
    if bad:
        raise SystemExit(f"cannot record {name}: {bad[0]['id']} {bad[0]['status']}")
    return {r["id"]: r["output"] for r in result["records"]}


def main() -> int:
    golden = workloads.GOLDEN
    golden.mkdir(exist_ok=True)
    certs = {**outputs("certify-t35"), **outputs("budget-t37")}
    certs.update(outputs("ladder", lambda op: op["id"] in ("corpus", "certify-trefoil")))
    for name in ("certify-t35", "budget-t37", "certify-trefoil"):
        (golden / f"{name}.txt").write_text(certs[name]["stdout"])
        (golden / f"{name}.json").write_text(certs[name]["out"])
    corpus_rows = certs["corpus"]["stdout"].splitlines()[1:]  # line 1 names the manifest path
    (golden / "corpus.txt").write_text("\n".join(corpus_rows) + "\n")
    rows = sorted(outputs("sweep-t35").values(), key=lambda row: row["tv"])
    (golden / "sweep-t35.json").write_text("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
