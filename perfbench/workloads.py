"""Workload definitions: the operations each workload runs, generated from the
seed, and the check that decides whether an operation's output is correct.

Nothing here imports spunslice.  Inputs are generated by this file alone, so
the program under test sees only finished plat files and argument lists, and
its outputs are judged against golden files recorded at the seed commit and
against invariants that hold for every input.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SHIPPED_PLATS = "src/spunslice/data/plats"  # relative to the checkout root

WORKLOADS = ("certify-t35", "budget-t37", "sweep-t35", "ladder")

#: Coset budget of the certify workloads, passed explicitly on the command line.
T35_MAX_COSETS = 2_000_000  # the CLI default; the enumeration completes
T37_MAX_COSETS = 200_000  # about 2.5 s and 290 MB; the cover group is infinite

#: Ladder rungs: (strands, letters, random knot plats per pass).
LADDER = ((6, 40, 4), (8, 60, 6), (10, 150, 2))

#: Seed of the ladder's random plats, the same for every run seed.  Dense SNF
#: blows up (no result after 20 s) on about 1 in 10 random 8/60 bases and 1 in
#: 60 random 6/40 bases (measured on 60 of each), and on most 10/150 bases.
#: Drawn from the run seed, the number of blow-ups per pass varied, and with it
#: run_s (quartile spread 60 % of the median over 5 seeds).  With fixed plats
#: the failures are a constant of the workload: here 8x60-2, 10x150-0 and
#: 10x150-1, none of which finishes within 40 s.
LADDER_SEED = 0

#: Per-operation deadlines in seconds, each far from the times measured at the
#: seed commit (Python 3.11, 2-core Xeon), so the failure count repeats.
DEADLINE_CERTIFY_T35 = 120.0  # the operation takes 19 s
DEADLINE_DEFAULT = 60.0  # the slowest other operation, a sweep row, takes 7 s
DEADLINE_COVER_H1 = 2.0  # ladder cover-h1: passing ones take under 0.15 s, blow-ups over 40 s


# ---------------------------------------------------------------------------
# input generation


def format_plat(strands: int, word) -> str:
    lines = [f"strands {strands}"]
    lines.extend(f"g{k} {'+' if s > 0 else '-'}" for k, s in word)
    return "\n".join(lines) + "\n"


def closure_components(strands: int, word) -> int:
    """Components of the plat closure: caps join columns 2i-1, 2i at the top
    and at the bottom, and each crossing swaps the strands in two columns."""
    parent = list(range(2 * strands))  # top endpoints 0..n-1, bottom n..2n-1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        parent[find(a)] = find(b)

    column = list(range(strands))  # column[c] = top endpoint now in column c
    for k, _sign in word:
        column[k - 1], column[k] = column[k], column[k - 1]
    for c, top in enumerate(column):
        union(top, strands + c)
    for c in range(0, strands, 2):
        union(c, c + 1)
        union(strands + c, strands + c + 1)
    return len({find(x) for x in range(2 * strands)})


def random_knot_word(rng: random.Random, strands: int, letters: int):
    """A uniformly random plat word whose closure is a knot (links are redrawn)."""
    while True:
        word = [(rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(letters)]
        if closure_components(strands, word) == 1:
            return word


def torus_plat_word(q: int):
    """T(3,q) on 6 strands: the pattern of the T(3,5) plat used by the tests."""
    return ([(3, -1), (2, -1), (3, 1), (5, -1), (4, -1), (5, 1)] * q)[1:-1]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _cli(op_id, argv, check, deadline=DEADLINE_DEFAULT):
    return {"id": op_id, "kind": "cli", "argv": argv, "check": check, "deadline": deadline}


def build(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's plat files into workdir; return its input document."""
    rng = random.Random(seed)

    def plat_file(name: str, strands: int, word) -> str:
        path = workdir / f"{name}.plat"
        path.write_text(format_plat(strands, word))
        return str(path)

    t35 = f"{SHIPPED_PLATS}/t35.plat"
    if workload == "certify-t35":
        ops = [
            _cli(
                "certify-t35",
                ["certify", t35, "--twists", "2,2,2", "--max-cosets", str(T35_MAX_COSETS),
                 "--out", "{out}"],
                {"type": "golden-cert", "golden": "certify-t35", "rc": 0},
                DEADLINE_CERTIFY_T35,
            )
        ]
        max_cosets = T35_MAX_COSETS
    elif workload == "budget-t37":
        t37 = plat_file("t37", 6, torus_plat_word(7))
        ops = [
            _cli(
                "budget-t37",
                ["certify", t37, "--twists", "2,2,2", "--max-cosets", str(T37_MAX_COSETS),
                 "--out", "{out}"],
                {"type": "golden-cert", "golden": "budget-t37", "rc": 2},
            )
        ]
        max_cosets = T37_MAX_COSETS
    elif workload == "sweep-t35":
        vectors = [(a, b, c) for a in (-2, 0, 2) for b in (-2, 0, 2) for c in (-2, 0, 2)]
        rng.shuffle(vectors)
        ops = [
            {"id": f"sweep-{_csv(tv)}", "kind": "sweep", "plat": t35, "tv": list(tv),
             "check": {"type": "sweep"}, "deadline": DEADLINE_DEFAULT}
            for tv in vectors
        ]
        max_cosets = None
    elif workload == "ladder":
        # The plats are drawn from LADDER_SEED, not from the run's seed: see
        # LADDER_SEED.  The run's seed orders the operations.
        plat_rng = random.Random(LADDER_SEED)
        groups = []
        for strands, letters, count in LADDER:
            twists = _csv([2] * (strands // 2))
            for i in range(count):
                base = f"{strands}x{letters}-{i}"
                path = plat_file(base, strands, random_knot_word(plat_rng, strands, letters))
                groups.append([
                    _cli(f"det-base-{base}", ["det", path], {"type": "det", "base": base}),
                    _cli(f"det-union-{base}", ["det", path, "--twists", twists],
                         {"type": "det", "base": base, "union": True}),
                    _cli(f"slice-check-{base}", ["slice-check", path, "--twists", twists],
                         {"type": "slice"}),
                    _cli(f"cover-h1-{base}", ["cover-h1", path], {"type": "cover-h1", "base": base},
                         DEADLINE_COVER_H1),
                ])
        groups.append([_cli("corpus", ["corpus"], {"type": "corpus"})])
        groups.append([
            _cli(
                "certify-trefoil",
                ["certify", f"{SHIPPED_PLATS}/trefoil.plat", "--twists", "2,2", "--out", "{out}"],
                {"type": "golden-cert", "golden": "certify-trefoil", "rc": 1},
            )
        ])
        rng.shuffle(groups)
        ops = [op for group in groups for op in group]
        max_cosets = None  # trefoil fails before the coset enumeration
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "max_cosets": max_cosets, "ops": ops}


# ---------------------------------------------------------------------------
# output checks


def _fields(text: str) -> dict[str, str]:
    """First word of each output line -> the rest of the line."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        out[key] = rest
    return out


def _golden_text(name: str) -> str:
    return (GOLDEN / name).read_text()


def _golden_sweep() -> dict[tuple, dict]:
    rows = json.loads(_golden_text("sweep-t35.json"))
    return {tuple(r["tv"]): r for r in rows}


def _expected_definite(tv) -> bool:
    signs = {t > 0 for t in tv if t}
    return len(signs) == 1


def check(op: dict, output: dict, facts: dict) -> str | None:
    """None when the output is correct, else the reason it is not.

    facts carries values between operations of one pass (base determinants
    read by the union and cover checks of the same rung).
    """
    spec = op["check"]
    kind = spec["type"]
    if kind == "sweep":
        row = output
        tv = tuple(row["tv"])
        if row["goeritz"] != row["fox"]:
            return f"determinant routes disagree: {row['goeritz']} vs {row['fox']}"
        if row["goeritz"] != row["base_det"] ** 2:
            return f"union determinant {row['goeritz']} != base {row['base_det']} squared"
        if row["slice"] == "fail":
            return "slice verdict fail"
        if (row["definiteness"] in ("positive", "negative")) != _expected_definite(tv):
            return f"definiteness {row['definiteness']} for twist signs of {tv}"
        if row != _golden_sweep()[tv]:
            return "row differs from golden sweep table"
        return None

    rc, stdout = output["rc"], output["stdout"]
    if kind == "golden-cert":
        name = spec["golden"]
        if rc != spec["rc"]:
            return f"exit code {rc}, expected {spec['rc']}"
        if stdout != _golden_text(f"{name}.txt"):
            return "certificate text differs from golden"
        if output["out"] != _golden_text(f"{name}.json"):
            return "certificate JSON differs from golden"
        return None
    if rc != 0:
        return f"exit code {rc}"
    fields = _fields(stdout)
    if kind == "det":
        checker, _, fox = fields["checkerboard"].partition(" fox ")
        if checker != fox:
            return f"determinant routes disagree: {checker} vs {fox}"
        det = int(fields["determinant"])
        if not spec.get("union"):
            facts[spec["base"]] = det
        elif det != facts.get(spec["base"], 0) ** 2:
            return f"union determinant {det} != base {facts.get(spec['base'])} squared"
        return None
    if kind == "slice":
        return None if fields["verdict"] != "fail" else "slice verdict fail"
    if kind == "cover-h1":
        order = fields["cover-h1-order"]
        if order != str(facts.get(spec["base"])):
            return f"cover H1 order {order} != base determinant {facts.get(spec['base'])}"
        return None
    if kind == "corpus":
        if stdout.splitlines()[1:] != _golden_text("corpus.txt").splitlines():
            return "corpus rows differ from golden"
        return None
    raise ValueError(f"unknown check {kind!r}")
