"""End-to-end embedding-obstruction certificates.

Given a plat word for a base knot K and an even twist vector, this module
assembles the obstruction argument for the twisted mirror double J.  The
slice-curve premise places the branched double cover of J inside an integer
homology 4-sphere (the cover of the spun sphere); the remaining premises
rule out the stronger configuration in which both complementary sides are
contractible, i.e. they obstruct J's cover from sitting the same way in any
homotopy 4-sphere.  The argument mixes two kinds of premises:

* machine-checked ones -- the slice-curve criterion, determinant-1 of J,
  definiteness of the twist cobordism, hom-count collapse evidence, the
  order-120 branched cover of the base knot with its quotient structure,
  and the unit-quaternion representability facts;
* cited analytic/algebraic inputs that are not desk-computable, carried as
  explicitly labeled axioms.

A certificate records every premise with its status and evidence, the
three-way case analysis on the image of the cobordism group in a
complementary homology ball, and a single final verdict.  Certificates
serialize to a line-oriented text report and to a versioned JSON document;
both are byte-deterministic for fixed input and configuration (timing data
is kept out of the deterministic forms).
"""

from __future__ import annotations

import json
import time
from typing import Mapping, NamedTuple

from . import __version__
from .covers import (
    bridge_fox_det,
    cobordism_linking_matrix,
    goeritz_determinant,
    is_definite,
    surgery_description,
)
from .decker import (
    DEFAULT_RESOLUTION,
    MAX_RESOLUTION,
    MIN_RESOLUTION,
    check_winding,
    criterion_report,
    spin_plat,
    symmetric_union_curve,
)
from .diagrams import (
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    plat_to_pd,
    validate_plat,
)
from .groups.finite import (
    FiniteGroup,
    GroupError,
    alternating_group,
    cyclic_group,
    iso_check,
    sl2_f5,
    structure_report,
    su2_obstruction,
    symmetric_group,
)
from .groups.homcount import DEFAULT_NODE_BUDGET, collapse_check
from .groups.presentations import (
    abelianization,
    branched_cover_presentation,
    cobordism_presentation,
    wirtinger,
)
from .groups.quaternions import icosian_group, icosian_involution_lemma
from .groups.toddcoxeter import DEFAULT_MAX_COSETS, regular_representation, todd_coxeter

SCHEMA_VERSION = 1

VERDICT_VERIFIED = "obstruction-premises-verified"

#: The argument in record order: each machine premise (None) where it runs,
#: in execution order, and each cited axiom (its evidence) at the point of
#: the argument where it is consumed.  This table is part of the certificate
#: format: every certificate carries exactly these records in this order, and
#: any change to it is a breaking format change.
_ARGUMENT = (
    ("slice-criterion", None),
    ("slice-criterion-geometric-conclusion", {
        "statement": (
            "a separating curve on the doubled spun-sphere diagram whose "
            "double points satisfy the one-sided containment test is "
            "realized as an equatorial cross-section of the knotted "
            "sphere, so its branched double cover embeds in the branched "
            "double cover of the sphere, an integer homology 4-sphere"
        ),
        "reference": "geometric input; stated without machine proof",
    }),
    ("homology-sphere", None),
    ("definite-cobordism", None),
    ("cobordism-collapse", None),
    ("base-cover-binary-icosahedral", None),
    ("taubes-definite-filling", {
        "statement": (
            "an integer homology 3-sphere bounding a simply connected "
            "4-manifold with a nonstandard definite intersection form "
            "admits no simply connected definite filling of its connected "
            "sum with its own mirror"
        ),
        "reference": "Taubes, J. Differential Geom. 25 (1987) 363-430",
    }),
    ("daemi-su2-obstruction", {
        "statement": (
            "any definite 4-manifold bounded by that connected sum carries "
            "a nontrivial SU(2) representation of its fundamental group "
            "that restricts nontrivially to the boundary"
        ),
        "reference": (
            "Daemi, Chern-Simons functional and the homology cobordism "
            "group, Duke Math. J. 169 (2020)"
        ),
    }),
    ("quotient-structure", None),
    ("su2-obstruction-cases", None),
    ("amalgam-normal-form", {
        "statement": (
            "in a free product amalgamated over injective edge maps the "
            "factors embed into the amalgam, so an amalgam of nontrivial "
            "factors is nontrivial"
        ),
        "reference": "Lyndon & Schupp, Combinatorial Group Theory, ch. IV",
    }),
)

RECORD_ORDER = tuple(name for name, _ in _ARGUMENT)
CHECKED_PREMISES = tuple(name for name, axiom in _ARGUMENT if axiom is None)
AXIOMS = tuple(name for name, axiom in _ARGUMENT if axiom is not None)


class CertifyError(ValueError):
    """Invalid input to the certificate pipeline (CLI exit code 3)."""


# A battery group is built as its multiplication table, order^2 entries, so
# C20000 or S7 would already be a multi-GB process.  The largest group in
# use, SL2F5, has order 120.
MAX_BATTERY_ORDER = 1000


def _battery_order(family: str, n: int) -> int:
    """n for C_n, n! for S_n and n!/2 for A_n; the factorial stops growing
    once it passes 2 * MAX_BATTERY_ORDER, so a huge n costs nothing."""
    if family == "C":
        return n
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > 2 * MAX_BATTERY_ORDER:
            break
    return order // 2 if family == "A" else order


def battery_group(name: str) -> FiniteGroup:
    """Resolve a battery group name (S3, A4, S4, A5, C<n>, SL2F5), refusing
    one of more than MAX_BATTERY_ORDER elements before it is built."""
    key = name.strip().upper()
    if key == "SL2F5":
        return sl2_f5()
    family, digits = key[:1], key[1:]
    build = {"S": symmetric_group, "A": alternating_group, "C": cyclic_group}.get(family)
    if build is None or not digits.isdecimal():  # isdigit() would let "²" through to int()
        raise CertifyError(f"unknown battery group {name!r}")
    # the order is at least n, so n with more digits than the bound is
    # refused before int() would have to read every digit
    n = digits.lstrip("0") or "0"
    if len(n) > len(str(MAX_BATTERY_ORDER)) or _battery_order(family, int(n)) > MAX_BATTERY_ORDER:
        raise CertifyError(f"battery group {name!r} has more than {MAX_BATTERY_ORDER} elements")
    return build(int(n))


DEFAULT_BATTERY = ("S3", "A4", "S4", "A5")


class CertifyConfig(NamedTuple):
    """Tunable search limits and the finite-quotient battery."""

    resolution: int = DEFAULT_RESOLUTION
    max_cosets: int = DEFAULT_MAX_COSETS
    node_budget: int = DEFAULT_NODE_BUDGET
    battery: tuple[str, ...] = DEFAULT_BATTERY

    def battery_groups(self) -> list[FiniteGroup]:
        return [battery_group(n) for n in self.battery]


class PremiseRecord(NamedTuple):
    """One premise of the argument.

    status is "checked" (machine-verified, green), "axiom" (cited input),
    "failed" (machine-verified red), "inconclusive" (a search budget was
    exhausted), or "skipped" (not evaluated because an earlier premise
    already decided the verdict).
    """

    name: str
    status: str
    evidence: Mapping[str, object]


class CaseRecord(NamedTuple):
    """One branch of the case analysis on the image group."""

    name: str
    hypothesis: str
    resolution: str
    relies_on: tuple[str, ...]
    status: str  # "closed" when the branch ends in a contradiction


class Certificate(NamedTuple):
    schema: int
    tool_version: str
    plat: PlatWord
    tv: TwistVector
    config: CertifyConfig
    premises: tuple[PremiseRecord, ...]
    cases: tuple[CaseRecord, ...]
    case_basis: str  # premise that makes the case list exhaustive ("" if unset)
    verdict: str
    timing: Mapping[str, float]

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_VERIFIED:
            return 0
        if self.verdict.startswith("failed:"):
            return 1
        return 2


# ---------------------------------------------------------------------------
# individual premise checks
#
# Each returns (status, evidence); status is "checked" / "failed" /
# "inconclusive".


def _check_slice_criterion(plat: PlatWord, tv: TwistVector, resolution: int):
    ds = spin_plat(plat, m=resolution)
    curve = symmetric_union_curve(ds, tv)
    rep = criterion_report(ds, curve)
    evidence = {
        "verdict": rep.verdict,
        "passes-forward": rep.forward,
        "passes-reverse": rep.reverse,
        "double-point-circles": ds.l,
        "resolution": ds.m,
        "curve-vertices": curve.vertex_count,
    }
    return ("checked" if rep.verdict != "fail" else "failed"), evidence


def _check_homology_sphere(su):
    pd = plat_to_pd(su.knot)
    det_g = goeritz_determinant(pd)
    det_a = bridge_fox_det(su.knot)
    evidence = {
        "goeritz-determinant": det_g,
        "alexander-determinant": det_a,
        "crossings": pd.n_crossings,
    }
    return ("checked" if det_g == 1 and det_a == 1 else "failed"), evidence


def _check_definite_cobordism(su):
    sd = surgery_description(su)
    diagonal = cobordism_linking_matrix(sd)
    verdict = is_definite(diagonal)
    evidence = {
        "bands": len(sd.bands),
        "framings": [b.framing for b in sd.bands],
        "linking-diagonal": diagonal,
        "definiteness": verdict,
    }
    return ("checked" if verdict in ("positive", "negative", "empty") else "failed"), evidence


def _check_cobordism_collapse(su, base, battery, node_budget: int):
    cob = cobordism_presentation(su)
    report = collapse_check(cob, base, battery, node_budget=node_budget)
    evidence = {
        "verdict": report.verdict,
        "hom-counts": [
            {"group": name, "cobordism": a, "base-knot": b}
            for name, a, b in report.rows
        ],
    }
    status = {
        "consistent-collapse": "checked",
        "distinguished": "failed",
        "inconclusive": "inconclusive",
    }[report.verdict]
    return status, evidence


def _base_cover(base, max_cosets: int):
    """The base-cover premise's (status, evidence) and, when it is checked,
    the order-120 cover group that the last two premises read."""
    pres = branched_cover_presentation(base)
    h1 = abelianization(pres)
    enum = todd_coxeter(pres, (), max_cosets=max_cosets)
    evidence: dict[str, object] = {
        "cover-h1": h1.describe(),
        "cosets-defined": enum.cosets_defined,
    }
    if not enum.complete:
        evidence["order"] = None
        return ("inconclusive", evidence), None
    evidence["order"] = enum.index
    if enum.index != 120 or h1.order != 1:
        return ("failed", evidence), None
    cover = FiniteGroup(regular_representation(enum), name="coverG")
    found = iso_check(cover, sl2_f5()) is not None
    evidence["iso-to-sl2f5"] = found
    return ("checked" if found else "failed", evidence), cover


def _check_quotient_structure(cover: FiniteGroup):
    rep = structure_report(cover)
    a5 = alternating_group(5)
    a5_rep = structure_report(a5)
    proper = rep.quotients
    quotient_is_a5 = len(proper) == 1 and iso_check(proper[0][0], a5) is not None
    evidence = {
        "order": rep.order,
        "perfect": rep.perfect,
        "center-order": rep.center_order,
        "involutions": rep.involution_count,
        "normal-subgroup-orders": list(rep.normal_subgroup_orders),
        "proper-nontrivial-quotients": [q.order for q, _ in proper],
        "quotient-is-a5": quotient_is_a5,
        "a5-simple": a5_rep.simple,
        "a5-involutions": a5_rep.involution_count,
    }
    ok = (
        rep.order == 120
        and rep.perfect
        and rep.center_order == 2
        and rep.involution_count == 1
        and rep.normal_subgroup_orders == (1, 2, 120)
        and quotient_is_a5
        and a5_rep.simple
        and a5_rep.involution_count == 15
    )
    return ("checked" if ok else "failed"), evidence


def _check_su2_cases(cover: FiniteGroup):
    verdict_a5 = su2_obstruction(alternating_group(5))
    verdict_cover = su2_obstruction(cover)
    lemma = icosian_involution_lemma()
    quaternion_model = icosian_group()
    embeds = iso_check(quaternion_model, cover) is not None
    evidence = {
        "a5-su2": verdict_a5,
        "cover-su2": verdict_cover,
        "unique-involution-in-unit-quaternions": lemma,
        "icosian-order": quaternion_model.order,
        "icosian-iso-to-cover": embeds,
    }
    ok = (
        verdict_a5 == "no-nontrivial-rep"
        and verdict_cover == "embeds-possible"
        and lemma
        and embeds
    )
    return ("checked" if ok else "failed"), evidence


def _premise_results(plat, tv, su, base, battery, cfg: CertifyConfig):
    """(status, evidence) of each machine premise, in the table's order;
    each is computed only when the next one is asked for."""
    yield _check_slice_criterion(plat, tv, cfg.resolution)
    yield _check_homology_sphere(su)
    yield _check_definite_cobordism(su)
    yield _check_cobordism_collapse(su, base, battery, cfg.node_budget)
    result, cover = _base_cover(base, cfg.max_cosets)
    yield result
    yield _check_quotient_structure(cover)
    yield _check_su2_cases(cover)


#: The case analysis that a verified certificate carries, made exhaustive by
#: the quotient-structure premise.
_CASES = (
    CaseRecord(
        name="case-1-trivial-image",
        hypothesis=(
            "the cobordism group maps to the trivial group inside a "
            "complementary homology ball's filling"
        ),
        resolution=(
            "that filling is then a definite manifold with trivial "
            "fundamental group (the image normally generates it), so "
            "it carries no nontrivial representation at all, against "
            "the representation the cited obstruction guarantees"
        ),
        relies_on=("definite-cobordism", "daemi-su2-obstruction"),
        status="closed",
    ),
    CaseRecord(
        name="case-2-simple-image",
        hypothesis="the image is the order-60 simple quotient",
        resolution=(
            "the machine checks show that quotient is simple with 15 "
            "involutions, hence admits no nontrivial unit-quaternion "
            "representation; a representation extending nontrivially "
            "from the boundary would restrict nontrivially to the "
            "image, a contradiction"
        ),
        relies_on=(
            "quotient-structure",
            "su2-obstruction-cases",
            "daemi-su2-obstruction",
        ),
        status="closed",
    ),
    CaseRecord(
        name="case-3-full-image",
        hypothesis="both images are the full order-120 cover group",
        resolution=(
            "both legs of the two fillings' pushout are then injective, "
            "so the pushout is nontrivial by the amalgam normal form; "
            "but gluing both complementary balls rebuilds a simply "
            "connected space, a contradiction"
        ),
        relies_on=("quotient-structure", "amalgam-normal-form"),
        status="closed",
    ),
)


# ---------------------------------------------------------------------------
# orchestration


def certify(plat: PlatWord, tv: TwistVector, config: CertifyConfig | None = None) -> Certificate:
    """Run every premise in order and fold the results into a Certificate.

    The verdict is "obstruction-premises-verified" exactly when all seven
    machine premises come back green; the first red premise yields
    "failed: <name>" and the first exhausted search yields
    "inconclusive: <name>".  Later machine premises are recorded as
    skipped once the verdict is decided.  Invalid input raises
    CertifyError instead of producing a certificate.
    """
    cfg = config or CertifyConfig()
    if cfg.resolution > MAX_RESOLUTION:
        raise CertifyError(f"resolution {cfg.resolution} too large; at most {MAX_RESOLUTION}")
    if cfg.resolution < MIN_RESOLUTION or cfg.resolution % 2:
        raise CertifyError(f"resolution must be an even integer >= {MIN_RESOLUTION}")
    if cfg.max_cosets < 1:
        raise CertifyError("max-cosets must be a positive integer")
    if not isinstance(tv, TwistVector):
        tv = TwistVector(tuple(tv))
    try:
        validate_plat(plat)
        tv.validate(plat.bridges)
        check_winding(cfg.resolution, tv)
        su = build_symmetric_union(plat, tv)
        battery = cfg.battery_groups()
    except (PlatError, GroupError) as exc:
        raise CertifyError(str(exc)) from exc

    # the base knot group is built before, and outside the timing of, the
    # first premise
    pending = _premise_results(plat, tv, su, wirtinger(plat_to_pd(plat)), battery, cfg)
    timing: dict[str, float] = {}
    premises: list[PremiseRecord] = []
    decided: str | None = None
    for name, axiom in _ARGUMENT:
        if axiom is not None:  # a copy, so no certificate shares the table's dict
            premises.append(PremiseRecord(name, "axiom", dict(axiom)))
        elif decided is not None:
            premises.append(PremiseRecord(name, "skipped", {"reason": decided}))
        else:
            start = time.perf_counter()
            status, evidence = next(pending)
            timing[name] = time.perf_counter() - start
            premises.append(PremiseRecord(name, status, evidence))
            if status != "checked":  # "failed: <name>" or "inconclusive: <name>"
                decided = f"{status}: {name}"

    if decided is None:
        verdict, cases, case_basis = VERDICT_VERIFIED, _CASES, "quotient-structure"
    else:
        verdict, cases, case_basis = decided, (), ""

    return Certificate(
        schema=SCHEMA_VERSION,
        tool_version=__version__,
        plat=plat,
        tv=tv,
        config=cfg,
        premises=tuple(premises),
        cases=cases,
        case_basis=case_basis,
        verdict=verdict,
        timing=timing,
    )


# ---------------------------------------------------------------------------
# serialization


def certificate_dict(cert: Certificate, include_timing: bool = False) -> dict:
    """A JSON-ready dict.  Timing is opt-in so the default bytes are
    deterministic for fixed input, configuration, and tool version."""
    doc = {
        "schema": cert.schema,
        "tool": {"name": "spunslice", "version": cert.tool_version},
        "input": {
            "plat": {
                "strands": cert.plat.strands,
                "word": [[k, s] for k, s in cert.plat.word],
            },
            "twists": list(cert.tv),
        },
        "config": {
            "resolution": cert.config.resolution,
            "max-cosets": cert.config.max_cosets,
            "node-budget": cert.config.node_budget,
            "battery": list(cert.config.battery),
        },
        "premises": [
            {"name": p.name, "status": p.status, "evidence": p.evidence}
            for p in cert.premises
        ],
        "case-basis": cert.case_basis,
        "cases": [
            {
                "name": c.name,
                "hypothesis": c.hypothesis,
                "resolution": c.resolution,
                "relies-on": list(c.relies_on),
                "status": c.status,
            }
            for c in cert.cases
        ],
        "verdict": cert.verdict,
    }
    if include_timing:
        doc["timing"] = {k: round(v, 3) for k, v in cert.timing.items()}
    return doc


def certificate_json(cert: Certificate, include_timing: bool = False) -> str:
    doc = certificate_dict(cert, include_timing=include_timing)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _flat(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def format_certificate(cert: Certificate, include_timing: bool = False) -> str:
    """Line-oriented human-readable report, deterministic by default."""
    lines = [
        f"certificate schema {cert.schema}",
        f"tool spunslice {cert.tool_version}",
        f"plat strands {cert.plat.strands} letters "
        + (" ".join(f"{k}{'+' if s == 1 else '-'}" for k, s in cert.plat.word) or "-"),
        "twists " + (",".join(str(t) for t in cert.tv) or "-"),
        f"config resolution {cert.config.resolution} max-cosets {cert.config.max_cosets}"
        f" node-budget {cert.config.node_budget} battery {','.join(cert.config.battery)}",
    ]
    for p in cert.premises:
        lines.append(f"premise {p.name} {p.status}")
        for key in sorted(p.evidence):
            lines.append(f"  {key} {_flat(p.evidence[key])}")
    if cert.cases:
        lines.append(f"cases exhaustive-by {cert.case_basis}")
        for c in cert.cases:
            lines.append(f"case {c.name} {c.status} relies-on {','.join(c.relies_on)}")
            lines.append(f"  given {c.hypothesis}")
            lines.append(f"  then {c.resolution}")
    if include_timing:
        for name in sorted(cert.timing):
            lines.append(f"timing {name} {cert.timing[name]:.3f}s")
        lines.append(f"timing total {sum(cert.timing.values()):.3f}s")
    lines.append(f"verdict {cert.verdict}")
    return "\n".join(lines) + "\n"
