"""Acceptance gate: eight end-to-end criteria, each with a wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Each criterion re-derives its expected numbers from at least
two independent routes where the design calls for it; nothing here trusts
a cached value from the other test files.
"""

import itertools
import json
import random
import time

import pytest

from conftest import (
    FIG8,
    T35,
    TREFOIL,
    UNKNOT,
    crossing_set,
    dehn_twist_annulus,
    rotate_curve,
    sl2_f5_matrix_count,
)
from spunslice.certificate import AXIOMS, certificate_json, certify
from spunslice.covers import (
    alexander_det,
    cobordism_linking_matrix,
    goeritz_determinant,
    is_definite,
    surgery_description,
)
from spunslice.decker import (
    criterion_report,
    spin_plat,
    symmetric_union_curve,
    trace_double_curve,
    validate_curve,
)
from spunslice.diagrams import (
    PlatWord,
    TwistVector,
    build_symmetric_union,
    plat_to_pd,
)
from spunslice.groups.finite import (
    FiniteGroup,
    alternating_group,
    cyclic_group,
    iso_check,
    sl2_f5,
    structure_report,
    su2_obstruction,
    symmetric_group,
)
from spunslice.groups.homcount import collapse_check, hom_count
from spunslice.groups.presentations import (
    abelianization,
    branched_cover_presentation,
    cobordism_presentation,
    wirtinger,
)
from spunslice.groups.quaternions import icosian_group, icosian_involution_lemma
from spunslice.groups.toddcoxeter import regular_representation, todd_coxeter


def _report(number, name, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"criterion {number} ({name}): PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _branched_order(pd):
    ab = abelianization(branched_cover_presentation(wirtinger(pd)))
    assert ab.free_rank == 0
    return ab.order


def test_criterion_1_triple_oracle_determinants():
    t0 = time.monotonic()
    corpus = [
        ("unknot", UNKNOT, 1),
        ("trefoil", TREFOIL, 3),
        ("figure-eight", FIG8, 5),
        ("trefoil-sum-mirror", build_symmetric_union(TREFOIL, TwistVector((0, 0))).knot, 9),
        ("torus-3-5", T35, 1),
        ("twisted-torus-union", build_symmetric_union(T35, TwistVector((2, 2, 2))).knot, 1),
    ]
    for name, plat, expected in corpus:
        pd = plat_to_pd(plat)
        routes = (
            goeritz_determinant(pd),
            alexander_det(pd),
            _branched_order(pd),
        )
        assert routes == (expected, expected, expected), (name, routes)
    _report(1, "triple-oracle determinants", t0, 30)


def test_criterion_2_determinant_squaring_law():
    t0 = time.monotonic()
    twelve = [
        (0, 0), (2, 0), (0, 2), (2, 2), (-2, 2), (2, -2),
        (-2, -2), (4, 0), (4, 2), (-4, 2), (2, 4), (6, -2),
    ]
    ten = [
        (0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2),
        (2, -2, 2), (-2, -2, -2), (4, 2, 0), (2, 2, -2), (0, 4, 2),
    ]
    for base, tvs in ((TREFOIL, twelve), (FIG8, twelve), (T35, ten)):
        want = goeritz_determinant(plat_to_pd(base)) ** 2
        for tv in tvs:
            union = build_symmetric_union(base, TwistVector(tv)).knot
            pd = plat_to_pd(union)
            assert goeritz_determinant(pd) == want, (base, tv)
            assert alexander_det(pd) == want, (base, tv)
    _report(2, "determinant squaring law", t0, 60)


def test_criterion_3_slice_criterion_suite():
    t0 = time.monotonic()
    kink = PlatWord(2, ((1, 1),))

    # doubled traces and all even-twist curves pass
    batteries = (
        (UNKNOT, []),
        (kink, [(2,), (0,), (-4,)]),
        (TREFOIL, [(0, 0), (2, 2), (2, -2), (-4, 6)]),
        (FIG8, [(0, 0), (2, 2), (4, -2)]),
        (T35, [(0, 0, 0), (2, 2, 2), (2, -2, 2)]),
    )
    decks = {}
    for plat, tvs in batteries:
        ds = spin_plat(plat)
        trace = trace_double_curve(ds)
        verdict = criterion_report(ds, trace).verdict
        assert verdict in ("pass-forward", "pass-reverse"), plat
        for tv in tvs:
            cur = symmetric_union_curve(ds, TwistVector(tv))
            assert criterion_report(ds, cur).verdict == verdict, (plat, tv)
        decks[plat] = (ds, trace, verdict)

    # a deliberately corrupted curve fails both directions
    from test_decker import corrupted_one_chord

    kink_ds = decks[kink][0]
    bad = corrupted_one_chord(kink_ds)
    validate_curve(kink_ds, bad)
    rep = criterion_report(kink_ds, bad)
    assert rep.verdict == "fail" and not rep.forward and not rep.reverse

    # >= 100 randomized move-invariance cases
    rng = random.Random(20260816)
    cases = 0
    pool = [kink, TREFOIL, FIG8]
    while cases < 120:
        plat = rng.choice(pool)
        ds, trace, verdict = decks[plat]
        bridges = plat.bridges
        tv = TwistVector(tuple(2 * rng.randint(-3, 3) for _ in range(bridges)))
        cur = symmetric_union_curve(ds, tv)
        # Dehn twists fix the crossing set; rotations translate it
        expected = set(crossing_set(trace))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5 and ds.l > 1:
                region = rng.randrange(1, ds.l)
                n = rng.choice([-2, -1, 1, 2])
                cur = dehn_twist_annulus(ds, cur, region, n)
            else:
                d = rng.randrange(ds.m)
                cur = rotate_curve(cur, d)
                expected = {(c, (k + d) % ds.m) for c, k in expected}
        validate_curve(ds, cur)
        assert crossing_set(cur) == frozenset(expected)
        assert criterion_report(ds, cur).verdict == verdict
        cases += 1
    assert cases >= 100
    _report(3, "slice criterion suite", t0, 30)


def test_criterion_4_cobordism_form():
    t0 = time.monotonic()
    battery = [
        (TREFOIL, list(itertools.product((-4, -2, 0, 2, 4), repeat=2))),
        (T35, list(itertools.product((-2, 0, 2), repeat=3))),
    ]
    for base, tvs in battery:
        for tv in tvs:
            sd = surgery_description(build_symmetric_union(base, TwistVector(tv)))
            nonzero = [t for t in tv if t != 0]
            assert len(sd.bands) == len(nonzero)
            diag = cobordism_linking_matrix(sd)
            assert diag == [1 if t > 0 else -1 for t in nonzero]
            verdict = is_definite(diag)
            if not nonzero:
                assert verdict == "empty"
            elif all(t > 0 for t in nonzero):
                assert verdict == "positive"
            elif all(t < 0 for t in nonzero):
                assert verdict == "negative"
            else:
                assert verdict == "indefinite"
    _report(4, "cobordism linking form", t0, 5)


def test_criterion_5_group_facts():
    t0 = time.monotonic()
    sl = sl2_f5()
    assert sl.order == 120
    assert sl2_f5_matrix_count() == 120
    rep = structure_report(sl)
    assert rep.involution_count == 1
    assert rep.center_order == 2
    assert len(rep.quotients) == 1
    quotient, _ = rep.quotients[0]
    a5 = alternating_group(5)
    assert quotient.order == 60
    assert iso_check(quotient, a5) is not None

    rep5 = structure_report(a5)
    assert rep5.simple and rep5.involution_count == 15

    assert su2_obstruction(a5) == "no-nontrivial-rep"
    assert su2_obstruction(sl) == "embeds-possible"

    assert icosian_involution_lemma()
    assert iso_check(icosian_group(), sl) is not None
    _report(5, "group facts", t0, 10)


def test_criterion_6_branched_cover_of_the_torus_knot():
    t0 = time.monotonic()
    pres = branched_cover_presentation(wirtinger(plat_to_pd(T35)))
    ab = abelianization(pres)
    assert ab.free_rank == 0 and ab.torsion == ()
    enum = todd_coxeter(pres, max_cosets=500_000)
    assert enum.complete and enum.index == 120
    cover = FiniteGroup(regular_representation(enum), name="coverG")
    assert iso_check(cover, sl2_f5()) is not None
    _report(6, "branched cover of T(3,5)", t0, 120)


def test_criterion_7_collapse_evidence():
    t0 = time.monotonic()
    base = wirtinger(plat_to_pd(T35))
    battery = [
        symmetric_group(3), alternating_group(4),
        symmetric_group(4), alternating_group(5),
    ]

    twisted = cobordism_presentation(build_symmetric_union(T35, TwistVector((2, 2, 2))))
    rep = collapse_check(twisted, base, battery)
    assert rep.verdict == "consistent-collapse"
    assert rep.rows == (
        ("S3", 6, 6), ("A4", 12, 12), ("S4", 24, 24), ("A5", 540, 540),
    )

    untwisted = cobordism_presentation(build_symmetric_union(T35, TwistVector((0, 0, 0))))
    rep0 = collapse_check(untwisted, base, battery)
    assert rep0.verdict == "distinguished"
    differing = [row for row in rep0.rows if row[1] != row[2]]
    assert differing, rep0.rows
    assert ("A5", 5100, 540) in rep0.rows
    _report(7, "collapse evidence", t0, 600)


def test_criterion_8_end_to_end_certification():
    t0 = time.monotonic()
    tv = TwistVector((2, 2, 2))

    cert = certify(T35, tv)
    assert cert.verdict == "obstruction-premises-verified"
    assert cert.exit_code == 0
    axiom_records = [p.name for p in cert.premises if p.status == "axiom"]
    assert sorted(axiom_records) == sorted(AXIOMS)
    assert len(axiom_records) == 4
    assert all(
        p.status == "checked" for p in cert.premises if p.status != "axiom"
    )
    assert len(cert.cases) == 3
    assert all(case.status == "closed" for case in cert.cases)

    again = certify(T35, tv)
    assert certificate_json(cert) == certificate_json(again)

    failed = certify(TREFOIL, TwistVector((2, 2)))
    assert failed.verdict == "failed: homology-sphere"
    assert failed.exit_code == 1
    _report(8, "end-to-end certification", t0, 900)
