"""Certificates, SVG rendering, the shipped corpus, and the CLI."""

import contextlib
import io
import itertools
import json
import random
import re
import time
import xml.dom.minidom

import pytest
from hypothesis import given, settings, strategies as st

from conftest import T35, TREFOIL, TWO_COMPONENT, format_decker, premise
from spunslice.certificate import (
    AXIOMS,
    CHECKED_PREMISES,
    RECORD_ORDER,
    CertifyConfig,
    CertifyError,
    battery_group,
    certificate_dict,
    certificate_json,
    certify,
    format_certificate,
)
from spunslice.corpus import (
    CorpusError,
    corpus_run,
    format_corpus_report,
    shipped_manifest_path,
)
from spunslice.cli import main
from spunslice.diagrams import PlatWord, TwistVector, chord_diagram_of_tangle
from spunslice.decker import spin_plat, trace_double_curve
from spunslice.render import (
    render_chord_diagram,
    render_decker,
    render_pd,
    render_plat,
)
from spunslice.diagrams import plat_to_pd


@pytest.fixture(scope="module")
def failed_cert():
    return certify(TREFOIL, TwistVector((2, 2)))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_record_order_is_frozen():
    assert RECORD_ORDER == (
        "slice-criterion",
        "slice-criterion-geometric-conclusion",
        "homology-sphere",
        "definite-cobordism",
        "cobordism-collapse",
        "base-cover-binary-icosahedral",
        "taubes-definite-filling",
        "daemi-su2-obstruction",
        "quotient-structure",
        "su2-obstruction-cases",
        "amalgam-normal-form",
    )
    assert set(AXIOMS) | set(CHECKED_PREMISES) == set(RECORD_ORDER)
    assert len(AXIOMS) == 4


def test_failed_certificate_stops_at_first_red_premise(failed_cert):
    cert = failed_cert
    assert cert.verdict == "failed: homology-sphere"
    assert cert.exit_code == 1
    assert [p.name for p in cert.premises] == list(RECORD_ORDER)

    assert premise(cert, "slice-criterion").status == "checked"
    ev = premise(cert, "slice-criterion").evidence
    assert ev["verdict"] == "pass-forward"
    assert ev["double-point-circles"] == 6

    hs = premise(cert, "homology-sphere")
    assert hs.status == "failed"
    assert hs.evidence == {
        "alexander-determinant": 9,
        "crossings": 20,
        "goeritz-determinant": 9,
    }

    for name in (
        "definite-cobordism",
        "cobordism-collapse",
        "base-cover-binary-icosahedral",
        "quotient-structure",
        "su2-obstruction-cases",
    ):
        rec = premise(cert, name)
        assert rec.status == "skipped"
        assert rec.evidence == {"reason": "failed: homology-sphere"}

    axiom_records = [p for p in cert.premises if p.status == "axiom"]
    assert {p.name for p in axiom_records} == set(AXIOMS)
    assert len(axiom_records) == 4
    for rec in axiom_records:
        assert set(rec.evidence) == {"statement", "reference"}

    assert cert.cases == ()
    assert cert.case_basis == ""


def test_certificate_serialization_is_deterministic(failed_cert):
    again = certify(TREFOIL, TwistVector((2, 2)))
    assert certificate_json(failed_cert) == certificate_json(again)
    assert format_certificate(failed_cert) == format_certificate(again)


def test_axiom_evidence_is_copied_for_each_certificate():
    # the argument table holds each axiom's evidence dict; a certificate that
    # shared it would let one caller's edit reach every later certificate
    cert = certify(TREFOIL, TwistVector((2, 2)))
    before = certificate_json(cert)
    for name in AXIOMS:
        premise(cert, name).evidence["statement"] = "edited"
    assert certificate_json(certify(TREFOIL, TwistVector((2, 2)))) == before


def test_certificate_json_shape(failed_cert):
    data = json.loads(certificate_json(failed_cert))
    assert data["schema"] == 1
    assert data["tool"]["name"] == "spunslice"
    assert data["verdict"] == "failed: homology-sphere"
    assert data["input"]["plat"]["strands"] == 4
    assert data["input"]["twists"] == [2, 2]
    assert data["config"]["battery"] == ["S3", "A4", "S4", "A5"]
    assert [p["name"] for p in data["premises"]] == list(RECORD_ORDER)
    assert "timing" not in data
    # timing is opt-in and keeps the default bytes stable
    with_timing = certificate_dict(failed_cert, include_timing=True)
    assert "timing" in with_timing


def test_certificate_text_output(failed_cert):
    text = format_certificate(failed_cert)
    lines = text.splitlines()
    assert lines[0] == "certificate schema 1"
    assert lines[2] == "plat strands 4 letters 2+ 2+ 2+"
    assert lines[3] == "twists 2,2"
    assert lines[-1] == "verdict failed: homology-sphere"
    assert "premise homology-sphere failed" in lines
    assert "  goeritz-determinant 9" in lines


def test_certify_takes_a_plain_tuple_as_its_twist_vector():
    assert certificate_json(certify(T35, (2, 2, 2))) == certificate_json(certify(T35, TwistVector((2, 2, 2))))


def test_mixed_twists_fail_the_definiteness_premise():
    cert = certify(T35, TwistVector((2, -2, 2)))
    assert cert.verdict == "failed: definite-cobordism"
    assert cert.exit_code == 1
    assert premise(cert, "homology-sphere").status == "checked"
    rec = premise(cert, "definite-cobordism")
    assert rec.status == "failed"
    assert rec.evidence == {
        "bands": 3,
        "framings": [-1, 1, -1],
        "linking-diagonal": [1, -1, 1],
        "definiteness": "indefinite",
    }
    assert premise(cert, "cobordism-collapse").status == "skipped"


# The verdict of T(3,5) depends only on the sign pattern of the twist
# vector: the cobordism presentation adds one relator per nonzero twist and
# the linking form is the diagonal of -sign(t_j).  Sign patterns over "-0+".
SIGN_CLASS_VERDICTS = {
    "obstruction-premises-verified": {"---", "--0", "0--", "0-0", "0+0", "0++", "++0", "+++"},
    "failed: cobordism-collapse": {"-0-", "-00", "00-", "000", "00+", "+00", "+0+"},
    "failed: definite-cobordism": {
        "--+", "-0+", "-+-", "-+0", "-++", "0-+", "0+-", "+--", "+-0", "+-+", "+0-", "++-",
    },
}


def _sign_class(tv) -> str:
    return "".join("-0+"[(t > 0) - (t < 0) + 1] for t in tv)


def _sign_class_verdict(tv) -> str:
    (verdict,) = [v for v, signs in SIGN_CLASS_VERDICTS.items() if _sign_class(tv) in signs]
    return verdict


def test_t35_verdicts_over_the_27_sign_classes():
    assert [len(signs) for signs in SIGN_CLASS_VERDICTS.values()] == [8, 7, 12]
    for tv in itertools.product((-2, 0, 2), repeat=3):
        assert certify(T35, TwistVector(tv)).verdict == _sign_class_verdict(tv), tv


def test_large_even_twists_get_the_verdict_of_their_sign_class():
    r = random.Random(19)
    vectors = [tuple(r.choice((-1, 0, 1)) * r.randrange(2, 65, 2) for _ in range(3)) for _ in range(6)]
    assert len({_sign_class_verdict(tv) for tv in vectors}) == 3
    for tv in vectors:
        assert certify(T35, TwistVector(tv)).verdict == _sign_class_verdict(tv), tv


def test_collapse_budget_exhaustion_is_inconclusive():
    cert = certify(T35, TwistVector((2, 2, 2)), CertifyConfig(node_budget=100))
    assert cert.verdict == "inconclusive: cobordism-collapse"
    assert cert.exit_code == 2
    rec = premise(cert, "cobordism-collapse")
    assert rec.status == "inconclusive"
    assert rec.evidence["verdict"] == "inconclusive"
    assert premise(cert, "base-cover-binary-icosahedral").evidence == {
        "reason": "inconclusive: cobordism-collapse"
    }


def test_coset_budget_exhaustion_is_inconclusive():
    cert = certify(T35, TwistVector((2, 2, 2)), CertifyConfig(max_cosets=50))
    assert cert.verdict == "inconclusive: base-cover-binary-icosahedral"
    assert cert.exit_code == 2
    rec = premise(cert, "base-cover-binary-icosahedral")
    assert rec.status == "inconclusive"
    assert rec.evidence == {"cover-h1": "0", "cosets-defined": 50, "order": None}


def test_certify_input_validation():
    with pytest.raises(CertifyError, match="t_1 = 1 is odd"):
        certify(TREFOIL, TwistVector((1, 2)))
    with pytest.raises(CertifyError, match="length 3 != bridge count 2"):
        certify(TREFOIL, TwistVector((2, 2, 2)))
    with pytest.raises(CertifyError, match="2 components"):
        certify(TWO_COMPONENT, TwistVector((2, 2)))
    with pytest.raises(CertifyError, match="resolution must be an even integer"):
        certify(TREFOIL, TwistVector((2, 2)), CertifyConfig(resolution=7))
    with pytest.raises(CertifyError, match="unknown battery group 'Nope'"):
        certify(TREFOIL, TwistVector((2, 2)), CertifyConfig(battery=("S3", "Nope")))


def test_battery_group_names():
    assert battery_group("S3").order == 6
    assert battery_group("A4").order == 12
    assert battery_group("C7").order == 7
    assert battery_group("SL2F5").order == 120
    # the largest accepted orders of the cyclic and symmetric families
    assert battery_group("C1000").order == 1000
    assert battery_group("S6").order == 720


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _assert_well_formed_svg(svg):
    assert svg.startswith("<?xml")
    doc = xml.dom.minidom.parseString(svg)
    assert doc.documentElement.tagName == "svg"


def test_render_chord_diagram():
    svg = render_chord_diagram(chord_diagram_of_tangle(TREFOIL))
    _assert_well_formed_svg(svg)
    assert svg == render_chord_diagram(chord_diagram_of_tangle(TREFOIL))


def test_render_empty_chord_diagram():
    svg = render_chord_diagram(chord_diagram_of_tangle(PlatWord(2, ())))
    _assert_well_formed_svg(svg)


def test_render_decker_with_and_without_curve():
    ds = spin_plat(TREFOIL)
    bare = render_decker(ds)
    _assert_well_formed_svg(bare)
    withcurve = render_decker(ds, trace_double_curve(ds))
    _assert_well_formed_svg(withcurve)
    assert bare != withcurve
    assert len(withcurve) > len(bare)


@pytest.mark.parametrize("plat", [TREFOIL, T35], ids=["trefoil", "t35"])
def test_render_decker_pair_labels_match_format_decker(plat):
    ds = spin_plat(plat)
    drawn = re.findall(r">(\d+) (over|under) pair (\d+)<", render_decker(ds))
    listed = re.findall(r"^circle (\d+) pair (\d+) (over|under)$", format_decker(ds), re.M)
    assert len(listed) == ds.l
    assert sorted((c, p, role) for c, role, p in drawn) == sorted(listed)


def test_render_plat_and_pd():
    _assert_well_formed_svg(render_plat(T35))
    _assert_well_formed_svg(render_pd(plat_to_pd(TREFOIL)))
    _assert_well_formed_svg(render_pd(plat_to_pd(PlatWord(2, ()))))


def test_rendering_has_no_external_references():
    ds = spin_plat(TREFOIL)
    for svg in (
        render_chord_diagram(chord_diagram_of_tangle(TREFOIL)),
        render_decker(ds, trace_double_curve(ds)),
        render_plat(TREFOIL),
        render_pd(plat_to_pd(TREFOIL)),
    ):
        assert "http" not in svg.replace("http://www.w3.org", "")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_shipped_corpus_passes():
    report = corpus_run(shipped_manifest_path())
    assert len(report.rows) == 16
    assert report.failures == ()
    assert report.exit_code == 0
    text = format_corpus_report(report)
    assert "row trefoil twists - pass determinant 3" in text
    assert text.rstrip().endswith("total 16 failed 0")


def test_corpus_detects_wrong_expectations(tmp_path):
    plats = shipped_manifest_path().parent / "plats"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"trefoil {plats}/trefoil.plat - 3\n"
        f"bad-row {plats}/trefoil.plat - 99\n"
    )
    report = corpus_run(manifest)
    assert report.exit_code == 1
    assert len(report.failures) == 1
    assert report.failures[0].name == "bad-row"
    text = format_corpus_report(report)
    assert "FAIL expected 99" in text
    assert "total 2 failed 1" in text


def test_empty_corpus_passes(tmp_path):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing here\n")
    report = corpus_run(manifest)
    assert report.rows == () and report.exit_code == 0


def test_corpus_parse_errors_name_the_line(tmp_path):
    manifest = tmp_path / "broken.txt"
    manifest.write_text("only two fields\n")
    with pytest.raises(CorpusError, match="line 1"):
        corpus_run(manifest)
    manifest.write_text("name missing.plat 2,x 9\n")
    with pytest.raises(CorpusError, match="line 1"):
        corpus_run(manifest)


def test_corpus_missing_plat_file(tmp_path):
    manifest = tmp_path / "missing.txt"
    manifest.write_text("ghost nosuch.plat - 1\n")
    with pytest.raises(CorpusError, match="line 1"):
        corpus_run(manifest)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

TREFOIL_PLAT = str(shipped_manifest_path().parent / "plats" / "trefoil.plat")
T35_PLAT = str(shipped_manifest_path().parent / "plats" / "t35.plat")


def test_cli_validate(capsys):
    assert main(["validate", TREFOIL_PLAT]) == 0
    out = capsys.readouterr().out
    assert out == "strands 4 letters 3 bridges 2 components 1\n"


def test_cli_det(capsys):
    assert main(["det", TREFOIL_PLAT]) == 0
    assert "determinant 3" in capsys.readouterr().out
    assert main(["det", TREFOIL_PLAT, "--twists", "2,2"]) == 0
    out = capsys.readouterr().out
    assert "checkerboard 9 fox 9" in out and "determinant 9" in out


def test_cli_slice_check(capsys):
    assert main(["slice-check", TREFOIL_PLAT, "--twists", "2,2"]) == 0
    assert "verdict pass-forward" in capsys.readouterr().out


def test_cli_resolution_bounds(capsys):
    argv = ["slice-check", TREFOIL_PLAT, "--twists", "2,2", "--resolution"]
    assert main(argv + ["15"]) == 3
    assert "too small for the doubled curve" in capsys.readouterr().err
    assert main(argv + ["17"]) == 0
    assert "resolution 17" in capsys.readouterr().out


def test_cli_certify_failing_pair(capsys):
    # stdout carries the line-oriented certificate; --out gets the JSON
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("certificate schema 1\n")
    assert out.rstrip().endswith("verdict failed: homology-sphere")


def test_cli_certify_writes_json(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2", "--out", str(out_file)]) == 1
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["verdict"] == "failed: homology-sphere"


def test_cli_render_writes_svg(tmp_path, capsys):
    out_file = tmp_path / "plat.svg"
    assert main(["render", "plat", TREFOIL_PLAT, "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert out_file.read_text().startswith("<?xml")


def test_cli_corpus(capsys):
    assert main(["corpus"]) == 0
    assert "total 16 failed 0" in capsys.readouterr().out


def test_cli_usage_errors_exit_three(capsys):
    assert main(["nonsense"]) == 3
    assert main(["det"]) == 3
    assert main(["det", "/nonexistent.plat"]) == 3
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,1"]) == 3
    assert main(["render", "unknown-kind", TREFOIL_PLAT]) == 3
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--resolution", "4", "resolution must be an even integer >= 16"),
        ("--resolution", "14", "resolution must be an even integer >= 16"),
        ("--resolution", "15", "resolution must be an even integer >= 16"),
        ("--max-cosets", "0", "max-cosets must be a positive integer"),
        ("--max-cosets", "-5", "max-cosets must be a positive integer"),
    ],
)
def test_cli_certify_rejects_bad_config_up_front(tmp_path, capsys, flag, value, message):
    out_file = tmp_path / "cert.json"
    argv = ["certify", TREFOIL_PLAT, "--twists", "2,2", f"{flag}={value}", "--out", str(out_file)]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_file.exists()


def test_cli_certify_with_a_one_coset_budget_is_inconclusive(capsys):
    assert main(["certify", T35_PLAT, "--twists", "2,2,2", "--max-cosets", "1"]) == 2
    out = capsys.readouterr().out
    assert "max-cosets 1" in out
    assert out.endswith("verdict inconclusive: base-cover-binary-icosahedral\n")


_TWIST_TEXT = st.one_of(
    st.text(alphabet="0123456789,-+ x", max_size=12),
    st.lists(st.integers(min_value=-5, max_value=5), max_size=8).map(
        lambda ts: ",".join(map(str, ts))
    ),
)
_TREFOIL_ARGV = st.builds(
    lambda twists, m: ["certify", TREFOIL_PLAT, f"--twists={twists}", f"--resolution={m}"],
    _TWIST_TEXT,
    st.integers(min_value=-2, max_value=30),
)
_T35_ARGV = st.builds(
    lambda n: ["certify", T35_PLAT, "--twists=2,2,2", f"--max-cosets={n}"],
    st.integers(min_value=-3, max_value=60),
)


@settings(max_examples=25, deadline=None)
@given(st.one_of(_TREFOIL_ARGV, _T35_ARGV))
def test_cli_certify_fuzz_exits_with_a_verdict_or_an_input_error(argv):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 20
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_cli_groups(capsys):
    assert main(["groups", "a5"]) == 0
    out = capsys.readouterr().out
    assert "order 60" in out and "15 involutions" in out
    assert main(["groups", "icosian"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "group icosian: order 120; 9 conjugacy classes [1, 1, 12, 12, 12, 12, 20, 20, 30]; "
        "center 2; 1 involutions; normal subgroup orders [1, 2, 120]; not simple; perfect; "
        "proper nontrivial quotients: order 60",
        "  su2 embeds-possible",
        "  unique-involution True",
        "  iso-to-sl2f5 True",
    ]


def test_cli_internal_errors_exit_four(monkeypatch, capsys):
    import spunslice.cli as cli

    def broken(args):
        raise RuntimeError("coset table corrupted")

    monkeypatch.setattr(cli, "_cmd_det", broken)
    assert main(["det", TREFOIL_PLAT]) == 4
    assert "internal error: RuntimeError: coset table corrupted" in capsys.readouterr().err
