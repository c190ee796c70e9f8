"""Command-line interface.

Subcommands cover single-object utilities (validate, det, goeritz, pi1,
cover-h1, symunion, cobordism, slice-check, groups), the end-to-end
certificate (certify), figure output (render), and the batch determinant
regression (corpus).

Exit codes: 0 success / verified, 1 failed check or premise, 2 inconclusive
search, 3 invalid input, 4 internal error (an unexpected exception).

The parser is built once per process, on the first main() call, and keeps
only command names: main() looks each handler up by name at call time.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

from . import __version__
from .certificate import (
    CertifyConfig,
    CertifyError,
    certificate_json,
    certify,
    format_certificate,
)
from .corpus import CorpusError, corpus_run, format_corpus_report, shipped_manifest_path
from .covers import (
    bridge_fox_det,
    cobordism_linking_matrix,
    goeritz,
    goeritz_determinant,
    is_definite,
    surgery_description,
)
from .decker import (
    DEFAULT_RESOLUTION,
    criterion_report,
    spin_plat,
    symmetric_union_curve,
    trace_double_curve,
)
from .diagrams import (
    PlatError,
    PlatWord,
    TwistVector,
    build_symmetric_union,
    chord_diagram_of_tangle,
    format_plat,
    parse_plat,
    plat_to_pd,
    validate_plat,
)
from .groups.finite import (
    GroupError,
    alternating_group,
    iso_check,
    sl2_f5,
    structure_report,
    su2_obstruction,
)
from .groups.presentations import (
    abelianization,
    branched_cover_presentation,
    format_presentation,
    wirtinger,
)
from .groups.quaternions import icosian_group, icosian_involution_lemma
from .groups.toddcoxeter import DEFAULT_MAX_COSETS


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # `--twists -2,2` reads as `--twists=-2,2`
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")

    def error(self, message):  # usage problems are input errors (exit 3)
        raise CliInputError(message)


def _load_plat(path: str) -> PlatWord:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        raise CliInputError(f"cannot read plat file {path}: {exc}") from exc
    plat = parse_plat(text)
    validate_plat(plat)
    return plat


def _twist_vector(args) -> TwistVector | None:
    if args.twists is None:
        return None
    try:
        return TwistVector(tuple(int(t) for t in args.twists.split(",")))
    except ValueError:
        raise CliInputError(f"bad --twists value {args.twists!r}") from None


def _knot(args) -> PlatWord:
    plat = _load_plat(args.platfile)
    tv = _twist_vector(args)
    if tv is None:
        return plat
    return build_symmetric_union(plat, tv).knot


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_validate(args) -> int:
    plat = _knot(args)  # validated by _load_plat, or for a union by build_symmetric_union
    print(f"strands {plat.strands} letters {len(plat.word)} bridges {plat.strands // 2} components 1")
    return 0


def _cmd_det(args) -> int:
    knot = _knot(args)
    det_g = goeritz_determinant(plat_to_pd(knot))
    det_a = bridge_fox_det(knot)
    print(f"checkerboard {det_g} fox {det_a}")
    if det_g != det_a:
        print("MISMATCH between determinant routes")
        return 1
    print(f"determinant {det_g}")
    return 0


def _cmd_goeritz(args) -> int:
    data = goeritz(plat_to_pd(_knot(args)))
    # one row at a time from the sparse rows, so memory stays linear; the
    # zero cell is formatted once, as formatting dominates on large unions
    zeros = [f"{0:4d}"] * data.shaded_faces
    for row in data.rows:
        cells = zeros.copy()
        for j, v in row.items():
            cells[j] = f"{v:4d}"
        print(" ".join(cells))
    print(f"determinant {abs(data.determinant)}")
    return 0


def _cmd_slice_check(args) -> int:
    plat = _load_plat(args.platfile)
    tv = _twist_vector(args)
    ds = spin_plat(plat, m=args.resolution)
    if tv is None:
        curve = trace_double_curve(ds)
    else:
        curve = symmetric_union_curve(ds, tv)
    rep = criterion_report(ds, curve)
    print(f"circles {ds.l} resolution {ds.m} curve-vertices {curve.vertex_count}")
    print(f"forward {rep.forward} reverse {rep.reverse}")
    print(f"verdict {rep.verdict}")
    return 0 if rep.verdict != "fail" else 1


def _cmd_symunion(args) -> int:
    plat = _load_plat(args.platfile)
    tv = _twist_vector(args)
    if tv is None:
        raise CliInputError("symunion requires --twists")
    su = build_symmetric_union(plat, tv)
    lines = [format_plat(su.knot).rstrip("\n")]
    for site in su.sites:
        lines.append(
            f"# band bridge {site.bridge} half-twists {site.half_twists} "
            f"letter-index {site.letter_index} columns {site.columns[0]},{site.columns[1]}"
        )
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_pi1(args) -> int:
    pres = wirtinger(plat_to_pd(_knot(args))).simplified()
    sys.stdout.write(format_presentation(pres))
    print(f"abelianization {abelianization(pres).describe()}")
    return 0


def _cmd_cover_h1(args) -> int:
    knot = _knot(args)
    pd = plat_to_pd(knot)
    pres = branched_cover_presentation(wirtinger(pd))
    inv = abelianization(pres)
    order = inv.order
    print(f"cover-h1 {inv.describe()}")
    print(f"cover-h1-order {order if order is not None else 'infinite'}")
    det = goeritz_determinant(pd)
    print(f"determinant {det}")
    if order != det:
        print("MISMATCH between cover homology and determinant")
        return 1
    return 0


def _cmd_cobordism(args) -> int:
    plat = _load_plat(args.platfile)
    tv = _twist_vector(args)
    if tv is None:
        raise CliInputError("cobordism requires --twists")
    su = build_symmetric_union(plat, tv)
    sd = surgery_description(su)
    for band in sd.bands:
        print(
            f"band bridge {band.bridge} framing {band.framing} "
            f"half-twists {band.half_twists} arcs {band.arcs[0]},{band.arcs[1]}"
        )
    diagonal = cobordism_linking_matrix(sd)
    print("linking-diagonal " + (",".join(map(str, diagonal)) or "-"))
    print(f"definiteness {is_definite(diagonal)}")
    return 0


_GROUP_CHOICES = ("sl2f5", "a5", "icosian")


def _cmd_groups(args) -> int:
    names = args.names or list(_GROUP_CHOICES)
    for name in names:
        key = name.lower()
        if key == "sl2f5":
            G = sl2_f5()
        elif key == "a5":
            G = alternating_group(5)
        elif key == "icosian":
            G = icosian_group()
        else:
            raise CliInputError(f"unknown group {name!r} (choices: {', '.join(_GROUP_CHOICES)})")
        print(f"group {key}: {structure_report(G).describe()}")
        print(f"  su2 {su2_obstruction(G)}")
        if key == "icosian":
            print(f"  unique-involution {icosian_involution_lemma()}")
            print(f"  iso-to-sl2f5 {iso_check(G, sl2_f5()) is not None}")
    return 0


def _cmd_certify(args) -> int:
    plat = _load_plat(args.platfile)
    tv = _twist_vector(args)
    if tv is None:
        raise CliInputError("certify requires --twists")
    battery = tuple(args.battery.split(",")) if args.battery else CertifyConfig().battery
    cfg = CertifyConfig(
        resolution=args.resolution,
        max_cosets=args.max_cosets,
        battery=battery,
    )
    cert = certify(plat, tv, cfg)
    sys.stdout.write(format_certificate(cert, include_timing=args.timing))
    if args.out:
        Path(args.out).write_text(certificate_json(cert, include_timing=args.timing))
    return cert.exit_code


def _cmd_render(args) -> int:
    from . import render  # only this command draws, so no other command pays its import

    if args.kind == "decker":
        plat = _load_plat(args.platfile)
        tv = _twist_vector(args)
        ds = spin_plat(plat, m=DEFAULT_RESOLUTION if args.resolution is None else args.resolution)
        curve = trace_double_curve(ds) if tv is None else symmetric_union_curve(ds, tv)
        svg = render.render_decker(ds, curve)
    else:
        if args.resolution is not None:
            raise CliInputError(f"render {args.kind} does not read --resolution")
        knot = _knot(args)
        if args.kind == "chord":
            svg = render.render_chord_diagram(chord_diagram_of_tangle(knot))
        elif args.kind == "plat":
            svg = render.render_plat(knot)
        else:
            svg = render.render_pd(plat_to_pd(knot))
    _emit(args, svg)
    return 0


def _cmd_corpus(args) -> int:
    manifest = Path(args.manifest) if args.manifest else shipped_manifest_path()
    report = corpus_run(manifest)
    sys.stdout.write(format_corpus_report(report))
    return report.exit_code


# ---------------------------------------------------------------------------
# parser assembly


def _nonempty(text: str) -> str:
    # an empty value would otherwise read as the flag left out
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


# the shared flags; each subcommand takes only the ones it reads
_FLAGS = {
    "--twists": dict(help="comma-separated half-twist counts, one per bridge"),
    "--battery": dict(
        type=_nonempty, help="comma-separated finite-group battery (default S3,A4,S4,A5)"
    ),
    "--max-cosets": dict(type=int, default=DEFAULT_MAX_COSETS, help="coset enumeration budget"),
    "--resolution": dict(type=int, default=DEFAULT_RESOLUTION, help="longitudes per latitude circle"),
    "--out": dict(type=_nonempty, help="write primary output to this file"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # --help prints the docstring's first three paragraphs, not the last
    description = __doc__.rsplit("\n\n", 1)[0]
    parser = _Parser(prog="spunslice", description=description)
    parser.add_argument("--version", action="version", version=f"spunslice {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(func, help_text, flags=(), *, platfile=True, extra=None):
        # the parser keeps the command name, never the handler itself
        p = sub.add_parser(func.__name__.removeprefix("_cmd_").replace("_", "-"), help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if platfile:
            p.add_argument("platfile", help="plat word file")
        if extra:
            extra(p)
        return p

    twists = ("--twists",)
    add(_cmd_validate, "check a plat word file", twists)
    add(_cmd_det, "knot determinant along two independent routes", twists)
    add(_cmd_goeritz, "checkerboard form and its determinant", twists)
    add(
        _cmd_slice_check,
        "run the slice-curve side test on the doubled sphere",
        ("--twists", "--resolution"),
    )
    add(_cmd_symunion, "emit the twisted mirror double as a plat word", ("--twists", "--out"))
    add(_cmd_pi1, "knot group presentation and abelianization", twists)
    add(_cmd_cover_h1, "first homology of the branched double cover", twists)
    add(_cmd_cobordism, "surgery bands and linking form of the twist cobordism", twists)
    add(
        _cmd_groups,
        "structure reports for the certificate's finite groups",
        platfile=False,
        extra=lambda p: p.add_argument("names", nargs="*", help="sl2f5 a5 icosian"),
    )
    add(
        _cmd_certify,
        "assemble the full embedding-obstruction certificate",
        tuple(_FLAGS),
        extra=lambda p: p.add_argument(
            "--timing", action="store_true", help="include (nondeterministic) timing lines"
        ),
    )
    add(
        _cmd_render,
        "draw a chord diagram, doubled sphere, plat ladder, or PD schematic",
        ("--twists", "--resolution", "--out"),
        platfile=False,
        extra=lambda p: (
            p.add_argument("kind", choices=("chord", "decker", "plat", "pd")),
            p.add_argument("platfile", help="plat word file"),
            p.set_defaults(resolution=None),  # only decker reads it; None marks it unset
        ),
    )
    add(
        _cmd_corpus,
        "run the determinant regression manifest",
        platfile=False,
        extra=lambda p: p.add_argument(
            "manifest", nargs="?", help="manifest path (default: shipped corpus)"
        ),
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (CliInputError, PlatError, CertifyError, CorpusError, GroupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug, not a verdict: never exit 1 for it
        import traceback  # only a bug reaches here, so a run never pays its import

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
