"""Batch determinant regression over a manifest of plat files.

Manifest format: one row per line, four whitespace-separated fields ::

    <name> <platfile> <twists|-> <expected-determinant>

`platfile` is resolved relative to the manifest's directory.  `twists` is
a comma-separated even twist vector applied as a mirror double ("-" keeps
the plain plat closure).  Each row recomputes the determinant along two
independent routes -- the checkerboard form and Fox calculus at -1 -- and
passes only when both equal the expected value.  Lines starting with `#`
and blank lines are ignored.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path
from typing import NamedTuple

from .covers import bridge_fox_det, goeritz_determinant
from .diagrams import PlatError, TwistVector, build_symmetric_union, parse_plat, plat_to_pd


class CorpusError(ValueError):
    """Manifest or row input problem (CLI exit code 3)."""


class CorpusRow(NamedTuple):
    name: str
    plat_file: str
    twists: tuple[int, ...] | None
    expected: int
    goeritz: int
    alexander: int

    @property
    def passed(self) -> bool:
        return self.goeritz == self.expected and self.alexander == self.expected


class CorpusReport(NamedTuple):
    manifest: str
    rows: tuple[CorpusRow, ...]

    @property
    def failures(self) -> tuple[CorpusRow, ...]:
        return tuple(r for r in self.rows if not r.passed)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def shipped_manifest_path() -> Path:
    """The manifest of the corpus that ships inside the package."""
    return Path(str(importlib.resources.files("spunslice") / "data" / "manifest.txt"))


def _parse_manifest(text: str, base: Path):
    entries = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise CorpusError(
                f"manifest line {ln}: expected 4 fields "
                f"(name platfile twists expected), got {len(parts)}"
            )
        name, plat_file, twists_s, expected_s = parts
        if twists_s == "-":
            twists = None
        else:
            try:
                twists = tuple(int(t) for t in twists_s.split(","))
            except ValueError:
                raise CorpusError(f"manifest line {ln}: bad twist list {twists_s!r}") from None
        try:
            expected = int(expected_s)
        except ValueError:
            raise CorpusError(
                f"manifest line {ln}: expected determinant must be an integer, "
                f"got {expected_s!r}"
            ) from None
        entries.append((ln, name, plat_file, twists, expected, base / plat_file))
    return entries


def corpus_run(manifest_path: str | Path) -> CorpusReport:
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        raise CorpusError(f"cannot read manifest {manifest_path}: {exc}") from exc
    entries = _parse_manifest(text, manifest_path.parent)

    rows = []
    for ln, name, plat_file, twists, expected, path in entries:
        try:
            # ValueError: not UTF-8 text, or a NUL byte in the path
            text = path.read_text()
        except (OSError, ValueError) as exc:
            raise CorpusError(f"manifest line {ln} ({name}): {exc}") from exc
        try:
            plat = parse_plat(text)
            if twists is None:
                knot = plat
            else:
                knot = build_symmetric_union(plat, TwistVector(twists)).knot
            det_g = goeritz_determinant(plat_to_pd(knot))
            det_a = bridge_fox_det(knot)
        except PlatError as exc:
            raise CorpusError(f"manifest line {ln} ({name}): {exc}") from exc
        rows.append(CorpusRow(name, plat_file, twists, expected, det_g, det_a))
    return CorpusReport(str(manifest_path), tuple(rows))


def format_corpus_report(report: CorpusReport) -> str:
    lines = [f"corpus {report.manifest}"]
    for r in report.rows:
        tw = ",".join(str(t) for t in r.twists) if r.twists is not None else "-"
        if r.passed:
            lines.append(f"row {r.name} twists {tw} pass determinant {r.expected}")
        else:
            lines.append(
                f"row {r.name} twists {tw} FAIL expected {r.expected} "
                f"checkerboard {r.goeritz} fox {r.alexander}"
            )
    lines.append(
        f"total {len(report.rows)} failed {len(report.failures)}"
        if report.rows
        else "total 0 failed 0"
    )
    return "\n".join(lines) + "\n"
