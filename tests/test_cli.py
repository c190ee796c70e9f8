"""Command-line runs pinned byte for byte: golden certificates, every
subcommand, `det` under a PD-sweep fault, `python -m spunslice`, one
parser per process answering as a fresh process does, one message for a
bad twist vector from every twist command, the lower resolution bound of
the slice-curve commands, the upper one and the band-winding bound they
share with certify, and the 0-crossing unknot; unreadable files, bad,
oversized or empty batteries, an empty output path and shared flags that
a command does not read, which are input errors; help and version, which
leave through argparse's exit 0; and fuzzed plat text, manifests and
argv, which never end in exit 4."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fault_the_pd_sweep, goeritz_matrix
from spunslice import certificate, cli, corpus, decker, diagrams
from spunslice.cli import main
from spunslice.covers import goeritz
from spunslice.corpus import shipped_manifest_path
from spunslice.diagrams import PlatWord, closure_components

PLATS = shipped_manifest_path().parent / "plats"
TREFOIL_PLAT = str(PLATS / "trefoil.plat")
T35_PLAT = str(PLATS / "t35.plat")
GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


# ---------------------------------------------------------------------------
# golden certificate bytes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "name, argv, rc",
    [
        ("certify-t35", ["certify", T35_PLAT, "--twists", "2,2,2", "--max-cosets", "2000000"], 0),
        ("certify-trefoil", ["certify", TREFOIL_PLAT, "--twists", "2,2"], 1),
    ],
)
def test_cli_certify_reproduces_the_golden_certificate(name, argv, rc, tmp_path, capsys):
    out_file = tmp_path / "certificate.json"
    assert main(argv + ["--out", str(out_file)]) == rc
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    assert out_file.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# ---------------------------------------------------------------------------
# the other subcommands, pinned at their output
# ---------------------------------------------------------------------------

CLI_PINS = {
    "validate": (["validate", TREFOIL_PLAT], 0, "strands 4 letters 3 bridges 2 components 1\n"),
    "validate-union": (
        ["validate", TREFOIL_PLAT, "--twists", "2,2"], 0, "strands 6 letters 20 bridges 3 components 1\n",
    ),
    "det-negative-first-twist": (
        ["det", TREFOIL_PLAT, "--twists", "-2,2"], 0, "checkerboard 9 fox 9\ndeterminant 9\n",
    ),
    "goeritz": (["goeritz", TREFOIL_PLAT], 0, "   3   -3\n  -3    3\ndeterminant 3\n"),
    "pi1": (
        ["pi1", TREFOIL_PLAT], 0,
        "gens 3\nmeridians 1 2 3\n-1 2 1 -3\n-2 3 2 -1\n-3 1 3 -2\nabelianization Z\n",
    ),
    "cover-h1": (["cover-h1", TREFOIL_PLAT], 0, "cover-h1 Z/3\ncover-h1-order 3\ndeterminant 3\n"),
    "cobordism": (
        ["cobordism", T35_PLAT, "--twists", "2,-2,0"], 0,
        "band bridge 1 framing -1 half-twists 2 arcs 1,33\n"
        "band bridge 2 framing 1 half-twists -2 arcs 46,16\n"
        "linking-diagonal 1,-1\n"
        "definiteness indefinite\n",
    ),
    "cobordism-untwisted": (
        ["cobordism", T35_PLAT, "--twists", "0,0,0"], 0, "linking-diagonal -\ndefiniteness empty\n",
    ),
    "slice-check-untwisted": (
        ["slice-check", T35_PLAT], 0,
        "circles 56 resolution 24 curve-vertices 520\nforward True reverse False\nverdict pass-forward\n",
    ),
    "groups-sl2f5": (
        ["groups", "sl2f5"], 0,
        "group sl2f5: order 120; 9 conjugacy classes [1, 1, 12, 12, 12, 12, 20, 20, 30]; "
        "center 2; 1 involutions; normal subgroup orders [1, 2, 120]; not simple; perfect; "
        "proper nontrivial quotients: order 60\n"
        "  su2 embeds-possible\n",
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_PINS))
def test_cli_subcommand_output_is_pinned(command, capsys):
    argv, rc, stdout = CLI_PINS[command]
    assert main(argv) == rc
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize(
    "name, twists",
    [(path.stem, None) for path in sorted(PLATS.glob("*.plat"))]
    + [("trefoil", (2, -2)), ("figure8", (4, 0)), ("t35", (2, 0, -2)), ("t35", (-6, 4, 2))],
)
def test_cli_goeritz_prints_the_dense_matrix(name, twists, capsys):
    # the command streams the sparse rows; the dense matrix is the reference
    path = PLATS / f"{name}.plat"
    plat = diagrams.parse_plat(path.read_text())
    argv = ["goeritz", str(path)]
    if twists:
        plat = diagrams.build_symmetric_union(plat, diagrams.TwistVector(twists)).knot
        argv.append("--twists=" + ",".join(map(str, twists)))
    data = goeritz(diagrams.plat_to_pd(plat))
    dense = "".join(" ".join(f"{v:4d}" for v in row) + "\n" for row in goeritz_matrix(data))
    assert main(argv) == 0
    assert capsys.readouterr().out == dense + f"determinant {data.determinant}\n"


class _CountingSink:
    written = 0

    def write(self, text):
        self.written += len(text)

    def flush(self):
        pass


def test_cli_goeritz_memory_stays_below_the_dense_matrix():
    # 12 MB of output from 1,551 shaded faces; the dense matrix as a tuple
    # of tuples peaked at 19.6 MB under tracemalloc, the sparse rows at 2.6 MB
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["goeritz", T35_PLAT, "--twists", "300,300,300"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.written == 12_028_019
    assert peak < 8 * 2**20


def test_python_m_spunslice_runs_the_cli_from_a_checkout(capsys):
    # `python -m spunslice` needs only the package on the path, no install
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spunslice", "validate", TREFOIL_PLAT],
                          capture_output=True, text=True, env=env)
    assert main(["validate", TREFOIL_PLAT]) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out


# ---------------------------------------------------------------------------
# one parser per process, handlers looked up by command name at call time
# ---------------------------------------------------------------------------

VALID_INVOCATIONS = {
    "validate": ["validate", TREFOIL_PLAT],
    "det": ["det", TREFOIL_PLAT, "--twists", "2,2"],
    "goeritz": ["goeritz", TREFOIL_PLAT],
    "slice-check": ["slice-check", TREFOIL_PLAT, "--twists", "2,2"],
    "symunion": ["symunion", TREFOIL_PLAT, "--twists", "2,2"],
    "pi1": ["pi1", TREFOIL_PLAT],
    "cover-h1": ["cover-h1", T35_PLAT],
    "cobordism": ["cobordism", T35_PLAT, "--twists", "2,-2,0"],
    "groups": ["groups", "a5"],
    "certify": ["certify", TREFOIL_PLAT, "--twists", "2,2"],
    "render": ["render", "decker", TREFOIL_PLAT, "--resolution", "16"],
    "corpus": ["corpus"],
}


def _run_in_process(argv) -> tuple[bytes, bytes, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version exits from inside the parser
            code = exc.code
    return out.getvalue().encode(), err.getvalue().encode(), code


def test_cli_builds_its_parser_once_per_process():
    mixed = [VALID_INVOCATIONS[c] for c in ("validate", "det", "pi1", "goeritz", "symunion")] + [
        ["det"],
        ["render", "chord", TREFOIL_PLAT, "--resolution", "16"],
        ["goeritz", TREFOIL_PLAT, "--out", "x"],
        ["nonsense"],
        ["symunion", TREFOIL_PLAT],
    ]
    cli.build_parser.cache_clear()
    codes = [_run_in_process(argv)[2] for argv in mixed + mixed]
    assert len(codes) == 20 and codes.count(3) == 10
    assert cli.build_parser.cache_info().misses == 1


def test_cli_calls_in_one_process_answer_as_fresh_processes_do():
    # a usage error and --version first, so every later call parses with a
    # parser that has already raised and exited
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv in [["det"], ["--version"]] + list(VALID_INVOCATIONS.values()):
        proc = subprocess.run([sys.executable, "-m", "spunslice", *argv], capture_output=True, env=env)
        assert _run_in_process(argv) == (proc.stdout, proc.stderr, proc.returncode), argv


def test_cli_symunion_prints_the_doubled_plat(capsys):
    assert main(["symunion", TREFOIL_PLAT, "--twists", "2,2"]) == 0
    assert capsys.readouterr().out.startswith("strands 6\n")


@pytest.mark.parametrize("command", ["symunion", "cobordism", "certify"])
def test_cli_twist_commands_need_twists(command, capsys):
    assert main([command, TREFOIL_PLAT]) == 3
    assert capsys.readouterr().err == f"error: {command} requires --twists\n"


def test_cli_groups_lists_the_choices_for_an_unknown_name(capsys):
    assert main(["groups", "a5", "psl27"]) == 3
    assert capsys.readouterr().err == "error: unknown group 'psl27' (choices: sl2f5, a5, icosian)\n"


@pytest.mark.parametrize(
    "command, route, stdout",
    [
        ("det", "bridge_fox_det", "checkerboard 3 fox 4\nMISMATCH between determinant routes\n"),
        (
            "cover-h1", "goeritz_determinant",
            "cover-h1 Z/3\ncover-h1-order 3\ndeterminant 4\n"
            "MISMATCH between cover homology and determinant\n",
        ),
    ],
)
def test_cli_determinant_routes_that_disagree_exit_one(command, route, stdout, monkeypatch, capsys):
    monkeypatch.setattr(cli, route, lambda diagram: 4)
    assert main([command, TREFOIL_PLAT]) == 1
    assert capsys.readouterr().out == stdout


def test_cli_det_sees_a_pd_sweep_fault(monkeypatch, capsys):
    # the checkerboard route reads the faulted PD, the Fox route the plat word
    fault_the_pd_sweep(monkeypatch)
    assert main(["det", TREFOIL_PLAT]) == 1
    assert capsys.readouterr().out == "checkerboard 1 fox 3\nMISMATCH between determinant routes\n"


TWIST_COMMANDS = {
    "certify": ["certify"],
    "slice-check": ["slice-check"],
    "render-decker": ["render", "decker"],
    "det": ["det"],
    "symunion": ["symunion"],
    "cobordism": ["cobordism"],
    "validate": ["validate"],
    "render-chord": ["render", "chord"],
}


@pytest.mark.parametrize(
    "twists, message",
    [
        ("2,2", "twist vector length 2 != bridge count 3"),
        ("1,1", "twist vector length 2 != bridge count 3"),  # length before parity
        ("2,1,2", "twist entry t_2 = 1 is odd; only the even family is supported"),
    ],
)
@pytest.mark.parametrize("command", sorted(TWIST_COMMANDS))
def test_cli_a_bad_twist_vector_gets_one_message_from_every_command(
    command, twists, message, capsys
):
    assert main(TWIST_COMMANDS[command] + [T35_PLAT, "--twists", twists]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


RENDER_SHA256 = {
    "chord": "2ae87418a660b5e99f8fb7ac3ce524fb1474957602f16c3774dfcbdf68276ebd",
    "pd": "94bd8c60c74a0728e6465c9d091ab3549bf4c82e6c381c647ce6a9b3dc449d1c",
    "decker": "6c031d2f83ee108f818825f42a3ee3b2bfc392a33f913d1a5a726ffbec89c4b1",
    "plat": "3fb3738837fb37300a002edd44055994c04505c3c418825c11d6be7823e8b833",
}


@pytest.mark.parametrize("kind", sorted(RENDER_SHA256))
def test_cli_render_is_deterministic_and_pinned(kind, capsys):
    svgs = []
    for _run in range(2):
        assert main(["render", kind, TREFOIL_PLAT]) == 0
        svgs.append(capsys.readouterr().out.encode())
    assert svgs[0] == svgs[1]
    assert hashlib.sha256(svgs[0]).hexdigest() == RENDER_SHA256[kind]


def test_cli_certify_timing(tmp_path, capsys):
    out_file = tmp_path / "certificate.json"
    argv = ["certify", TREFOIL_PLAT, "--twists", "2,2", "--timing", "--out", str(out_file)]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("timing total ") for line in lines)
    assert "timing" in json.loads(out_file.read_text())


# ---------------------------------------------------------------------------
# the resolution bounds and the band-winding bound
# ---------------------------------------------------------------------------

SLICE_CURVE_COMMANDS = {
    "slice-check": ["slice-check", TREFOIL_PLAT, "--twists", "2,2"],
    "render-decker": ["render", "decker", TREFOIL_PLAT],
}


@pytest.mark.parametrize("m", [4, 8, 15])
@pytest.mark.parametrize("command", sorted(SLICE_CURVE_COMMANDS))
def test_cli_resolution_below_16_is_rejected_with_one_message(command, m, capsys):
    assert main(SLICE_CURVE_COMMANDS[command] + ["--resolution", str(m)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: resolution {m} too small for the doubled curve; need at least 16\n"
    )


@pytest.mark.parametrize("m", [4097, 4098, 100000, 10**12])
@pytest.mark.parametrize("command", sorted(SLICE_CURVE_COMMANDS) + ["certify"])
def test_cli_resolution_above_4096_is_rejected_with_one_message(command, m, capsys):
    # rejected before any grid or curve is built
    argv = SLICE_CURVE_COMMANDS.get(command, ["certify", TREFOIL_PLAT, "--twists", "2,2"])
    assert main(argv + ["--resolution", str(m)]) == 3
    assert capsys.readouterr() == ("", f"error: resolution {m} too large; at most 4096\n")


@pytest.mark.parametrize("kind", ["chord", "plat", "pd"])
def test_cli_render_without_a_grid_rejects_resolution(kind, tmp_path, capsys):
    # only render decker builds a grid sphere, so only it reads --resolution
    out_file = tmp_path / "out.svg"
    argv = ["render", kind, T35_PLAT, "--resolution", "99999999", "--out", str(out_file)]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: render {kind} does not read --resolution\n")
    assert not out_file.exists()


@pytest.mark.parametrize("command", sorted(SLICE_CURVE_COMMANDS))
def test_cli_resolution_16_is_accepted(command, capsys):
    assert main(SLICE_CURVE_COMMANDS[command] + ["--resolution", "16"]) == 0
    assert capsys.readouterr().err == ""


WINDING_COMMANDS = {
    "slice-check": ["slice-check", T35_PLAT],
    "render-decker": ["render", "decker", T35_PLAT],
    "certify": ["certify", T35_PLAT],
}


@pytest.mark.parametrize(
    "twists, m, winding",
    [
        ("0,64,66", 4096, 266240),
        ("100,-100,100", 4096, 409600),
        ("1000,1000,1000", 4096, 4096000),
        ("2,2,22000", 24, 264024),
    ],
)
@pytest.mark.parametrize("command", sorted(WINDING_COMMANDS))
def test_cli_winding_above_2_18_longitudes_is_rejected_with_one_message(
    command, twists, m, winding, capsys, monkeypatch
):
    # rejected before any curve or twisted diagram is built
    def build_nothing(*args):
        raise AssertionError("built")

    monkeypatch.setattr(decker, "_route_region", build_nothing)
    monkeypatch.setattr(certificate, "build_symmetric_union", build_nothing)
    argv = WINDING_COMMANDS[command] + ["--twists", twists, "--resolution", str(m)]
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error: twists wind {winding} longitudes at resolution {m}; at most 262144\n"
    )


UNION_COMMANDS = {
    "validate": ["validate"], "det": ["det"], "goeritz": ["goeritz"], "pi1": ["pi1"],
    "cover-h1": ["cover-h1"], "symunion": ["symunion"], "cobordism": ["cobordism"],
    "render-chord": ["render", "chord"], "render-plat": ["render", "plat"],
    "render-pd": ["render", "pd"], "certify": ["certify"],
}


@pytest.mark.parametrize("command", sorted(UNION_COMMANDS) + ["corpus"])
def test_cli_twists_above_the_crossing_bound_are_rejected_with_one_message(
    command, tmp_path, capsys, monkeypatch
):
    # t_1 adds 200,000 crossings and t_2 another 8, yet winds one longitude;
    # the bound is checked before the union's first letter is built
    def build_nothing(*args):
        raise AssertionError("built")

    monkeypatch.setattr(diagrams, "_pair_pass_right", build_nothing)
    if command == "corpus":
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"big {TREFOIL_PLAT} 200000,2 9\n")
        argv, where = ["corpus", str(manifest)], "manifest line 1 (big): "
    else:
        argv, where = UNION_COMMANDS[command] + [TREFOIL_PLAT, "--twists", "200000,2"], ""
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {where}twists add 200008 crossings; at most 16384\n")


def test_cli_twists_at_the_crossing_bound_still_build(capsys):
    assert diagrams.MAX_TWIST_CROSSINGS == 16384
    assert main(["validate", TREFOIL_PLAT, "--twists", "4096,3072"]) == 0
    assert capsys.readouterr() == ("strands 6 letters 16394 bridges 3 components 1\n", "")
    assert main(["certify", T35_PLAT, "--twists", "1000,1000,1000"]) == 0
    assert capsys.readouterr().out.endswith("verdict obstruction-premises-verified\n")


def test_cli_large_twists_at_the_default_resolution_still_run(capsys):
    # (1000, 1000, 1000) winds 24 * 1000 = 24,000 longitudes
    assert main(["slice-check", T35_PLAT, "--twists", "1000,1000,1000"]) == 0
    assert capsys.readouterr() == (
        "circles 56 resolution 24 curve-vertices 52868\n"
        "forward True reverse False\n"
        "verdict pass-forward\n",
        "",
    )


# ---------------------------------------------------------------------------
# the 0-crossing unknot: a 2-strand plat with no letters
# ---------------------------------------------------------------------------

UNKNOT_PINS = {
    "cobordism": (
        ["cobordism", "--twists", "2"], 0,
        "band bridge 1 framing -1 half-twists 2 arcs 1,1\n"
        "linking-diagonal 1\n"
        "definiteness positive\n",
    ),
    "pi1": (["pi1"], 0, "gens 1\nmeridians 1\nabelianization Z\n"),
    "det": (["det", "--twists", "2"], 0, "checkerboard 1 fox 1\ndeterminant 1\n"),
    "cover-h1": (["cover-h1"], 0, "cover-h1 0\ncover-h1-order 1\ndeterminant 1\n"),
}


@pytest.fixture
def unknot_plat(tmp_path) -> str:
    path = tmp_path / "unknot.plat"
    path.write_text("strands 2\n")
    return str(path)


@pytest.mark.parametrize("command", sorted(UNKNOT_PINS))
def test_cli_unknot_output_is_pinned(command, unknot_plat, capsys):
    argv, rc, stdout = UNKNOT_PINS[command]
    assert main(argv[:1] + [unknot_plat] + argv[1:]) == rc
    assert capsys.readouterr() == (stdout, "")


@pytest.mark.parametrize("twists", ["2", "-2"])
def test_cli_unknot_certify_fails_at_the_base_cover(twists, unknot_plat, capsys):
    assert main(["certify", unknot_plat, "--twists", twists]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("verdict failed: base-cover-binary-icosahedral\n")
    assert captured.err == ""


# ---------------------------------------------------------------------------
# unreadable files and bad batteries: one error line, exit 3
# ---------------------------------------------------------------------------

PLAT_COMMANDS = {
    "validate": ["validate"], "det": ["det"], "goeritz": ["goeritz"], "pi1": ["pi1"],
    "cover-h1": ["cover-h1"], "slice-check": ["slice-check"], "symunion": ["symunion"],
    "cobordism": ["cobordism"], "certify": ["certify"], "render": ["render", "chord"],
}


@pytest.mark.parametrize("command", sorted(PLAT_COMMANDS))
def test_cli_a_plat_file_that_is_not_utf8_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "latin1.plat"
    path.write_bytes(b"strands 4\ng2 +  # caf\xe9\n")
    assert main(PLAT_COMMANDS[command] + [str(path), "--twists", "2,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read plat file {path}: 'utf-8' codec")
    assert captured.err.count("\n") == 1


MANIFEST_ERRORS = {
    "manifest-not-utf8": (b"# caf\xe9\nt trefoil.plat - 3\n", "cannot read manifest {manifest}: 'utf-8' codec"),
    "plat-not-utf8": (b"t latin1.plat - 3\n", "manifest line 1 (t): 'utf-8' codec"),
    "nul-in-platfile": (b"t tre\x00foil.plat - 3\n", "manifest line 1 (t): embedded null byte"),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_ERRORS))
def test_cli_corpus_unreadable_input_is_an_input_error(case, tmp_path, capsys):
    text, message = MANIFEST_ERRORS[case]
    (tmp_path / "trefoil.plat").write_text("strands 4\ng2 +\ng2 +\ng2 +\n")
    (tmp_path / "latin1.plat").write_bytes(b"strands 4\ng2 +  # caf\xe9\n")
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(text)
    assert main(["corpus", str(manifest)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(manifest=manifest))
    assert captured.err.count("\n") == 1


def test_cli_a_value_error_past_the_file_reads_is_still_internal(monkeypatch, capsys):
    def boom(*_args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "parse_plat", boom)
    assert main(["validate", TREFOIL_PLAT]) == 4
    monkeypatch.setattr(corpus, "parse_plat", boom)
    assert main(["corpus"]) == 4
    assert capsys.readouterr().err.count("internal error: ValueError: boom\n") == 2


@pytest.mark.parametrize("battery", ["S0", "S1"])
def test_cli_certify_rejects_a_symmetric_group_on_fewer_than_two_points(battery, capsys):
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2", "--battery", battery]) == 3
    assert capsys.readouterr() == ("", "error: need n >= 2\n")


@pytest.mark.parametrize("battery", ["C0", "C00"])
def test_cli_certify_rejects_a_cyclic_group_on_no_points(battery, capsys):
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2", "--battery", battery]) == 3
    assert capsys.readouterr() == ("", "error: need n >= 1\n")


@pytest.mark.parametrize(
    "battery",
    ["C20000", "S7", "S100000", "C" + "9" * 5000],
    ids=["C20000", "S7", "S100000", "C9x5000"],
)
def test_cli_certify_refuses_a_battery_group_above_the_order_bound(battery, capsys):
    t0 = time.monotonic()
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2", "--battery", f"S3,{battery}"]) == 3
    assert time.monotonic() - t0 < 1.0
    message = f"error: battery group {battery!r} has more than 1000 elements\n"
    assert capsys.readouterr() == ("", message)


def test_cli_certify_rejects_a_battery_order_written_with_a_superscript(capsys):
    assert main(["certify", TREFOIL_PLAT, "--twists", "2,2", "--battery", "S²"]) == 3
    assert capsys.readouterr() == ("", "error: unknown battery group 'S²'\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", TREFOIL_PLAT, "--twists", "2,2", "--battery", ""],
        ["certify", TREFOIL_PLAT, "--twists", "2,2", "--out", ""],
        ["symunion", TREFOIL_PLAT, "--twists", "2,2", "--out", ""],
        ["render", "chord", TREFOIL_PLAT, "--out", ""],
        ["render", "decker", TREFOIL_PLAT, "--out="],
    ],
    ids=["certify-battery", "certify-out", "symunion-out", "render-out", "render-out-equals"],
)
def test_cli_an_empty_battery_or_out_is_an_input_error(argv, monkeypatch, capsys):
    # refused while parsing, before the plat file is read
    monkeypatch.setattr(cli, "_load_plat", lambda path: pytest.fail("plat file read"))
    assert main(argv) == 3
    flag = "--battery" if "--battery" in argv else "--out"
    assert capsys.readouterr() == ("", f"error: argument {flag}: must not be empty\n")


# ---------------------------------------------------------------------------
# each subcommand takes only the shared flags it reads
# ---------------------------------------------------------------------------

READ_FLAGS = {
    "validate": ["--twists"], "det": ["--twists"], "goeritz": ["--twists"],
    "slice-check": ["--twists", "--resolution"], "symunion": ["--twists", "--out"],
    "pi1": ["--twists"], "cover-h1": ["--twists"], "cobordism": ["--twists"], "groups": [],
    "certify": ["--twists", "--battery", "--max-cosets", "--resolution", "--out"],
    "render": ["--twists", "--resolution", "--out"], "corpus": [],
}
FLAG_VALUES = {"--twists": "2,2", "--battery": "S3", "--max-cosets": "10", "--resolution": "16"}
UNREAD_FLAGS = [
    (command, flag)
    for command in sorted(READ_FLAGS)
    for flag in sorted(FLAG_VALUES) + ["--out"]
    if flag not in READ_FLAGS[command]
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_cli_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, tmp_path, capsys):
    out_file = tmp_path / "out"
    argv = {"groups": ["groups"], "corpus": ["corpus"], "render": ["render", "chord", TREFOIL_PLAT]}.get(
        command, [command, TREFOIL_PLAT, "--twists", "2,2"]
    )
    argv = argv + [flag, FLAG_VALUES.get(flag, str(out_file))]
    if "--out" in READ_FLAGS[command]:
        argv += ["--out", str(out_file)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unrecognized arguments: {flag}")
    assert captured.err.count("\n") == 1
    assert not out_file.exists()


@pytest.mark.parametrize("kind", ["chord", "plat", "pd"])
def test_cli_render_draws_the_symmetric_union_with_twists(kind, tmp_path, capsys):
    union = tmp_path / "union.plat"
    assert main(["symunion", TREFOIL_PLAT, "--twists", "2,2", "--out", str(union)]) == 0
    assert main(["render", kind, str(union)]) == 0
    drawn = capsys.readouterr().out
    assert main(["render", kind, TREFOIL_PLAT, "--twists", "2,2"]) == 0
    assert capsys.readouterr().out == drawn
    assert main(["render", kind, TREFOIL_PLAT]) == 0
    assert capsys.readouterr().out != drawn


# ---------------------------------------------------------------------------
# plat text fuzz: every command exits with a result or an input error
# ---------------------------------------------------------------------------

_STRAY_LINES = st.one_of(
    st.sampled_from(["", "# comment", "  g1 -  # trailing", "strands 4", "strands", "strands x",
                     "g", "g1", "g1 *", "gx +", "g0 +", "g9 -", "g1 + +", "h1 +"]),
    st.text(alphabet="gs0123456789+- #x", max_size=10),
)


@st.composite
def _plat_text(draw) -> str:
    """`strands N` (rarely missing), up to 12 in-range letters, half the time
    closed up into a knot by at most 3 more, and sometimes stray lines,
    harmless or garbage, anywhere after the strands line."""
    strands = draw(st.one_of(st.sampled_from([2, 4, 6, 8]), st.integers(min_value=0, max_value=8)))
    letter = st.tuples(st.integers(min_value=1, max_value=max(strands - 1, 1)), st.sampled_from([1, -1]))
    word = draw(st.lists(letter, max_size=12))
    if strands in (2, 4, 6, 8) and draw(st.booleans()):
        # sigma_k for even k joins the components through bottom caps k/2 and k/2 + 1
        for k in range(2, strands - 1, 2):
            joined = PlatWord(strands, word + [(k, 1)])
            if closure_components(joined) < closure_components(PlatWord(strands, word)):
                word.append((k, 1))
    lines = [f"g{k} {'+' if s == 1 else '-'}" for k, s in word]
    header = draw(st.sampled_from(range(10))) > 0
    if header:
        lines.insert(0, f"strands {strands}")
    if draw(st.booleans()):
        for stray in draw(st.lists(_STRAY_LINES, min_size=1, max_size=2)):
            lines.insert(draw(st.integers(min_value=int(header), max_value=len(lines))), stray)
    return "\n".join(lines) + "\n"


_FUZZ_COMMANDS = ["validate", "det", "goeritz", "pi1", "cover-h1", "symunion", "cobordism", "slice-check"]


@settings(max_examples=150, deadline=None)
@given(
    _plat_text(),
    st.sampled_from(_FUZZ_COMMANDS),
    st.one_of(st.none(), st.lists(st.sampled_from([-2, 0, 2]), min_size=1, max_size=4)),
)
@example("strands 2\n", "cobordism", [2])
@example("strands ²\ng1 +\n", "det", None)
def test_cli_plat_text_fuzz_exits_with_a_result_or_an_input_error(text, command, twists):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.plat"
        path.write_text(text)
        argv = [command, str(path)]
        if twists is not None:
            argv.append("--twists=" + ",".join(map(str, twists)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()


# ---------------------------------------------------------------------------
# manifest text fuzz: corpus exits with a result or one input error
# ---------------------------------------------------------------------------

_SHIPPED_PLATS = sorted(str(p) for p in (shipped_manifest_path().parent / "plats").glob("*.plat"))


# twist entries: mostly even, some odd, some empty ("2,,2")
_TWIST_ENTRIES = ["-4", "-2", "0", "2", "4"] * 3 + ["-3", "-1", "1", "3", ""]


@st.composite
def _manifest_text(draw) -> str:
    """Comment, blank and row lines.  A row has 3-5 fields, mostly 4; its
    plat is a shipped one (absolute path), the manifest's own directory or
    a missing file; its twists are `-` or 1-3 entries in -4..4 (odd and
    empty ones included), so the list often has the wrong length; its
    expected determinant is often a shipped plat's, sometimes not an
    integer."""
    lines = []
    for kind in draw(st.lists(st.sampled_from(["row", "row", "comment", "blank"]), max_size=5)):
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# comment", "   # indented", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        else:
            twists = st.lists(st.sampled_from(_TWIST_ENTRIES), min_size=1, max_size=3)
            fields = [
                draw(st.sampled_from(["k", "row-1", "t35"])),
                draw(st.sampled_from(_SHIPPED_PLATS * 2 + [".", "missing.plat"])),
                draw(st.one_of(st.just("-"), twists.map(",".join))),
                draw(st.sampled_from(["1", "3", "5", "7", "9", "25", "0", "-1", "x", "1.5"])),
            ]
            count = draw(st.sampled_from([4, 4, 4, 3, 5]))
            row = " ".join(fields[:count] + ["extra"] * (count - 4))
            lines.append(row + draw(st.sampled_from(["", "  # note"])))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(_manifest_text())
@example("k " + _SHIPPED_PLATS[0] + " 2,,2 3\n")
def test_cli_manifest_text_fuzz_exits_with_a_result_or_one_input_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = Path(tmp) / "manifest.txt"
        manifest.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["corpus", str(manifest)])
    assert code in (0, 1, 3), err.getvalue()
    # one error line for an input error, none for a result
    assert err.getvalue().count("error:") == (code == 3)


# ---------------------------------------------------------------------------
# argv fuzz: every command exits with a result, an input error or its help
# ---------------------------------------------------------------------------

_INFO_FLAGS = ["-h", "--help", "--version"]


@pytest.mark.parametrize("argv", [[flag] for flag in _INFO_FLAGS] + [[c, "-h"] for c in sorted(READ_FLAGS)])
def test_cli_help_and_version_leave_through_argparse_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out and err == ""


_ARGV_BRIDGES = {"trefoil": 2, "unknot": 1, "figure8": 2}  # shipped plats small enough for any twist
_EDGE_VALUES = [
    "", "0", "-1", "9" * 20,
    "1,2", "2,,2", "2,2,2", "2",  # odd, empty-entry and wrong-length twists
    "15", "16", "4096", "4097",  # resolutions at and past both bounds
    "Nope", "S3,Q8",  # unknown battery groups
    ".", "missing/file",  # a directory and a missing path, in the draw's working directory
]


@st.composite
def _argv(draw) -> list[str]:
    """A valid argv of one of the twelve commands, with even twists of at
    most 8, mutated one to three times: a flag dropped, repeated or moved
    (before the command too), a flag's or a positional's value replaced
    from the edge pool, or -h, --help or --version put anywhere."""
    command = draw(st.sampled_from(sorted(READ_FLAGS)))
    name = draw(st.sampled_from(sorted(_ARGV_BRIDGES)))
    plat = str(PLATS / f"{name}.plat")
    kind = draw(st.sampled_from(["chord", "decker", "plat", "pd"]))
    positionals = {
        "groups": draw(st.lists(st.sampled_from(["sl2f5", "a5", "icosian"]), max_size=2)),
        "corpus": draw(st.sampled_from([[], [str(shipped_manifest_path())]])),
        "render": [kind, plat],
    }.get(command, [plat])
    valid = {
        "--twists": ",".join(str(2 * draw(st.integers(-4, 4))) for _ in range(_ARGV_BRIDGES[name])),
        "--battery": ",".join(draw(st.lists(st.sampled_from(["S3", "A4", "S4", "A5"]), min_size=1, max_size=2))),
        "--max-cosets": "1000",
        "--resolution": draw(st.sampled_from(["16", "24", "32"])),
        "--out": "out",
    }
    needed = {"--twists"} if command in ("symunion", "cobordism", "certify") else set()
    # an item is (flag, value, joined); the command's flag is "", a positional's None
    items = [("", command, False)] + [(None, value, False) for value in positionals]
    for flag in READ_FLAGS[command]:
        if flag in needed or draw(st.booleans()):
            if not (flag == "--resolution" and command == "render" and kind != "decker"):
                value = valid[flag]
                items.append((flag, value, value.startswith("-") or draw(st.booleans())))
    if command == "certify" and draw(st.booleans()):
        items.append(("--timing", None, False))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "move", "edge", "info"]))
        if op == "edge":
            slots = [i for i, (flag, value, _) in enumerate(items) if flag != "" and value is not None]
            if slots:
                i = draw(st.sampled_from(slots))
                flag, _, joined = items[i]
                items[i] = (flag, draw(st.sampled_from(_EDGE_VALUES)), joined)
        elif op == "info":
            items.insert(draw(st.integers(0, len(items))), (draw(st.sampled_from(_INFO_FLAGS)), None, False))
        else:
            flags = [i for i, (flag, _, _) in enumerate(items) if flag]
            if flags:
                i = draw(st.sampled_from(flags))
                item = items[i] if op == "repeat" else items.pop(i)
                if op != "drop":
                    items.insert(draw(st.integers(0, len(items))), item)
    argv = []
    for flag, value, joined in items:
        if not flag:
            argv.append(value)
        elif value is None:
            argv.append(flag)
        else:
            argv.extend([f"{flag}={value}"] if joined else [flag, value])
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
@example(["certify", TREFOIL_PLAT, "--twists", "2,2", "--out", "."])
@example(["--twists=-2,2", "validate", TREFOIL_PLAT, "--help"])
def test_cli_argv_fuzz_exits_with_a_result_an_input_error_or_help(argv):
    # in a fresh directory, which relative paths and what --out writes stay in
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # only help and version leave through argparse's exit
                assert exc.code == 0 and set(argv) & set(_INFO_FLAGS), argv
                code = 0
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "internal error" not in err.getvalue()
