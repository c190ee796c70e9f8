"""Command-line runs pinned byte for byte: golden certificates, every
subcommand, and the one resolution bound of the slice-curve commands."""

import hashlib
import json
from pathlib import Path

import pytest

from spunslice.cli import main
from spunslice.corpus import shipped_manifest_path

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
}


@pytest.mark.parametrize("command", sorted(CLI_PINS))
def test_cli_subcommand_output_is_pinned(command, capsys):
    argv, rc, stdout = CLI_PINS[command]
    assert main(argv) == rc
    assert capsys.readouterr().out == stdout


def test_cli_symunion_prints_the_doubled_plat(capsys):
    assert main(["symunion", TREFOIL_PLAT, "--twists", "2,2"]) == 0
    assert capsys.readouterr().out.startswith("strands 6\n")


@pytest.mark.parametrize("command", ["symunion", "cobordism"])
def test_cli_twist_commands_need_twists(command, capsys):
    assert main([command, TREFOIL_PLAT]) == 3
    assert capsys.readouterr().err == f"error: {command} requires --twists\n"


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
# the one resolution bound
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


@pytest.mark.parametrize("command", sorted(SLICE_CURVE_COMMANDS))
def test_cli_resolution_16_is_accepted(command, capsys):
    assert main(SLICE_CURVE_COMMANDS[command] + ["--resolution", "16"]) == 0
    assert capsys.readouterr().err == ""
