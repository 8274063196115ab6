"""`--out` parity: every command of ``golden_cli.COMMANDS`` writes the
same report bytes, exits with the same code and ends stderr with the same
line as its golden in ``tests/golden_out/``."""

import json

from golden_cli import COMMANDS, GOLDEN, run_command


def test_every_command_matches_its_golden(tmp_path):
    # one test, so the families and quivers are built once for all the
    # commands; a mismatch names every command that moved
    status = json.loads((GOLDEN / "status.json").read_text())
    assert sorted(status) == sorted(name for name, _ in COMMANDS)
    moved = []
    for name, command in COMMANDS:
        code, err, report = run_command(command, tmp_path / name)
        golden = GOLDEN / f"{name}.json"
        want = golden.read_bytes() if golden.exists() else None
        if (status[name]["command"] != command
                or (code, err) != (status[name]["exit"],
                                   status[name]["stderr"])
                or report != want):
            moved.append(name)
    assert moved == []
