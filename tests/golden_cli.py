"""The `--out` parity set: CLI commands whose reports are pinned byte for
byte in ``tests/golden_out/``.

Each command writes its `--out` JSON to ``<name>.json``; ``status.json``
holds every command's exit code and last line of standard error (a
refusal writes no report, so that line is its golden).
``tests/test_golden_out.py`` compares all three.

Regenerate only for an intended `--out` change, and list every golden
that changed in CHANGES.md:

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden_out"

COMMANDS = (
    ("suite_smoke", "suite smoke"),
    ("suite_full_seed42", "suite full --seed 42"),
    *((f"family_{lab}", f"family --label {lab}") for lab in (
        "A3", "A5", "A7", "B2", "B3", "B4", "C3", "D4", "G2", "E6", "F4")),
    *((f"family_{lab}_show", f"family --label {lab} --show")
      for lab in ("A3", "A5", "D4", "E6", "F4")),
    ("rootdata_E6_h_e1", "rootdata --type E6 --h 1,0,0,0,0,0"),
    ("rootdata_E6_h_mixed", "rootdata --type E6 --h 1,2,-1,0,3,1/2"),
    ("rootdata_D4_h_s3", "rootdata --type D4 --h 1,2,3,4 --omega s3"),
    ("rootdata_A5_h", "rootdata --type A5 --h 3,2,1,-1,-2,-3"),
    ("quiver_sample_A1", "quiver sample --type A1 --mu 1,-1"),
    ("quiver_sample_A2", "quiver sample --type A2 --mu 1,-2,1"),
    ("quiver_sample_A3", "quiver sample --type A3 --mu 3/2,-1/2,1/4,-5/4"),
    ("quiver_sample_A4", "quiver sample --type A4 --mu 1,2,-3,1/2,-1/2"),
    ("quiver_sample_A5",
     "quiver sample --type A5 --mu 1/2,-1/4,3/4,-1,1/4,-1/4"),
    ("quiver_sample_D4",
     "quiver sample --type D4 --mu 1/3,2/5,-1,1/2,23/30"),
    ("flat_E6_full", "flat --type E6 --full"),
    ("flat_A5", "flat --type A5"),
    ("flat_D5", "flat --type D5"),
    ("fiber_F4_params", "fiber analyze --label F4 --params t2=-6,t8=27/2"),
    *((f"fiber_{lab}", f"fiber analyze --label {lab}")
      for lab in ("C3", "D4", "E6")),
    *((f"klein_{t}", f"klein verify --type {t}")
      for t in ("A1", "A3", "A4", "D4", "E6")),
    *((f"quiver_action_{t}", f"quiver verify-action --type {t}")
      for t in ("A3", "D4", "E6")),
    *((f"quotient_{lab}", f"quotient verify --label {lab}")
      for lab in ("B2", "B3", "C3", "G2", "F4")),
    ("quotient_discriminant_B2", "quotient discriminant --label B2"),
    # refusals: no report, an exit code and one stderr line
    ("quiver_sample_A1_negative_first", "quiver sample --type A1 --mu -1,1"),
    ("rootdata_A2_h_negative_first", "rootdata --type A2 --h -1,0,1"),
    ("refuse_mu_malformed", "quiver sample --type A1 --mu -1,x"),
    ("refuse_mu_arity", "quiver sample --type A3 --mu 1,2"),
    ("refuse_h_off_span", "rootdata --type A5 --h 1,1,1,1,1,1"),
    ("refuse_omega_bogus", "rootdata --type A5 --omega bogus"),
    ("refuse_flat_A4", "flat --type A4"),
    ("refuse_sampling_flag", "quiver verify-action --type A3 --seed 2"),
    ("refuse_discriminant_G2", "quotient discriminant --label G2"),
    ("refuse_unknown_param", "fiber analyze --label B2 --params zz=1"),
    ("refuse_budget", "fiber analyze --label C3 --budget 1"),
)


def run_command(command: str, out: Path) -> tuple:
    """(exit code, last stderr line, report bytes or None) of one command
    run through ``cli.run`` with ``--out`` at ``out``."""
    from mckaydeform.cli import run
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code, _ = run(command.split() + ["--out", str(out)])
        except SystemExit as exc:       # argparse's own exit
            code = exc.code
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else "", (
        out.read_bytes() if out.exists() else None)


def main():
    import tempfile
    status = {}
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS:
            code, err, report = run_command(command, Path(tmp) / name)
            status[name] = {"command": command, "exit": code, "stderr": err}
            if report is not None:
                (GOLDEN / f"{name}.json").write_bytes(report)
    (GOLDEN / "status.json").write_text(
        json.dumps(status, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    sys.exit(main())
