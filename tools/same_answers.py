"""Whether two commits give the same CLI answers, byte for byte.

    python3 tools/same_answers.py --parent HEAD~1 --change HEAD

Both commits are unpacked with bench_pairs.unpack into a temporary
directory, and each runs from its own ``src``:

- the twelve reference ``limit`` rows (the JSON printed);
- ``region`` at ``--angle-step`` 30 and 5, DLG pos and SLG neg with
  ``--other 0.5@-90`` (the CSV written);
- ``validate --draws 100 --seed 0`` (the table printed).

Each output is compared with its exit code. One line per output says
``same`` or ``DIFFERS``; the exit status is 1 when any output differs.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import SIDES, git, unpack

# the twelve reference limits: fault, swept sequence, angle (deg), fixed
# other sequence (A@D)
LIMIT_ROWS = (
    ("slg", "pos", "-30", "0.2@90"), ("dlg", "pos", "-30", "0.5@90"),
    ("ll", "pos", "-30", "0.5@90"), ("slg", "pos", "90", "0.2@90"),
    ("dlg", "pos", "90", "0.5@90"), ("ll", "pos", "90", "0.5@90"),
    ("slg", "neg", "-30", "0.5@-90"), ("dlg", "neg", "-30", "0.5@-90"),
    ("ll", "neg", "-30", "0.5@-90"), ("slg", "neg", "90", "0.5@-90"),
    ("dlg", "neg", "90", "0.5@-90"), ("ll", "neg", "90", "0.5@-90"),
)
# region sweeps: fault, sequence, extra flags
REGION_SWEEPS = (("dlg", "pos", ()), ("slg", "neg", ("--other", "0.5@-90")))


def cases() -> list[tuple[str, list[str], bool]]:
    """(name, CLI argv, whether the answer is the file given by --out)."""
    out = [(f"limit {f} {s} {a} other {o}",
            ["limit", "--fault", f, "--seq", s, "--angle", a, "--other", o],
            False)
           for f, s, a, o in LIMIT_ROWS]
    out += [(f"region {f} {s} step {step}",
             ["region", "--fault", f, "--seq", s, "--angle-step", step,
              *flags], True)
            for step in ("30", "5") for f, s, flags in REGION_SWEEPS]
    out.append(("validate draws 100 seed 0",
                ["validate", "--draws", "100", "--seed", "0"], False))
    return out


def answer(checkout: Path, argv: list[str], to_file: bool) -> bytes:
    """The exit code and what one CLI run printed, or wrote to --out."""
    out = checkout / "answer.out"
    cmd = [sys.executable, "-m", "ibgsync.cli", *argv]
    if to_file:
        cmd += ["--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
    body = out.read_bytes() if to_file and out.exists() else proc.stdout
    return b"exit %d\n" % proc.returncode + body


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--change", required=True, help="change commit")
    args = parser.parse_args(argv)
    commits = {"parent": git("rev-parse", args.parent),
               "change": git("rev-parse", args.change)}
    differ = 0
    todo = cases()
    with tempfile.TemporaryDirectory(prefix="same_answers-") as tmp:
        checkouts = {s: unpack(commits[s], Path(tmp) / s) for s in SIDES}
        for name, cli_argv, to_file in todo:
            got = {s: answer(checkouts[s], cli_argv, to_file) for s in SIDES}
            same = got["parent"] == got["change"]
            differ += not same
            print(f"{'same' if same else 'DIFFERS'}: {name}", flush=True)
    print(f"{len(todo) - differ} of {len(todo)} outputs byte-identical "
          f"({commits['parent'][:7]} -> {commits['change'][:7]})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
