"""Whether two commits give the same CLI answers, byte for byte.

    python3 tools/same_answers.py --parent HEAD~1 --change HEAD

Both commits are unpacked with bench_pairs.unpack into a temporary
directory, and each runs from its own ``src``:

- the twelve reference ``limit`` rows (the JSON printed);
- ``region`` at ``--angle-step`` 30 and 5, DLG pos and SLG neg with
  ``--other 0.5@-90`` (the CSV written);
- ``region`` at ``--angle-step`` 30 where the zero-current start does not
  carry a sweep: TLG pos, whose every first warm start misses, and DLG pos
  with ``--other 1.0@90``, which has no zero-current root (the CSV
  written);
- ``limit`` of TLG pos at -81.3 deg, warm-started in closed form from the
  zero-current root, and of DLG pos at -30 deg with ``--other 1.0@90``,
  which has no zero-current root (the JSON printed);
- sweeps on an amplitude grid other than the default 0.01 p.u.: ``region``
  of DLG pos at ``--angle-step`` 30 and ``--step`` 0.002 (the CSV written)
  and ``limit`` of LL neg at -30 deg with ``--other 0.5@-90`` and ``--step``
  0.05 (the JSON printed);
- ``equilibrium --fault ll --iminus A@-20`` for A = 0.91, 0.92 and 0.93,
  around the fold (the JSON printed), and ``region --fault ll --seq neg
  --angle-step 5``, whose sweep passes the stall at 0.92 (the CSV written);
- ``equilibrium`` under SLG, DLG and TLG, at a positive current with a
  root and at one without (the JSON printed): a root prints its uq+-, and
  a miss its ``residual_norm``;
- problems with one current at zero, which the solver takes in closed
  form: ``limit`` of SLG neg at 90 deg with no ``--other`` and
  ``equilibrium --fault dlg --iminus 0.5@90`` (the JSON printed), and
  ``region --fault ll --seq pos --angle-step 1`` and ``region --fault slg
  --seq neg --angle-step 0.5 --step 0.001`` (2,160,000 grid amplitudes,
  whose traversals jump to the closed-form edge; the CSV written);
- ``validate --draws 100 --seed 0`` (the table printed);
- ``simulate`` of a 1 s DLG ride-through, and of 1 s under LL with
  ``--iminus 0.92@-20``, just past the fold, which starts from the
  pre-fault state (the verdict printed and the trace CSV written);
- ``simulate`` of 1 s under DLG with fixed impedances from a cold start:
  the config's pre-fault 3.0@0 has no root either; once with the PLLs and
  once in FLL mode, whose angle rates start on the empty filter states
  (the verdict printed and the trace CSV written);
- ``simulate`` of the adaptive coefficient columns the runs above do not
  reach: 1 s under SLG with the PLLs, 1.2 s under TLG with a fault that
  clears at 0.8 s, so the run changes to the healthy window's derivative,
  and 1 s under DLG in FLL mode at 50 Hz (the verdict printed and the
  trace CSV written);
- ``simulate`` of 3 s under DLG at ``--iplus 0.81@-30``, lost, whose
  frequency scales sit at the clamps after the loop runs away, and of
  0.05 s under DLG with PLL gains of 1e300 and 1e305, whose loop angles
  overflow to inf inside the first step (the verdict printed and the
  trace CSV written);
- ``coeffs --json``, ``equilibrium``, ``limit`` and ``simulate`` under a
  config that sets every section (FLL at 60 Hz, started from the pre-fault
  state), and ``coeffs --json`` under one that sets ``circuit.choke`` (the
  JSON printed, and the trace CSV that ``simulate`` writes);
- ``coeffs`` under five configs that must be rejected, one of them with a
  negative choke resistance and one that sets ``solver.grid_deg``, a key
  the solver no longer has (the exit code and the empty output);
- the plots: ``region`` of DLG pos at ``--angle-step`` 30 and the 1 s DLG
  ``simulate`` above, each with ``--svg`` (what was printed, the CSV
  written, then the SVG).

A case with a config writes the same JSON into each checkout and passes it
with ``--config``. A case that writes a file passes ``--out answer.out``,
relative to the checkout it runs in, and its answer is what it printed
followed by the file; a plot case also passes ``--svg answer.svg``, whose
file follows. Each output is compared with its exit code. One line
per output says ``same`` or ``DIFFERS``; the exit status is 1 when any
output differs.
"""

import argparse
import json
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
# region sweeps at 30 deg that fall back to the scan: every angle's first
# warm start misses (TLG), the zero-current solve misses (DLG, 1.0@90 held)
REGION_FALLBACKS = (("tlg", "pos", ()), ("dlg", "pos", ("--other", "1.0@90")))
# single limits off the common path: TLG near the impedance angle, whose
# warm starts from the zero-current root take the closed-form branch of the
# vanishing negative equation (0.33, type1), and DLG with 1.0@90 held,
# which has no zero-current root and scans its first amplitude
LIMIT_STARTS = (("tlg", "pos", "-81.3", ()),
                   ("dlg", "pos", "-30", ("--other", "1.0@90")))
# sweeps on a finer and a coarser amplitude grid than the default 0.01 p.u.,
# each with whether it writes --out
OTHER_STEPS = (
    (["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "30",
      "--step", "0.002"], True),
    (["limit", "--fault", "ll", "--seq", "neg", "--angle", "-30", "--other",
      "0.5@-90", "--step", "0.05"], False),
)
# negative current at -20 deg under LL around the fold: a root at 0.91, a
# miss at 0.92 where Newton stalls 4e-9 past the fold, a miss at 0.93 (both
# exit 2)
FOLD_AMPS = ("0.91", "0.92", "0.93")
# one current at zero, solved in closed form: a limit, a 1 deg sweep and a
# 0.5 deg sweep on a 0.001 p.u. grid with no current held, an equilibrium
# with no positive current; each with whether it writes --out
TRIANGULAR = (
    (["limit", "--fault", "slg", "--seq", "neg", "--angle", "90"], False),
    (["equilibrium", "--fault", "dlg", "--iminus", "0.5@90"], False),
    (["region", "--fault", "ll", "--seq", "pos", "--angle-step", "1"], True),
    (["region", "--fault", "slg", "--seq", "neg", "--angle-step", "0.5",
      "--step", "0.001"], True),
)
# fault, a positive current with a qualifying root, one without (exit 2);
# TLG's holds only near the impedance angle
FAULT_EQUILIBRIA = (("slg", "1.0@-30", "2.0@-30"),
                    ("dlg", "0.5@-30", "1.0@-30"),
                    ("tlg", "0.3@-81.3", "0.3@-30"))
# a config in ohms with its own bases that sets a key in every section
CONFIG = {
    "circuit": {"unit": "ohm", "v_base_kv": 20.0, "s_base_mva": 10.0,
                "ug_kv": 21.0, "theta_g_deg": 10.0, "f_hz": 60.0,
                "grid": {"r": 1.6, "x": 8.0}},
    "fault": {"type": "dlg", "zf_ohm": 0.4},
    "current": {"prefault": {"i_pos": "0.8@0"},
                "fault": {"i_pos": "0.5@-30", "i_neg": "0.3@90"}},
    "sync": {"mode": "dsogi_fll", "kp_fll": 40.0, "ki_fll": 6000.0},
    "scenario": {"t_end": 2.0, "init": "prefault"},
    "solver": {"step": 0.02},
}
# a choke no equation reads: checked, then ignored
CHOKE_CONFIG = {"circuit": {"choke": {"r": 0.5, "x": 5.0}},
                "fault": {"type": "dlg"}}
# configs with a string where a number goes, a branch without x, a phasor
# string that Python's float() would read, a negative choke resistance, and
# the curve-sample spacing of a solver that samples nothing
REJECTED = {
    "string step": {"solver": {"step": "0.01"}},
    "branch without x": {"circuit": {"grid": {"r": 0.04}}},
    "phasor 1_0@5": {"current": {"fault": {"i_pos": "1_0@5"}}},
    "choke r < 0": {"circuit": {"choke": {"r": -1, "x": 0}}},
    "grid_deg": {"solver": {"grid_deg": 2.0}},
}
# a closed-loop run that loses synchronism within its horizon
SIMULATE = ["simulate", "--fault", "dlg", "--iplus", "0.77@-30",
            "--iminus", "0.5@90", "--t-end", "1"]
# a run with no on-fault equilibrium to start from
SIMULATE_FOLD = ["simulate", "--fault", "ll", "--iminus", "0.92@-20",
                 "--t-end", "1"]
# a run with neither an on-fault nor a pre-fault equilibrium: a cold start
SIMULATE_COLD = ["simulate", "--fault", "dlg", "--iplus", "1.5@-30",
                 "--iminus", "0.5@90", "--t-end", "1", "--no-adaptive"]
COLD_CONFIG = {"current": {"prefault": {"i_pos": "3.0@0"}}}
# adaptive columns the runs above never reach: SLG with the PLLs, TLG
# cleared inside the horizon, DLG in FLL mode at the default 50 Hz
SIMULATE_COLUMNS = (
    ["simulate", "--fault", "slg", "--iplus", "0.5@-90", "--iminus",
     "0.36@90", "--t-end", "1"],
    ["simulate", "--fault", "tlg", "--iplus", "0.3@-81.3", "--t-on", "0.1",
     "--t-clear", "0.8", "--t-end", "1.2"],
    ["simulate", "--fault", "dlg", "--mode", "fll", "--iplus", "0.71@-30",
     "--iminus", "0.5@90", "--t-end", "1"],
)

# a lost run that spends most of its 3 s with the frequency scales clamped
SIMULATE_CLAMPED = ["simulate", "--fault", "dlg", "--iplus", "0.81@-30",
                    "--iminus", "0.5@90", "--t-end", "3"]
# gains so large that a stage's loop angle overflows to inf
HUGE_GAINS = ["simulate", "--fault", "dlg", "--iplus", "0.77@-30",
              "--iminus", "0.5@90", "--t-end", "0.05"]
HUGE_GAINS_CONFIG = {"sync": {"kp_pll": 1e300, "ki_pll": 1e305}}
# the plot file a case passes with --svg, relative to its checkout
SVG = "answer.svg"
# a polar region plot and a frequency trace plot
PLOTS = (["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "30",
          "--svg", SVG],
         SIMULATE + ["--svg", SVG])


def cases() -> list[tuple[str, list[str], bool, dict | None]]:
    """(name, CLI argv, whether the answer includes the file given by --out,
    the config or None)."""
    out = [(f"limit {f} {s} {a} other {o}",
            ["limit", "--fault", f, "--seq", s, "--angle", a, "--other", o],
            False, None)
           for f, s, a, o in LIMIT_ROWS]
    out += [(f"region {f} {s} step {step}",
             ["region", "--fault", f, "--seq", s, "--angle-step", step,
              *flags], True, None)
            for step in ("30", "5") for f, s, flags in REGION_SWEEPS]
    out += [(f"region {f} {s} step 30 {' '.join(flags)}".rstrip(),
             ["region", "--fault", f, "--seq", s, "--angle-step", "30",
              *flags], True, None)
            for f, s, flags in REGION_FALLBACKS]
    out += [(f"limit {f} {s} {a} {' '.join(flags)}".rstrip(),
             ["limit", "--fault", f, "--seq", s, "--angle", a, *flags], False,
             None)
            for f, s, a, flags in LIMIT_STARTS]
    out += [(" ".join(argv), argv, to_file, None)
            for argv, to_file in OTHER_STEPS]
    out += [(f"equilibrium ll iminus {a}@-20",
             ["equilibrium", "--fault", "ll", "--iminus", f"{a}@-20"], False, None)
            for a in FOLD_AMPS]
    out += [(f"equilibrium {f} iplus {a}",
             ["equilibrium", "--fault", f, "--iplus", a], False, None)
            for f, *amps in FAULT_EQUILIBRIA for a in amps]
    # its sweep crosses the stall above, in the scan that confirms a miss
    out.append(("region ll neg step 5",
                ["region", "--fault", "ll", "--seq", "neg", "--angle-step", "5"],
                True, None))
    out += [(" ".join(argv), argv, to_file, None)
            for argv, to_file in TRIANGULAR]
    out.append(("validate draws 100 seed 0",
                ["validate", "--draws", "100", "--seed", "0"], False, None))
    out.append(("simulate dlg iplus 0.77@-30 t_end 1", SIMULATE, True, None))
    out.append(("simulate ll iminus 0.92@-20 t_end 1", SIMULATE_FOLD, True,
                None))
    out.append(("simulate cold start", SIMULATE_COLD, True, COLD_CONFIG))
    out.append(("simulate cold start fll", SIMULATE_COLD + ["--mode", "fll"],
                True, COLD_CONFIG))
    out += [(" ".join(argv), argv, True, None) for argv in SIMULATE_COLUMNS]
    out.append(("simulate dlg iplus 0.81@-30 t_end 3", SIMULATE_CLAMPED,
                True, None))
    out.append(("simulate huge gains", HUGE_GAINS, True, HUGE_GAINS_CONFIG))
    out += [(f"config {argv[0]}", argv, False, CONFIG) for argv in (
        ["coeffs", "--json"], ["equilibrium"],
        ["limit", "--seq", "pos", "--angle", "-30", "--other", "0.3@90"])]
    out.append(("config simulate", ["simulate"], True, CONFIG))
    out.append(("config choke coeffs", ["coeffs", "--json"], False,
                CHOKE_CONFIG))
    out += [(f"rejected config: {name}", ["coeffs", "--fault", "dlg"], False,
             config) for name, config in REJECTED.items()]
    out += [(f"plot {' '.join(argv[:-2])}", argv, True, None)
            for argv in PLOTS]
    return out


def answer(checkout: Path, argv: list[str], to_file: bool,
           config: dict | None) -> bytes:
    """The exit code and what one CLI run printed, then what it wrote to
    --out and to --svg."""
    out = checkout / "answer.out"
    cmd = [sys.executable, "-m", "ibgsync.cli"]
    if config is not None:
        path = checkout / "answer-config.json"
        path.write_text(json.dumps(config))
        cmd += ["--config", str(path)]
    cmd += argv
    if to_file:
        # relative, so a printed path reads the same in both checkouts
        cmd += ["--out", out.name]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True)
    body = proc.stdout
    for path in (out, checkout / SVG):
        if path.exists():
            body += path.read_bytes()
            path.unlink()
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
        for name, cli_argv, to_file, config in todo:
            got = {s: answer(checkouts[s], cli_argv, to_file, config)
                   for s in SIDES}
            same = got["parent"] == got["change"]
            differ += not same
            print(f"{'same' if same else 'DIFFERS'}: {name}", flush=True)
    print(f"{len(todo) - differ} of {len(todo)} outputs byte-identical "
          f"({commits['parent'][:7]} -> {commits['change'][:7]})")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
