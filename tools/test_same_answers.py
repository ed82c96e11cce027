"""Smoke tests of same_answers.py with its runner stubbed."""

import json
import subprocess

import pytest

import same_answers
from ibgsync.config import ConfigError, parse_config

# what parse_config says of each rejected config, by case name
REJECTED_FOR = {
    "string step": "config.solver.step must be a number",
    "branch without x": "config.circuit.grid: missing key 'x'",
    "phasor 1_0@5": "bad phasor '1_0@5'",
    "choke r < 0": "config.circuit.choke: branch impedance must be",
    "grid_deg": "config.solver: unknown key 'grid_deg'",
}


def _stub(monkeypatch, differing=()):
    """Both sides answer the same bytes, except the cases named."""
    monkeypatch.setattr(same_answers, "git", lambda *args: args[-1] * 7)
    monkeypatch.setattr(same_answers, "unpack", lambda commit, dest: dest)

    def answer(checkout, argv, to_file, config):
        name = " ".join(argv)
        side = checkout.name if name in differing else "either"
        return f"exit 0\n{name} {side} {to_file} {config}".encode()
    monkeypatch.setattr(same_answers, "answer", answer)


def test_cases_cover_the_reference_outputs():
    names = [name for name, _, _, _ in same_answers.cases()]
    assert len(names) == 12 + 4 + 2 + 2 + 2 + 3 + 6 + 1 + 4 + 1 + 9 + 5 + 5 + 2
    assert len(set(names)) == len(names)
    to_file = [argv for _, argv, to_file, _ in same_answers.cases() if to_file]
    assert [argv[0] for argv in to_file].count("simulate") == 11
    regions = [argv for argv in to_file if argv[0] != "simulate"]
    assert all(argv[0] == "region" for argv in regions)
    assert sorted(argv[argv.index("--angle-step") + 1] for argv in regions) \
        == ["0.5", "1", "30", "30", "30", "30", "30", "30", "5", "5", "5"]


def test_cases_cover_the_plots():
    """A region plot and a trace plot, each also writing its CSV."""
    plots = [(argv, to_file, config)
             for _, argv, to_file, config in same_answers.cases()
             if "--svg" in argv]
    assert plots == [(argv, True, None) for argv in same_answers.PLOTS]
    region, simulate = same_answers.PLOTS
    assert region[:2] == ["region", "--fault"]
    assert simulate == same_answers.SIMULATE + ["--svg", same_answers.SVG]


def test_cases_cover_the_cold_starts():
    """A cold start with the PLLs and one in FLL mode, whose empty filter
    states take the FLL angle rates' zero-magnitude branch."""
    cases = [(argv, config) for _, argv, _, config in same_answers.cases()]
    cold = same_answers.SIMULATE_COLD
    assert (cold, same_answers.COLD_CONFIG) in cases
    assert (cold + ["--mode", "fll"], same_answers.COLD_CONFIG) in cases


def test_cases_cover_the_fold():
    """The LL rows around the fold, the region sweep that crosses it and the
    run started just past it."""
    argvs = [argv for _, argv, _, _ in same_answers.cases()]
    for amp in ("0.91", "0.92", "0.93"):
        assert ["equilibrium", "--fault", "ll", "--iminus", f"{amp}@-20"] in argvs
    assert ["region", "--fault", "ll", "--seq", "neg", "--angle-step", "5"] in argvs
    assert same_answers.SIMULATE_FOLD in argvs


def test_cases_cover_the_region_fallbacks():
    """The sweeps whose angles fall back to the scan: every first warm start
    misses (TLG), and no zero-current root (DLG with 1.0@90 held)."""
    argvs = [argv for _, argv, _, _ in same_answers.cases()]
    assert ["region", "--fault", "tlg", "--seq", "pos", "--angle-step",
            "30"] in argvs
    assert ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "30",
            "--other", "1.0@90"] in argvs


def test_cases_cover_the_closed_loop_starts():
    """simulate from an on-fault root, from the pre-fault root (past the
    fold, and under the FLL config at 60 Hz) and from a cold start, where
    the config's pre-fault current has no root either."""
    runs = [(argv, config) for _, argv, to_file, config in same_answers.cases()
            if to_file and argv[0] == "simulate"]
    assert (same_answers.SIMULATE, None) in runs
    assert (same_answers.SIMULATE_FOLD, None) in runs
    assert (["simulate"], same_answers.CONFIG) in runs
    assert (same_answers.SIMULATE_COLD, same_answers.COLD_CONFIG) in runs
    assert same_answers.CONFIG["sync"]["mode"] == "dsogi_fll"
    assert same_answers.CONFIG["scenario"]["init"] == "prefault"


def test_cases_cover_the_adaptive_columns():
    """simulate under SLG with the PLLs, under TLG with a fault that clears
    inside the horizon, and under DLG in FLL mode, each with adaptive
    impedances (the default) and no config."""
    runs = [(argv, config) for _, argv, to_file, config in same_answers.cases()
            if to_file and argv[0] == "simulate"]
    for argv in same_answers.SIMULATE_COLUMNS:
        assert (argv, None) in runs
        assert "--no-adaptive" not in argv
    slg, tlg, fll = same_answers.SIMULATE_COLUMNS
    assert slg[slg.index("--fault") + 1] == "slg" and "--mode" not in slg
    assert tlg[tlg.index("--fault") + 1] == "tlg"
    assert (float(tlg[tlg.index("--t-clear") + 1])
            < float(tlg[tlg.index("--t-end") + 1]))
    assert fll[fll.index("--fault") + 1] == "dlg"
    assert fll[fll.index("--mode") + 1] == "fll"


def test_cases_cover_the_clamps_and_infinite_angles():
    """A 3 s lost run whose frequency scales end at the clamps, and a run
    whose huge PLL gains drive a stage's loop angle to inf."""
    runs = [(argv, config) for _, argv, to_file, config in same_answers.cases()
            if to_file and argv[0] == "simulate"]
    assert (same_answers.SIMULATE_CLAMPED, None) in runs
    assert (same_answers.HUGE_GAINS, same_answers.HUGE_GAINS_CONFIG) in runs
    assert same_answers.HUGE_GAINS_CONFIG["sync"] == {"kp_pll": 1e300,
                                                      "ki_pll": 1e305}


def test_cases_cover_the_limit_starts():
    """A TLG limit warm-started in closed form from the zero-current root,
    and a DLG limit with no zero-current root."""
    argvs = [argv for _, argv, _, _ in same_answers.cases()]
    assert ["limit", "--fault", "tlg", "--seq", "pos", "--angle",
            "-81.3"] in argvs
    assert ["limit", "--fault", "dlg", "--seq", "pos", "--angle", "-30",
            "--other", "1.0@90"] in argvs


def test_cases_cover_the_triangular_solves():
    """A limit, an equilibrium, a 1 deg region sweep and a 0.5 deg one on
    a 0.001 p.u. grid with one current at zero, which the solver takes in
    closed form."""
    argvs = [argv for _, argv, _, _ in same_answers.cases()]
    assert ["limit", "--fault", "slg", "--seq", "neg", "--angle",
            "90"] in argvs
    assert ["equilibrium", "--fault", "dlg", "--iminus", "0.5@90"] in argvs
    assert ["region", "--fault", "ll", "--seq", "pos", "--angle-step",
            "1"] in argvs
    assert ["region", "--fault", "slg", "--seq", "neg", "--angle-step",
            "0.5", "--step", "0.001"] in argvs


def test_cases_cover_other_amplitude_steps():
    """A region on a finer amplitude grid and a limit on a coarser one than
    the default 0.01 p.u."""
    argvs = [argv for _, argv, _, _ in same_answers.cases()]
    assert ["region", "--fault", "dlg", "--seq", "pos", "--angle-step", "30",
            "--step", "0.002"] in argvs
    assert ["limit", "--fault", "ll", "--seq", "neg", "--angle", "-30",
            "--other", "0.5@-90", "--step", "0.05"] in argvs


def test_same_answers_exit_0(monkeypatch, capsys):
    _stub(monkeypatch)
    assert same_answers.main(["--parent", "a", "--change", "b"]) == 0
    out = capsys.readouterr().out
    assert "DIFFERS" not in out
    assert "58 of 58 outputs byte-identical" in out


def test_one_difference_exits_1(monkeypatch, capsys):
    _stub(monkeypatch, differing={"validate --draws 100 --seed 0"})
    assert same_answers.main(["--parent", "a", "--change", "b"]) == 1
    out = capsys.readouterr().out
    assert "DIFFERS: validate draws 100 seed 0" in out
    assert out.count("DIFFERS") == 1
    assert "57 of 58 outputs byte-identical" in out


def test_config_cases_set_every_section():
    configs = [c for _, _, _, c in same_answers.cases() if c is not None]
    assert len(configs) == 13
    assert set(same_answers.CONFIG) == {
        "circuit", "fault", "current", "sync", "scenario", "solver"}
    assert configs.count(same_answers.CONFIG) == 4

    # one sets circuit.choke, one gives it a negative resistance
    assert sorted(c["circuit"]["choke"]["r"] for c in configs
                  if "choke" in c.get("circuit", {})) == [-1, 0.5]


@pytest.mark.parametrize("name", sorted(same_answers.REJECTED))
def test_rejected_config_fails_as_named(name):
    """Each rejected config fails for the reason its name gives, so no case
    can pass as an unknown key instead."""
    with pytest.raises(ConfigError) as exc:
        parse_config(same_answers.REJECTED[name])
    assert REJECTED_FOR[name] in str(exc.value)


def test_config_is_written_into_the_checkout(tmp_path, monkeypatch):
    """Each side reads the config from its own checkout."""
    seen = []

    def run(cmd, **kwargs):
        seen.append(cmd)
        return subprocess.CompletedProcess(cmd, 1, b"", b"")
    monkeypatch.setattr(same_answers.subprocess, "run", run)
    got = same_answers.answer(tmp_path, ["coeffs", "--fault", "dlg"], False,
                              {"extra": 1})
    assert got == b"exit 1\n"
    path = tmp_path / "answer-config.json"
    assert json.loads(path.read_text()) == {"extra": 1}
    assert seen[0][-5:] == ["--config", str(path), "coeffs", "--fault", "dlg"]


def test_answer_is_output_then_file(tmp_path, monkeypatch):
    """A case that writes --out answers with what it printed, then the
    file, which is removed so no later case reads it."""
    def run(cmd, **kwargs):
        assert cmd[-2:] == ["--out", "answer.out"]
        (kwargs["cwd"] / "answer.out").write_bytes(b"t,f\n0,50\n")
        return subprocess.CompletedProcess(cmd, 0, b'{"lost": false}\n', b"")
    monkeypatch.setattr(same_answers.subprocess, "run", run)
    got = same_answers.answer(tmp_path, same_answers.SIMULATE, True, None)
    assert got == b'exit 0\n{"lost": false}\nt,f\n0,50\n'
    assert not (tmp_path / "answer.out").exists()


def test_answer_ends_with_the_plot(tmp_path, monkeypatch):
    """A plot case answers with what it printed, the --out file, then the
    --svg file, and both files are removed."""
    def run(cmd, **kwargs):
        assert cmd[-4:] == ["--svg", "answer.svg", "--out", "answer.out"]
        (kwargs["cwd"] / "answer.out").write_bytes(b"t,f\n")
        (kwargs["cwd"] / "answer.svg").write_bytes(b"<svg/>\n")
        return subprocess.CompletedProcess(cmd, 0, b"wrote\n", b"")
    monkeypatch.setattr(same_answers.subprocess, "run", run)
    got = same_answers.answer(tmp_path, same_answers.PLOTS[0], True, None)
    assert got == b"exit 0\nwrote\nt,f\n<svg/>\n"
    assert not (tmp_path / "answer.out").exists()
    assert not (tmp_path / "answer.svg").exists()
