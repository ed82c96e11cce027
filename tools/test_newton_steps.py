"""Smoke test of newton_steps.py on the reference limits."""

import json

from ibgsync import equilibrium, kernels

import newton_steps


def test_histogram_accounts_for_every_call(capsys):
    newton, scan = kernels.newton_pair, kernels.scan_roots
    cap = equilibrium.NEWTON_MAXIT
    assert newton_steps.main(["--cap", "12"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cap"] == 12
    for part in ("candidate_polishes", "warm_starts"):
        s = out[part]
        hist = {int(k): n for k, n in s["converged_after"].items()}
        assert s["calls"] > 0
        assert sum(hist.values()) + s["missed"] == s["calls"]
        assert max(hist) <= 12
        assert s["newton_steps"] == sum(k * n for k, n in hist.items()) + 12 * s["missed"]
    # the sextic's candidates lie on or near a root: on these rows every
    # polish converges, some with no step at all
    polishes = out["candidate_polishes"]
    assert polishes["missed"] == 0 and polishes["converged_after"]["0"] > 0
    # the kernels and the cap are restored
    assert kernels.newton_pair is newton and kernels.scan_roots is scan
    assert equilibrium.NEWTON_MAXIT == cap
