"""The benchmark's checks accept sound outputs and reject perturbed ones."""

import cmath
import math

import checks

# DLG coupling pair of the reference circuit, rounded; any pair will do
K = 0.2496 + 0.0121j
Z = 0.0942 + 0.3863j
UG = 120.0 / 110.0


def test_limit_within_tolerance_and_binding_passes():
    assert checks.check_limit(0.76, "type1", 0.77, "type1") == []


def test_limit_off_by_005_is_rejected():
    assert checks.check_limit(0.76, "type1", 0.81, "type1")


def test_limit_with_wrong_binding_is_rejected():
    assert checks.check_limit(0.76, "type1", 0.76, "type2")


def test_limit_nan_is_rejected():
    assert checks.check_limit(0.76, "type1", math.nan, "type1")


def _shrinking_and_growing_angles():
    """Injection angles on the shrinking (cos phi < 0) and growing side."""
    za = cmath.phase(Z)
    return math.pi - za, 0.3 - za


def test_closed_form_sides():
    shrink, grow = _shrinking_and_growing_angles()
    circle = abs(K) * UG / abs(Z)
    assert checks.closed_form_limit(K, Z, UG, shrink) == circle
    assert math.isclose(checks.closed_form_limit(K, Z, UG, grow),
                        circle / math.sin(0.3))


def test_region_sample_near_closed_form_passes():
    shrink, _ = _shrinking_and_growing_angles()
    closed = checks.closed_form_limit(K, Z, UG, shrink)
    assert checks.check_region_sample(K, Z, UG, shrink, 3.0, closed + 0.01, "type2") == []


def test_region_sample_off_closed_form_is_rejected():
    shrink, _ = _shrinking_and_growing_angles()
    closed = checks.closed_form_limit(K, Z, UG, shrink)
    assert checks.check_region_sample(K, Z, UG, shrink, 3.0, closed + 0.02, "type2")


def test_region_sample_past_ceiling_must_say_ceiling():
    aligned = -cmath.phase(Z)  # phi = 0: the fold limit is unbounded
    assert checks.check_region_sample(K, Z, UG, aligned, 3.0, 3.0, "ceiling") == []
    assert checks.check_region_sample(K, Z, UG, aligned, 3.0, 3.0, "type1")


def test_region_angles():
    step = math.radians(50.0)
    thetas = [-math.pi + i * step for i in range(8)]
    assert checks.check_region_angles(thetas, step) == []
    assert checks.check_region_angles(thetas[:-1], step)
    assert checks.check_region_angles([t + 1e-3 for t in thetas], step)


def _single_sequence_root():
    """With no current injected each loop locks onto its grid term:
    delta+ = arg K1 and delta- = arg K4."""
    coeffs = (K, Z, 0j, K, Z, 0j)
    ref = (0.0, 0.0, 0.0, 0.0)
    return coeffs, ref, cmath.phase(K), cmath.phase(K)


def test_q_residuals_vanish_at_a_root_only():
    coeffs, ref, dp, dn = _single_sequence_root()
    assert max(map(abs, checks.q_residuals(coeffs, UG, ref, dp, dn))) < 1e-15
    assert max(map(abs, checks.q_residuals(coeffs, UG, ref, dp + 1e-3, dn))) > 1e-5


STABLE = {"lost": False, "t_los": None, "dominant": "stable", "signature": None,
          "diverged": False}
ROOT = {"delta_pos": 0.1, "delta_neg": 6.2, "ud_pos": 0.9, "ud_neg": 0.3}


def test_settled_run_passes_even_across_the_angle_wrap():
    final = dict(ROOT, delta_neg=6.2 - 2.0 * math.pi + 1e-4)
    assert checks.check_stable_run(STABLE, final, ROOT, (1e-12, 0.0)) == []


def test_stable_run_reported_lost_is_rejected():
    lost = dict(STABLE, lost=True, dominant="pos_type1", signature="drift")
    assert checks.check_stable_run(lost, ROOT, ROOT, (0.0, 0.0))


def test_stable_run_reported_diverged_is_rejected():
    assert checks.check_stable_run(dict(STABLE, diverged=True), ROOT, ROOT, (0.0, 0.0))


def test_stable_run_off_the_root_is_rejected():
    assert checks.check_stable_run(STABLE, dict(ROOT, delta_pos=0.102), ROOT, (0.0, 0.0))
    assert checks.check_stable_run(STABLE, dict(ROOT, ud_neg=0.302), ROOT, (0.0, 0.0))


def test_stable_run_on_an_inexact_root_is_rejected():
    assert checks.check_stable_run(STABLE, ROOT, ROOT, (0.0, 1e-6))


def test_stable_run_without_a_root_is_rejected():
    assert checks.check_stable_run(STABLE, ROOT, None, None)


LOST = {"lost": True, "t_los": 0.5, "dominant": "neg_type2", "signature": "chatter",
        "diverged": False}


def test_lost_run_as_published_passes():
    assert checks.check_lost_run(LOST, "neg", "type2") == []


def test_lost_run_reported_stable_is_rejected():
    assert checks.check_lost_run(STABLE, "neg", "type2")


def test_lost_run_with_wrong_sequence_or_signature_is_rejected():
    assert checks.check_lost_run(dict(LOST, dominant="pos_type2"), "neg", "type2")
    assert checks.check_lost_run(dict(LOST, signature="drift"), "neg", "type2")


def _write_trace(path, rows, header=",".join(checks.TRACE_HEADER)):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(rows):
            fh.write(",".join([f"{i * 1e-3:.12g}"] + ["50.0"] * 10) + "\n")


def test_trace_csv_whole_passes(tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace(path, 3001)
    assert checks.check_trace_csv(path, 3.0, 1e-3) == []


def test_truncated_trace_csv_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace(path, 3000)
    assert checks.check_trace_csv(path, 3.0, 1e-3)


def test_trace_csv_with_wrong_header_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace(path, 3001, header="t,f_pos_hz")
    assert checks.check_trace_csv(path, 3.0, 1e-3)


def test_trace_csv_with_non_finite_value_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    _write_trace(path, 3001)
    text = path.read_text().replace("50.0", "nan", 1)
    path.write_text(text)
    assert checks.check_trace_csv(path, 3.0, 1e-3)
