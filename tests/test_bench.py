"""Smoke test of the kernel-flavor timing script."""

from ibgsync import bench


def test_bench_runs(capsys):
    assert bench.main(["--repeat", "1", "--grid", "16"]) == 0
    out = capsys.readouterr().out
    assert "active kernel flavor" in out
    assert "closed-loop run" in out
