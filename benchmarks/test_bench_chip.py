"""Bench: allocation policies on the dual-core chip, at full scale.

Runs the ``chip`` experiment (every mix x every policy on the 2-core
chip) and asserts its headline claims:

- at least one adaptive placement policy (``symbiosis`` or
  ``priority_aware``) beats the static ``round_robin`` baseline on
  total chip throughput on at least one mix;
- transparent background consolidation shields the foreground jobs:
  their mean slowdown under the ``background`` policy is below what
  round_robin imposes on them;
- no run hit the cycle cap (the numbers compare completed workloads).

The headline numbers are recorded under ``"chip"`` in
``BENCH_simcore.json``.
"""

from __future__ import annotations

from repro.experiments import run_chip


def test_bench_chip(benchmark, ctx, save_report, record):
    report = benchmark.pedantic(lambda: run_chip(ctx),
                                rounds=1, iterations=1)
    save_report(report)
    data = report.data

    # Every policy completed every mix within budget.
    for mix_data in data["mixes"].values():
        for stats in mix_data["policies"].values():
            assert not stats["capped"]
            assert stats["throughput"] > 0

    # Adaptive placement wins somewhere, and the shield claim holds.
    beats = data["claims"]["adaptive_beats_round_robin"]
    assert beats, "no adaptive policy beat round_robin on any mix"
    assert all(b["gain"] > 0 for b in beats)
    shields = data["claims"]["background_foreground_shield"]
    assert any(s["shields"] for s in shields)

    record("chip", {
        "n_cores": data["n_cores"],
        "quota": data["quota"],
        "throughput": {
            mix: {pol: round(stats["throughput"], 4)
                  for pol, stats in mix_data["policies"].items()}
            for mix, mix_data in data["mixes"].items()},
        "best_gain_vs_round_robin": round(
            max(b["gain"] for b in beats), 4),
        "claims": {
            "adaptive_beats_round_robin": [
                {"mix": b["mix"], "policy": b["policy"],
                 "gain": round(b["gain"], 4)} for b in beats],
            "background_foreground_shield": [
                {"mix": s["mix"], "shields": s["shields"]}
                for s in shields],
        },
    })
