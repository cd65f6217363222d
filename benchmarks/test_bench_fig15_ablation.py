"""Benchmark: regenerate Figure 15 (ablation of the three optimizations)."""

from repro.experiments import fig15_ablation
from repro.experiments.harness import format_tables


def test_fig15(run_experiment, capsys):
    tables = run_experiment(fig15_ablation)
    with capsys.disabled():
        print("\n" + format_tables(tables))
    rows = tables[0].to_dicts()
    for seq_len in sorted({r["seq_len"] for r in rows}):
        point = {
            r["config"]: r["normalized"] for r in rows if r["seq_len"] == seq_len
        }
        assert point["ANS"] > 1.0  # ANS alone already beats FLEX(SSD)
        assert point["ANS+WB"] > point["ANS"]
        assert point["ANS+X"] > point["ANS"]
        assert point["ANS+WB+X"] >= max(point["ANS+WB"], point["ANS+X"]) * 0.99
