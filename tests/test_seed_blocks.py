"""scripts/seed_blocks.py: checks 5 and 6's figures per block of seeds."""
import importlib.util
from pathlib import Path

from fuzzy_pomdp.harness import regime_config, run_regime

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location(
        "seed_blocks", ROOT / "scripts" / "seed_blocks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_block_gets_its_regimes_figures_and_verdicts():
    script = _script()
    assert [list(block) for block in script.BLOCKS] == [
        list(range(start, start + 20)) for start in (0, 20, 40, 60, 80)]
    rows = script.block_rows([range(0, 2), range(2, 4)])
    assert [row["seeds"] for row in rows] == ["0-1", "2-3"]
    for row, seeds in zip(rows, ([0, 1], [2, 3])):
        low = run_regime(regime_config("low_data", seeds))
        high = run_regime(regime_config("high_noise", seeds))
        assert row["low_l1_win"] == low["win_rates"]["l1_avg"]
        assert row["low_l1_improvement"] == low["median_relative_improvement_l1"]
        fm, em = high["per_algorithm"]["fuzzy_map"], high["per_algorithm"]["em"]
        assert row["high_kl"] == (fm["median_kl_critical"], em["median_kl_critical"])
        assert row["high_kl_win"] == high["win_rates"]["kl_critical"]
        assert row["high_l1"] == (fm["median_l1_avg"], em["median_l1_avg"])
        assert row["failures"] == (low["num_failures"], high["num_failures"])
        assert row["check_5"] == (row["failures"][0] == 0 and row["low_l1_win"] >= 0.7
                                  and row["low_l1_improvement"] >= 0.2)
        assert row["check_6"] == (row["failures"][1] == 0
                                  and row["high_kl"][0] <= row["high_kl"][1]
                                  and row["high_l1"][0] <= 1.05 * row["high_l1"][1])
    table = script.format_table(rows).splitlines()
    assert table[:2] == script.HEADER.splitlines()
    assert [line.split(" | ")[0] for line in table[2:]] == ["| 0-1", "| 2-3"]
    assert all(line.endswith(" |") and line.count(" | ") == 5 for line in table[2:])

