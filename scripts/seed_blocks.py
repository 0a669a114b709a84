#!/usr/bin/env python3
"""Checks 5 and 6's figures on disjoint blocks of seeds.

    python3 scripts/seed_blocks.py [TREE]

Runs `harness.run_regime` on low_data and high_noise for each block of
BLOCKS (seeds 0-19, 20-39, ..., 80-99), against the package under TREE's
`src/` (default: the checkout this script sits in), and prints one row per
block:
- low_data: fuzzy-MAP's paired win rate on transition L1 over plain EM and
  the median relative L1 improvement;
- high_noise: the median `kl_critical` of fuzzy-MAP against plain EM, with
  fuzzy-MAP's paired win rate on it, and each fitter's median L1;
- the block's check 5 and check 6 verdicts (P or F), by the criteria of
  `tests/test_acceptance.py`: check 5 wants no failed fit, a win rate of at
  least 70% and a median improvement of at least 20%, without its 120 s
  gate on the run time; check 6 wants no failed fit, fuzzy-MAP's median
  `kl_critical` no higher than plain EM's, and its median L1 within 5%.

The acceptance checks themselves judge seeds 0-19 only; the other blocks
show how far their verdicts hold on other seeds. A block takes about 10 s
of CPU.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

BLOCKS = tuple(range(start, start + 20) for start in range(0, 100, 20))
HEADER = ("| seeds | low-data L1 wins / median improvement "
          "| high-noise median `kl_critical`, fm vs em (fm wins) "
          "| high-noise median L1, fm vs em | check 5 | check 6 |\n"
          "|---|---|---|---|---|---|")


def block_rows(blocks: Sequence[Sequence[int]]) -> list[dict]:
    """One row of figures and verdicts per block of seeds, from the
    fuzzy_pomdp package on sys.path."""
    from fuzzy_pomdp.harness import regime_config, run_regime

    rows = []
    for seeds in blocks:
        seeds = list(seeds)
        low = run_regime(regime_config("low_data", seeds))
        high = run_regime(regime_config("high_noise", seeds))
        fm, em = (high["per_algorithm"][alg] for alg in ("fuzzy_map", "em"))
        row = {
            "seeds": f"{seeds[0]}-{seeds[-1]}",
            "low_l1_win": low["win_rates"]["l1_avg"],
            "low_l1_improvement": low["median_relative_improvement_l1"],
            "high_kl": (fm["median_kl_critical"], em["median_kl_critical"]),
            "high_kl_win": high["win_rates"]["kl_critical"],
            "high_l1": (fm["median_l1_avg"], em["median_l1_avg"]),
            "failures": (low["num_failures"], high["num_failures"]),
        }
        row["check_5"] = (low["num_failures"] == 0 and row["low_l1_win"] >= 0.70
                          and row["low_l1_improvement"] >= 0.20)
        row["check_6"] = (high["num_failures"] == 0
                          and fm["median_kl_critical"] <= em["median_kl_critical"]
                          and fm["median_l1_avg"] <= 1.05 * em["median_l1_avg"])
        rows.append(row)
    return rows


def format_table(rows: list[dict]) -> str:
    """The rows as a markdown table; a block with failed fits names their
    count (low-data, high-noise) next to its verdicts."""
    lines = [HEADER]
    for row in rows:
        failed = "" if row["failures"] == (0, 0) else " ({}, {} failed)".format(*row["failures"])
        (kl_fm, kl_em), (l1_fm, l1_em) = row["high_kl"], row["high_l1"]
        lines.append(
            f"| {row['seeds']} | {row['low_l1_win']:.0%} / {row['low_l1_improvement']:.1%} "
            f"| {kl_fm:.3f} vs {kl_em:.3f} ({row['high_kl_win']:.0%}) "
            f"| {l1_fm:.3f} vs {l1_em:.3f} "
            f"| {'PF'[not row['check_5']]}{failed} | {'PF'[not row['check_6']]}{failed} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    print(format_table(block_rows(BLOCKS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
