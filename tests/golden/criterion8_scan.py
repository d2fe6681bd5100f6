"""What acceptance criterion 8 can resolve: its vary-N sweep over many seeds.

Criterion 8 (``tests/test_acceptance.py``) asks that fedx2's held-out
pAUC@0.3 at N=16 be at least the one at N=1 on 2 of seeds 1-3. This script
runs the same config, ``CRITERION_8_CONFIG`` with data and hyper seed s,
through ``harness.sweep(cfg, "N", [1, 4, 16], ...)`` for every seed of a
range, and prints:

* each seed's pAUC@0.3 at N = 1, 4 and 16;
* the mean, sd and standard error of the N=16-N=1 and N=4-N=1 gaps;
* how many seeds N=16 wins (pAUC@0.3 at N=16 >= at N=1);
* how many disjoint seed triples (s, s+1, s+2 from the first seed on) pass
  the criterion's 2-of-3 vote.

Run from the repository root against the ``src/`` to be measured:

    PYTHONPATH=src python tests/golden/criterion8_scan.py --seeds 1-40

pytest does not collect this file. One seed takes about 2 s.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # tests/
from test_acceptance import CRITERION_8_CONFIG  # noqa: E402

from fedcpr.harness import parse_config, sweep  # noqa: E402

NS = (1, 4, 16)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def scan(seeds: list[int], out_dir: Path) -> dict[int, dict[int, float]]:
    """seed -> {N: final pAUC@0.3}, printing each seed's row as it ends."""
    print("seed " + " ".join(f"{f'N={n}':>8}" for n in NS), flush=True)
    by_seed = {}
    for seed in seeds:
        cfg = parse_config(CRITERION_8_CONFIG + f"data.seed = {seed}\nhyper.seed = {seed}\n")
        rows = sweep(cfg, "N", list(NS), out_dir / f"seed{seed}")
        by_seed[seed] = {row["value"]: row["final_pauc_0.3"] for row in rows}
        print(f"{seed:4d} " + " ".join(f"{by_seed[seed][n]:8.4f}" for n in NS), flush=True)
    return by_seed


def summarize(by_seed: dict[int, dict[int, float]]) -> None:
    seeds = list(by_seed)
    for n in NS[1:]:
        gaps = [by_seed[s][n] - by_seed[s][1] for s in seeds]
        sd = statistics.stdev(gaps) if len(gaps) > 1 else float("nan")
        print(f"N={n} - N=1 gap: mean {statistics.fmean(gaps):+.4f}, sd {sd:.4f}, "
              f"se {sd / len(gaps) ** 0.5:.4f} over {len(gaps)} seeds")
    wins = [by_seed[s][16] >= by_seed[s][1] for s in seeds]
    print(f"N=16 wins: {sum(wins)} of {len(wins)}")
    triples = [wins[i:i + 3] for i in range(0, len(wins) - 2, 3)]
    passed = sum(sum(t) >= 2 for t in triples)
    print(f"disjoint seed triples passing the 2-of-3 vote: {passed} of {len(triples)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="inclusive seed range, e.g. 1-40 (default)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        summarize(scan(args.seeds, Path(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
