"""Reproduce the bisimulation-engine trend experiments at desk scale.

    python scripts/run_experiments.py [--latency MS] [--quick]

Prints four tables: query time against engine head start on the chains
scenario, the approximation effect on the self-contained scenario, the
zero-head-start crossover on the three-file scenario, and the cost of lazy
`bisimilar` alone on straight chains of n names per side (5 files per side,
no fetch latency): wall time, document fetches, and the decided pairs of the
client's names (n on a straight chain: one question per level), beside the
time a background engine takes to complete on the same chains.
"""

import argparse
import sys
import time

from hypersetdb.engine import BisimulationEngine
from hypersetdb.experiments import (
    Scenario, build_chains, build_self_contained, build_three_file, run_experiment,
)
from hypersetdb.store import MemoryFetcher


def engine_ms(scenario: Scenario) -> float:
    """Wall time of a background engine over all the scenario's roots, from
    start to complete, with no fetch latency."""
    engine = BisimulationEngine(scenario.roots, MemoryFetcher(scenario.documents))
    started = time.perf_counter()
    engine.start()
    engine.join()
    return (time.perf_counter() - started) * 1000.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--latency", type=float, default=25.0,
                        help="simulated per-document fetch latency [ms]")
    parser.add_argument("--quick", action="store_true",
                        help="smaller scenarios and fewer head-start steps")
    options = parser.parse_args()
    latency = options.latency

    if options.quick:
        chains = build_chains(files=4, names=15)
        delays = [0, 250, 500, 750]
        self_contained = build_self_contained(names=10)
        three = build_three_file(names=21)
        chain_sizes = [10, 20, 40]
    else:
        chains = build_chains(files=10, names=51)
        delays = [0, 500, 1000, 1500, 2000]
        self_contained = build_self_contained(names=25)
        three = build_three_file(names=61)
        chain_sizes = [50, 100, 200]

    print("chains scenario: query time against engine head start d")
    print("  %8s  %12s" % ("d [ms]", "t(d) [ms]"))
    for delay in delays:
        m = run_experiment(chains, "engine", delay_ms=delay,
                           fetch_latency_ms=latency)
        print("  %8d  %12.0f" % (delay, m.wall_ms))

    print("\nself-contained scenario: exploiting approximation files")
    with_approx = run_experiment(self_contained, "engine_with_approx",
                                 delay_ms=0, fetch_latency_ms=latency)
    without = run_experiment(self_contained, "no_engine",
                             fetch_latency_ms=latency)
    print("  engine+approximations: %d document fetches, "
          "%d productive derivation rounds"
          % (with_approx.engine_fetches, with_approx.engine_productive_rounds))
    print("  no engine: %d pairs of names decided in %.0f ms"
          % (without.questions_resolved, without.wall_ms))

    print("\nthree-file scenario: crossover at zero head start")
    local = run_experiment(three, "no_engine", fetch_latency_ms=latency)
    engine = run_experiment(three, "engine", delay_ms=0,
                            fetch_latency_ms=latency)
    print("  without engine: %8.0f ms" % local.wall_ms)
    print("  engine, d=0:    %8.0f ms   (no head start: the engine starts "
          "on the first ASK)" % engine.wall_ms)

    print("\nlazy bisimilar on straight chains, 5 files per side, no latency")
    print("  %6s  %10s  %8s  %10s  %12s"
          % ("n", "wall [ms]", "fetches", "decided", "engine [ms]"))
    for n in chain_sizes:
        scenario = build_chains(files=5, names=n)
        m = run_experiment(scenario, "no_engine", fetch_latency_ms=0)
        print("  %6d  %10.0f  %8d  %10d  %12.1f"
              % (n, m.wall_ms, m.client_fetches, m.questions_resolved,
                 engine_ms(scenario)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
