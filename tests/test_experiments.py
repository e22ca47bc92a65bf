"""Small-scale experiment harness checks; the full-scale trend measurements
live in the acceptance suite."""

import itertools

import pytest

from hypersetdb.bisim import naive_bisimulation
from hypersetdb.experiments import (
    build_chains, build_self_contained, build_three_file, run_experiment,
)
from hypersetdb.names import EquationSystem, SetName
from hypersetdb.xmlwdb import load_equations


def closed_union(scenario) -> EquationSystem:
    system = EquationSystem()
    for url, text in scenario.documents.items():
        if url.endswith(".approximation.xml"):
            continue
        system.merge(load_equations(text, url))
    return system


def test_chain_scenario_shape():
    scenario = build_chains(files=4, names=11)
    system = closed_union(scenario)
    assert len(system.equations) == 22
    blocks = naive_bisimulation(system)
    x, y = scenario.question
    assert blocks[x] == blocks[y]
    # corresponding names equal, shifted ones distinct
    urls = sorted({n.url for n in system.equations})
    for i in (1, 5, 11):
        a = next(n for n in system.equations if n.simple == "x%d" % i
                 and "wdbA" in n.url)
        b = next(n for n in system.equations if n.simple == "x%d" % i
                 and "wdbB" in n.url)
        assert blocks[a] == blocks[b]
    a1 = next(n for n in system.equations if n.simple == "x1" and "wdbA" in n.url)
    b2 = next(n for n in system.equations if n.simple == "x2" and "wdbB" in n.url)
    assert blocks[a1] != blocks[b2]


def test_self_contained_scenario_is_cyclic_and_approximated():
    scenario = build_self_contained(names=6)
    approx_files = [u for u in scenario.documents if "approximation" in u]
    assert len(approx_files) == 2
    system = closed_union(scenario)
    blocks = naive_bisimulation(system)
    assert len(set(blocks.values())) == 1  # every node is the same hyperset


def test_three_file_scenario_counts():
    scenario = build_three_file(names=15)
    system = closed_union(scenario)
    assert len(system.equations) == 30
    blocks = naive_bisimulation(system)
    x, y = scenario.question
    assert blocks[x] == blocks[y]


def test_no_engine_strategy_answers_and_counts():
    scenario = build_chains(files=2, names=5)
    result = run_experiment(scenario, "no_engine", fetch_latency_ms=0.0)
    assert result.answer is True
    assert result.client_fetches == 4
    # the question reads only x_i ? x_i' on each of the 5 levels
    assert result.questions_resolved == 5


def test_engine_strategy_decides_root():
    scenario = build_chains(files=2, names=5)
    result = run_experiment(scenario, "engine", delay_ms=0.0, fetch_latency_ms=0.0)
    assert result.answer is True
    assert result.engine_fetches == 4


def test_engine_with_approx_on_self_contained_needs_no_derivation():
    scenario = build_self_contained(names=8)
    result = run_experiment(scenario, "engine_with_approx", delay_ms=0.0,
                            fetch_latency_ms=0.0)
    assert result.answer is True
    assert result.engine_fetches == 2
    assert result.engine_productive_rounds == 0
