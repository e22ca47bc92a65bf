"""Golden approximation files: the exact text `generate_approximation_file`
writes for a corpus of documents, recorded while the lower approximation
was still derived by the rule kernel with foreign pairs refuted a priori.
The files show that the refinement kernel computes the same lower
approximation.

The corpus holds the two BibDB files, the self-contained chains of
`build_self_contained(25)`, the wdb-equality documents of the benchmark at
seeds 101-103 and 50 random systems split over 2-4 documents.  To record
the files again, for a change meant to alter them:

    PYTHONPATH=src:tests:. python tests/test_golden_approximations.py --record
"""

import json
import random
import sys
from pathlib import Path
from typing import Dict

import pytest

from hypersetdb.approx import approximation_url, generate_approximation_file
from hypersetdb.experiments import build_self_contained
from hypersetdb.xmlwdb import load_equations

from conftest import (bibdb_f1_text, bibdb_f2_text, random_closed_system,
                      split_documents)

GOLDEN = Path(__file__).with_name("golden_approximations.json")
RANDOM_SYSTEMS = 50


def approximation_files(documents: Dict[str, str]) -> Dict[str, str]:
    return {approximation_url(url): generate_approximation_file(url, load_equations(text, url))
            for url, text in sorted(documents.items())}


def corpus() -> Dict[str, Dict[str, str]]:
    from perfbench import inputs
    from perfbench.workloads import FULL

    f1, f2 = "mem://BibDB-f1.xml", "mem://BibDB-f2.xml"
    out = {"bibdb": approximation_files({f1: bibdb_f1_text(f1, f2),
                                         f2: bibdb_f2_text(f1, f2)})}
    out["self-contained"] = {url: text for url, text in build_self_contained(25).documents.items()
                             if url.endswith(".approximation.xml")}
    for seed in (101, 102, 103):
        wdb, _, _ = inputs.distributed_wdb(random.Random("wdb-equality/%d" % seed), FULL.wdb)
        out["wdb-equality %d" % seed] = approximation_files(wdb.documents)
    rng = random.Random(23)
    for trial in range(RANDOM_SYSTEMS):
        system = random_closed_system(rng, max_names=14, max_labels=3)
        documents, _ = split_documents(system, rng, rng.randint(2, 4))
        out["random %02d" % trial] = approximation_files(documents)
    return out


@pytest.fixture(scope="module")
def generated():
    return corpus()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["bibdb", "self-contained", "wdb-equality 101",
                                  "wdb-equality 102", "wdb-equality 103", "random"])
def test_golden_approximation_files(generated, golden, name):
    groups = sorted(g for g in golden if g == name or g.startswith(name + " "))
    assert groups
    for group in groups:
        assert generated[group] == golden[group], group
    assert sorted(generated) == sorted(golden)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(corpus(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
