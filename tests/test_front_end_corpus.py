"""A frozen record of what the front end makes of every prefix of a corpus.

The corpus is the bib-session commands of the benchmark at seeds 101-103
(built as `tests/test_golden.py` builds them, the directory of their files
replaced by `file:///wdb`) and the predefined `library add` command.  For
every prefix that ends at the end of a token, the record holds what `parse`
does with it: the `ParseError` position and reason, or, for a complete
command, the counts of identifier uses and binders and digests of the
tree's shape with each postorder node's span and of what `analyze` makes of
it (the relabelled shape, or the error).  A prefix cut inside a declaration
right after `set`, `label` or `boolean` has the parser look one token past
the last real one.

The sources are kept in the record, so the test does not depend on the
benchmark's generator.  To record it again, for a change meant to alter
the front end's output:

    PYTHONPATH=src:. python tests/test_front_end_corpus.py --record
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from hypersetdb import evaluator
from hypersetdb.analysis import AnalysisError, analyze
from hypersetdb.grammar import tokenize
from hypersetdb.library import PREDEFINED_DECLARATIONS
from hypersetdb.parser import ParseError, parse

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("golden_front_end.json")
LIBRARY_ADD = "library add " + ",\n".join(PREDEFINED_DECLARATIONS) + ";"


def corpus_sources() -> List[str]:
    """The bib-session commands at seeds 101-103, then the library add."""
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from perfbench import inputs

    sources = []
    for seed in (101, 102, 103):
        rng = random.Random("bib-session/%d" % seed)
        with tempfile.TemporaryDirectory() as directory:
            wdb = inputs.bibdb(rng, Path(directory))
            sources += [command.text.replace(Path(directory).as_uri(), "file:///wdb")
                        for command in inputs.bib_commands(wdb, rng)]
    return sources + [LIBRARY_ADD]


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def outcome(prefix: str) -> list:
    """What the front end makes of one prefix, as JSON values: a parse
    error's [position, reason], or a complete command's [uses, binders,
    digest of the parse, digest of the analysis]."""
    try:
        result = parse(prefix)
    except ParseError as exc:
        return [exc.position, exc.reason]
    parsed = [result.tree.shape(), [(node.start, node.end) for node in result.postorder]]
    try:
        analyzed = analyze(result, evaluator.predefined_library()).shape()
    except AnalysisError as exc:
        analyzed = str(exc)
    return [len(result.identifier_nodes), len(result.binders), _digest(parsed),
            _digest(analyzed)]


def render(sources: List[str]) -> List[Dict[str, object]]:
    """Each source with the outcome of every prefix that ends a token."""
    out = []
    for source in sources:
        ends = [position + len(text) for kind, text, position in tokenize(source)
                if kind != "EOF"]
        out.append({"source": source,
                    "prefixes": [[end, outcome(source[:end])] for end in ends]})
    return out


def test_front_end_output_is_unchanged():
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    rendered = render([entry["source"] for entry in recorded])
    for want, got in zip(recorded, rendered):
        assert [end for end, _ in got["prefixes"]] == [end for end, _ in want["prefixes"]]
        for (end, result), (_, expected) in zip(got["prefixes"], want["prefixes"]):
            assert result == expected, want["source"][:end]
    # 30 commands and the library add, each complete only at its end; the
    # record holds declarations cut off right after their first keyword
    assert len(recorded) == 31
    complete = [len(result) == 4 for entry in recorded for _, result in entry["prefixes"]]
    assert sum(complete) == 31 and len(complete) > 1900
    cut_heads = [entry["source"][:end] for entry in recorded for end, _ in entry["prefixes"]
                 if entry["source"][:end].endswith(("add set", ",\nset", ",\nboolean",
                                                    "let set", "let label"))]
    assert len(cut_heads) > 20


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    rendered = render(corpus_sources())
    RECORD.write_text("[\n" + ",\n".join(json.dumps(entry, separators=(",", ":"))
                                         for entry in rendered) + "\n]\n", encoding="utf-8")
    print("recorded %d sources, %d prefixes"
          % (len(rendered), sum(len(entry["prefixes"]) for entry in rendered)))
