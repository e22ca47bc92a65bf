"""Interactive query session: reads ';'-terminated commands, manages the
session library, runs queries and prints results with timing.

Usage:
    python -m hypersetdb.cli [--script FILE] [--oracle HOST:PORT]
                             [--use-approximations] [--no-network] [--no-time]
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, TextIO, Tuple

from . import grammar as g
# expand_library is not called here; perfbench/tracing.py wraps cli.expand_library
from .analysis import AnalysisError, analyze, expand_library  # noqa: F401
from .approx import make_approx_reader
from .bisim import BisimHelpers, FactStore
from .engine import OracleClient
from .evaluator import Evaluator, postprocess
from .names import WdbError
from .parser import ParseError, parse, reprint
from .store import FileFetcher, SessionStore

WELL_TYPED = "Query is well-formed, well-typed and executable"
NOT_WELL_TYPED = "Query is well-formed, but not well-typed"
NOT_WELL_FORMED = "Query is not well-formed"
LIBRARY_OK = "Library command is well-formed and well-typed, but not executable"
LIBRARY_WARNING = "Warning, library command successful but no query executed."
PRECEDENCE_WARNING = ("Warning, in the case of duplicate declaration names those "
                      "declarations at the bottom of the list have precedence.")


@dataclass
class SessionConfig:
    oracle: Optional[str] = None
    use_approximations: bool = False
    allow_network: bool = True
    show_time: bool = True
    script: Optional[str] = None


class ExitSession(Exception):
    pass


class Session:
    """One query session: predefined library plus user additions, a WDB cache
    and the accumulated bisimulation facts."""

    def __init__(self, config: Optional[SessionConfig] = None,
                 fetcher=None) -> None:
        self.config = config or SessionConfig()
        self.fetcher = fetcher or FileFetcher(allow_network=self.config.allow_network)
        self.store = SessionStore(self.fetcher)
        self.facts = FactStore()
        helpers = BisimHelpers()
        self.oracle_client: Optional[OracleClient] = None
        if self.config.oracle:
            self.oracle_client = OracleClient(*oracle_address(self.config.oracle))
            helpers.oracle = self.oracle_client
        if self.config.use_approximations:
            helpers.approx_reader = make_approx_reader(self.fetcher)
        self.evaluator = Evaluator(self.store, self.facts, helpers)

    # -- command handling ------------------------------------------------------

    def run_command(self, source: str) -> str:
        stripped = source.strip()
        if not stripped:
            return ""
        first_word = stripped.split(None, 1)[0].rstrip(";")
        if first_word == "exit":
            raise ExitSession
        if first_word == "library":
            return self._run_library(source)
        return self._run_query(source)

    def _run_query(self, source: str) -> str:
        started = time.monotonic()
        try:
            result = parse(source)
        except ParseError as exc:
            return "%s\n\n%s" % (NOT_WELL_FORMED, self._located(str(exc), source))
        try:
            tree = analyze(result, self.evaluator.library)
        except AnalysisError as exc:
            return self._not_well_typed(exc, source)
        try:
            outcome = self.evaluator.eval_query(tree)
        except WdbError as exc:
            return "Query failed: %s" % exc
        elapsed = int((time.monotonic() - started) * 1000)
        rendered = postprocess(outcome, self.store,
                               elapsed if self.config.show_time else None)
        return "%s\n\n%s" % (WELL_TYPED, rendered)

    def _not_well_typed(self, exc: AnalysisError, source: str) -> str:
        lines = [NOT_WELL_TYPED, ""]
        lines.extend(self._located(item.render(), source) for item in exc.items)
        return "\n".join(lines)

    def _located(self, message: str, source: str) -> str:
        """Append a short context excerpt for messages carrying positions."""
        marker = "Error at character "
        if not message.startswith(marker):
            return message
        try:
            position = int(message[len(marker):].split(",", 1)[0]) - 1
        except ValueError:
            return message
        snippet = source[max(0, position - 30):position + 12].replace("\n", " ")
        return "%s:\n  ...%s <-------" % (message, snippet)

    def _run_library(self, source: str) -> str:
        try:
            result = parse(source)
        except ParseError as exc:
            return "%s\n\n%s" % (NOT_WELL_FORMED, self._located(str(exc), source))
        command = result.tree.children[1]
        if command.label != g.LIBRARY_COMMAND:
            return NOT_WELL_FORMED
        if command.children[0].label == "list":
            verbose = len(command.children) > 1
            return self._render_listing(verbose)
        # library add: the added declarations are analyzed against the
        # library in use and join it only if they are well-typed and their
        # constants evaluate
        try:
            analyze(result, self.evaluator.library)
        except AnalysisError as exc:
            return self._not_well_typed(exc, source)
        sources = [reprint(decl) for decl in command.children[1].children
                   if decl.label in g.DECLARATION_CATEGORIES]
        try:
            self.evaluator.add_library(command, sources)
        except WdbError as exc:
            return "Library command failed: %s" % exc
        return "%s\n\n%s" % (LIBRARY_OK, LIBRARY_WARNING)

    def _render_listing(self, verbose: bool) -> str:
        lines = [LIBRARY_OK, "", LIBRARY_WARNING, "", PRECEDENCE_WARNING, "",
                 "List of library declaration(s):", ""]
        library = self.evaluator.library
        if verbose:
            body = ",\n\n".join("  %s" % source for source in library.sources)
        else:
            body = ",\n".join("  %s" % header for header in library.headers)
        return "\n".join(lines) + body

    def close(self) -> None:
        if self.oracle_client is not None:
            self.oracle_client.close()


def repl(session: Session, stream_in: TextIO, stream_out: TextIO) -> None:
    """Read ;-terminated commands until 'exit;' or end of input."""
    buffer = ""
    while True:
        if ";" not in buffer:
            line = stream_in.readline()
            if not line:
                break
            buffer += line
            continue
        command, _, buffer = buffer.partition(";")
        command = command.strip()
        if not command:
            continue
        try:
            output = session.run_command(command + ";")
        except ExitSession:
            return
        except WdbError as exc:
            output = "Error: %s" % exc
        if output:
            stream_out.write(output + "\n\n")
            stream_out.flush()


def oracle_address(text: str) -> Tuple[str, int]:
    """The host and port of an oracle given as HOST:PORT, with a port in
    0-65535 (HOST may be empty, for 127.0.0.1); raises ValueError."""
    host, colon, port = text.rpartition(":")
    if not (colon and port.isdecimal() and int(port) <= 65535):
        raise ValueError("expected HOST:PORT with a port from 0 to 65535, got %r" % text)
    return host or "127.0.0.1", int(port)


def build_flags(argv: List[str]) -> SessionConfig:
    parser = argparse.ArgumentParser(prog="hypersetdb",
                                     description="Hyperset query session")
    parser.add_argument("--oracle", metavar="HOST:PORT",
                        help="consult a bisimulation engine for equality")
    parser.add_argument("--use-approximations", action="store_true",
                        help="load approximation files next to WDB documents")
    parser.add_argument("--no-network", action="store_true",
                        help="allow file:// URLs only")
    parser.add_argument("--script", metavar="FILE",
                        help="batch mode: run ;-terminated commands from FILE")
    parser.add_argument("--no-time", dest="show_time", action="store_false",
                        help="do not print timing")
    options = parser.parse_args(argv)
    if options.oracle is not None:
        try:
            oracle_address(options.oracle)
        except ValueError as exc:
            parser.error("argument --oracle: %s" % exc)
    return SessionConfig(oracle=options.oracle,
                         use_approximations=options.use_approximations,
                         allow_network=not options.no_network,
                         show_time=options.show_time,
                         script=options.script)


def main(argv: Optional[List[str]] = None) -> int:
    config = build_flags(sys.argv[1:] if argv is None else argv)
    try:
        stream = open(config.script, "r", encoding="utf-8") if config.script else sys.stdin
    except OSError as exc:  # a usage error, with argparse's exit status
        sys.stderr.write("hypersetdb: error: cannot read --script %s: %s\n"
                         % (config.script, exc.strerror or exc))
        return 2
    session = Session(config)
    try:
        repl(session, stream, sys.stdout)
    finally:
        session.close()
        if stream is not sys.stdin:
            stream.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
