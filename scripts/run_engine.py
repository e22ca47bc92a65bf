"""Serve a bisimulation engine over the ASK protocol.

Background mode loads every document reachable from the roots and partitions
their names into bisimilarity classes; it prints "background derivation
complete" when done:

    python scripts/run_engine.py --port 7428 file:///data/BibDB-f1.xml

Trivial mode answers from a facts file with per-fact delays:

    python scripts/run_engine.py --port 7428 --trivial oracle.xml

Protocol: one request per line, "ASK <full-name> <full-name>"; replies
"YES|NO|UNKNOWN <x> <y>", "ERROR malformed request" or "ERROR malformed set
name".
"""

import argparse
import sys
import time

from hypersetdb.engine import BisimulationEngine, TrivialOracle, serve
from hypersetdb.store import FileFetcher, LatencyFetcher


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("roots", nargs="*", help="WDB document URLs to serve")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--trivial", metavar="FILE",
                        help="serve facts from a trivial oracle file instead")
    parser.add_argument("--use-approximations", action="store_true")
    parser.add_argument("--latency", type=float, default=0.0,
                        help="simulated fetch latency [ms]")
    parser.add_argument("--no-network", action="store_true")
    options = parser.parse_args()

    if options.trivial:
        with open(options.trivial, "r", encoding="utf-8") as handle:
            oracle = TrivialOracle.from_xml(handle.read())
        answer = oracle.answer
        engine = None
    else:
        if not options.roots:
            parser.error("background mode needs at least one root URL")
        fetcher = FileFetcher(allow_network=not options.no_network)
        if options.latency > 0:
            fetcher = LatencyFetcher(fetcher, options.latency)
        engine = BisimulationEngine(options.roots, fetcher,
                                    use_approximations=options.use_approximations)
        engine.start()
        answer = engine.answer

    server = serve(answer, host=options.host, port=options.port)
    host, port = server.server_address
    print("serving ASK protocol on %s:%d" % (host, port), flush=True)
    try:
        while True:
            time.sleep(1.0)
            if engine is not None and engine.complete.is_set():
                engine.join()
                engine = None
                print("background derivation complete", flush=True)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
