"""Time a cold start of the query system in fresh processes.

    python scripts/cold_start.py [N]

Starts 2N fresh Python processes over this checkout's `src`, alternating
between two kinds, and prints the median (and quartiles) of each:

- first_session_ms: the first `Session()` in a process, after the import
  of `hypersetdb.cli`; it compiles the predefined library.
- one_shot_cli_ms: the wall time of
  `printf 'set query {};\\nexit;\\n' | python -m hypersetdb.cli --no-time --no-network`,
  interpreter start-up and imports included.

N defaults to 11.  Exits non-zero if a process fails or the CLI's reply
is not the expected one.  Uses the standard library only.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FIRST_SESSION = """\
import time
from hypersetdb.cli import Session, SessionConfig
start = time.perf_counter()
Session(SessionConfig(allow_network=False))
print(time.perf_counter() - start)
"""
ONE_SHOT = "set query {};\nexit;\n"
EXPECTED = "Result = {}"


def first_session_ms(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", FIRST_SESSION], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out) * 1e3


def one_shot_cli_ms(env: dict) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "hypersetdb.cli", "--no-time", "--no-network"],
                          input=ONE_SHOT, env=env, check=True, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if EXPECTED not in done.stdout:
        raise SystemExit("unexpected reply from the CLI:\n%s" % done.stdout)
    return elapsed * 1e3


def summary(values: list) -> str:
    text = "median %.2f" % statistics.median(values)
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4, method="inclusive")
        text += ", quartiles %.2f-%.2f" % (low, high)
    return text + " (n=%d)" % len(values)


def main(argv: list) -> int:
    runs = int(argv[0]) if argv else 11
    if runs < 1:
        raise SystemExit("N must be at least 1")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    sessions, clis = [], []
    for _ in range(runs):
        sessions.append(first_session_ms(env))
        clis.append(one_shot_cli_ms(env))
    print("first_session_ms  %s" % summary(sessions))
    print("one_shot_cli_ms   %s" % summary(clis))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
