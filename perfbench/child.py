"""One fresh benchmark process: import the CLI, run commands, report.

Usage: python3 perfbench/child.py SRC_DIR MODE   (MODE: setup, pass or trace)

Prints ``ready`` as soon as ``ons_lab.cli`` is imported, so the parent can
time interpreter start plus import.  ``setup`` exits there.  ``pass`` and
``trace`` then read a JSON list of argv lists from stdin, run each through
``ons_lab.cli.main`` in this process with stdout captured, and print one
JSON object: the wall time of the whole list, per-command exit codes and
output digests, the full output of every ``mn-sweep`` command, library
versions, and the number of span wrappers installed.  ``trace`` installs
the span wrappers of ``spans.py`` before the first command and adds the
span totals.
"""

import sys

SRC, MODE = sys.argv[1], sys.argv[2]
sys.path.insert(0, SRC)

import ons_lab.cli  # noqa: E402  (the import is what setup time measures)

if not ons_lab.cli.__file__.startswith(SRC.rstrip("/") + "/"):
    sys.exit(f"ons_lab imported from {ons_lab.cli.__file__}, not {SRC}")
print("ready", flush=True)
if MODE == "setup":
    sys.exit(0)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402


def run_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ons_lab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:   # a traceback is a failed command, not a crash
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def main():
    commands = json.load(sys.stdin)
    tracer = spans.install() if MODE == "trace" else None
    results = []
    start = time.perf_counter()
    for argv in commands:
        results.append((argv, *run_command(argv)))
    wall = time.perf_counter() - start

    report = {
        "wall_s": wall,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "ons_lab": ons_lab.__version__},
        "wrappers": spans.installed_wrappers(),
        "commands": [
            {"argv": argv, "code": code,
             "sha256": hashlib.sha256(text.encode()).hexdigest(),
             "stderr": err[-2000:],
             "output": text if argv[0] == "mn-sweep" else None}
            for argv, code, text, err in results],
        "spans": tracer.report() if tracer is not None else None,
    }
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


main()
