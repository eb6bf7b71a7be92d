#!/usr/bin/env python3
"""Build the campaign ledger from source and run one workload of it.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 10 --trace 0

Run from the repository root.  The script builds perfbench/ledger.exe with
dune (into _build/), then runs it with the same arguments; the ledger's last
line of standard output is the result JSON.  Build output goes to standard
error.  The exit code is non-zero, and no result is printed, when the sources
are missing, the build fails, or the ledger fails or overruns its time limit.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
LEDGER = os.path.join("_build", "default", "perfbench", "ledger.exe")


def run(argv, timeout, **kw):
    """Run argv in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {argv[0]} exceeded {timeout} s; killing it", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 124
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    for need in ("dune-project", "lib", os.path.join("perfbench", "ledger.json")):
        if not os.path.exists(need):
            print(f"run.py: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    dune = [shutil.which("dune")] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    # keep every build artifact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(dune + ["build", "--root", ".", "./perfbench/ledger.exe"], BUILD_TIMEOUT_S,
               stdout=sys.stderr, env=env)
    if code != 0:
        print(f"run.py: build failed (exit {code})", file=sys.stderr)
        return code
    return run([LEDGER] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
