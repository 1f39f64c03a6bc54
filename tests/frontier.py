"""Run the frontier checks listed in ``frontier.json`` against the installed CLI.

    python tests/frontier.py

Each check spawns ``python -m bkneser.cli`` with its argv, its ``env`` (if
any) added to this process's own, and its timeout; the child must exit 0
within the timeout, and its stdout must meet the check's one expectation:

* ``stdout``: the whole text, exactly;
* ``sha256``: the hex digest of the raw bytes;
* ``contains``: a substring that must occur;
* ``lacks``: a substring that must not occur.

``why`` says what the check guards; the runner does not read it.
``max_rss_mb``, when given, bounds the child's peak resident set, read with
``os.wait4`` as ``ru_maxrss`` in MB.  On Linux the child shares this
runner's memory until its exec, so that reading starts at the runner's own
peak RSS: the runner imports nothing heavy and hashes each output from its
file in blocks, never holding a large one whole.
Only the standard library is used; the package is not imported here, only
spawned, so the checks exercise the installed package as a user runs it.
The exit status is 1 when any check fails, each failure named above it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import BinaryIO

EXPECTATIONS = ("stdout", "sha256", "contains", "lacks")
DEFAULT_PATH = Path(__file__).with_name("frontier.json")


def load(path: Path) -> list[dict]:
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    for check in checks:
        kinds = [key for key in EXPECTATIONS if key in check]
        if len(kinds) != 1:
            raise ValueError(f"{check['argv']}: needs exactly one of {EXPECTATIONS}, has {kinds}")
    return checks


def spawn(
    argv: list[str], env: dict, timeout_s: float, out: BinaryIO
) -> tuple[int | None, bytes, float, float]:
    """(exit code or None on timeout, stderr, seconds, peak RSS in MB) of one child.

    The child's stdout goes to ``out``, which is left at its start.
    """
    with tempfile.TemporaryFile() as err:
        start = time.monotonic()
        pid = os.posix_spawn(
            sys.executable,
            [sys.executable, "-m", "bkneser.cli", *argv],
            {**os.environ, **env},
            file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                          (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
        )
        code = None
        while True:
            # polled, so the child is killed only while it is still ours to reap
            reaped, status, usage = os.wait4(pid, os.WNOHANG)
            if reaped:
                code = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() - start > timeout_s:
                os.kill(pid, 9)
                _, _, usage = os.wait4(pid, 0)
                break
            time.sleep(0.005)
        elapsed = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        return code, err.read(), elapsed, usage.ru_maxrss / 1024


def verdict(check: dict, code: int | None, out: BinaryIO, peak_mb: float) -> str | None:
    """Why the check failed, or None when it passed; ``out`` holds the stdout."""
    if code is None:
        return f"killed after its timeout of {check['timeout_s']} s"
    if code != 0:
        return f"exit code {code}"
    if "sha256" in check:
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 16), b""):
            digest.update(block)
        if digest.hexdigest() != check["sha256"]:
            return f"unexpected stdout: {out.tell()} bytes, sha256 differs"
    else:
        text = out.read().decode("utf-8", errors="replace")
        if "stdout" in check and text != check["stdout"]:
            return f"unexpected stdout: {text[:300]!r}"
        if "contains" in check and check["contains"] not in text:
            return f"stdout lacks {check['contains']!r}: {text[:300]!r}"
        if "lacks" in check and check["lacks"] in text:
            return f"stdout holds {check['lacks']!r}: {text[:300]!r}"
    bound = check.get("max_rss_mb")
    if bound is not None and peak_mb > bound:
        return f"peak RSS {peak_mb:.1f} MB exceeds {bound} MB"
    return None


def run(checks: list[dict]) -> int:
    """Run each check in turn, print one line for it, and return the number that failed."""
    failed = 0
    for check in checks:
        env = check.get("env", {})
        with tempfile.TemporaryFile() as out:
            code, stderr, elapsed, peak_mb = spawn(check["argv"], env, check["timeout_s"], out)
            problem = verdict(check, code, out, peak_mb)
        name = "".join(f"{k}={v} " for k, v in env.items()) + "bkneser " + " ".join(check["argv"])
        print(f"{'FAIL' if problem else 'ok  '} {name}: {elapsed:.2f} s, {peak_mb:.1f} MB",
              flush=True)
        if problem:
            print(f"     {problem}")
            if stderr:
                print("     stderr: " + stderr.decode("utf-8", errors="replace")[-1000:])
            failed += 1
    return failed


def main() -> int:
    checks = load(DEFAULT_PATH)
    failed = run(checks)
    print(f"frontier: {len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
