"""End-to-end benchmark of the `bkneser` command line.

Each workload is a fixed list of `python -m bkneser.cli ...` jobs.  A run
spawns them one after another (a closed loop: one client, concurrency 1):
the list once, then the frontier job alone until about `--seconds` have
passed.  It times every job from spawn to exit.  After each job it times
`reference.py`, a fixed job that allocates and reads tuples like the jobs do,
and reports each time scaled by REFERENCE_S over the mean of the two reference
times around it, so that the host's drift in speed divides out.  Each job's exit code and stdout
sha256 are compared with `expected.json`, recorded at the seed commit, and its
headline value is checked independently (|Aut| = 2 n!, kappa = C(n-k, k), ...).

    python3 perfbench/run.py --workload groups_kappa --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60      # every workload, one table

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates untraced
passes with passes run under `tracer.py` and reports the per-layer metrics.
The seed only permutes the job order.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it is
a JSON report with every sample, the failures and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_FILE = BENCH_DIR / "expected.json"

JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # no job may outlive this, counted from the start of the run
SETUP_SPAWNS_PER_JOB = 2
SETUP_COMMAND = [sys.executable, "-c", "import bkneser.cli"]
REFERENCE_COMMAND = [sys.executable, str(BENCH_DIR / "reference.py")]
REFERENCE_STDOUT = b"962070839296\n"
# Times are reported in seconds at the speed at which the reference takes
# REFERENCE_S, a round figure near its time on the 2-vCPU Sapphire Rapids KVM
# guest the benchmark was built on.
REFERENCE_S = 0.6
CPUS = sorted(os.sched_getaffinity(0))
# Every child, jobs and references alike, runs on JOB_CPU; the benchmark's own
# threads keep to the other CPUs when there are any.
JOB_CPU = CPUS[-1]
OWN_CPUS = CPUS[:-1] or CPUS

# name -> (why it was chosen, jobs, frontier job).  After one pass over the
# jobs the frontier job runs alone, so that `largest_job_s` rests on as many
# samples as a run holds.  Each planned optimisation moves one workload and
# has the other as its control: stabilizer chains and Esfahanian-Hakimi move
# groups_kappa, bitmask construction, one orbit primitive and an exact
# Question 1 search move construct_cayley, whose many small capped closures
# also guard against a closure change that only suits large groups.
WORKLOADS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "groups_kappa": (
        "frontier instances: full group closure (Aut of H(7,3), H(8,3), Question 2 to n = 7) "
        "and all-pairs max-flow (kappa at degree 4, 15, 21)",
        ("aut --n 7 --k 3", "aut --n 8 --k 3", "explore --question 2 --nmax 7",
         "connectivity --n 7 --k 3 --certificate", "connectivity --n 8 --k 2 --certificate",
         "connectivity --n 9 --k 2 --certificate"),
        "aut --n 8 --k 3",
    ),
    "construct_cayley": (
        "construction, BFS and pair orbits with no closure or flows, then the dihedral check "
        "and the Question 1 search with thousands of small, mostly capped closures",
        ("build --n 14 --k 6", "props --n 12 --k 5", "transitivity --n 11 --k 5",
         "cayley-check --n 30", "explore --question 1 --nmax 5",
         "explore --question 1 --nmax 7 --kmax 1"),
        "transitivity --n 11 --k 5",
    ),
}


# ---------------------------------------------------------------- correctness


def _options(argv: list[str]) -> dict[str, object]:
    """'--n 8 --k 3 --certificate' -> {'n': 8, 'k': 3, 'certificate': True}."""
    out: dict[str, object] = {}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            value = argv[i + 1]
            out[key] = int(value) if value.lstrip("-").isdigit() else value
            i += 2
        else:
            out[key] = True
            i += 1
    return out


def _feasible(nmax: int, kmax: Optional[int]) -> list[tuple[int, int]]:
    return [(n, k) for n in range(3, nmax + 1) for k in range(1, (n - 1) // 2 + 1)
            if kmax is None or k <= kmax]


def headline_error(job: str, stdout: bytes) -> Optional[str]:
    """Check a job's headline claim from first principles; None when it holds."""
    try:
        return _headline_problems(job.split(), json.loads(stdout))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _headline_problems(argv: list[str], out: dict) -> Optional[str]:
    opt = _options(argv)
    command = argv[0]
    comb = math.comb
    problems = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    if command == "aut":
        expect("order", out.get("order"), 2 * math.factorial(opt["n"]))
        expect("agree", out.get("agree"), True)
    elif command == "connectivity":
        n, k = opt["n"], opt["k"]
        kappa = comb(n - k, k)
        expect("kappa", out.get("kappa"), kappa)
        expect("match", out.get("match"), True)
        paths = out.get("certificate", [])
        expect("certificate paths", len(paths), kappa)
        interiors = [v for p in paths for v in p[1:-1]]
        expect("interior-disjoint", len(interiors), len(set(interiors)))
        expect("endpoints", {(p[0], p[-1]) for p in paths}, {(0, comb(n, k))})
    elif command == "build":
        n, k = opt["n"], opt["k"]
        expect("vertex_count", out.get("vertex_count"), 2 * comb(n, k))
        expect("edges", len(out.get("edges", [])), comb(n, k) * comb(n - k, k))
    elif command == "props":
        n, k = opt["n"], opt["k"]
        expect("vertices", out.get("vertices"), 2 * comb(n, k))
        expect("edges", out.get("edges"), comb(n, k) * comb(n - k, k))
        expect("degree", out.get("degree"), comb(n - k, k))
        expect("bipartition", out.get("bipartition"), [comb(n, k)] * 2)
    elif command == "transitivity":
        # H(n, k) is distance-transitive, so every level holds with one orbit.
        for level in ("vertex", "edge", "arc", "distance"):
            expect(level, out.get(level), True)
        for orbit in ("vertices", "edges", "arcs"):
            expect(f"{orbit} orbits", out.get("orbits", {}).get(orbit), 1)
    elif command == "cayley-check":
        n = opt["n"]
        expect("vertices", out.get("vertices"), 2 * n)
        expect("edges", out.get("edges"), n * (n - 1))
        expect("left_regular_order", out.get("left_regular_order"), 2 * n)
        expect("isomorphic", out.get("isomorphic"), True)
        expect("regular_action", out.get("regular_action"), True)
    elif command == "explore" and opt["question"] == 2:
        rows = out.get("rows", [])
        expect("rows", [(r["n"], r["k"]) for r in rows], _feasible(opt["nmax"], opt.get("kmax")))
        for r in rows:
            expect(f"|Aut(H({r['n']},{r['k']}))|", r["aut_order"], 2 * math.factorial(r["n"]))
            expect(f"H({r['n']},{r['k']}) comparison", r["comparison"], "equal")
    elif command == "explore" and opt["question"] == 1:
        rows = out.get("rows", [])
        expect("rows", [(r["n"], r["k"]) for r in rows], _feasible(opt["nmax"], opt.get("kmax")))
        for r in rows:
            n, k = r["n"], r["k"]
            expect(f"|Aut(H({n},{k}))|", r["aut_order"], 2 * math.factorial(n))
            # H(n,1) is Cay(D_2n, omega), so the search must hit.  H(5,2) is
            # not Cayley: S_5's only order-10 subgroups are D_10, which is not
            # transitive on 2-subsets, so the search must miss.
            if k == 1:
                expect(f"H({n},1) regular subgroup", r["regular_subgroup_order"], 2 * n)
            elif (n, k) == (5, 2):
                expect("H(5,2) regular subgroup", r["regular_subgroup_order"], None)
            else:
                problems.append(f"no expectation recorded for H({n},{k})")
    else:
        problems.append(f"no headline check for {' '.join(argv)!r}")
    return "; ".join(problems) or None


# ---------------------------------------------------------------- job runner


@dataclass
class JobResult:
    job: str
    traced: bool
    seconds: float
    rss_mb: float
    exit_code: int
    sha256: str
    stdout_bytes: int
    stderr: str
    timed_out: bool
    totals: dict = field(default_factory=dict)
    unresolved: list = field(default_factory=list)
    error: Optional[str] = None
    ref_s: Optional[float] = None  # mean of the reference times just before and after

    @property
    def scaled_s(self) -> float:
        """Spawn-to-exit time at the speed at which the reference takes REFERENCE_S."""
        return self.seconds * REFERENCE_S / self.ref_s


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("KNESER_ORDER_CAP", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@contextlib.contextmanager
def on_job_cpu():
    """Confine the calling thread, and the children it spawns, to JOB_CPU."""
    os.sched_setaffinity(0, {JOB_CPU})  # affinity is per thread and inherited on fork
    try:
        yield
    finally:
        os.sched_setaffinity(0, OWN_CPUS)


def _drain(stream, sink: list) -> None:
    with stream:
        sink.append(stream.read())


def spawn(cmd: list[str], env: dict[str, str], timeout: float, pass_fds=()) -> tuple:
    """Run cmd on JOB_CPU to completion; (seconds, rusage, exit code, stdout, stderr, timed_out).

    The child is waited for without being reaped first, so the kill timer
    can never signal a recycled pid; it is then reaped with wait4 for its
    own ru_maxrss.
    """
    with on_job_cpu():
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT, pass_fds=pass_fds)
    out: list[bytes] = []
    err: list[bytes] = []
    readers = [threading.Thread(target=_drain, args=(proc.stdout, out)),
               threading.Thread(target=_drain, args=(proc.stderr, err))]
    for reader in readers:
        reader.start()
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        elapsed = time.perf_counter() - start
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)  # not reaped yet, so the pid is still the child's
        raise
    finally:
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        for reader in readers:
            reader.join()
    return elapsed, usage, proc.returncode, out[0], err[0], state["timed_out"]


def run_job(job: str, want: Optional[dict], traced: bool, deadline: float) -> JobResult:
    """Run one job and check it against its recorded exit code and digest.

    With want None (recording) the job must exit 0 and pass its headline check.
    """
    argv = job.split()
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    env = child_env()
    spans: list[bytes] = []
    if traced:
        read_fd, write_fd = os.pipe()
        reader = threading.Thread(target=_drain, args=(os.fdopen(read_fd, "rb"), spans))
        cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), "--spans-fd", str(write_fd),
               "--", *argv]
        try:
            reader.start()
            result = spawn(cmd, env, timeout, pass_fds=(write_fd,))
        finally:
            os.close(write_fd)
            reader.join()
    else:
        result = spawn([sys.executable, "-m", "bkneser.cli", *argv], env, timeout)
    seconds, usage, code, stdout, stderr, timed_out = result
    digest = hashlib.sha256(stdout).hexdigest()
    res = JobResult(job, traced, seconds, usage.ru_maxrss / 1024.0, code, digest, len(stdout),
                    stderr.decode(errors="replace")[-2000:], timed_out)
    if traced and spans and spans[0]:
        try:
            payload = json.loads(spans[0])
            res.totals, res.unresolved = payload["totals"], payload["unresolved"]
        except (ValueError, KeyError):
            pass  # reported below as a job without spans
    want_exit = 0 if want is None else want["exit"]
    if timed_out:
        res.error = f"timed out after {timeout:.0f} s"
    elif code != want_exit:
        res.error = f"exit code {code}, expected {want_exit}: {res.stderr.strip()[-300:]}"
    elif want is not None and digest != want["sha256"]:
        res.error = "stdout digest differs from the recorded one"
    else:
        res.error = headline_error(job, stdout)
    if traced and not res.error and not res.totals:
        res.error = "traced child wrote no spans"
    return res


def measure_setup(count: int) -> list[float]:
    """Seconds to start an interpreter that imports bkneser.cli and exits."""
    samples = []
    with on_job_cpu():
        for _ in range(count):
            start = time.perf_counter()
            subprocess.run(SETUP_COMMAND, env=child_env(), cwd=ROOT, check=True)
            samples.append(time.perf_counter() - start)
    return samples


def reference_s(deadline: float) -> float:
    """Seconds `reference.py` takes from spawn to exit; its output is checked."""
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    seconds, _, code, stdout, stderr, timed_out = spawn(REFERENCE_COMMAND, child_env(), timeout)
    if timed_out or code != 0 or stdout != REFERENCE_STDOUT:
        raise SystemExit(f"reference job failed (exit {code}, stdout {stdout[:40]!r}): "
                         f"{stderr.decode(errors='replace')[-300:]}")
    return seconds


# ---------------------------------------------------------------- a run


def commit_id() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def summary(samples: list[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit, "samples": len(samples),
            "max": max(samples), "all": samples}


def timed_jobs(order: list[str], frontier: str, seconds: float, deadline: float,
               expected: dict) -> tuple[list[JobResult], list[float], list[float]]:
    """Run untraced jobs one at a time for about `seconds`: `order`, then the frontier job.

    Returns the jobs, the set-up samples scaled like the jobs, and the
    reference times.  Each job is followed by its set-up samples and then a
    reference; the job and those samples are scaled by the mean of that
    reference and the one before the job.  `order` always runs whole.  After
    it the frontier job repeats until its last duration, with its set-up
    samples and reference, no longer fits in `seconds`.
    """
    results: list[JobResult] = []
    setup: list[float] = []
    refs = [reference_s(deadline)]
    last: dict[str, float] = {}
    start = time.monotonic()
    for i in itertools.count():
        job = order[i] if i < len(order) else frontier
        if i >= len(order):
            need = last[job] + last["setup"] + statistics.median(refs)
            if time.monotonic() - start + need > seconds or time.monotonic() + need > deadline:
                break
        job_start = time.monotonic()
        res = run_job(job, expected[job], False, deadline)
        setup_start = time.monotonic()
        samples = measure_setup(SETUP_SPAWNS_PER_JOB)
        last[job] = setup_start - job_start
        last["setup"] = time.monotonic() - setup_start
        refs.append(reference_s(deadline))
        res.ref_s = (refs[-2] + refs[-1]) / 2
        setup += [s * REFERENCE_S / res.ref_s for s in samples]
        results.append(res)
    return results, setup, refs


def traced_passes(order: list[str], seconds: float, deadline: float,
                  expected: dict) -> tuple[list[list[JobResult]], list[list[JobResult]]]:
    """Alternate an untraced pass over the jobs with a traced one, for about `seconds`."""
    untraced: list[list[JobResult]] = []
    traced: list[list[JobResult]] = []
    start = time.monotonic()
    while True:
        untraced.append([run_job(job, expected[job], False, deadline) for job in order])
        traced.append([run_job(job, expected[job], True, deadline) for job in order])
        spent = time.monotonic() - start
        pass_s = spent / len(untraced)
        if spent + pass_s > seconds or time.monotonic() + pass_s > deadline:
            break
    for base, under in zip(untraced, traced):
        for a, b in zip(base, under):
            if b.error is None and a.sha256 != b.sha256:
                b.error = "stdout digest differs under tracing"
    return untraced, traced


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """Run one workload; return the full report (metrics, samples, failures)."""
    why, jobs, frontier = WORKLOADS[name]
    order = list(jobs)
    random.Random(seed).shuffle(order)
    deadline = time.monotonic() + RUN_LIMIT_S
    os.sched_setaffinity(0, OWN_CPUS)
    measure_setup(1)  # warm the bytecode cache; users do not pay that on every run

    metrics: dict[str, dict] = {}
    extra: dict[str, object] = {}
    if trace:
        untraced, traced = traced_passes(order, seconds, deadline, expected)
        attempted = [r for p in untraced + traced for r in p]
        wall = [sum(r.seconds for r in p) for p in untraced]
        per_pass = [tracer.merge_totals([r.totals for r in p]) for p in traced]
        for metric, (unit, value) in tracer.LAYER_METRICS.items():
            metrics[metric] = summary([float(value(t)) for t in per_pass], unit)
        metrics["cli.stdout_bytes"] = summary(
            [float(sum(r.stdout_bytes for r in p)) for p in traced], "bytes")
        metrics["trace.overhead_s"] = summary(
            [sum(r.seconds for r in p) - w for p, w in zip(traced, wall)], "s")
    else:
        attempted, setup, refs = timed_jobs(order, frontier, seconds, deadline, expected)
        per_job = {job: [r for r in attempted if r.job == job] for job in jobs}
        medians = {job: statistics.median(r.scaled_s for r in rs) for job, rs in per_job.items()}
        metrics["wall_s"] = {"value": sum(medians.values()), "unit": "s",
                             "samples": len(attempted), "per_job": medians}
        metrics["largest_job_s"] = summary([r.scaled_s for r in per_job[frontier]], "s")
        metrics["peak_rss_mb"] = {"value": max(r.rss_mb for r in attempted), "unit": "MB",
                                  "samples": len(attempted)}
        metrics["setup_s"] = summary(setup, "s")
        extra["reference_s"] = refs
        extra["unscaled"] = {
            "wall_s": sum(statistics.median(r.seconds for r in rs) for rs in per_job.values()),
            "largest_job_s": statistics.median(r.seconds for r in per_job[frontier]),
        }
    failures = [{"job": r.job, "traced": r.traced, "error": r.error} for r in attempted if r.error]
    return {
        "workload": name,
        "why": why,
        "seed": seed,
        "order": order,
        "trace": int(trace),
        "commit": commit_id(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": len(CPUS),
        "job_cpu": JOB_CPU,
        "attempted": len(attempted),
        "failed": len(failures),
        "failed_share": len(failures) / len(attempted),
        "failures": failures,
        "job_seconds": {job: [r.seconds for r in attempted if r.job == job and not r.traced]
                        for job in jobs},
        "unresolved_trace_targets": sorted({u for r in attempted for u in r.unresolved}),
        "metrics": metrics,
        **extra,
    }


def result_line(report: dict) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def record(names: list[str]) -> None:
    """Write exit codes and stdout digests of one pass to expected.json."""
    expected = load_expected() if EXPECTED_FILE.exists() else {}
    deadline = time.monotonic() + 10 * RUN_LIMIT_S
    for name in names:
        for job in WORKLOADS[name][1]:
            res = run_job(job, None, False, deadline)
            if res.error:
                raise SystemExit(f"not recorded: {job}: {res.error}")
            expected[job] = {"exit": res.exit_code, "sha256": res.sha256}
    EXPECTED_FILE.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the bkneser command line.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="record exit codes and stdout digests into expected.json")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so `spawn` kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(f"{parser.prog}: terminated"))

    if not (ROOT / "src" / "bkneser" / "cli.py").is_file():
        print(f"error: no bkneser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record:
        record(names)
        return 0
    expected = load_expected()
    missing = [job for name in names for job in WORKLOADS[name][1] if job not in expected]
    if missing:
        print(f"error: no recorded expectation for {missing}; run with --record", file=sys.stderr)
        return 2

    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), expected)
        reports.append(report)
        for f in report["failures"]:
            print(f"FAILED {name}: {f['job']}{' (traced)' if f['traced'] else ''}: {f['error']}",
                  file=sys.stderr)
    if len(reports) == 1:
        print(json.dumps(reports[0]))
        print(json.dumps(result_line(reports[0])))
        return 0
    for report in reports:
        print(f"{report['workload']}: {report['attempted']} jobs, failed_share "
              f"{report['failed_share']:.3f} ({report['failed']}/{report['attempted']})")
        for key, m in report["metrics"].items():
            print(f"  {key:32s} {m['value']:14.6f} {m['unit']:6s} n={m['samples']}")
    combined = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                    for r in reports for k, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
