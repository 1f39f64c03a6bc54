"""Self-test of the benchmark's tracing: fails loudly when a rename in `src/`
would make a per-layer metric read zero.

    python3 perfbench/selftest.py

1. Every function in `tracer.TARGETS` still resolves, every module listed as
   binding it still binds that same object under its name, and no `bkneser`
   module binds it under any other name or in an unlisted module (a call
   through such a binding would escape the wrapper).
2. One traced pass of each workload passes its correctness gate, reports
   exactly the per-layer metrics of BENCHMARK.json, and every metric that
   PREDICTED expects on that workload is nonzero.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys

import run
import tracer

# (metrics, workloads on which each must be nonzero), as in the README's table.
PREDICTED: list[tuple[tuple[str, ...], tuple[str, ...]]] = [
    (("kneser.build_s", "kneser.build_calls", "kneser.vertices_built", "kneser.verify_s"),
     ("construct_cayley",)),
    (("subsets.rank_calls", "subsets.rank_s"), ("construct_cayley",)),
    (("graphs.init_s", "graphs.bfs_calls", "graphs.bfs_s"), ("construct_cayley",)),
    (("graphs.edges_s",), ("construct_cayley", "groups_kappa")),
    (("perms.closure_calls", "perms.closure_elements", "perms.closure_s",
      "perms.closure_complete_ratio"), ("groups_kappa", "construct_cayley")),
    (("perms.closure_capped",), ("construct_cayley",)),
    (("perms.orbit_s", "perms.orbit_pairs", "perms.induced_s"), ("construct_cayley",)),
    (("autgroup.calls", "autgroup.search_s", "autgroup.generators"),
     ("groups_kappa", "construct_cayley")),
    (("connectivity.flows", "connectivity.flow_s", "connectivity.augmenting_paths",
      "connectivity.kappa_s", "connectivity.menger_s", "connectivity.min_flow_ratio"),
     ("groups_kappa",)),
    (("dihedral.iso_s", "dihedral.regular_s"), ("construct_cayley",)),
    (("symmetry.transitivity_s", "symmetry.regular_search_s", "symmetry.regular_candidates"),
     ("construct_cayley",)),
    (("symmetry.explore_s",), ("groups_kappa", "construct_cayley")),
    (("cli.self_s", "cli.stdout_bytes"), ("groups_kappa",)),
    (("trace.overhead_s",), tuple(run.WORKLOADS)),
]


def check_names() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    package = importlib.import_module("bkneser")
    modules = {m.name: importlib.import_module(f"bkneser.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)}
    problems = []
    for name, (definer, attribute, binders, _) in tracer.TARGETS.items():
        try:
            original, _ = tracer.resolve(definer, attribute)
        except (ImportError, AttributeError) as exc:
            problems.append(f"{name}: bkneser.{definer}.{attribute} does not resolve ({exc})")
            continue
        if "." in attribute:
            continue  # methods are patched on their class, whoever imports it
        actual = {f"{m}.{key}" for m, module in modules.items()
                  for key, value in vars(module).items() if value is original}
        declared = {f"{b}.{attribute}" for b in binders}
        for missing in sorted(declared - actual):
            problems.append(f"{name}: bkneser.{missing} no longer binds it")
        for extra in sorted(actual - declared):
            problems.append(f"{name}: also bound as bkneser.{extra}, which TARGETS does not list")
    return problems


def check_traced_workloads() -> list[str]:
    expected = run.load_expected()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        report = run.run_workload(workload, 0, 0, True, expected)
        print(f"{workload}: one traced pass, {report['failed']} failed", flush=True)
        problems += [f"{workload}: {f['job']}: {f['error']}" for f in report["failures"]]
        problems += [f"{workload}: trace target {u} unresolved"
                     for u in report["unresolved_trace_targets"]]
        if {k: m["unit"] for k, m in report["metrics"].items()} != per_layer:
            problems.append(f"{workload}: traced metrics or units differ from BENCHMARK.json")
        for metrics, workloads in PREDICTED:
            if workload not in workloads:
                continue
            for metric in metrics:
                if not report["metrics"][metric]["value"]:
                    problems.append(f"{workload}: {metric} reads zero")
    return problems


def main() -> int:
    problems = check_names()
    if not problems:
        problems = check_traced_workloads()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
