"""Per-layer tracing of one `bkneser` CLI job, from outside the package.

Run as a child process by `run.py`:

    python3 perfbench/tracer.py --spans-fd FD -- aut --n 8 --k 3

The child imports `bkneser`, replaces each function named in TARGETS with a
wrapper in every module namespace that binds it, calls `bkneser.cli.run`
with the job's arguments and exits with its code.  Each wrapped call records
a span (name, start, end, parent, extracted value, exception).  When the job
ends the spans are reduced to per-name totals (calls, self time, summed
value, value histogram, exceptions) and written once, as JSON, to FD.  The
job's stdout is left untouched so its digest can be compared with the
untraced run.

The parent turns those totals into the per-layer metrics with
`LAYER_METRICS`.  Nothing under `src/` knows about this file.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Optional


def _len_sum(orbits) -> int:
    return sum(len(o) for o in orbits)


# span name -> (defining module, attribute, modules binding it by name, value of the result).
# A dotted attribute names a method, which is patched on its class.
TARGETS: dict[str, tuple[str, str, tuple[str, ...], Optional[Callable]]] = {
    "kneser.build_bipartite_kneser": (
        "kneser", "build_bipartite_kneser", ("kneser", "cli", "dihedral", "symmetry"),
        lambda kg: kg.vertex_count),
    "kneser.verify_family_counts": ("kneser", "verify_family_counts", ("kneser", "cli"), None),
    "subsets.rank_subset": ("subsets", "rank_subset", ("subsets", "kneser"), None),
    "subsets.unrank_subset": ("subsets", "unrank_subset", ("subsets", "kneser"), None),
    "graphs.Graph.__init__": ("graphs", "Graph.__init__", (), None),
    "graphs.Graph.bfs_distances": ("graphs", "Graph.bfs_distances", (), None),
    "graphs.Graph.is_connected": ("graphs", "Graph.is_connected", (), None),
    "graphs.Graph.bipartition": ("graphs", "Graph.bipartition", (), None),
    "graphs.Graph.diameter": ("graphs", "Graph.diameter", (), None),
    "graphs.Graph.edges": ("graphs", "Graph.edges", (), None),
    "graphs.Graph.arcs": ("graphs", "Graph.arcs", (), None),
    "perms.closure_images": (
        "perms", "closure_images", ("perms", "autgroup", "symmetry"), len),
    "perms.group_closure": ("perms", "group_closure", ("perms", "cli", "symmetry"), None),
    "perms.orbit": ("perms", "orbit", ("perms",), None),
    "perms.orbits_on_vertices": ("perms", "orbits_on_vertices", ("perms", "symmetry"), None),
    "perms.orbits_on_ordered_pairs": (
        "perms", "orbits_on_ordered_pairs", ("perms", "symmetry"), _len_sum),
    "perms.orbits_on_unordered_pairs": (
        "perms", "orbits_on_unordered_pairs", ("perms", "symmetry"), _len_sum),
    "perms.induced_automorphism": ("perms", "induced_automorphism", ("perms",), None),
    "perms.complement_automorphism": (
        "perms", "complement_automorphism", ("perms", "symmetry"), None),
    "autgroup.automorphism_group": (
        "autgroup", "automorphism_group", ("autgroup", "cli", "symmetry"),
        lambda group: len(group.generators)),
    "connectivity.max_flow": ("connectivity", "max_flow", ("connectivity",),
                              lambda result: result.value),
    "connectivity.vertex_connectivity": (
        "connectivity", "vertex_connectivity", ("connectivity", "cli"), int),
    "connectivity.menger_certificate": (
        "connectivity", "menger_certificate", ("connectivity", "cli"), None),
    "dihedral.explicit_iso_Hn1": ("dihedral", "explicit_iso_Hn1", ("dihedral", "cli"), None),
    "dihedral.left_regular_subgroup": (
        "dihedral", "left_regular_subgroup", ("dihedral", "cli"), None),
    "symmetry.transitivity_report": (
        "symmetry", "transitivity_report", ("symmetry", "cli"), None),
    "symmetry.find_regular_subgroup": (
        "symmetry", "find_regular_subgroup", ("symmetry",),
        lambda search: search.candidates_checked),
    "symmetry.explore_question1": ("symmetry", "explore_question1", ("symmetry", "cli"), None),
    "symmetry.explore_question2": ("symmetry", "explore_question2", ("symmetry", "cli"), None),
    "cli.run": ("cli", "run", ("cli",), None),
}


def resolve(definer: str, attribute: str):
    """The object TARGETS names, and the class owning it for a method (else None)."""
    obj = importlib.import_module(f"bkneser.{definer}")
    owner = None
    for part in attribute.split("."):
        owner, obj = obj, getattr(obj, part)
    return obj, (owner if "." in attribute else None)


def _empty_entry() -> dict:
    return {"calls": 0, "self_s": 0.0, "value": 0, "values": Counter(), "raised": Counter()}


class Tracer:
    """Spans of one process, kept in memory and reduced once at the end."""

    def __init__(self) -> None:
        # (name, start, end, parent index, value, exception type name)
        self.spans: list[tuple[str, float, float, int, object, Optional[str]]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, extract: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the slot so children point at it
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent, None, type(exc).__name__)
                raise
            finally:
                stack.pop()
            end = clock()
            value = None if extract is None else extract(result)
            spans[index] = (name, start, end, parent, value, None)
            return result

        return traced

    def install(self) -> list[str]:
        """Patch every target; return the bindings that no longer resolve."""
        unresolved = []
        # Import everything first: a module imported after a patch would bind the wrapper.
        for definer, _, binders, _ in TARGETS.values():
            for module in (definer, *binders):
                importlib.import_module(f"bkneser.{module}")
        for name, (definer, attribute, binders, extract) in TARGETS.items():
            try:
                original, owner = resolve(definer, attribute)
            except (ImportError, AttributeError):
                unresolved.append(name)
                continue
            wrapper = self.wrap(name, original, extract)
            if owner is not None:
                setattr(owner, attribute.rsplit(".", 1)[1], wrapper)
                continue
            for binder in binders:
                module = importlib.import_module(f"bkneser.{binder}")
                if getattr(module, attribute, None) is original:
                    setattr(module, attribute, wrapper)
                else:
                    unresolved.append(f"{name} in {binder}")
        return unresolved

    def totals(self) -> dict:
        """Per-name calls, self time, value sum and histogram, exceptions."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, value, error) in enumerate(self.spans):
            entry = out.setdefault(name, _empty_entry())
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            if value is not None:
                entry["value"] += value
                entry["values"][str(value)] += 1
            if error is not None:
                entry["raised"][error] += 1
        return out


def merge_totals(parts: list[dict]) -> dict:
    """Sum per-name totals over several jobs."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, entry in part.items():
            acc = out.setdefault(name, _empty_entry())
            for key in ("calls", "self_s", "value"):
                acc[key] += entry[key]
            acc["values"].update(entry["values"])
            acc["raised"].update(entry["raised"])
    return out


def _get(totals: dict, name: str) -> dict:
    return totals.get(name) or _empty_entry()


def _value(totals: dict, name: str) -> int:
    return _get(totals, name)["value"]


def _self(totals: dict, *names: str) -> float:
    return sum(_get(totals, n)["self_s"] for n in names)


def _calls(totals: dict, *names: str) -> int:
    return sum(_get(totals, n)["calls"] for n in names)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _min_flow_ratio(totals: dict) -> float:
    kappas = set(_get(totals, "connectivity.vertex_connectivity")["values"])
    flows = _get(totals, "connectivity.max_flow")
    at_kappa = sum(n for value, n in flows["values"].items() if value in kappas)
    return _ratio(at_kappa, flows["calls"])


def _complete_ratio(totals: dict) -> float:
    closure = _get(totals, "perms.closure_images")
    return _ratio(closure["calls"] - sum(closure["raised"].values()), closure["calls"])


RANKS = ("subsets.rank_subset", "subsets.unrank_subset")
BFS = ("graphs.Graph.bfs_distances", "graphs.Graph.is_connected", "graphs.Graph.bipartition")
ORBITS = ("perms.orbit", "perms.orbits_on_vertices",
          "perms.orbits_on_ordered_pairs", "perms.orbits_on_unordered_pairs")

# per-layer metric -> (unit, value from the merged totals of one pass)
LAYER_METRICS: dict[str, tuple[str, Callable[[dict], float]]] = {
    "kneser.build_s": ("s", lambda t: _self(t, "kneser.build_bipartite_kneser")),
    "kneser.build_calls": ("count", lambda t: _calls(t, "kneser.build_bipartite_kneser")),
    "kneser.vertices_built": ("count", lambda t: _value(t, "kneser.build_bipartite_kneser")),
    "kneser.verify_s": ("s", lambda t: _self(t, "kneser.verify_family_counts")),
    "subsets.rank_calls": ("count", lambda t: _calls(t, *RANKS)),
    "subsets.rank_s": ("s", lambda t: _self(t, *RANKS)),
    "graphs.init_s": ("s", lambda t: _self(t, "graphs.Graph.__init__")),
    "graphs.bfs_calls": ("count", lambda t: _calls(t, *BFS)),
    "graphs.bfs_s": ("s", lambda t: _self(t, *BFS, "graphs.Graph.diameter")),
    "graphs.edges_s": ("s", lambda t: _self(t, "graphs.Graph.edges", "graphs.Graph.arcs")),
    "perms.closure_calls": ("count", lambda t: _calls(t, "perms.closure_images")),
    "perms.closure_elements": ("count", lambda t: _value(t, "perms.closure_images")),
    "perms.closure_s": ("s", lambda t: _self(t, "perms.closure_images", "perms.group_closure")),
    "perms.closure_capped": ("count", lambda t: _get(t, "perms.closure_images")["raised"].get(
        "OrderCapExceeded", 0)),
    "perms.closure_complete_ratio": ("ratio", _complete_ratio),
    "perms.orbit_s": ("s", lambda t: _self(t, *ORBITS)),
    "perms.orbit_pairs": ("count", lambda t: _value(t, "perms.orbits_on_ordered_pairs")
                          + _value(t, "perms.orbits_on_unordered_pairs")),
    "perms.induced_s": ("s", lambda t: _self(
        t, "perms.induced_automorphism", "perms.complement_automorphism")),
    "autgroup.calls": ("count", lambda t: _calls(t, "autgroup.automorphism_group")),
    "autgroup.search_s": ("s", lambda t: _self(t, "autgroup.automorphism_group")),
    "autgroup.generators": ("count", lambda t: _value(t, "autgroup.automorphism_group")),
    "connectivity.flows": ("count", lambda t: _calls(t, "connectivity.max_flow")),
    "connectivity.flow_s": ("s", lambda t: _self(t, "connectivity.max_flow")),
    "connectivity.augmenting_paths": ("count", lambda t: _value(t, "connectivity.max_flow")),
    "connectivity.kappa_s": ("s", lambda t: _self(t, "connectivity.vertex_connectivity")),
    "connectivity.menger_s": ("s", lambda t: _self(t, "connectivity.menger_certificate")),
    "connectivity.min_flow_ratio": ("ratio", _min_flow_ratio),
    "dihedral.iso_s": ("s", lambda t: _self(t, "dihedral.explicit_iso_Hn1")),
    "dihedral.regular_s": ("s", lambda t: _self(t, "dihedral.left_regular_subgroup")),
    "symmetry.transitivity_s": ("s", lambda t: _self(t, "symmetry.transitivity_report")),
    "symmetry.regular_search_s": ("s", lambda t: _self(t, "symmetry.find_regular_subgroup")),
    "symmetry.regular_candidates": ("count", lambda t: _value(t, "symmetry.find_regular_subgroup")),
    "symmetry.explore_s": ("s", lambda t: _self(
        t, "symmetry.explore_question1", "symmetry.explore_question2")),
    "cli.self_s": ("s", lambda t: _self(t, "cli.run")),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-fd", type=int, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = opts.argv[1:] if opts.argv[:1] == ["--"] else opts.argv

    tracer = Tracer()
    unresolved = tracer.install()
    cli = importlib.import_module("bkneser.cli")
    code = cli.run(argv)
    sys.stdout.flush()
    with os.fdopen(opts.spans_fd, "w", encoding="utf-8") as sink:
        json.dump({"totals": tracer.totals(), "unresolved": unresolved}, sink)
    sys.exit(code)


if __name__ == "__main__":
    main()
