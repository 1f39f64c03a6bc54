"""Command-line interface: every verification as a reproducible run.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 all assertions
passed, 1 a verified claim failed, 2 usage, domain or I/O error, or out of
memory, 3 internal error (any other exception, a bug; its traceback goes to
stderr).  A failed write or final flush of stdout (a full disk, a closed
pipe or a closed stdout) is an I/O error.

``main()``, the console entry point, flushes stdout and stderr itself and
ends the process with ``os._exit``, skipping interpreter teardown, except
under a profiler or tracer; library code calls ``run()``, which returns the
exit code and leaves the process alone.

The only environment knob is KNESER_ORDER_CAP, which overrides the cap on
every group enumeration: the stabilizer of vertex 0 in the Sym image in
``aut --method both``, the closure of the known generators in
``aut --method generators``, the engine's group when its order certificate
does not close, and the automorphism group that ``explore --question 1``
searches.  An order the engine proves is not capped, so
``aut --method engine`` is not either.

``aut --method both``, the default, hands the engine's group to
``verify_direct_product``, which compares it with Sym([n]) x Z_2: it holds
the Sym image S as the orbit of vertex 0 and its stabilizer, and enumerates
only the stabilizer's k!(n-k)! elements.  The known generators generate
S ∪ αS, where α is complementation, so the orders must be equal and each
engine generator g is tested as g in S or α∘g in S; a mismatch exits 1.
``aut --method generators`` enumerates all 2·n! elements of the known
generators' group, and is the oracle for the first.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from .autgroup import automorphism_group
from .connectivity import menger_certificate, vertex_connectivity
from .dihedral import explicit_iso_Hn1, left_regular_subgroup
from .errors import BKneserError, DomainError, VerificationError
from .kneser import build_bipartite_kneser, verify_family_counts
from .perms import (
    DEFAULT_ORDER_CAP,
    PermutationGroup,
    check_generators,
    format_cycles,
    group_closure,
    known_generators,
    stabilizer_generators,
)
from .subsets import binomial
from .symmetry import (
    GENERATOR_BOUND,
    SEARCH_CAVEAT,
    diameter_by_orbits,
    explore_question1,
    explore_question2,
    question2_table,
    transitivity_report,
    verify_direct_product,
)


def _order_cap() -> int:
    raw = os.environ.get("KNESER_ORDER_CAP")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"KNESER_ORDER_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"KNESER_ORDER_CAP must be positive, got {cap}")
    return cap


def _stdout():
    """``sys.stdout``; Python sets it to None when fd 1 is closed, an I/O error here."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _emit(payload: dict) -> None:
    _stdout().write(json.dumps(payload, separators=(",", ":")) + "\n")


def cmd_build(args: argparse.Namespace) -> int:
    kg = build_bipartite_kneser(args.n, args.k, allow_null=args.allow_null)
    write = kg.graph.write_dot if args.format == "dot" else kg.graph.write_json
    out = nullcontext(_stdout()) if args.out is None else open(args.out, "w", encoding="utf-8")
    with out as handle:
        write(handle, kg.labels())
    return 0


def cmd_props(args: argparse.Namespace) -> int:
    kg = build_bipartite_kneser(args.n, args.k)
    report = verify_family_counts(kg)
    # the known generators act transitively, so this is one BFS, not V
    group = PermutationGroup(known_generators(kg), kg.vertex_count)
    payload = {
        "vertices": report.vertices,
        "edges": report.edges,
        "degree": report.degree,
        "bipartition": list(report.part_sizes),
        "diameter": diameter_by_orbits(kg.graph, group),
    }
    _emit(payload)
    return 0


def cmd_aut(args: argparse.Namespace) -> int:
    cap = _order_cap()
    kg = build_bipartite_kneser(args.n, args.k)
    if args.method == "generators":
        known = known_generators(kg)
        check_generators(kg.graph, known)
        group = group_closure(known, order_cap=cap)
    else:
        group = automorphism_group(kg.graph, order_cap=cap)
    payload: dict = {"order": group.order}
    if args.method == "both":
        verify_direct_product(kg, group, order_cap=cap)
        payload["agree"] = True
    payload["generators"] = [format_cycles(g) for g in group.generators]
    _emit(payload)
    return 0


def cmd_transitivity(args: argparse.Namespace) -> int:
    kg = build_bipartite_kneser(args.n, args.k)
    # each stabilizer generator is an f_theta, so adding them keeps the group;
    # they fix vertex 0, which lets the report certify its suborbits
    gens = known_generators(kg) + stabilizer_generators(kg)
    report = transitivity_report(kg.graph, PermutationGroup(gens, kg.vertex_count))
    full = report.as_dict()
    if args.level == "all":
        payload = full
    else:
        orbit_key = {
            "vertex": "vertices",
            "edge": "edges",
            "arc": "arcs",
            "distance": "ordered_pairs",
        }[args.level]
        payload = {
            args.level: full[args.level],
            "orbits": {orbit_key: full["orbits"][orbit_key]},
        }
    _emit(payload)
    return 0


def cmd_connectivity(args: argparse.Namespace) -> int:
    kg = build_bipartite_kneser(args.n, args.k)
    kappa = vertex_connectivity(kg.graph, stabilizer_generators(kg))
    expected = binomial(args.n - args.k, args.k)
    payload: dict = {"kappa": kappa, "expected": expected, "match": kappa == expected}
    if args.certificate:
        # Vertex 0 and its complement partner are never adjacent when n > 2k.
        payload["certificate"] = menger_certificate(kg.graph, 0, kg.side_size)
    _emit(payload)
    if kappa != expected:
        raise VerificationError(f"connectivity {kappa} does not match the degree bound {expected}")
    return 0


def cmd_cayley_check(args: argparse.Namespace) -> int:
    iso = explicit_iso_Hn1(args.n)
    subgroup = left_regular_subgroup(iso)  # raises unless it acts regularly
    payload = {
        "n": args.n,
        "vertices": iso.kneser.vertex_count,
        "edges": iso.kneser.graph.edge_count,
        "isomorphic": True,
        "left_regular_order": subgroup.order,
        "regular_action": True,
    }
    _emit(payload)
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    cap = _order_cap()
    nmax = args.nmax if args.nmax is not None else {1: 5, 2: 6}[args.question]
    if args.question == 2:
        rows = explore_question2(nmax, args.kmax, order_cap=cap)
        text = question2_table(rows)
        payload = {
            "question": 2,
            "nmax": nmax,
            "rows": [r._asdict() for r in rows],
            "note": "evidence only: equality on these instances proves nothing "
                    "about unlisted (n, k)",
        }
    else:
        rows = explore_question1(nmax, args.kmax, order_cap=cap)
        lines = []
        for row in rows:
            # a row skipped by the work limit has no order; one skipped at the cap has
            order = "" if row.aut_order is None else f" |Aut|={row.aut_order}"
            reason = "" if row.skip_reason is None else f": {row.skip_reason}"
            lines.append(f"H({row.n},{row.k}):{order} {row.verdict}{reason}\n")
        text = "".join(lines) + SEARCH_CAVEAT + "\n"
        payload = {
            "question": 1,
            "nmax": nmax,
            "generator_bound": GENERATOR_BOUND,
            "rows": [r._asdict() for r in rows],
            "caveat": SEARCH_CAVEAT,
        }
    if args.format == "text":
        _stdout().write(text)
    else:
        _emit(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bkneser",
        description="Build bipartite Kneser graphs and verify their algebraic properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the one declaration of H(n,k)'s parameters, shared by the commands that take an instance
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--n", type=int, required=True)
    instance.add_argument("--k", type=int, required=True)

    p = sub.add_parser("build", parents=[instance], help="emit H(n,k) as JSON or DOT")
    p.add_argument("--allow-null", action="store_true")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("props", parents=[instance], help="counts, degree, bipartition, diameter")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("aut", parents=[instance], help="automorphism group order and generators")
    p.add_argument("--method", choices=["engine", "generators", "both"], default="both")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("transitivity", parents=[instance],
                       help="transitivity booleans and orbit counts")
    p.add_argument("--level", choices=["vertex", "edge", "arc", "distance", "all"], default="all")
    p.set_defaults(func=cmd_transitivity)

    p = sub.add_parser("connectivity", parents=[instance],
                       help="vertex connectivity against the degree bound")
    p.add_argument("--certificate", action="store_true")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("cayley-check", help="H(n,1) vs the dihedral Cayley graph")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_cayley_check)

    p = sub.add_parser("explore", help="bounded searches for the two open questions")
    p.add_argument("--question", type=int, choices=[1, 2], required=True)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_explore)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"claim failed: {exc}", file=sys.stderr)
        return 1
    except (BKneserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # before the generic handler, whose traceback import can fail again here
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception:
        import traceback  # only on this path: the import costs every run startup time

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


def _flush(code: int) -> int:
    """Flush stdout and stderr, and return the exit code with a failure mapped to 2.

    A failed flush is an I/O error.  A nonzero code from the command stands,
    and codes 2 and 3 have already printed their own line, often for the same
    failed write, so only codes 0 and 1 add an ``error:`` line.
    """
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code < 2 and sys.stderr is not None:
            try:
                sys.stderr.write(f"error: {exc}\n")
            except OSError:
                pass  # stderr fails too: the exit code is all that is left
        code = code or 2
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        code = code or 2
    return code


def _observed() -> bool:
    """Whether a profiler or tracer is attached (through sys.monitoring from 3.12 on)."""
    if sys.getprofile() is not None or sys.gettrace() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) for i in range(6))


def main() -> None:
    """The console entry point: ``run()``, one flush, then the end of the process.

    The process ends with ``os._exit``, so no ``atexit`` hook runs and no
    module, object or final garbage collection is torn down; by then stdout
    and stderr are flushed, and ``--out`` files are closed by their commands.
    A write to stderr that fails while ``run()`` reports an error exits 2.
    Under a profiler or tracer (``python -m cProfile -m bkneser.cli ...``)
    it ends with ``sys.exit`` instead, so the tool's exit-time report
    prints.  Library code and tests call ``run()``, which returns the code.
    """
    try:
        code = run()
    except OSError:  # stderr failed too, as run() reported an error on it
        code = 2
    code = _flush(code)
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
