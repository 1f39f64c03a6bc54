"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is exact integer equality; the runtime bounds are
asserted with time.monotonic around the whole criterion.
"""

import json
import math
import random
import time

from bkneser import (
    PermutationGroup,
    automorphism_group,
    binomial,
    build_bipartite_kneser,
    cli,
    complement_automorphism,
    compose,
    explicit_iso_Hn1,
    group_closure,
    induced_automorphism,
    known_generators,
    left_regular_subgroup,
    max_flow,
    menger_certificate,
    orbit,
    orbits_on_ordered_pairs,
    stabilizer_generators,
    verify_direct_product,
    verify_family_counts,
    vertex_connectivity,
)
from bkneser.perms import is_graph_automorphism
from oracles import (
    brute_force_automorphism_order,
    brute_vertex_connectivity,
    is_regular_action,
    stabilizer,
)


def _report(number, label, ok, elapsed, bound):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {label} ({elapsed:.2f}s, bound {bound}s)")


def _known_group(kg):
    return PermutationGroup(generators=known_generators(kg), degree=kg.vertex_count)


def test_criterion_1_family_counts():
    start = time.monotonic()
    problems = []
    for n in range(3, 13):
        for k in range(1, (n - 1) // 2 + 1):
            kg = build_bipartite_kneser(n, k)
            report = verify_family_counts(kg)  # raises on any mismatch
            if report.vertices != 2 * binomial(n, k):
                problems.append((n, k, "vertices"))
            if report.degree != binomial(n - k, k):
                problems.append((n, k, "degree"))
            if report.part_sizes != (binomial(n, k), binomial(n, k)):
                problems.append((n, k, "parts"))
            if not report.connected:
                problems.append((n, k, "connected"))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 5.0
    _report(1, "family counts for all feasible (n,k), n <= 12", ok, elapsed, 5)
    assert not problems
    assert elapsed < 5.0


def test_criterion_2_vertex_and_arc_transitivity():
    start = time.monotonic()
    problems = []
    for n, k in [(3, 1), (4, 1), (5, 1), (6, 1), (5, 2), (6, 2), (7, 2), (7, 3)]:
        kg = build_bipartite_kneser(n, k)
        group = _known_group(kg)
        vertex_orbits = len({min(orbit(group, v)) for v in range(kg.vertex_count)})
        arc_orbits = len(orbits_on_ordered_pairs(group, kg.graph.arcs()))
        if vertex_orbits != 1:
            problems.append((n, k, "vertex orbits", vertex_orbits))
        if arc_orbits != 1:
            problems.append((n, k, "arc orbits", arc_orbits))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    _report(2, "one orbit on vertices and arcs for the eight instances", ok, elapsed, 30)
    assert not problems
    assert elapsed < 30.0


def test_criterion_3_distance_transitivity_h_n_1():
    start = time.monotonic()
    problems = []
    for n in range(3, 8):
        kg = build_bipartite_kneser(n, 1)
        group = _known_group(kg)
        dist = [kg.graph.bfs_distances(v) for v in range(kg.vertex_count)]
        by_distance = {}
        for u in range(kg.vertex_count):
            for v in range(kg.vertex_count):
                by_distance.setdefault(dist[u][v], set()).add((u, v))
        orbits = orbits_on_ordered_pairs(group)
        orbit_partition = {frozenset(orb) for orb in orbits}
        distance_partition = {frozenset(cls) for cls in by_distance.values()}
        if orbit_partition != distance_partition:
            problems.append((n, "partition mismatch"))
        if len(orbits) != 4:
            problems.append((n, "orbit count", len(orbits)))
        if kg.graph.diameter() != 3:
            problems.append((n, "diameter", kg.graph.diameter()))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 30.0
    _report(3, "pair orbits = distance classes (4) and diameter 3 for H(n,1)",
            ok, elapsed, 30)
    assert not problems
    assert elapsed < 30.0


def test_criterion_4_connectivity():
    start = time.monotonic()
    expected = {(3, 1): 2, (4, 1): 3, (5, 1): 4, (5, 2): 3, (6, 2): 6, (7, 3): 4,
                (8, 3): 10, (9, 4): 5, (10, 4): 15}
    # the cases past n = 7 fix vertex 0 by the verified stabilizer, as the CLI does
    symmetric = {(8, 3), (9, 4), (10, 4)}
    problems = []
    for (n, k), target in expected.items():
        kg = build_bipartite_kneser(n, k)
        maps = stabilizer_generators(kg) if (n, k) in symmetric else ()
        kappa = vertex_connectivity(kg.graph, maps)
        if kappa != target or target != binomial(n - k, k):
            problems.append((n, k, kappa))
        # sampled pair: vertex 0 and its complement partner, never adjacent
        paths = menger_certificate(kg.graph, 0, kg.side_size)
        if len(paths) != kappa:
            problems.append((n, k, "certificate size", len(paths)))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    _report(4, "kappa = C(n-k,k) with verified Menger certificates", ok, elapsed, 120)
    assert not problems
    assert elapsed < 120.0


def test_criterion_5_cayley_isomorphism():
    start = time.monotonic()
    problems = []
    for n in range(3, 11):
        iso = explicit_iso_Hn1(n)  # raises IsomorphismError on any failure
        subgroup = left_regular_subgroup(iso)
        enumerated = group_closure(subgroup.generators)
        if enumerated.order != subgroup.order or not is_regular_action(enumerated, 2 * n):
            problems.append((n, "not regular"))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 10.0
    _report(5, "H(n,1) = Cay(D_2n, omega) with a regular subgroup, n = 3..10",
            ok, elapsed, 10)
    assert not problems
    assert elapsed < 10.0


def test_criterion_6_automorphism_group_h_n_1():
    start = time.monotonic()
    problems = []
    for n in range(3, 7):
        kg = build_bipartite_kneser(n, 1)
        engine = automorphism_group(kg.graph)
        closure = group_closure(known_generators(kg))
        target = 2 * math.factorial(n)
        if engine.order != target:
            problems.append((n, "engine", engine.order))
        if closure.order != engine.order:
            problems.append((n, "closure", closure.order))
        verify_direct_product(kg, engine)  # raises StructureError on failure
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 120.0
    _report(6, "Aut(H(n,1)) = 2 n! with direct-product structure, n = 3..6",
            ok, elapsed, 120)
    assert not problems
    assert elapsed < 120.0


def test_criterion_7_middle_levels_h52():
    start = time.monotonic()
    kg = build_bipartite_kneser(5, 2)
    engine = automorphism_group(kg.graph)
    ok_order = engine.order == 240 == 2 * math.factorial(5)
    verify_direct_product(kg, engine)
    elapsed = time.monotonic() - start
    ok = ok_order and elapsed < 60.0
    _report(7, "Aut(H(5,2)) = 240 with direct-product structure", ok, elapsed, 60)
    assert ok_order
    assert elapsed < 60.0


def test_criterion_8_oracle_cross_checks(corpus):
    start = time.monotonic()
    problems = []
    for name, graph in corpus.items():
        if graph.vertex_count <= 8:
            if automorphism_group(graph).order != brute_force_automorphism_order(graph):
                problems.append((name, "aut"))
        if graph.vertex_count <= 9:
            if vertex_connectivity(graph) != brute_vertex_connectivity(graph):
                problems.append((name, "kappa"))
    # flow value vs extracted min cut on a batch of solves
    for n, k in [(3, 1), (4, 1), (5, 2), (6, 2)]:
        kg = build_bipartite_kneser(n, k)
        result = max_flow(kg.graph, 0, kg.side_size)
        if result.value != result.cut_capacity:
            problems.append((n, k, "cut"))
    elapsed = time.monotonic() - start
    ok = not problems
    _report(8, "engine vs |V|! count, flow kappa vs cut enumeration, flow = cut",
            ok, elapsed, 120)
    assert not problems


def test_criterion_9_algebraic_property_suite():
    start = time.monotonic()
    problems = []
    for n, k in [(6, 2), (7, 3)]:
        kg = build_bipartite_kneser(n, k)
        alpha = complement_automorphism(kg)
        identity = tuple(range(kg.vertex_count))
        if compose(alpha, alpha) != identity:
            problems.append((n, k, "alpha order"))
        rng = random.Random(1000 * n + k)
        for _ in range(1000):
            theta = tuple(rng.sample(range(n), n))
            f = induced_automorphism(kg, theta)
            if not is_graph_automorphism(kg.graph, f):
                problems.append((n, k, "automorphism", theta))
                break
            if compose(f, alpha) != compose(alpha, f):
                problems.append((n, k, "commute", theta))
                break
            if f == alpha:
                problems.append((n, k, "alpha in sym image", theta))
                break
    kg41 = build_bipartite_kneser(4, 1)
    full = group_closure(known_generators(kg41))
    for v in range(kg41.vertex_count):
        if full.order != len(orbit(full, v)) * stabilizer(full, v).order:
            problems.append((4, 1, "orbit-stabilizer", v))
    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 60.0
    _report(9, "1000 random theta on H(6,2), H(7,3) plus orbit-stabilizer on H(4,1)",
            ok, elapsed, 60)
    assert not problems
    assert elapsed < 60.0


def test_criterion_10_exploration_outputs(capsys):
    start = time.monotonic()
    code = cli.run(["explore", "--question", "2", "--nmax", "7"])
    out_q2 = capsys.readouterr().out
    assert code == 0
    data = json.loads(out_q2)
    feasible = {(n, k) for n in range(3, 8) for k in range(1, (n - 1) // 2 + 1)}
    rows = {(row["n"], row["k"]): row for row in data["rows"]}
    assert set(rows) == feasible
    assert all(row["comparison"] in ("equal", "not equal") for row in rows.values())
    assert "evidence only" in data["note"]

    code = cli.run(["explore", "--question", "1", "--nmax", "5"])
    out_q1 = capsys.readouterr().out
    assert code == 0
    data1 = json.loads(out_q1)
    row52 = next(r for r in data1["rows"] if (r["n"], r["k"]) == (5, 2))
    assert row52["regular_subgroup_order"] is None
    assert "not exhaustive" in row52["verdict"]
    assert "at most 2 elements" in data1["caveat"]
    elapsed = time.monotonic() - start
    _report(10, "question 1 and 2 explorations emit bounded evidence only",
            True, elapsed, 120)
