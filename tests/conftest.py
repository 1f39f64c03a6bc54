import io
import sys
from pathlib import Path

import pytest

# run straight from a checkout: tests/ for the oracles, src/ for the package
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from bkneser import Graph, build_bipartite_kneser


def mask(*elements):
    """The subset {elements} of [n] as a mask: bit i-1 holds element i."""
    return sum(1 << (x - 1) for x in set(elements))


def written(write, *args):
    """The text that a ``Graph.write_*`` method writes, given its other arguments."""
    handle = io.StringIO()
    write(handle, *args)
    return handle.getvalue()


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def two_switched(kg):
    """H(n,k) with one 2-switch: edges a-b and c-d become a-d and c-b.

    a and c lie on the k-side, and a-d and c-b are non-edges before the
    switch.  Degrees and parts stay, so the result has every count of
    H(n,k), but it is no longer H(n,k): the known generators, built from
    its unchanged subset masks, are not all automorphisms of it.
    """
    graph, side = kg.graph, kg.side_size
    a, b = graph.edges()[0]
    c, d = next((c, d) for c in range(side) for d in range(side, 2 * side)
                if graph.has_edge(c, d) and not graph.has_edge(a, d)
                and not graph.has_edge(c, b))
    edges = set(graph.edges()) ^ {(a, b), (c, d), (a, d), (c, b)}
    return type(kg)(n=kg.n, k=kg.k, graph=Graph.from_edges(graph.vertex_count, edges),
                    side_size=side, masks=kg.masks)


@pytest.fixture(scope="session")
def corpus():
    """Named small graphs shared by the oracle cross-check tests."""
    graphs = {
        "K1": Graph(1, [()]),
        "K2": complete_graph(2),
        "K4": complete_graph(4),
        "K5": complete_graph(5),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "P5": path_graph(5),
        "C3": cycle_graph(3),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "C7": cycle_graph(7),
        "C8": cycle_graph(8),
        "star3": star_graph(3),
        "star4": star_graph(4),
        "K23": complete_bipartite(2, 3),
        "K33": complete_bipartite(3, 3),
        "empty3": Graph(3, [(), (), ()]),
        "two_triangles": Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        ),
        "triangle_plus_edge": Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        "H31": build_bipartite_kneser(3, 1).graph,
        "H41": build_bipartite_kneser(4, 1).graph,
        "petersen": petersen_graph(),
    }
    return graphs
