import errno
import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bkneser import autgroup, cli, dihedral, perms, symmetry
from bkneser.graphs import Graph
from bkneser.kneser import build_bipartite_kneser, verify_family_counts
from bkneser.perms import known_generators, stabilizer_generators
from bkneser.symmetry import feasible_parameters
from conftest import two_switched


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_props_h52(capsys):
    code, out, _ = run_cli(capsys, "props", "--n", "5", "--k", "2")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 20
    assert data["edges"] == 30
    assert data["degree"] == 3
    assert data["diameter"] == 5
    assert data["bipartition"] == [10, 10]


def test_props_takes_one_bfs_per_vertex_orbit(capsys, monkeypatch):
    # the known generators are transitive, so no all-vertices diameter runs
    def all_vertices(self):
        raise AssertionError("Graph.diameter ran")

    monkeypatch.setattr(Graph, "diameter", all_vertices)
    for n, k, diameter in ((9, 4, 9), (10, 4, 5), (7, 1, 3)):
        code, out, _ = run_cli(capsys, "props", "--n", str(n), "--k", str(k))
        assert code == 0 and json.loads(out)["diameter"] == diameter, (n, k)


def test_aut_both_h41(capsys):
    code, out, _ = run_cli(capsys, "aut", "--n", "4", "--k", "1", "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 48
    assert data["agree"] is True
    assert all(isinstance(g, str) for g in data["generators"])


def test_aut_generators_method(capsys):
    code, out, _ = run_cli(capsys, "aut", "--n", "3", "--k", "1", "--method", "generators")
    assert code == 0
    assert json.loads(out)["order"] == 12


def test_aut_engine_certifies_h94(capsys):
    code, out, _ = run_cli(capsys, "aut", "--method", "engine", "--n", "9", "--k", "4")
    assert code == 0
    assert json.loads(out)["order"] == 2 * 362_880  # 2 * 9!


def test_aut_above_the_work_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(autgroup, "WORK_LIMIT", 10_000)
    code, out, err = run_cli(capsys, "aut", "--method", "engine", "--n", "9", "--k", "4")
    assert code == 2
    assert out == ""
    assert "252 vertices and 630 edges exceeds the work limit of 10000" in err


def test_aut_generators_above_the_closure_limit_exits_2(capsys):
    # H(10,4) has 420 vertices; the closure refuses it before its BFS
    code, out, err = run_cli(capsys, "aut", "--method", "generators", "--n", "10", "--k", "4")
    assert code == 2
    assert out == ""
    assert "degree 420 exceeds the limit of 256 points" in err


def test_build_null_graph_exits_2(capsys):
    code, out, err = run_cli(capsys, "build", "--n", "4", "--k", "2")
    assert code == 2
    assert out == ""
    assert "no edges" in err


def test_build_json_and_dot(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "build", "--n", "3", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["vertex_count"] == 6
    assert len(data["edges"]) == 6
    assert data["labels"][0] == "{1}"

    target = tmp_path / "h31.dot"
    code, out, _ = run_cli(capsys, "build", "--n", "3", "--k", "1",
                           "--format", "dot", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("graph G {") and "0 -- " in text


H41_JSON = (
    '{"vertex_count":8,"edges":[[0,5],[0,6],[0,7],[1,4],[1,6],[1,7],[2,4],[2,5],[2,7],'
    '[3,4],[3,5],[3,6]],"labels":["{1}","{2}","{3}","{4}","{2,3,4}","{1,3,4}","{1,2,4}",'
    '"{1,2,3}"]}\n'
)

H41_DOT = """graph G {
  0 [label="{1}"];
  1 [label="{2}"];
  2 [label="{3}"];
  3 [label="{4}"];
  4 [label="{2,3,4}"];
  5 [label="{1,3,4}"];
  6 [label="{1,2,4}"];
  7 [label="{1,2,3}"];
  0 -- 5;
  0 -- 6;
  0 -- 7;
  1 -- 4;
  1 -- 6;
  1 -- 7;
  2 -- 4;
  2 -- 5;
  2 -- 7;
  3 -- 4;
  3 -- 5;
  3 -- 6;
}
"""


def test_build_h41_golden_stdout(capsys):
    assert run_cli(capsys, "build", "--n", "4", "--k", "1") == (0, H41_JSON, "")
    assert run_cli(capsys, "build", "--n", "4", "--k", "1", "--format", "dot") == (0, H41_DOT, "")


AUT_52_JSON = (
    '{"order":240,"agree":true,"generators":['
    '"(2 3)(5 6)(7 8)(12 13)(15 16)(17 18)",'
    '"(1 2)(4 5)(8 9)(11 12)(14 15)(18 19)",'
    '"(1 4)(2 5)(3 6)(11 14)(12 15)(13 16)",'
    '"(0 1)(5 7)(6 8)(10 11)(15 17)(16 18)",'
    '"(0 10)(1 11)(2 12)(3 13)(4 14)(5 15)(6 16)(7 17)(8 18)(9 19)"]}\n'
)


def test_aut_golden_stdout(capsys):
    # the engine's generators, in the order it finds them
    assert run_cli(capsys, "aut", "--n", "5", "--k", "2") == (0, AUT_52_JSON, "")


def test_build_allow_null(capsys):
    code, out, _ = run_cli(capsys, "build", "--n", "4", "--k", "2", "--allow-null")
    assert code == 0
    assert json.loads(out)["edges"] == []


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "transitivity", "--n", "4", "--k", "1")
    _, second, _ = run_cli(capsys, "transitivity", "--n", "4", "--k", "1")
    assert first == second


def test_transitivity_level_filter(capsys):
    code, out, _ = run_cli(capsys, "transitivity", "--n", "4", "--k", "1",
                           "--level", "arc")
    assert code == 0
    data = json.loads(out)
    assert data == {"arc": True, "orbits": {"arcs": 1}}


@pytest.mark.parametrize("n, k", feasible_parameters(10))
def test_transitivity_closed_form(capsys, n, k):
    # H(n,k) has 2k+2 pair orbits, and it is distance-transitive exactly when
    # k = 1 or n = 2k+1
    code, out, _ = run_cli(capsys, "transitivity", "--n", str(n), "--k", str(k))
    assert code == 0
    data = json.loads(out)
    assert data["orbits"]["ordered_pairs"] == 2 * k + 2
    assert data["distance"] == (k == 1 or n == 2 * k + 1)
    assert data["vertex"] and data["edge"] and data["arc"]


TRANSITIVITY_12_5_JSON = (
    '{"vertex":true,"edge":true,"arc":true,"distance":false,'
    '"orbits":{"vertices":1,"edges":1,"arcs":1,"ordered_pairs":12},"distance_values":8}\n'
)


def test_transitivity_golden_stdout(capsys):
    # recorded when the report partitioned all V^2 ordered pairs, which took
    # about 416 MB at this size
    assert run_cli(capsys, "transitivity", "--n", "12", "--k", "5") == (
        0, TRANSITIVITY_12_5_JSON, "")


def test_transitivity_n13_k6(capsys):
    # 3,432 vertices, so 11.8 million ordered pairs; the report reads the 14
    # suborbits of vertex 0 instead
    code, out, _ = run_cli(capsys, "transitivity", "--n", "13", "--k", "6")
    assert code == 0
    assert '"ordered_pairs":14' in out
    assert '"distance":true' in out


def test_connectivity_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "--n", "3", "--k", "1",
                           "--certificate")
    assert code == 0
    data = json.loads(out)
    assert data["kappa"] == 2
    assert data["expected"] == 2
    assert data["match"] is True
    assert len(data["certificate"]) == 2


def test_cayley_check(capsys):
    code, out, _ = run_cli(capsys, "cayley-check", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True
    assert data["left_regular_order"] == 10
    assert data["regular_action"] is True


def test_cayley_check_n31(capsys):
    code, out, _ = run_cli(capsys, "cayley-check", "--n", "31")
    assert code == 0
    assert json.loads(out)["left_regular_order"] == 62


def test_cayley_check_past_256_points(capsys):
    # two transported maps and three relations: no enumerated group caps the degree
    code, out, _ = run_cli(capsys, "cayley-check", "--n", "256")
    assert code == 0
    assert out == ('{"n":256,"vertices":512,"edges":65280,"isomorphic":true,'
                   '"left_regular_order":512,"regular_action":true}\n')


def test_cayley_check_exits_1_when_a_transported_map_breaks_an_edge(capsys, monkeypatch):
    iso = dihedral.explicit_iso_Hn1(5)
    # {1} and {2} swap images, so the map is no isomorphism and a no automorphism
    images = list(iso.vertex_map)
    images[0], images[1] = images[1], images[0]
    monkeypatch.setattr(cli, "explicit_iso_Hn1", lambda n: iso._replace(vertex_map=tuple(images)))
    code, out, err = run_cli(capsys, "cayley-check", "--n", "5")
    assert code == 1 and out == ""
    assert "claim failed: transported translation by a broke an edge" in err


def test_explore_question2_json(capsys):
    code, out, _ = run_cli(capsys, "explore", "--question", "2", "--nmax", "5")
    assert code == 0
    data = json.loads(out)
    assert data["question"] == 2
    assert {(row["n"], row["k"]) for row in data["rows"]} == {
        (3, 1), (4, 1), (5, 1), (5, 2)
    }
    assert all(row["comparison"] in ("equal", "not equal") for row in data["rows"])


def test_explore_question1_caveat(capsys):
    code, out, _ = run_cli(capsys, "explore", "--question", "1", "--nmax", "5")
    assert code == 0
    data = json.loads(out)
    assert data["generator_bound"] == 2
    assert data["caveat"] == ("only subgroups generated by at most 2 elements were searched; "
                              "a miss is not a proof of non-Cayley-ness")
    row52 = next(r for r in data["rows"] if (r["n"], r["k"]) == (5, 2))
    assert row52["regular_subgroup_order"] is None


def test_explore_question1_rows_skipped_at_the_cap_keep_their_order(capsys, monkeypatch):
    # the engine certifies |Aut(H(5,k))| = 240; only the enumeration for the
    # search is capped, so the row keeps the order and the text names the reason
    monkeypatch.setenv("KNESER_ORDER_CAP", "100")
    code, out, _ = run_cli(capsys, "explore", "--question", "1", "--nmax", "5")
    assert code == 0
    rows = {(r["n"], r["k"]): r for r in json.loads(out)["rows"]}
    assert rows[(4, 1)]["aut_order"] == 48 and rows[(4, 1)]["regular_subgroup_order"] == 8
    for key in ((5, 1), (5, 2)):
        assert rows[key]["aut_order"] == 240
        assert rows[key]["verdict"] == "skipped"
        assert rows[key]["skip_reason"] == "group closure exceeded the cap of 100 elements"
    code, out, _ = run_cli(capsys, "explore", "--question", "1", "--nmax", "5",
                           "--format", "text")
    assert code == 0 and "None" not in out
    assert out.splitlines()[2:4] == [
        f"H(5,{k}): |Aut|=240 skipped: group closure exceeded the cap of 100 elements"
        for k in (1, 2)
    ]


def test_explore_question1_text_gives_a_work_limit_skip_no_order(capsys, monkeypatch):
    # H(3,1) needs 12 units of work per node, H(5,2) 50
    monkeypatch.setattr(autgroup, "WORK_LIMIT", 200)
    code, out, _ = run_cli(capsys, "explore", "--question", "1", "--nmax", "5",
                           "--format", "text")
    assert code == 0 and "None" not in out
    skipped = [line for line in out.splitlines() if "skipped" in line]
    assert skipped and out.startswith("H(3,1): |Aut|=12 regular subgroup found")
    for line in skipped:
        head, reason = line.split(": skipped: ")
        assert head.startswith("H(") and "|Aut|" not in head, line
        assert reason.endswith("exceeds the work limit of 200"), line


@pytest.mark.parametrize("question", ["1", "2"])
@pytest.mark.parametrize("bound", [["--kmax", "0"], ["--kmax", "-1"], ["--nmax", "2"]],
                         ids=["kmax0", "kmax-1", "nmax2"])
def test_explore_bounds_without_a_feasible_pair_exit_2(capsys, question, bound):
    # like --k 0 elsewhere, a bound that admits no feasible (n, k) is a domain
    # error, not an empty table
    code, out, err = run_cli(capsys, "explore", "--question", question, *bound)
    assert (code, out) == (2, "")
    assert "error: no feasible (n, k)" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "props", "--n", "3")[0] == 2  # missing --k
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "props", "--n", "2", "--k", "2")[0] == 2  # domain


def test_order_cap_env_var(capsys, monkeypatch):
    # the one closure of `aut --method both` is the stabilizer of vertex 0 in
    # the Sym image, 3! = 6 elements on H(4,1)
    monkeypatch.setenv("KNESER_ORDER_CAP", "5")
    code, _, err = run_cli(capsys, "aut", "--n", "4", "--k", "1")
    assert code == 2
    assert "cap" in err

    monkeypatch.setenv("KNESER_ORDER_CAP", "banana")
    assert run_cli(capsys, "aut", "--n", "3", "--k", "1")[0] == 2


def test_corrupted_graph_exits_1(capsys, monkeypatch):
    # simulate an implementation bug: props must notice and exit 1
    def corrupted(n, k, allow_null=False):
        kg = build_bipartite_kneser(n, k, allow_null=allow_null)
        edges = kg.graph.edges()[1:]
        broken_graph = type(kg.graph).from_edges(kg.graph.vertex_count, edges)
        return type(kg)(n=n, k=k, graph=broken_graph, side_size=kg.side_size,
                        masks=kg.masks)

    monkeypatch.setattr(cli, "build_bipartite_kneser", corrupted)
    code, _, err = run_cli(capsys, "props", "--n", "4", "--k", "1")
    assert code == 1
    assert "claim failed" in err


@pytest.mark.parametrize("command", [
    ["props"], ["transitivity"], ["aut", "--method", "generators"],
], ids=lambda command: command[0])
def test_construction_that_keeps_the_counts_fails_the_map_check(capsys, monkeypatch, command):
    # the counts pass, so only the check of the known generators can catch it
    def switched(n, k, allow_null=False):
        return two_switched(build_bipartite_kneser(n, k, allow_null=allow_null))

    verify_family_counts(switched(6, 2))
    monkeypatch.setattr(cli, "build_bipartite_kneser", switched)
    code, out, err = run_cli(capsys, *command, "--n", "6", "--k", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("claim failed: ") and "not an automorphism" in err


@pytest.mark.parametrize("command, maps", [
    (["props"], known_generators),
    (["transitivity"], lambda kg: known_generators(kg) + stabilizer_generators(kg)),
    (["connectivity", "--certificate"], stabilizer_generators),
    (["aut", "--method", "generators"], known_generators),
], ids=["props", "transitivity", "connectivity", "aut-generators"])
def test_each_map_is_checked_once(capsys, monkeypatch, command, maps):
    checked = []
    is_isomorphism = perms.is_isomorphism

    def counting(g1, g2, images):
        checked.append(tuple(images))
        return is_isomorphism(g1, g2, images)

    monkeypatch.setattr(perms, "is_isomorphism", counting)
    code, _, _ = run_cli(capsys, *command, "--n", "7", "--k", "3")
    assert code == 0
    # transitivity lists f_(1 2) twice: among the known generators and the stabilizer's
    assert sorted(checked) == sorted(set(maps(build_bipartite_kneser(7, 3))))


def test_aut_disagreement_exits_1(capsys, monkeypatch):
    from bkneser.perms import PermutationGroup

    def fake_engine(graph, order_cap=100_000):
        ident = tuple(range(graph.vertex_count))
        return PermutationGroup(generators=(), degree=graph.vertex_count,
                                elements=(ident,))

    monkeypatch.setattr(cli, "automorphism_group", fake_engine)
    code, _, err = run_cli(capsys, "aut", "--n", "3", "--k", "1", "--method", "both")
    assert code == 1
    assert err == ("claim failed: engine group (order 1) differs from the "
                   "group of the known generators (order 12)\n")


def test_aut_generator_outside_the_closure_exits_1(capsys, monkeypatch):
    from bkneser.perms import PermutationGroup

    def fake_engine(graph, order_cap=100_000):
        # the right order, 12, and complementation is a member, but the swap
        # of vertices 0 and 1 is no automorphism of H(3,1)
        complement = (3, 4, 5, 0, 1, 2)
        swap = (1, 0, *range(2, graph.vertex_count))
        return PermutationGroup(generators=(complement, swap), degree=graph.vertex_count,
                                order=12)

    monkeypatch.setattr(cli, "automorphism_group", fake_engine)
    code, _, err = run_cli(capsys, "aut", "--n", "3", "--k", "1", "--method", "both")
    assert code == 1
    assert err == ("claim failed: engine group (order 12) differs from the "
                   "group of the known generators (order 12)\n")


def test_aut_engine_is_not_capped_by_the_group_order(capsys):
    # H(11,2) has 110 vertices and 2 * 11! automorphisms: the order is certified
    code, out, _ = run_cli(capsys, "aut", "--method", "engine", "--n", "11", "--k", "2")
    assert code == 0
    assert out.startswith('{"order":79833600,"generators":[')


def test_aut_both_is_capped_by_the_oracle_closure(capsys):
    # the stabilizer of vertex 0 in the Sym image has 2! 9! = 725,760
    # elements, above the default cap
    code, out, err = run_cli(capsys, "aut", "--n", "11", "--k", "2")
    assert code == 2
    assert out == ""
    assert "group closure exceeded the cap of 100000 elements" in err


# the sha256 of the ``aut --n 8 --k 3`` stdout that perfbench/expected.json pins
AUT_83_SHA256 = "72032c8f46f79b4d3c9652d9e26dfc4c9e478b476e6ebfd81f05d174fec747bb"


def test_aut_both_is_capped_at_the_sym_image(capsys, monkeypatch):
    # --method both enumerates only the stabilizer of vertex 0 in the Sym
    # image, 3! 5! = 720 elements, not its 8! nor all 2 * 8!
    monkeypatch.setenv("KNESER_ORDER_CAP", "720")
    code, out, err = run_cli(capsys, "aut", "--n", "8", "--k", "3")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == AUT_83_SHA256

    monkeypatch.setenv("KNESER_ORDER_CAP", "719")
    code, out, err = run_cli(capsys, "aut", "--n", "8", "--k", "3")
    assert (code, out) == (2, "")
    assert err == "error: group closure exceeded the cap of 719 elements\n"


def test_aut_both_h92_runs_under_the_default_cap(capsys):
    # 9! = 362,880 is above the default cap, but only the stabilizer of
    # vertex 0, 2! 7! = 10,080 elements, is enumerated
    code, out, err = run_cli(capsys, "aut", "--n", "9", "--k", "2")
    assert (code, err) == (0, "")
    assert out.startswith('{"order":725760,"agree":true,"generators":[')


def test_aut_both_makes_one_closure_of_the_stabilizer(capsys, monkeypatch):
    sizes = []
    original = perms.closure_images

    def spy(generator_images, degree, order_cap):
        elements = original(generator_images, degree, order_cap)
        sizes.append(len(elements))
        return elements

    for module in (perms, autgroup, symmetry):
        monkeypatch.setattr(module, "closure_images", spy)
    # both: the stabilizer of vertex 0 in the Sym image, 3! 4! = 144 elements
    for method, expected in (("both", [144]), ("generators", [10080])):
        assert run_cli(capsys, "aut", "--n", "7", "--k", "3", "--method", method)[0] == 0
        assert sizes == expected, method
        sizes.clear()


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "g.json"
    code, _, err = run_cli(capsys, "build", "--n", "5", "--k", "2", "--out", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    # a directory cannot be opened for writing either, in either format
    code, out, err = run_cli(capsys, "build", "--n", "5", "--k", "2", "--format", "dot",
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(n, k, allow_null=False):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli, "build_bipartite_kneser", broken)
    code, _, err = run_cli(capsys, "props", "--n", "5", "--k", "2")
    assert code == 3
    assert "internal error" in err
    assert "RuntimeError: simulated bug" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_props", exhausted)
    code, out, err = run_cli(capsys, "props", "--n", "5", "--k", "2")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_console_scripts_resolve_to_callables():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attribute = target.partition(":")
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


SRC = str(Path(__file__).parent.parent / "src")
PROPS_H52 = b'{"vertices":20,"edges":30,"degree":3,"bipartition":[10,10],"diameter":5}'


def cli_env(unbuffered=False):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "KNESER_ORDER_CAP")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn_cli(argv, unbuffered=False, stdout=subprocess.PIPE, prefix=("-m", "bkneser.cli")):
    """Run the CLI as its own process; stdout is a pipe unless a file is given."""
    return subprocess.run([sys.executable, *prefix, *argv], env=cli_env(unbuffered),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
PROCESS_JOBS = pytest.mark.parametrize(
    "argv", [["build", "--n", "12", "--k", "5"], ["props", "--n", "5", "--k", "2"]],
    ids=["build", "props"])


@PROCESS_JOBS
@BUFFERING
def test_process_stdout_matches_run(capsys, tmp_path, argv, unbuffered):
    # main() flushes and ends the process itself: nothing written may be lost,
    # through a pipe or to a file, whether stdout is buffered or not
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    expected = expected.encode()
    piped = spawn_cli(argv, unbuffered)
    assert (piped.returncode, piped.stderr, piped.stdout) == (0, b"", expected)
    target = tmp_path / "out"
    with open(target, "wb") as handle:
        to_file = spawn_cli(argv, unbuffered, stdout=handle)
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    assert target.read_bytes() == expected


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["props", "--n", "12", "--k", "5"],
                                  ["build", "--n", "12", "--k", "5"]],  # several 64 KB blocks
                         ids=["props", "build"])
@BUFFERING
def test_a_full_stdout_exits_2(argv, unbuffered):
    # buffered, props fails only in the final flush, and build in a write and
    # again in the flush; either way one error line, not Python's
    # "Exception ignored" at teardown and exit 120
    with open("/dev/full", "wb") as full:
        done = spawn_cli(argv, unbuffered, stdout=full)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 28] No space left on device\n")


def leave_after_10_bytes(stderr, unbuffered=False):
    """The exit code of `bkneser build --n 12 --k 5 | head -c 10` (about 200 KB)."""
    proc = subprocess.Popen([sys.executable, "-m", "bkneser.cli", "build", "--n", "12",
                             "--k", "5"], env=cli_env(unbuffered), stdout=subprocess.PIPE,
                            stderr=stderr)
    with proc.stdout:
        assert len(proc.stdout.read(10)) == 10
    return proc.wait(timeout=120)


@BUFFERING
def test_a_closed_pipe_exits_2(tmp_path, unbuffered):
    err = tmp_path / "err"
    with open(err, "wb") as handle:
        assert leave_after_10_bytes(handle, unbuffered) == 2
    assert err.read_bytes() == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failing_stderr_exits_2():
    # the error line itself cannot be written, as in `bkneser ... 2>&1 | head -c 10`
    assert leave_after_10_bytes(subprocess.STDOUT) == 2
    with open("/dev/full", "wb") as full:
        done = subprocess.run([sys.executable, "-m", "bkneser.cli", "build", "--n", "5",
                               "--k", "0"], env=cli_env(), stderr=full, timeout=120)
    assert done.returncode == 2


class UnflushableStream(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("code, exit_code, lines", [(0, 2, 1), (1, 1, 1), (2, 2, 0), (3, 3, 0)])
def test_a_failed_flush_keeps_a_nonzero_code(capsys, monkeypatch, code, exit_code, lines):
    # codes 2 and 3 have printed their own line already, often for the same write
    monkeypatch.setattr(sys, "stdout", UnflushableStream())
    assert cli._flush(code) == exit_code
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n" * lines


def test_a_closed_stdout_exits_2(capsys, monkeypatch):
    # Python sets sys.stdout to None when fd 1 is closed at startup
    command = " ".join(map(shlex.quote, [sys.executable, "-m", "bkneser.cli",
                                         "props", "--n", "5", "--k", "2"]))
    done = subprocess.run(command + " >&-", shell=True, env=cli_env(), stderr=subprocess.PIPE,
                          timeout=120)
    assert (done.returncode, done.stderr) == (2, b"error: [Errno 9] stdout is closed\n")
    monkeypatch.setattr(sys, "stdout", None)
    for argv in (["build", "--n", "5", "--k", "2"],
                 ["explore", "--question", "2", "--nmax", "3", "--format", "text"],
                 ["explore", "--question", "1", "--nmax", "3", "--format", "text"]):
        assert cli.run(argv) == 2, argv
        assert capsys.readouterr().err == "error: [Errno 9] stdout is closed\n", argv


def test_main_skips_atexit_hooks():
    # main() ends the process with os._exit once its output is flushed
    probe = ("import atexit, sys; atexit.register(sys.stderr.write, 'teardown\\n'); "
             "from bkneser.cli import main; main()")
    done = spawn_cli(["props", "--n", "5", "--k", "2"], prefix=("-c", probe))
    assert done.returncode == 0
    assert done.stderr == b""
    assert done.stdout == PROPS_H52 + b"\n"


def test_main_under_a_profiler_still_prints_its_report():
    # cProfile prints its table at exit, so main() must not end the process early
    done = spawn_cli(["props", "--n", "5", "--k", "2"],
                     prefix=("-m", "cProfile", "-m", "bkneser.cli"))
    assert done.returncode == 0
    lines = done.stdout.decode().splitlines()
    assert lines[0] == PROPS_H52.decode()
    assert any("function calls" in line for line in lines)
    assert any(line.strip().startswith("Ordered by:") for line in lines)
