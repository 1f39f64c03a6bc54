import json

from bkneser import cli
from bkneser.kneser import build_bipartite_kneser


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
    assert "at most 2 elements" in data["caveat"]
    row52 = next(r for r in data["rows"] if (r["n"], r["k"]) == (5, 2))
    assert row52["regular_subgroup_order"] is None


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "props", "--n", "3")[0] == 2  # missing --k
    assert run_cli(capsys, "nonsense")[0] == 2
    assert run_cli(capsys, "props", "--n", "2", "--k", "2")[0] == 2  # domain


def test_order_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("KNESER_ORDER_CAP", "10")
    code, _, err = run_cli(capsys, "aut", "--n", "4", "--k", "1")
    assert code == 2
    assert "cap" in err

    monkeypatch.setenv("KNESER_ORDER_CAP", "banana")
    assert run_cli(capsys, "aut", "--n", "3", "--k", "1")[0] == 2


def test_corrupted_graph_exits_1(capsys, monkeypatch):
    # simulate an implementation bug: props must notice and exit 1
    def corrupted(n, k, allow_null=False):
        kg = build_bipartite_kneser(n, k, allow_null=allow_null)
        adjacency = list(kg.graph.adjacency)
        u, v = kg.graph.edges()[0]
        adjacency[u] ^= 1 << v
        adjacency[v] ^= 1 << u
        broken_graph = type(kg.graph)(kg.graph.vertex_count, adjacency)
        return type(kg)(n=n, k=k, graph=broken_graph, side_size=kg.side_size,
                        _labels=tuple(kg.subset_of_vertex(i)
                                      for i in range(kg.vertex_count)))

    monkeypatch.setattr(cli, "build_bipartite_kneser", corrupted)
    code, _, err = run_cli(capsys, "props", "--n", "4", "--k", "1")
    assert code == 1
    assert "claim failed" in err


def test_aut_disagreement_exits_1(capsys, monkeypatch):
    from bkneser.perms import PermutationGroup

    def fake_engine(graph, size_limit=128, order_cap=100_000):
        ident = tuple(range(graph.vertex_count))
        return PermutationGroup(generators=(), degree=graph.vertex_count,
                                elements=(ident,))

    monkeypatch.setattr(cli, "automorphism_group", fake_engine)
    code, _, err = run_cli(capsys, "aut", "--n", "3", "--k", "1", "--method", "both")
    assert code == 1
    assert "differs" in err


def test_unwritable_out_path_exits_2(capsys, tmp_path):
    out = tmp_path / "missing" / "g.json"
    code, _, err = run_cli(capsys, "build", "--n", "5", "--k", "2", "--out", str(out))
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(n, k, allow_null=False):
        raise RuntimeError("simulated bug")

    monkeypatch.setattr(cli, "build_bipartite_kneser", broken)
    code, _, err = run_cli(capsys, "props", "--n", "5", "--k", "2")
    assert code == 3
    assert "internal error" in err
    assert "RuntimeError: simulated bug" in err
