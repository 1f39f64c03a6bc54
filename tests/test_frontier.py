"""The frontier data file is well formed, and its runner judges a child as it says."""

import hashlib
import io
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import frontier
from bkneser import cli

SRC = str(Path(__file__).parent.parent / "src")
AUT_4_1 = ["aut", "--n", "4", "--k", "1"]


def check(**fields):
    return {"argv": AUT_4_1, "timeout_s": 60, **fields}


def judge(entry, code, out, peak_mb=10.0):
    return frontier.verdict(entry, code, io.BytesIO(out), peak_mb)


def test_every_check_is_well_formed_and_parses():
    checks = frontier.load(frontier.DEFAULT_PATH)
    assert len(checks) == 19  # CI's 17 shell checks, the build one split by format, and
    # the Question 1 row that keeps its certified order at the cap
    parser = cli.build_parser()
    for entry in checks:
        assert {"why", "argv", "timeout_s"} <= set(entry)
        assert set(entry) - set(frontier.EXPECTATIONS) <= {
            "why", "argv", "env", "timeout_s", "max_rss_mb"}
        assert entry["timeout_s"] > 0
        assert entry.get("max_rss_mb", 1) > 0
        assert all(isinstance(v, str) for v in entry.get("env", {}).values())
        parser.parse_args(entry["argv"])  # a misspelt option exits here


def test_load_rejects_a_check_without_exactly_one_expectation(tmp_path):
    path = tmp_path / "checks.json"
    path.write_text('{"checks": [{"argv": ["aut"], "stdout": "", "contains": ""}]}')
    with pytest.raises(ValueError, match="exactly one"):
        frontier.load(path)


def test_verdict_reads_each_kind_of_expectation():
    out = b'{"order":48}\n'
    big = out * 10_000  # longer than one block of the hash
    assert judge(check(stdout='{"order":48}\n'), 0, out) is None
    assert "unexpected stdout" in judge(check(stdout='{"order":48}'), 0, out)
    assert judge(check(sha256=hashlib.sha256(big).hexdigest()), 0, big) is None
    assert judge(check(sha256="0" * 64), 0, big) == (
        f"unexpected stdout: {len(big)} bytes, sha256 differs")
    assert judge(check(contains='"order":48'), 0, out) is None
    assert "lacks" in judge(check(contains='"order":49'), 0, out)
    assert judge(check(lacks="skipped"), 0, out) is None
    assert "holds" in judge(check(lacks="order"), 0, out)


def test_verdict_fails_on_exit_code_timeout_and_rss():
    out = b'{"order":48}\n'
    assert judge(check(contains="order"), 1, out) == "exit code 1"
    assert "timeout of 60 s" in judge(check(contains="order"), None, out)
    assert judge(check(contains="order"), 0, out, 1e6) is None  # no bound given
    bounded = check(contains="order", max_rss_mb=38)
    assert judge(bounded, 0, out, 38.0) is None
    assert "exceeds 38 MB" in judge(bounded, 0, out, 38.1)


def test_spawn_runs_the_cli_and_kills_it_at_its_timeout(capsys):
    cli.run(AUT_4_1)
    expected = capsys.readouterr().out.encode()
    with tempfile.TemporaryFile() as out:
        code, err, _, peak_mb = frontier.spawn(AUT_4_1, {"PYTHONPATH": SRC}, 60, out)
        assert (code, out.read(), err) == (0, expected, b"")
    assert peak_mb > 0
    with tempfile.TemporaryFile() as out:
        code, _, _, _ = frontier.spawn(AUT_4_1, {"PYTHONPATH": SRC}, 0, out)
    assert code is None


def test_run_counts_and_names_the_failures():
    checks = [check(contains='"order":48', env={"PYTHONPATH": SRC}),
              check(contains='"order":49', env={"PYTHONPATH": SRC})]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert frontier.run(checks) == 1
    lines = buffer.getvalue().splitlines()
    assert lines[0].startswith("ok   PYTHONPATH=")
    assert lines[1].startswith("FAIL PYTHONPATH=")
    assert "stdout lacks '\"order\":49'" in lines[2]
