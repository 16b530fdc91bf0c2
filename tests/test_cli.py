import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critind import (
    DEFAULT_ORACLE_BOUND,
    MAX_ORACLE_BOUND,
    fixture,
    gnp,
    parse_graph,
    to_edge_list,
)
from critind.cli import main
from critind.graph import MAX_DIMACS_VERTICES
from strategies import dimacs_text, graphs

G1_TEXT = "7 7\na e\nb e\nc e\nc f\nc g\nd g\nf g\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_fixture_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "G1", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"] == {
            "by_definition": True,
            "by_all_mis_critical": True,
            "by_diadem_corona": True,
            "by_counting": True,
            "agree": True,
        }

    def test_fixture_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "GF", "--output", "text")
        assert code == 0
        assert "nucleus {a,b,c}" in out
        assert "core {a,b,c,h}" in out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "g1.txt"
        path.write_text(G1_TEXT)
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["ke"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("3 3\nx y\ny z\nx z\n"))
        code, out, _ = run(capsys, "analyze", "--output", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["d"] == 0
        assert doc["ke"] is False

    def test_dimacs_input(self, capsys, tmp_path):
        path = tmp_path / "g.col"
        path.write_text("c demo\np edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--format", "dimacs")
        assert code == 0
        assert json.loads(out)["graph"] == {"n": 3, "m": 2}

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1\na a\n")
        code, _, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--input", str(tmp_path / "nope.txt"))
        assert code == 2
        assert "error" in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"2 1\n\xff\xfe a\n")
        code, out, err = run(capsys, "analyze", "--input", str(path))
        assert code == 2
        assert err.startswith("error: ") and "UTF-8" in err
        assert out == ""

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin_exit_2(self, capsys, monkeypatch, errors):
        raw = io.BytesIO(b"2 1\n\xff\xfe a\n")
        stdin = io.TextIOWrapper(raw, encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert err.startswith("error: ") and "UTF-8" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_negative_oracle_bound_exit_2(self, capsys, command):
        extra = ["--fixture", "G1"] if command == "analyze" else ["--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--oracle-bound", "-1"])
        assert exc.value.code == 2
        assert "--oracle-bound: must be at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_oracle_bound_above_cap_exit_2(self, capsys, command):
        extra = ["--fixture", "G1"] if command == "analyze" else ["--trials", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, *extra, "--oracle-bound", str(MAX_ORACLE_BOUND + 1)])
        assert exc.value.code == 2
        assert f"--oracle-bound: must be at most {MAX_ORACLE_BOUND}" in capsys.readouterr().err

    def test_oracle_bound_above_default_runs_every_check(self, capsys, tmp_path):
        # A bound above the default lets every oracle call, EQ-mu's exact
        # matching included, run on a graph above the default.
        path = tmp_path / "g21.txt"
        path.write_text(to_edge_list(gnp(DEFAULT_ORACLE_BOUND + 1, 0.5, seed=1)))
        bound = str(DEFAULT_ORACLE_BOUND + 2)
        code, out, _ = run(capsys, "analyze", "--input", str(path), "--oracle-bound", bound)
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"] == {"applied": True, "bound": DEFAULT_ORACLE_BOUND + 2}

    def test_dimacs_vertex_count_above_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "huge.col"
        path.write_text("p edge 1000000000 0\n")
        code, out, err = run(capsys, "analyze", "--input", str(path), "--format", "dimacs")
        assert code == 2
        assert err == (
            f"error: line 1: problem line declares 1000000000 vertices; "
            f"the limit is {MAX_DIMACS_VERTICES}\n"
        )
        assert out == ""

    def test_full_profile_refusal_exit_3(self, capsys):
        code, _, err = run(
            capsys, "analyze", "--fixture", "G1", "--oracle-bound", "3", "--full"
        )
        assert code == 3
        assert "exceeds oracle bound" in err

    def test_bound_skip_without_full(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "G1", "--oracle-bound", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == {"skipped": True}
        assert doc["d"] == 1

    def test_skip_checks(self, capsys):
        code, out, _ = run(capsys, "analyze", "--fixture", "G2", "--skip-checks")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"] == {"skipped": True}
        assert doc["verdicts"]["agree"] is True


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "40", "--n", "0..9", "--seed", "42"
        )
        assert code == 0
        assert out.endswith("40/40 passed\n")

    def test_k0_path(self, capsys):
        code, out, _ = run(capsys, "verify", "--trials", "1", "--n", "0..0")
        assert code == 0
        assert "1/1 passed" in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "--trials", "25", "--n", "2..10", "--seed", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_bad_trials(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "trials" in err

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "1", "--n", "9..2")
        assert code == 2

    def test_range_beyond_oracle_bound(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "1", "--n", "4..30")
        assert code == 2
        assert "oracle bound" in err

    def test_bad_probability_list(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "1", "--p", "0.5,7")
        assert code == 2

    def test_failure_dumps_offending_graph(self, capsys, monkeypatch):
        # Force a failure to exercise the counterexample dump: any real
        # failure is by construction an implementation bug.
        import critind.cli as cli_mod

        real_analyze = cli_mod.analyze

        def broken_analyze(g, **kwargs):
            report = real_analyze(g, **kwargs)
            if g.n >= 4:
                report.checks = list(report.checks) + [
                    cli_mod_check("BROKEN")
                ]
            return report

        from critind import TheoremCheckResult

        def cli_mod_check(name):
            return TheoremCheckResult(name, holds=False, detail={})

        monkeypatch.setattr(cli_mod, "analyze", broken_analyze)
        code, out, _ = run(capsys, "verify", "--trials", "6", "--n", "4..6", "--seed", "3")
        assert code == 1
        assert "FAILED (BROKEN)" in out
        assert "graph (edge_list):" in out
        assert "0/6 passed" in out


    def test_verdict_disagreement_fails(self, capsys, monkeypatch):
        import critind.cli as cli_mod

        real_analyze = cli_mod.analyze

        def disagreeing_analyze(g, **kwargs):
            report = real_analyze(g, **kwargs)
            v = report.verdicts
            report.verdicts = dataclasses.replace(v, by_definition=not v.by_definition)
            return report

        monkeypatch.setattr(cli_mod, "analyze", disagreeing_analyze)
        code, out, _ = run(capsys, "verify", "--trials", "2", "--n", "4..6", "--seed", "3")
        assert code == 1
        assert "FAILED (verdict-agreement)" in out
        assert "0/2 passed" in out


class TestGenerateCommand:
    def test_fixture(self, capsys):
        code, out, _ = run(capsys, "generate", "--fixture", "G2")
        assert code == 0
        g = parse_graph(out)
        assert g.n == 10 and g.m == 11

    def test_gnp_edgeless(self, capsys):
        code, out, _ = run(capsys, "generate", "--gnp", "5", "0.0", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "5 0"
        assert len(lines) == 6  # header plus five isolated labels

    def test_bipartite_complete_is_ke(self, capsys, tmp_path):
        code, out, _ = run(capsys, "generate", "--bipartite", "3", "3", "1.0", "--seed", "1")
        assert code == 0
        path = tmp_path / "k33.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["ke"] is True

    def test_union(self, capsys):
        code, out, _ = run(capsys, "generate", "--union", "3,4", "1.0", "--seed", "2")
        assert code == 0
        g = parse_graph(out)
        assert g.n == 7 and g.m == 9

    @pytest.mark.parametrize("sizes", [",", "", ",,"])
    def test_union_without_sizes_exit_2(self, capsys, sizes):
        code, out, err = run(capsys, "generate", "--union", sizes, "0.3")
        assert code == 2
        assert out == ""
        assert f"error: bad size list {sizes!r}" in err

    def test_generate_deterministic(self, capsys):
        _, first, _ = run(capsys, "generate", "--gnp", "12", "0.4", "--seed", "9")
        _, second, _ = run(capsys, "generate", "--gnp", "12", "0.4", "--seed", "9")
        assert first == second

    def test_invalid_probability_exit_2(self, capsys):
        code, _, err = run(capsys, "generate", "--gnp", "5", "1.5")
        assert code == 2
        assert "probability" in err

    def test_generated_output_reanalyzes(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--gnp", "10", "0.3", "--seed", "4")
        path = tmp_path / "g.txt"
        path.write_text(out)
        code, out, _ = run(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_python_m_critind_runs_the_cli_from_a_source_checkout():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", "critind", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    done = python_m("generate", "--fixture", "G1")
    assert (done.returncode, done.stdout, done.stderr) == (0, to_edge_list(fixture("G1")), "")
    done = python_m("generate", "--fixture", "G1", "--no-such-flag")
    assert done.returncode == 2
    assert "unrecognized arguments: --no-such-flag" in done.stderr
    assert done.stdout == ""


# Bytes that move a graph text between its syntactic cases, mixed with any byte.
_MUTATION_BYTES = st.sampled_from(list(b"0123456789 -\n\t#cpe")) | st.integers(0, 255)


@st.composite
def _mutated_graph_text(draw):
    """Edge-list or DIMACS text of a graph with n <= 10, then up to three
    byte replacements, insertions or deletions."""
    g = draw(graphs(max_n=10))
    text = bytearray((to_edge_list(g) if draw(st.booleans()) else dimacs_text(g)).encode())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        if op == "insert":
            text.insert(i, draw(_MUTATION_BYTES))
        elif i < len(text):
            if op == "replace":
                text[i] = draw(_MUTATION_BYTES)
            else:
                del text[i]
    return bytes(text)


@st.composite
def _analyze_flags(draw):
    flags = ["--format", draw(st.sampled_from(["edge_list", "dimacs"]))]
    flags += ["--output", draw(st.sampled_from(["json", "text"]))]
    flags += ["--oracle-bound", str(draw(st.integers(0, 16)))]
    flags += [flag for flag in ("--skip-checks", "--full") if draw(st.booleans())]
    return flags


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200) | _mutated_graph_text(), _analyze_flags())
def test_fuzzed_input_and_flags_exit_0_2_or_3(tmp_path_factory, data, flags):
    # Malformed input maps to 2 and a refused oracle to 3; 1 would be a
    # failed check, and anything else escaping main is a traceback.
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["analyze", "--input", str(path), *flags])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
