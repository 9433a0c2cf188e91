import os
import pathlib
import subprocess
import sys

import pytest

from glycanrules.cli import _solver_config, build_parser, main


def run_cli(args):
    return main(list(args))


def test_synth_motivating_exit_zero(dataset_dir, tmp_path, capsys):
    report = tmp_path / "report.txt"
    rules_out = tmp_path / "rules.gr"
    code = run_cli(
        [
            "synth", str(dataset_dir / "motivating.gly"),
            "--rules", "7", "--depth", "3", "--compartments", "1",
            "--report", str(report), "--rules-out", str(rules_out),
        ]
    )
    assert code == 0
    text = report.read_text()
    assert "status: Synthesized" in text
    assert "verification: PASS" in text
    # the rules file re-verifies cleanly through the verify subcommand
    code = run_cli(["verify", str(rules_out), str(dataset_dir / "motivating.gly")])
    assert code == 0


def test_synth_budget_failure_exit_two(dataset_dir, tmp_path):
    code = run_cli(
        [
            "synth", str(dataset_dir / "motivating.gly"),
            "--rules", "6", "--depth", "2", "--compartments", "2",
            "--report", str(tmp_path / "r.txt"),
        ]
    )
    assert code == 2


def test_missing_solver_binary_exit_one(dataset_dir, tmp_path, capsys):
    code = run_cli(
        [
            "synth", str(dataset_dir / "motivating.gly"),
            "--rules", "1", "--depth", "2",
            "--solver", "/no/such/solver",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "/no/such/solver" in err


def test_flag_validation_before_work(dataset_dir, capsys):
    code = run_cli(
        [
            "synth", str(dataset_dir / "motivating.gly"),
            "--rules", "1", "--depth", "2", "--width", "1",
        ]
    )
    assert code == 1
    assert "width" in capsys.readouterr().err


def test_verify_pass_and_fail(dataset_dir, capsys, tmp_path):
    code = run_cli(
        [
            "verify", str(dataset_dir / "motivating_rules.gr"),
            str(dataset_dir / "motivating.gly"),
            "--report", str(tmp_path / "kv.txt"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    kv = (tmp_path / "kv.txt").read_text()
    assert "pass=true" in kv

    code = run_cli(
        [
            "verify", str(dataset_dir / "first_iteration_rules.gr"),
            str(dataset_dir / "motivating.gly"),
        ]
    )
    assert code == 2
    assert "extra:" in capsys.readouterr().out


def test_enum_streams_sorted_closure(dataset_dir, capsys):
    code = run_cli(
        [
            "enum", str(dataset_dir / "motivating_rules.gr"),
            str(dataset_dir / "motivating.gly"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "A"
    sizes = [line.count("(") for line in lines]
    # sorted by node count: parenthesis depth is a cheap monotone proxy here
    counts = [len(line.replace(" ", "")) for line in lines]
    assert lines == sorted(lines, key=lambda t: (node_count_of(t), t))


def node_count_of(text):
    import re

    return len(re.findall(r"[A-Za-z]+", text))


def test_enum_without_rules_lists_seeds(dataset_dir, capsys):
    code = run_cli(["enum", str(dataset_dir / "motivating.gly")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["A", "B", "C", "D"]


def test_dot_emission(dataset_dir, tmp_path):
    code = run_cli(
        [
            "synth", str(dataset_dir / "hardends_gate.gly"),
            "--rules", "2", "--depth", "2", "--hard-ends",
            "--report", str(tmp_path / "r.txt"),
            "--dot", str(tmp_path / "dots"),
        ]
    )
    assert code == 0
    dots = sorted(p.name for p in (tmp_path / "dots").glob("*.dot"))
    assert "molecule_0.dot" in dots and "rule_0.dot" in dots
    body = (tmp_path / "dots" / "rule_0.dot").read_text()
    assert "shape=box" in body and "shape=ellipse" in body


def test_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.gly"
    bad.write_text("sugar A 1\nmol A((")
    code = run_cli(["enum", str(bad)])
    assert code == 1


def test_dump_smt_transcripts(dataset_dir, tmp_path):
    dump = tmp_path / "smt"
    code = run_cli(
        [
            "synth", str(dataset_dir / "hardends_gate.gly"),
            "--rules", "2", "--depth", "2", "--hard-ends",
            "--report", str(tmp_path / "r.txt"),
            "--dump-smt", str(dump),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in dump.glob("*.smt2"))
    assert any(n.startswith("query_1_synth") for n in names)
    # counterexamples come from the forward oracle, not from a solver query
    assert not any(n.endswith("_cex.smt2") for n in names)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "glycanrules.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_package_runs_as_module():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "glycanrules", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout


def test_ce_strategy_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["synth", "d.gly", "--rules", "1", "--depth", "2",
             "--ce-strategy", "reuse"]
        )
    assert exc.value.code == 2
    assert "--ce-strategy" in capsys.readouterr().err


def test_no_symmetry_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["synth", "d.gly", "--rules", "1", "--depth", "2", "--no-symmetry"]
        )
    assert exc.value.code == 2
    assert "--no-symmetry" in capsys.readouterr().err


def test_minimize_flag_is_gone_and_usage_errors_exit_one(dataset_dir, capsys):
    # exit 2 means "no rule set in budget"; a stale flag must not read as that
    code = run_cli(
        ["synth", str(dataset_dir / "motivating.gly"), "--rules", "1",
         "--depth", "2", "--minimize"]
    )
    assert code == 1
    assert "--minimize" in capsys.readouterr().err
    assert run_cli(["synth", str(dataset_dir / "motivating.gly")]) == 1
    assert "--rules" in capsys.readouterr().err


def test_mode_flag_is_gone(dataset_dir, capsys):
    code = run_cli(
        ["synth", str(dataset_dir / "motivating.gly"), "--rules", "1",
         "--depth", "2", "--mode", "quantified"]
    )
    assert code == 1
    assert "--mode" in capsys.readouterr().err


def test_directory_as_data_set_exits_one(tmp_path, capsys):
    assert run_cli(["synth", str(tmp_path), "--rules", "1", "--depth", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


def test_negative_rules_budget_exits_one(dataset_dir, capsys):
    code = run_cli(
        ["synth", str(dataset_dir / "motivating.gly"), "--rules", "-1",
         "--depth", "2"]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("error: rules budget -1")


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iters", "0", "iteration limit 0"),
    ("--max-iters", "-1", "iteration limit -1"),
    ("--wall-clock", "0", "wall clock limit 0.0"),
    ("--wall-clock", "-1", "wall clock limit -1.0"),
    ("--wall-clock", "nan", "wall clock limit nan"),
])
def test_limit_out_of_range_exits_one(dataset_dir, capsys, flag, value, message):
    code = run_cli(
        ["synth", str(dataset_dir / "motivating.gly"), "--rules", "2",
         "--depth", "3", flag, value]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_solver_flag_resolves_its_own_args(monkeypatch):
    def config(*extra):
        return _solver_config(build_parser().parse_args(
            ["synth", "d.gly", "--rules", "1", "--depth", "2", *extra]
        ))

    monkeypatch.setenv("GLYCANRULES_SOLVER", "/usr/bin/z3")
    monkeypatch.delenv("GLYCANRULES_SOLVER_ARGS", raising=False)
    assert config().extra_args == ("-in", "-smt2")
    cfg = config("--solver", "/opt/cvc5")
    assert (cfg.executable, cfg.extra_args) == ("/opt/cvc5", ())
    monkeypatch.delenv("GLYCANRULES_SOLVER")
    assert config("--solver", "/opt/z3").extra_args == ("-in", "-smt2")
    monkeypatch.setenv("GLYCANRULES_SOLVER_ARGS", "--lang smt2")
    assert config("--solver", "/opt/cvc5").extra_args == ("--lang", "smt2")
    assert config().executable == ""
