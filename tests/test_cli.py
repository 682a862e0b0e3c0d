import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ons_lab
from ons_lab.cli import (
    COMMANDS,
    ExperimentConfig,
    build_parser,
    config_from_namespace,
    main,
    run,
)
from ons_lab.errors import InvalidConfig


def run_cli(args, tmp_path, name="out"):
    path = tmp_path / name
    code = main([*args, "--output", str(path)])
    return code, path


class TestExitCodes:
    def test_success(self, tmp_path):
        code, _ = run_cli(["gram", "--system", "haar", "--n", "4"], tmp_path)
        assert code == 0

    def test_unknown_system_is_usage_error(self, tmp_path, capsys):
        code, _ = run_cli(["gram", "--system", "nosuch"], tmp_path)
        assert code == 1
        assert "unknown system" in capsys.readouterr().err

    def test_unknown_function_is_usage_error(self, tmp_path):
        code, _ = run_cli(["e-phi", "--system", "haar", "--function",
                           "nosuch", "--n-max", "8"], tmp_path)
        assert code == 1

    def test_invariant_failure_exits_two(self, tmp_path):
        code, _ = run_cli(["gram", "--system", "cosine", "--n", "4",
                           "--check-tol", "1e-30"], tmp_path)
        assert code == 2

    def test_bad_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gram", "--no-such-flag"])
        assert exc.value.code == 1

    def test_x_outside_domain(self, tmp_path, capsys):
        code, _ = run_cli(["mn-sweep", "--system", "haar", "--x", "1.5",
                           "--n-max", "8"], tmp_path)
        assert code == 1
        assert "x_points" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["mn-sweep", "theorem2", "theorem5", "theorem6"])
    def test_sweep_needs_two_terms(self, command, tmp_path, capsys):
        code, _ = run_cli([command, "--n-max", "1"], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_max" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("args,key", [
        (["gram", "--n", "0"], "n"),
        (["lemma3", "--n-values", "0"], "n"),
        (["eq11", "--n-values", "1"], "n"),
        (["theorem3-extremal", "--grid-size", "8"], "grid_size"),
        (["lemma4", "--n", "0"], "n_max"),
        (["bessel", "--points", "0"], "points"),
        (["theorem3-extremal", "--n-values", ","], "n_values"),
        (["lemma3", "--n-values", ","], "n_values"),
        (["eq11", "--n-values", ","], "n_values"),
        (["mn-sweep", "--x", ","], "x_points"),
        (["theorem5", "--x", ","], "x_points"),
        (["lemma1", "--x", ","], "x_points"),
        (["lemma4", "--x", ","], "x_points"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
    def test_invalid_sizes_are_one_line_usage_errors(self, args, key,
                                                     tmp_path, capsys):
        code, _ = run_cli(args, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ons-lab: error: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args,name", [
        (["theorem3-extremal", "--t", "2"], "t"),
        (["eq11", "--big-f-kernel", "cosine", "4", "2"], "x"),
    ], ids=["theorem3-extremal", "eq11"])
    def test_out_of_domain_points_are_one_line_usage_errors(self, args, name,
                                                            tmp_path, capsys):
        code, path = run_cli(args, tmp_path)
        assert code == 1 and not path.exists()
        err = capsys.readouterr().err
        assert err == f"ons-lab: error: {name} must lie in [0, 1], got 2.0\n"

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is most of the package's import time; only
        # integrate_abs needs it
        src = str(Path(ons_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys, ons_lab.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "False"


class TestOutputFormats:
    def test_csv_header_and_roundtrip(self, tmp_path):
        code, path = run_cli(["mn-sweep", "--system", "haar", "--x", "0.3",
                              "--n-max", "8"], tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,n,m_n,running_max"
        assert len(lines) == 1 + 7
        for line in lines[1:]:
            x, n, m_n, running_max = line.split(",")
            assert float(x) == 0.3            # 17 digits round-trip
            assert float(m_n) <= float(running_max)

    def test_json_top_level_shape(self, tmp_path):
        code, path = run_cli(["mn-sweep", "--system", "haar", "--x", "0.3",
                              "--n-max", "32", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert list(payload) == ["config", "rows", "summary"]
        assert payload["config"]["command"] == "mn-sweep"
        assert payload["summary"]["reports"][0]["classification"] == "bounded"
        assert len(payload["rows"]) == 31

    def test_byte_identical_reruns(self, tmp_path):
        args = ["theorem4-moments", "--base", "haar", "--n", "8",
                "--format", "json"]
        _, path = run_cli(args, tmp_path, "a")
        first = path.read_bytes()
        _, path = run_cli(args, tmp_path, "a")
        assert path.read_bytes() == first

    def test_stdout_when_no_output(self, capsys):
        code = main(["gram", "--system", "haar", "--n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("j,k,value")


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=haar\nn_max=8\nx=0.5\n")
        parser = build_parser()
        ns = parser.parse_args(["mn-sweep", "--config", str(cfg),
                                "--n-max", "16"])
        config = config_from_namespace(ns)
        assert config.system == "haar"       # from file
        assert config.n_max == 16            # flag wins
        assert config.x_points == (0.5,)     # from file
        assert config.fmt == "csv"           # default

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nn-max=8\n")
        ns = build_parser().parse_args(["mn-sweep", "--system", "haar",
                                        "--config", str(cfg)])
        assert config_from_namespace(ns).n_max == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate=1\n")
        ns = build_parser().parse_args(["mn-sweep", "--config", str(cfg)])
        with pytest.raises(InvalidConfig):
            config_from_namespace(ns)

    def test_empty_index_list_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_values=\n")
        ns = build_parser().parse_args(["lemma3", "--config", str(cfg)])
        with pytest.raises(InvalidConfig, match="n_values"):
            config_from_namespace(ns)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        ns = build_parser().parse_args(["mn-sweep", "--config", str(cfg)])
        with pytest.raises(InvalidConfig):
            config_from_namespace(ns)


class TestCommands:
    def test_gram_identity(self, tmp_path):
        code, path = run_cli(["gram", "--system", "cosine", "--n", "8"],
                             tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "j,k,value"
        assert len(lines) == 1 + 64

    def test_bessel_all_catalog(self, tmp_path):
        code, path = run_cli(["bessel", "--n-max", "64", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["pass"] is True
        systems_seen = {row["system"] for row in payload["rows"]}
        assert len(systems_seen) == 6

    def test_lemma1(self, tmp_path):
        code, path = run_cli(["lemma1", "--system", "cosine", "--x",
                              "0.2,0.8", "--n-max", "16", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert len(payload["summary"]["reports"]) == 2

    def test_lemma3(self, tmp_path):
        code, path = run_cli(["lemma3", "--system", "haar", "--n-values",
                              "4,8", "--x", "0.3", "--format", "json"],
                             tmp_path)
        assert code == 0
        assert json.loads(path.read_text())["summary"]["pass"] is True

    def test_lemma4(self, tmp_path):
        code, path = run_cli(["lemma4", "--system", "haar", "--function",
                              "cos-bump", "--n", "8", "--x", "0.25,0.5",
                              "--format", "json"], tmp_path)
        assert code == 0
        assert json.loads(path.read_text())["summary"]["pass"] is True

    def test_lemma4_rejects_function_without_derivative(self, tmp_path):
        code, _ = run_cli(["lemma4", "--system", "haar", "--function",
                           "one", "--n", "4"], tmp_path)
        assert code == 0   # 'one' is CL with zero derivative

    def test_eq11_reports_both_variants(self, tmp_path):
        code, path = run_cli(["eq11", "--function", "half-square",
                              "--big-f-kernel", "cosine", "8", "0.3",
                              "--n-values", "2,4", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        row = payload["rows"][0]
        assert abs(row["residual_upper_n"]) < 1e-8
        assert abs(row["residual_upper_n_minus_1"]) > 1e-6
        assert payload["summary"]["second_sum_upper"] == "n-1"

    def test_partial_sums(self, tmp_path):
        code, path = run_cli(["partial-sums", "--system", "haar",
                              "--function", "id", "--x", "0.25",
                              "--n-max", "4"], tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "x,n,partial_sum"
        assert len(lines) == 5

    def test_e_phi(self, tmp_path):
        code, path = run_cli(["e-phi", "--system", "cosine", "--function",
                              "one", "--x", "0.3", "--n-max", "16",
                              "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["reports"][0]["classification"] == "bounded"

    def test_theorem2(self, tmp_path):
        code, path = run_cli(["theorem2", "--system", "haar", "--function",
                              "half-square", "--x", "0.3", "--n-max", "64",
                              "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["all_consistent"] is True

    def test_theorem3_extremal(self, tmp_path):
        code, path = run_cli(["theorem3-extremal", "--system", "cosine",
                              "--t", "0.3", "--n-values", "4,8",
                              "--grid-size", "256", "--format", "json"],
                             tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["pass"] is True
        assert payload["rows"][0]["value_at_0"] == 0.0

    def test_theorem4_moments(self, tmp_path):
        code, path = run_cli(["theorem4-moments", "--base", "cosine",
                              "--n", "16", "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["pass"] is True
        assert all(abs(row["c_q"]) < 1e-9 and abs(row["c_p"]) < 1e-9
                   for row in payload["rows"])

    def test_theorem5_smoke(self, tmp_path):
        code, path = run_cli(["theorem5", "--x", "0.3", "--n-max", "32",
                              "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["reports"][0]["classification"] == "bounded"

    def test_theorem6_smoke(self, tmp_path):
        code, path = run_cli(["theorem6", "--x", "0.3", "--n-max", "32",
                              "--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["system"] == "haar"

    @pytest.mark.parametrize("system", ["rademacher", "reflect(rademacher)"])
    def test_rademacher_sweep_past_sixteen(self, system, tmp_path):
        # element 17 has 2^17 - 1 jumps: too many to enumerate as a rule
        code, path = run_cli(["mn-sweep", "--system", system, "--n-max", "24",
                              "--x", "0,0.3,1"], tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 23
        assert lines[-1].startswith("1,24,")


class TestConfigObject:
    def test_all_commands_have_handlers_and_defaults(self):
        from ons_lab.cli import _COMMAND_DEFAULTS, _HANDLERS
        assert set(COMMANDS) == set(_HANDLERS) == set(_COMMAND_DEFAULTS)

    def test_run_api_directly(self, tmp_path, capsys):
        config = ExperimentConfig(command="gram", system="haar",
                                  extras={"n": 4})
        assert run(config) == 0
        assert capsys.readouterr().out.startswith("j,k,value")

    def test_rejects_unknown_command(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(command="frobnicate")

    def test_rejects_bad_format(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(command="gram", fmt="xml")
