import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ons_lab
from ons_lab.cli import (
    COMMANDS,
    FLAGS,
    REGISTRY,
    ExperimentConfig,
    _render,
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
        assert capsys.readouterr().err == (
            "ons-lab: error: x: value 1.5 outside [0, 1]\n")

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
        (["eq11", "--n-values", "1"], "n"),
        (["theorem3-extremal", "--grid-size", "8"], "grid_size"),
        (["bessel", "--points", "0"], "points"),
        (["theorem3-extremal", "--n-values", ","], "n_values"),
        (["lemma3", "--n-values", ","], "n_values"),
        (["eq11", "--n-values", ","], "n_values"),
        (["mn-sweep", "--x", ","], "x"),
        (["theorem5", "--x", ","], "x"),
        (["lemma1", "--x", ","], "x"),
        (["lemma4", "--x", ","], "x"),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else v)
    def test_invalid_sizes_are_one_line_usage_errors(self, args, key,
                                                     tmp_path, capsys):
        code, _ = run_cli(args, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ons-lab: error: {key}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args,message", [
        (["lemma4", "--n", "0"], "n: must be >= 1, got 0"),
        (["theorem4-moments", "--n", "0"], "n: must be >= 1, got 0"),
        (["lemma3", "--n-values", "0"], "n_values: must be >= 1, got 0"),
        (["theorem3-extremal", "--n-values", "0"],
         "n_values: must be >= 1, got 0"),
    ], ids=["lemma4", "theorem4-moments", "lemma3", "theorem3-extremal"])
    def test_size_errors_name_the_flag_given(self, args, message, tmp_path,
                                             capsys):
        code, path = run_cli(args, tmp_path)
        assert code == 1 and not path.exists()
        assert capsys.readouterr().err == f"ons-lab: error: {message}\n"

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
        # the package needs no scipy: neither importing the CLI nor running
        # lemma3, whose integrate_abs refines zeros itself, loads any of it
        src = str(Path(ons_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import os, sys, ons_lab.cli as cli; "
                 "code = cli.main(['lemma3', '--n-values', '4,16', "
                 "'--output', os.devnull]); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        assert out.stdout.strip() == "0 []"

    def test_lemma3_refuses_an_index_past_the_cap_before_any_cell(
            self, tmp_path, capsys, monkeypatch):
        # n = 64 needs sign-system element 17, whose 2^17 - 1 jumps are
        # past the listed-jump cap; n = 4 and 16 must not be computed first
        cells = []
        monkeypatch.setattr(ons_lab.kernels, "cell_abs_integral",
                            lambda *args: cells.append(args))
        code, path = run_cli(["lemma3", "--system", "rademacher"], tmp_path)
        assert code == 1 and not path.exists() and cells == []
        assert capsys.readouterr().err == (
            "ons-lab: error: rademacher element 17 has 131071 jumps; "
            "breakpoint lists stop at 65535\n")

    def test_sign_system_gram_past_the_index_limit_is_one_line(self, tmp_path,
                                                               capsys):
        code, path = run_cli(["gram", "--system", "rademacher", "--n", "1074"],
                             tmp_path)
        assert code == 1 and not path.exists()
        assert capsys.readouterr().err == (
            "ons-lab: error: rademacher element 1074: the pieces between "
            "its jumps are too narrow for doubles\n")


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

    def test_csv_cells_are_the_json_values_to_17_digits(self, tmp_path):
        # 299 rows: more than one block of rows is formatted
        args = ["mn-sweep", "--system", "haar", "--x", "0.3", "--n-max", "300"]
        _, csv_path = run_cli(args, tmp_path, "a.csv")
        _, json_path = run_cli([*args, "--format", "json"], tmp_path, "b")
        rows = json.loads(json_path.read_text())["rows"]
        assert len(rows) == 299
        assert csv_path.read_text().splitlines()[1:] == [
            f"{r['x']:.17g},{r['n']},{r['m_n']:.17g},{r['running_max']:.17g}"
            for r in rows]
        assert rows[0]["x"] == 0.3

    def test_gram_rows_made_while_written_are_every_entry(self, tmp_path):
        # 289 rows from a generator: two blocks, the second one partial
        args = ["gram", "--system", "haar", "--n", "17"]
        _, csv_path = run_cli(args, tmp_path, "a.csv")
        _, json_path = run_cli([*args, "--format", "json"], tmp_path, "b")
        rows = json.loads(json_path.read_text())["rows"]
        assert [(r["j"], r["k"]) for r in rows] == [
            (j, k) for j in range(1, 18) for k in range(1, 18)]
        assert csv_path.read_text().splitlines()[1:] == [
            f"{r['j']},{r['k']},{r['value']:.17g}" for r in rows]

    def test_csv_booleans_are_lowercase(self, tmp_path):
        code, path = run_cli(["theorem2", "--system", "haar", "--x", "0.3",
                              "--n-max", "64"], tmp_path)
        assert code == 0
        x, *classes, hyp, concl, consistent = (
            path.read_text().splitlines()[1].split(","))
        assert x == "0.29999999999999999"
        assert {hyp, concl, consistent} <= {"true", "false"}
        assert consistent == "true"

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


#: Rows and a summary that exercise the JSON encoder: numpy scalars,
#: booleans, NaN, infinities, None, columns of mixed types, and strings
#: holding quotes, newlines, NUL, ", " and the rows key.
_JSON_HEADER = ("name", "i", "value", "ok", "flag", "edge", "mixed")
_JSON_SUMMARY = {"note": 'a "rows": [] b\nc', "rows": [], "pass": True}
_JSON_EDGES = (np.inf, -np.inf, np.float64(-np.inf), -0.0, 1e308, None)


def _json_rows(count):
    return [(f'r"{i}\n\0, ', np.int64(i),
             np.float64(i) / 3 if i % 5 else np.nan, bool(i % 2),
             np.bool_(i % 3 == 0), _JSON_EDGES[i % len(_JSON_EDGES)],
             (None, i, f"\0{i}\0", float(i) / 7, True)[i % 5])
            for i in range(count)]


class TestJsonBlocks:
    # the whole payload dumped at once is the reference the block writer
    # must reproduce byte for byte
    @pytest.mark.parametrize("count", [0, 1, 256, 257])
    def test_blocks_are_the_whole_payload_dump(self, count):
        config = ExperimentConfig("gram", {"format": "json"})
        payload = {"config": {"command": "gram", **config.values},
                   "rows": [dict(zip(_JSON_HEADER, row))
                            for row in _json_rows(count)],
                   "summary": _JSON_SUMMARY}
        want = json.dumps(payload, indent=2, default=np.generic.item) + "\n"
        out = io.StringIO()
        _render(config, _JSON_HEADER, iter(_json_rows(count)), _JSON_SUMMARY,
                out)
        assert out.getvalue() == want

    def test_first_write_comes_before_all_rows_are_made(self):
        pulled, writes = [], []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(len(pulled))
                return super().write(text)

        def rows():
            for row in _json_rows(1000):
                pulled.append(row)
                yield row

        out = Recording()
        _render(ExperimentConfig("gram", {"format": "json"}), _JSON_HEADER,
                rows(), _JSON_SUMMARY, out)
        assert writes[0] == 0 and writes[1] < 1000 and len(pulled) == 1000
        assert len(json.loads(out.getvalue())["rows"]) == 1000

    def test_gram_json_is_every_entry(self, tmp_path):
        code, path = run_cli(["gram", "--system", "haar", "--n", "17",
                              "--format", "json"], tmp_path)
        assert code == 0
        rows = json.loads(path.read_text())["rows"]
        assert [(r["j"], r["k"]) for r in rows] == [
            (j, k) for j in range(1, 18) for k in range(1, 18)]

    def test_unwritable_output_is_one_line_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.json"
        assert main(["gram", "--n", "2", "--format", "json",
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ons-lab: error: output: ")
        assert err.count("\n") == 1


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system=haar\nn_max=8\nx=0.5\n")
        parser = build_parser()
        ns = parser.parse_args(["mn-sweep", "--config", str(cfg),
                                "--n-max", "16"])
        values = config_from_namespace(ns).values
        assert values["system"] == "haar"    # from file
        assert values["n_max"] == 16         # flag wins
        assert values["x"] == (0.5,)         # from file
        assert values["format"] == "csv"     # default

    def test_dashed_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nn-max=8\n")
        ns = build_parser().parse_args(["mn-sweep", "--system", "haar",
                                        "--config", str(cfg)])
        assert config_from_namespace(ns).values["n_max"] == 8

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
        assert payload["config"]["system"] == "haar"

    @pytest.mark.parametrize("command,code", [("theorem5", 2), ("theorem6", 2),
                                              ("mn-sweep", 0)])
    def test_only_theorem_sweeps_fail_on_growing(self, command, code,
                                                 tmp_path):
        # both slopes at -1 classify every fitted sweep as growing
        args = [command, "--x", "0.3", "--n-max", "32", "--slope-bounded",
                "-1", "--slope-growing", "-1", "--format", "json"]
        assert run_cli(args, tmp_path)[0] == code

    @pytest.mark.parametrize("system", ["rademacher", "reflect(rademacher)"])
    def test_rademacher_sweep_past_sixteen(self, system, tmp_path):
        # element 17 has 2^17 - 1 jumps: too many to enumerate as a rule
        code, path = run_cli(["mn-sweep", "--system", system, "--n-max", "24",
                              "--x", "0,0.3,1"], tmp_path)
        assert code == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 * 23
        assert lines[-1].startswith("1,24,")

    @pytest.mark.parametrize("command", [c for c, e in REGISTRY.items()
                                         if "x" in e.reads])
    def test_repeated_point_gives_its_rows_twice(self, command, tmp_path):
        small = {"n_max": "4", "n_values": "4", "n": "4"}
        args = [command, "--format", "json"] + [
            arg for key, value in small.items() if key in REGISTRY[command].reads
            for arg in ("--" + key.replace("_", "-"), value)]

        def rows(points):
            code, path = run_cli([*args, "--x", points], tmp_path)
            assert code == 0
            return [json.dumps(r) for r in json.loads(path.read_text())["rows"]]

        once, twice = rows("0.3"), rows("0.3,0.3")
        assert once and sorted(twice) == sorted(2 * once)

    def test_signed_zero_points_stay_two_points(self, tmp_path):
        code, path = run_cli(["mn-sweep", "--x", "0,-0.0", "--n-max", "4"],
                             tmp_path)
        assert code == 0
        assert [line.split(",")[0] for line in
                path.read_text().splitlines()[1:]] == ["0"] * 3 + ["-0"] * 3


def count_calls(monkeypatch, owners, name, counts):
    """Count calls of ``owners[0].name`` in ``counts[name]``, wherever the
    library binds that object: in each ``owners`` namespace, and in every
    ``ons_lab`` module that imported it by name."""
    original = getattr(owners[0], name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    modules = [m for m in list(sys.modules.values())
               if m is not None and m.__name__.startswith("ons_lab")]
    for owner in {id(o): o for o in (*owners, *modules)}.values():
        if vars(owner).get(name) is original:
            monkeypatch.setattr(owner, name, counted)


class TestWorkDone:
    """Counts of repeated work, taken by wrapping library functions."""

    @pytest.mark.parametrize("argv, rules", [
        (["theorem4-moments"], 2),
        (["lemma4"], 1),
        (["theorem2", "--system", "haar"], 1),
    ])
    def test_each_context_builds_its_rule_once(self, argv, rules, tmp_path,
                                               monkeypatch):
        # theorem4-moments takes five coefficient tables of two reflected
        # systems; lemma4 and theorem2 take theirs from one context
        counts = Counter()
        count_calls(monkeypatch, [ons_lab.systems], "recommended_rule", counts)
        code, _ = run_cli(argv, tmp_path)
        assert code == 0
        assert counts["recommended_rule"] == rules

    def test_cosine_sweep_makes_one_prefix_pass_per_index(self, tmp_path,
                                                          monkeypatch):
        # phi is evaluated once per sweep and each n takes one FFT call for
        # every point; the functional is still called once per (n, x), on
        # one context per n
        n_max, xs = 40, (0.0, 0.3, 0.3, 0.7071067811865476, 1.0)
        counts = Counter()
        for owners, name in (([ons_lab.systems], "eval_matrix"),
                             ([np.fft], "rfft"),
                             ([ons_lab.kernels], "boundedness_functional"),
                             ([ons_lab.kernels.KernelContext], "__init__")):
            count_calls(monkeypatch, owners, name, counts)
        code, _ = run_cli(["mn-sweep", "--system", "cosine", "--n-max",
                           str(n_max), "--x", ",".join(map(str, xs))],
                          tmp_path)
        assert code == 0
        assert counts == {"eval_matrix": 1, "rfft": n_max - 1,
                          "boundedness_functional": (n_max - 1) * len(xs),
                          "__init__": n_max - 1}

    @pytest.mark.parametrize("name, hooked", [
        ("cosine", True), ("rademacher", True), ("reflect(cosine)", True),
        ("reflect2(cosine)", True), ("reflect(rademacher)", True),
        ("reflect2(rademacher)", True), ("haar", True),
        ("reflect(haar)", True), ("reflect2(haar)", True)])
    def test_sweeps_build_no_prefix_table(self, name, hooked, tmp_path,
                                          monkeypatch):
        # a mesh_prefix hook makes every prefix without rung-2 rows, and no
        # sweep builds the table
        counts = Counter()
        count_calls(monkeypatch, [ons_lab.kernels.KernelContext],
                    "prefix_table", counts)
        original = ons_lab.kernels._rows

        def counted(ctx, order, ks, us):
            counts[f"rows{order}"] += 1
            return original(ctx, order, ks, us)

        monkeypatch.setattr(ons_lab.kernels, "_rows", counted)
        code, _ = run_cli(["mn-sweep", "--system", name, "--n-max", "24"],
                          tmp_path)
        assert code == 0
        assert counts["prefix_table"] == 0
        assert (counts["rows2"] == 0) == hooked

    def test_hookless_sweep_makes_one_row_pass_per_index(self, tmp_path,
                                                         monkeypatch):
        # a system without closed forms takes the rung-2 rows of its points'
        # live indices once per n, shared by every point
        stripped = replace(ons_lab.systems.cosine_system(), antideriv=None,
                           antideriv2=None, mesh_prefix=None)
        monkeypatch.setitem(ons_lab.systems._SYSTEM_BUILDERS, "cosine",
                            lambda: stripped)
        counts, original = Counter(), ons_lab.kernels._rows

        def counted(ctx, order, ks, us):
            counts[order] += 1
            return original(ctx, order, ks, us)

        monkeypatch.setattr(ons_lab.kernels, "_rows", counted)
        n_max = 12
        code, _ = run_cli(["mn-sweep", "--system", "cosine", "--n-max",
                           str(n_max), "--x", "0,0.3,0.7071067811865476,1"],
                          tmp_path)
        assert code == 0
        assert counts[2] == n_max - 1

    def test_lemma4_finds_live_rows_at_most_twice_per_point(self, tmp_path,
                                                            monkeypatch):
        # the boundary and derivative kernels of one split, each found once
        # per point rather than once per quadrature sample block
        original, points = ons_lab.kernels._live_rows, []

        def counted(ctx, x):
            points.append(x)
            return original(ctx, x)

        monkeypatch.setattr(ons_lab.kernels, "_live_rows", counted)
        code, _ = run_cli(["lemma4", "--system", "rademacher", "--n", "12"],
                          tmp_path)
        x_grid = REGISTRY["lemma4"].flags["x"]
        assert code == 0
        assert sorted(points) == sorted(2 * x_grid)


class TestConfigObject:
    def test_all_commands_have_handlers_and_defaults(self):
        assert COMMANDS == tuple(REGISTRY)
        for name, entry in REGISTRY.items():
            assert callable(entry.handler), name
            assert entry.doc.startswith("columns: " + ", ".join(entry.columns))
            assert {"output", "format"} <= set(entry.reads) <= set(FLAGS)
            assert entry.system is None or "system" not in entry.flags

    def test_values_get_registry_defaults_and_nothing_else(self):
        config = ExperimentConfig("theorem3-extremal", {"t": 0.5})
        assert config.values == {
            "system": "cosine", "t": 0.5, "n_values": (4, 8, 16),
            "grid_size": 1024, "check_tol": 1e-5, "slope_bounded": 0.05,
            "slope_growing": 0.5, "plateau_rise": 0.01, "output": None,
            "format": "csv"}
        assert ExperimentConfig("gram").values == {
            "system": "cosine", "n": 8, "check_tol": None, "output": None,
            "format": "csv"}

    @pytest.mark.parametrize("values", [
        {"n": 4}, {"halving_tol": 1e-3}, {"check_tol": 1.0},
        {"x_points": (0.5,)}, {"function": "one"}],
        ids=lambda v: next(iter(v)))
    def test_rejects_keys_the_command_does_not_read(self, values):
        key = next(iter(values))
        with pytest.raises(InvalidConfig,
                           match=f"^{key}: not a flag that mn-sweep reads$"):
            ExperimentConfig("mn-sweep", values)

    @pytest.mark.parametrize("command,system",
                             [("theorem5", "cosine"), ("theorem6", "haar")])
    def test_theorem_sweeps_fix_their_system(self, command, system):
        config = ExperimentConfig(command)
        assert config.values["system"] == system
        assert replace(config) == config
        with pytest.raises(InvalidConfig, match=f"system: .* {command} reads"):
            ExperimentConfig(command, {"system": "rademacher"})

    @pytest.mark.parametrize("command,fields", [
        ("eq11", {"system": "haar"}), ("eq11", {"x": (0.9,)}),
        ("eq11", {"n_max": 3}), ("gram", {"function": "one"}),
        ("gram", {"n_max": 3}), ("theorem4-moments", {"x": (0.5,)})])
    def test_rejects_given_fields_the_command_does_not_read(self, command,
                                                             fields):
        name = next(iter(fields))
        with pytest.raises(InvalidConfig,
                           match=f"^{name}: .* that {command} reads$"):
            ExperimentConfig(command, fields)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unset_fields_take_the_command_line_defaults(self, command):
        api = ExperimentConfig(command)
        cli = config_from_namespace(build_parser().parse_args([command]))
        assert vars(api) == vars(cli)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_json_config_holds_the_flags_the_command_reads(self, command,
                                                            tmp_path):
        entry = REGISTRY[command]
        small = {k: v for k, v in (("n_max", "8"), ("n", "4"),
                                   ("n_values", "4"), ("points", "5"))
                 if k in entry.reads}
        argv = [command, "--format", "json"]
        for key, value in small.items():
            argv += ["--" + key.replace("_", "-"), value]
        code, path = run_cli(argv, tmp_path)
        assert code == 0
        config = json.loads(path.read_text())["config"]
        fixed = [] if entry.system is None else ["system"]
        assert list(config) == ["command", *fixed, *entry.reads]
        assert config["command"] == command
        assert config["output"] == str(path) and config["format"] == "json"
        for key, value in small.items():
            assert config[key] in (int(value), [int(value)])

    def test_run_api_directly(self, tmp_path, capsys):
        config = ExperimentConfig("gram", {"system": "haar", "n": 4})
        assert run(config) == 0
        assert capsys.readouterr().out.startswith("j,k,value")

    def test_rejects_unknown_command(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(command="frobnicate")

    def test_rejects_bad_format(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig("gram", {"format": "xml"})


# ---------------------------------------------------------------------------
# each command accepts only the flags it reads
# ---------------------------------------------------------------------------

#: One flag per command that the command does not read.
UNREAD = [
    ("gram", ["--x", "0.3"]),
    ("bessel", ["--function", "one"]),
    ("lemma1", ["--n", "3"]),
    ("lemma3", ["--n-max", "8"]),
    ("lemma4", ["--n-max", "8"]),
    ("eq11", ["--system", "haar"]),
    ("mn-sweep", ["--n", "5"]),
    ("partial-sums", ["--n", "4"]),
    ("e-phi", ["--n-values", "4"]),
    ("theorem2", ["--t", "0.5"]),
    ("theorem3-extremal", ["--x", "0.5"]),
    ("theorem4-moments", ["--system", "haar"]),
    ("theorem5", ["--system", "haar"]),
    ("theorem6", ["--system", "cosine"]),
]

#: A well-formed value for every flag.
SAMPLE = {"system": ["haar"], "function": ["one"], "x": ["0.5"],
          "n_max": ["8"], "n": ["4"], "n_values": ["4"], "points": ["5"],
          "check_tol": ["1"], "halving_tol": ["1"], "t": ["0.5"],
          "grid_size": ["64"], "base": ["haar"], "big_f": ["one"],
          "big_f_kernel": ["cosine", "4", "0.3"], "eq11_upper": ["n"],
          "slope_bounded": ["0.1"], "slope_growing": ["0.4"],
          "plateau_rise": ["0.02"], "output": ["out.csv"],
          "format": ["json"]}


def _usage_exit(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


class TestUsageErrors:
    @pytest.mark.parametrize("command,flag", UNREAD,
                             ids=[c for c, _ in UNREAD])
    def test_flag_the_command_does_not_read_exits_one(self, command, flag,
                                                      capsys):
        err = _usage_exit([command, *flag], capsys)
        assert err == ("ons-lab: error: unrecognized arguments: "
                       f"{' '.join(flag)}\n")

    def test_no_flag_is_taken_as_an_abbreviation(self, capsys):
        # --n would otherwise abbreviate --n-max, --check --check-tol
        _usage_exit(["mn-sweep", "--n", "5"], capsys)
        _usage_exit(["gram", "--check", "1"], capsys)

    def test_every_unread_flag_of_every_command_exits_one(self, capsys):
        for command, entry in REGISTRY.items():
            for key in set(FLAGS) - set(entry.reads):
                argv = [command, "--" + key.replace("_", "-"), *SAMPLE[key]]
                assert _usage_exit(argv, capsys).startswith(
                    "ons-lab: error: unrecognized arguments: --"), argv

    @pytest.mark.parametrize("command,flag", UNREAD,
                             ids=[c for c, _ in UNREAD])
    def test_config_key_the_command_does_not_read_exits_one(
            self, command, flag, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        key = flag[0][2:].replace("-", "_")
        cfg.write_text(f"{key}={' '.join(flag[1:])}\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"ons-lab: error: config: {command} does not read {key!r}\n")

    def test_every_unread_config_key_of_every_command_is_rejected(
            self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for command, entry in REGISTRY.items():
            for key in set(FLAGS) - set(entry.reads):
                cfg.write_text(f"{key}={' '.join(SAMPLE[key])}\n")
                ns = build_parser().parse_args([command, "--config", str(cfg)])
                with pytest.raises(InvalidConfig, match="does not read"):
                    config_from_namespace(ns)

    def test_every_read_config_key_of_every_command_is_accepted(
            self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for command, entry in REGISTRY.items():
            cfg.write_text("".join(f"{key}={' '.join(SAMPLE[key])}\n"
                                   for key in entry.reads))
            ns = build_parser().parse_args([command, "--config", str(cfg)])
            values = config_from_namespace(ns).values
            assert values["format"] == "json"
            if "big_f_kernel" in entry.reads:
                assert values["big_f_kernel"] == ("cosine", "4", "0.3")

    @pytest.mark.parametrize("line", ["eq11_upper=n-2", "format=xml",
                                      "big_f_kernel=cosine 4", "n_values=a"])
    def test_bad_config_values_are_rejected(self, line, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        ns = build_parser().parse_args(["eq11", "--config", str(cfg)])
        with pytest.raises(InvalidConfig, match="bad value"):
            config_from_namespace(ns)

    def test_unwritable_output_is_one_line_usage_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "out.csv"
        assert main(["gram", "--n", "2", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ons-lab: error: output: ")
        assert err.count("\n") == 1

    def test_missing_config_file_is_one_line_usage_error(self, tmp_path,
                                                         capsys):
        assert main(["gram", "--config", str(tmp_path / "none.cfg")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ons-lab: error: config: cannot read")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# tolerance and threshold flags refuse NaN and keep infinity
# ---------------------------------------------------------------------------

#: Every (command, flag) pair of a tolerance or threshold flag.
NAN_FLAGS = [(command, key) for command, entry in REGISTRY.items()
             for key in entry.reads
             if key in ("check_tol", "halving_tol", "slope_bounded",
                        "slope_growing", "plateau_rise")]


class TestNanFlags:
    def test_every_tolerance_and_threshold_flag_is_covered(self):
        assert {key for _, key in NAN_FLAGS} == {
            "check_tol", "halving_tol", "slope_bounded", "slope_growing",
            "plateau_rise"}
        assert {command for command, _ in NAN_FLAGS} == set(COMMANDS) - {
            "eq11", "partial-sums"}

    @pytest.mark.parametrize("command,key", NAN_FLAGS)
    def test_on_the_command_line_exits_one(self, command, key, tmp_path,
                                           capsys):
        code, path = run_cli([command, "--" + key.replace("_", "-"), "nan"],
                             tmp_path)
        assert code == 1 and not path.exists()
        assert capsys.readouterr().err == (
            f"ons-lab: error: {key}: must be a number, got nan\n")

    @pytest.mark.parametrize("command,key", NAN_FLAGS)
    def test_in_a_config_file_exits_one(self, command, key, tmp_path,
                                        capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}=NaN\n")
        assert main([command, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"ons-lab: error: {key}: must be a number, got nan\n")

    @pytest.mark.parametrize("command,key", NAN_FLAGS)
    def test_in_a_config_object_is_refused(self, command, key):
        with pytest.raises(InvalidConfig,
                           match=f"^{key}: must be a number, got nan$"):
            ExperimentConfig(command, {key: float("nan")})
        # infinity means no bound
        for value in (float("inf"), -float("inf")):
            assert ExperimentConfig(command, {key: value}).values[key] == value

    def test_infinite_tolerance_passes(self, tmp_path):
        code, path = run_cli(["gram", "--system", "cosine", "--n", "4",
                              "--check-tol", "inf", "--format", "json"],
                             tmp_path)
        assert code == 0
        assert json.loads(path.read_text())["summary"]["pass"] is True


# ---------------------------------------------------------------------------
# argv fuzz: every outcome is exit 0, 1 or 2
# ---------------------------------------------------------------------------

def _one(values):
    return st.sampled_from(values).map(lambda v: [v])


_POINTS = ("0", "0.3", "1", "1.5", "nan")
_SIZES = st.integers(-1, 16).map(str)
_SYSTEMS = ("cosine", "haar", "rademacher", "reflect(haar)", "all", "nosuch")
_FUNCTIONS = ("one", "id", "half-square", "cos-bump", "nosuch")
_REALS = ("0", "1e-12", "0.05", "0.5", "1", "nan")

_VALUES = {
    "system": _one(_SYSTEMS),
    "function": _one(_FUNCTIONS),
    "x": st.lists(st.sampled_from(_POINTS), min_size=1, max_size=2).map(
        lambda v: [",".join(v)]),
    "n_max": _SIZES.map(lambda v: [v]),
    "n": _SIZES.map(lambda v: [v]),
    "n_values": st.lists(_SIZES, min_size=1, max_size=3).map(
        lambda v: [",".join(v)]),
    "points": _SIZES.map(lambda v: [v]),
    "check_tol": _one(_REALS),
    "halving_tol": _one(_REALS),
    "t": _one(_POINTS),
    "grid_size": _SIZES.map(lambda v: [v]),
    "base": _one(_SYSTEMS),
    "big_f": _one(_FUNCTIONS),
    "big_f_kernel": st.tuples(st.sampled_from(_SYSTEMS),
                              st.one_of(_SIZES, st.just("nosuch")),
                              st.sampled_from(_POINTS)).map(list),
    "eq11_upper": _one(("n", "n-1", "nosuch")),
    "slope_bounded": _one(_REALS),
    "slope_growing": _one(_REALS),
    "plateau_rise": _one(_REALS),
    "format": _one(("csv", "json", "xml")),
}
#: Flags that size the work: always drawn when the command reads them, so
#: that no draw runs a full-size default.
_SIZE_FLAGS = ("n_max", "n", "n_values", "points")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(COMMANDS))
    reads = set(REGISTRY[command].reads) & set(_VALUES)
    keys = [k for k in _SIZE_FLAGS if k in reads]
    keys += draw(st.lists(st.sampled_from(sorted(reads - set(keys))),
                          max_size=3, unique=True))
    # now and then a flag the command may not read
    keys += draw(st.lists(st.sampled_from(sorted(_VALUES)), max_size=1))
    argv = [command]
    for key in keys:
        argv += ["--" + key.replace("_", "-"), *draw(_VALUES[key])]
    return argv


@settings(max_examples=60, deadline=None)
@given(argv=_argv())
def test_argv_fuzz_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
