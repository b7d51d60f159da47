import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from complimits import cli
from complimits.cli import _fmt, _write_output, main
from complimits.optcode import R_star, Rbar, epsilon_star
from complimits.sources import bernoulli
from complimits.spectrum import iid_spectrum

from _oracles import exact_success_factor, prefix_R, prefix_epsilon

B11_SRC = '{"type": "memoryless", "probs": [0.89, 0.11]}'
CHAIN_SRC = '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]]}'
LAW3_SRC = '{"type": "memoryless", "probs": [0.5, 0.3, 0.2]}'  # C(n+2, 2) type classes: n <= 8 fits 50


def run_cli(args):
    return main(list(args))


def _decimal(value: int) -> str:
    """str(value) at any size, whatever the process's int digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class TestExitCodes:
    def test_bad_source_json_is_config_error(self, capsys):
        assert run_cli(["spectrum", "--source", "{bad", "--n", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 2

    def test_unknown_subcommand_is_config_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_source_file(self, capsys):
        assert run_cli(["spectrum", "--source", "/nonexistent.json", "--n", "2"]) == 2

    def test_budget_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COMPLIMITS_TYPE_CLASS_BUDGET", "10")
        code = run_cli(["spectrum", "--source", '{"type":"memoryless","probs":[0.25,0.25,0.25,0.25]}', "--n", "50"])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert "suggestion" in err

    @pytest.mark.parametrize("argv", [["bounds", "--n-min", "2", "--n-max", "3"], ["binning", "--bins", "2"]])
    def test_markov_source_needs_single_letter_law(self, argv, capsys):
        assert run_cli([*argv, "--source", CHAIN_SRC]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "a Markov source has no single-letter marginal; use its kernel"

    @pytest.mark.parametrize("probs", [[1.0], [0.5, 0.5]], ids=["certain", "uniform"])
    def test_zero_varentropy_bounds_is_config_error(self, capsys, monkeypatch, probs):
        # every string equally likely: the Gaussian bounds are undefined, which is known before any spectrum
        monkeypatch.setattr(cli, "exact_sweep", lambda *a: pytest.fail("the sweep ran"))
        code = run_cli(["bounds", "--source", json.dumps({"type": "memoryless", "probs": probs}),
                        "--n-min", "4", "--n-max", "5", "--eps", "0.1"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DistributionError" and "positive varentropy" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [["binning", "--source", B11_SRC, "--bins", "2", "--trials", "10"],
         ["spectrum", "--source", '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]]}', "--n", "3",
          "--mc-samples", "10"]],
        ids=["binning", "spectrum_mc"],
    )
    def test_negative_seed_is_config_error(self, capsys, argv):
        assert run_cli([*argv, "--seed", "-1"]) == 2
        assert "must be at least 0, got -1" in json.loads(capsys.readouterr().err)["message"]
        assert run_cli([*argv, "--seed", "0"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure2", "--n-min", "0"],
            ["figure3", "--n-min", "5", "--n-max", "4"],
            ["limits", "--source", B11_SRC, "--n-min", "2", "--n-max", "3", "--eps", "1.5"],
            ["limits", "--source", B11_SRC, "--n-min", "2", "--n-max", "3", "--eps", "0.1", "-0.2"],
            ["binning", "--source", B11_SRC, "--bins", "2", "--trials", "0"],
            ["binning", "--source", B11_SRC, "--bins", "0"],
            ["dispersion", "--source", B11_SRC, "--n-min", "10", "--n-max", "30", "--n-step", "0"],
            ["spectrum", "--source", B11_SRC, "--n", "0"],
            ["spectrum", "--source", CHAIN_SRC, "--n", "3", "--mc-samples", "-5"],
            ["spectrum", "--source", B11_SRC, "--n", "3", "--mc-samples", "100"],
            ["figure2", "--n-min", "10", "--n-max", "11", "--eps", "0"],
            ["figure3", "--n-min", "10", "--n-max", "11", "--eps", "1.5"],
            ["bounds", "--source", B11_SRC, "--n-min", "10", "--n-max", "11", "--eps", "0"],
            ["bounds", "--source", B11_SRC, "--n-min", "10", "--n-max", "11", "--eps", "0.5"],
            ["binning", "--source", B11_SRC, "--bins", "1" + "0" * 400, "--trials", "1"],
            ["binning", "--source", B11_SRC, "--bins", "10000000000000000000", "--trials", "1"],
        ],
        ids=[
            "n_min_zero",
            "empty_range",
            "eps_above_one",
            "eps_negative",
            "trials_zero",
            "bins_zero",
            "n_step_zero",
            "n_zero",
            "mc_samples_negative",
            "mc_samples_memoryless",
            "figure2_eps_zero",
            "figure3_eps_above_one",
            "bounds_eps_zero",
            "bounds_eps_half",
            "bins_beyond_float",
            "bins_beyond_int64",
        ],
    )
    def test_invalid_option_is_config_error(self, capsys, argv):
        assert run_cli(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert err["exit_code"] == 2

    @pytest.mark.parametrize("command", ["figure2", "figure3"])
    @pytest.mark.parametrize("bias", ["0", "1", "-0.1", "nan"])
    def test_bias_outside_unit_interval_is_config_error(self, capsys, command, bias):
        assert run_cli([command, "--n-min", "10", "--n-max", "11", "--bias", bias]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"

    def test_fair_coin_bias_is_numeric_error(self, capsys):
        # a valid source whose varentropy is zero: the Gaussian approximation is undefined
        assert run_cli(["figure3", "--n-min", "10", "--n-max", "11", "--bias", "0.5"]) == 4

    @pytest.mark.parametrize(
        "doc",
        [
            '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "intial": [1, 0]}',
            '{"type": "memoryless", "probs": [0.5, 0.5], "symbol": ["a", "b"]}',
            '{"type": "markov", "kernel": [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], "initial": [0.5, 0.5]}',
            '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "initial": [1, 0, 0]}',
            '{"type": "memoryless", "probs": 5}',
            '{"type": "geometric", "param": null}',
            '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]], "states": [[0], [1]]}',
            '{"type": "memoryless", "probs": "ab"}',
            '{"type": "markov", "kernel": [[0.9, 0.1], [0.2]]}',
            '{"type": "geometric", "param": "x"}',
            '{"type": ["memoryless"], "probs": [1.0]}',
        ],
        ids=["misspelt_initial", "unknown_symbol_key", "short_initial", "long_initial", "scalar_probs",
             "null_param", "states_key", "string_probs", "ragged_kernel", "string_param", "list_type"],
    )
    def test_malformed_source_is_config_error(self, capsys, doc):
        assert run_cli(["spectrum", "--source", doc, "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert json.loads(captured.err)["exit_code"] == 2

    @pytest.mark.parametrize("doc", ['{"type": "geometric", "param": 1e-6}', '{"type": "poisson", "param": 1e8}'])
    def test_countable_law_past_max_support_is_config_error(self, capsys, doc):
        assert run_cli(["binning", "--source", doc, "--bins", "2", "--trials", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DistributionError" and "needs at least" in err["message"]

    def test_largest_bin_count_accepted(self, capsys):
        assert run_cli(["binning", "--source", B11_SRC, "--bins", str(2**63), "--trials", "1"]) == 0

    def test_bin_cap_is_the_monte_carlo_limit(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MC_MAX_BINS", 4)
        assert run_cli(["binning", "--source", B11_SRC, "--bins", "4", "--trials", "1"]) == 0
        capsys.readouterr()
        assert run_cli(["binning", "--source", B11_SRC, "--bins", "5", "--trials", "1"]) == 2
        assert "must be at most 4" in json.loads(capsys.readouterr().err)["message"]

    def test_success(self, capsys):
        assert run_cli(["spectrum", "--source", B11_SRC, "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("info_value_bits,probability,count")


class TestDeterminism:
    def test_identical_bytes_for_same_config(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = run_cli([
                "binning", "--source", B11_SRC, "--bins", "2", "4",
                "--trials", "5000", "--seed", "7", "-o", str(path),
            ])
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        meta_a = json.loads((tmp_path / "a.csv.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b.csv.meta.json").read_text())
        assert meta_a["config_sha256"] == meta_b["config_sha256"]

    def test_seed_changes_mc_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            path = tmp_path / f"s{seed}.csv"
            run_cli(["binning", "--source", B11_SRC, "--bins", "2",
                     "--trials", "5000", "--seed", seed, "-o", str(path)])
            outs.append(path.read_text())
        assert outs[0] != outs[1]

    def test_metadata_records_seed_and_version(self, tmp_path):
        path = tmp_path / "m.csv"
        run_cli(["spectrum", "--source", B11_SRC, "--n", "3", "--seed", "99", "-o", str(path)])
        meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
        assert meta["seed"] == 99
        assert meta["version"]
        assert meta["columns"][0] == "info_value_bits"


class TestSubcommands:
    def test_binning_exact_at_many_bins(self, capsys):
        # 100 equiprobable strings form one class of mass 1, so the exact
        # error is 1 - the class's success factor
        src = json.dumps({"type": "memoryless", "probs": [0.01] * 100})
        bins = (10**6, 2**40, 2**53, 2**63)
        assert run_cli(["binning", "--source", src, "--bins", *map(str, bins), "--trials", "1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        for n_bins, row in zip(bins, rows):
            exact = float(1 - exact_success_factor(n_bins, 100, 0))
            assert float(row[1]) == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_limits_columns(self, capsys):
        run_cli(["limits", "--source", B11_SRC, "--n-min", "2", "--n-max", "3", "--eps", "0.1", "0.2"])
        lines = capsys.readouterr().out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:5] == [
            "n", "k", "epsilon_star_probability", "prefix_epsilon_kplus1_probability",
            "Rbar_bits_per_symbol",
        ]
        assert "R_star_bits_per_symbol_eps_0.1" in header
        assert "prefix_R_bits_per_symbol_eps_0.2" in header

    def test_limits_cells_match_per_row_route(self, capsys):
        eps_list = (0.01, 0.05, 0.1, 0.2)
        argv = ["limits", "--source", B11_SRC, "--n-min", "10", "--n-max", "40", "--eps", *map(str, eps_list)]
        assert run_cli(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        expected = []
        for n in range(10, 41):
            s = iid_spectrum(bernoulli(0.11), n)
            per_n = [Rbar(s), *(R_star(s, e) for e in eps_list), *(prefix_R(s, e) for e in eps_list)]
            for k in range(s.total_count.bit_length() + 1):
                cells = [n, k, epsilon_star(s, k), prefix_epsilon(s, k + 1), *per_n]
                expected.append(",".join(_fmt(v) for v in cells))
        assert lines == expected
        assert run_cli([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == len(expected)
        assert all(type(v) in (int, float) for row in rows for v in row)

    def test_csv_writer_keeps_equal_values_apart(self, capsys):
        args = argparse.Namespace(command="test", format="csv", output=None)
        _write_output(args, ["x"], [(1,), (1.0,), (0.0,), (-0.0,)], {})
        assert capsys.readouterr().out == "x\n1\n1.0\n0.0\n-0.0\n"

    def test_csv_writer_reuses_text_only_for_the_same_object(self, capsys):
        x, y = 0.1 + 0.2, 2.0 / 3.0
        rows = [
            (0.0, -0.0, 1, 1.0, True, 1),  # equal neighbours of other types or signs print apart
            (x, x, x),  # one object in adjacent cells, in a shorter row
            (x, y, y),  # the same objects above, a new one to the left
            (y, x, y, 5),  # a longer row
            (5,),
        ]
        args = argparse.Namespace(command="test", format="csv", output=None)
        _write_output(args, ["a"], rows, {})
        out = capsys.readouterr().out
        assert out == "a\n" + "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
        assert out.split("\n")[1:3] == ["0.0,-0.0,1,1.0,True,1", ",".join([repr(x)] * 3)]

    @pytest.mark.parametrize("rows", [[], [()], [
        (0.0, -0.0, 1, 1.0, True, None, 1),  # equal neighbours of other types or signs print apart
        (math.inf, -math.inf, math.nan, 0.1 + 0.2, 2.0**53),
        (2**53 - 1, 2**53, -(2**53), 7**6000, np.int64(3), np.float64(0.5)),  # 7^6000: 5,071 digits
        (),
        ('quote " backslash \\ accent \u00e9', "x", "x"),
    ]], ids=["no-rows", "one-empty-row", "mixed"])
    def test_json_writer_prints_json_dumps_of_the_payload(self, capsys, rows):
        args = argparse.Namespace(command="test", format="json", output=None)
        _write_output(args, ["a", "b"], rows, {"note": "\u00e9", "z": [1, 2.5], "empty": {}})
        out = capsys.readouterr().out
        meta = json.loads(out)["meta"]
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            payload = {"columns": ["a", "b"], "rows": [[cli._cell(v) for v in row] for row in rows], "meta": meta}
            assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--source", B11_SRC, "--n", "300"],  # counts past 2^53 print as strings
        ["spectrum", "--source", CHAIN_SRC, "--n", "6", "--mc-samples", "500"],
        ["limits", "--source", B11_SRC, "--n-min", "2", "--n-max", "12", "--eps", "0", "0.1"],
        ["bounds", "--source", B11_SRC, "--n-min", "10", "--n-max", "14"],
        ["binning", "--source", LAW3_SRC, "--bins", "1", "2", "3", "--trials", "500"],
        ["dispersion", "--source", B11_SRC, "--n-min", "10", "--n-max", "30", "--n-step", "10"],
        ["figure1"],
        ["figure2", "--n-min", "10", "--n-max", "20", "--n-step", "5"],
        ["figure3", "--n-min", "10", "--n-max", "14"],
        ["figure4"],
    ], ids=lambda argv: "-".join(argv[:1] + argv[-1:]))
    def test_json_output_of_every_command_is_json_dumps_layout(self, capsys, argv):
        # json.loads gives back every value of the payload exactly, so dumping
        # it again reproduces json.dumps(payload) byte for byte
        assert run_cli([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["limits", "--source", B11_SRC, "--n-min", "2", "--n-max", "12", "--eps", "0.1"],
        ["spectrum", "--source", B11_SRC, "--n", "6"],
    ])
    def test_file_and_stdout_bytes_agree(self, capsys, tmp_path, argv, fmt):
        path = tmp_path / "out"
        assert run_cli([*argv, "--format", fmt, "-o", str(path)]) == 0
        assert run_cli([*argv, "--format", fmt]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert path.read_bytes() == out
        assert out.endswith(b"\n") and not out.endswith(b"\n\n")

    def test_bounds_rows(self, capsys):
        run_cli(["bounds", "--source", B11_SRC, "--n-min", "30", "--n-max", "32", "--eps", "0.1"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4
        row = lines[1].split(",")
        exact, approx = float(row[1]), float(row[2])
        assert 0.3 < exact < 1.2 and 0.3 < approx < 1.2

    def test_dispersion_rows(self, capsys):
        run_cli(["dispersion", "--source", B11_SRC, "--n-min", "10", "--n-max", "30", "--n-step", "10"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].split(",")[0:2] == ["n", "var_len_over_n_bits2"]
        assert len(lines) == 4

    def test_markov_spectrum_subcommand(self, capsys):
        assert run_cli(["spectrum", "--source", CHAIN_SRC, "--n", "3"]) == 0
        assert run_cli(["spectrum", "--source", CHAIN_SRC, "--n", "4", "--mc-samples", "1000"]) == 0

    def test_json_format(self, capsys):
        run_cli(["spectrum", "--source", B11_SRC, "--n", "2", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["columns"][0] == "info_value_bits"
        assert len(payload["rows"]) == 3

    def test_figure1_meta_scalars(self, tmp_path):
        path = tmp_path / "fig1.csv"
        assert run_cli(["figure1", "-o", str(path)]) == 0
        meta = json.loads((tmp_path / "fig1.csv.meta.json").read_text())
        assert meta["entropy_bits"] == pytest.approx(7.6910, abs=2e-4)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "series,x_bits,cdf_probability"
        series = {line.split(",")[0] for line in lines[1:]}
        assert series == {"codelength", "information"}

    def test_figure3_columns(self, capsys):
        assert run_cli(["figure3", "--n-min", "10", "--n-max", "14"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].split(",")[1] == "exact_R_star_bits_per_symbol"

    def test_figure3_honours_n_step(self, capsys):
        assert run_cli(["figure3", "--n-min", "10", "--n-max", "20", "--n-step", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["10", "15", "20"]

    def test_csv_counts_are_exact_decimals(self, tmp_path):
        path = tmp_path / "big.csv"
        assert run_cli(["spectrum", "--source", B11_SRC, "--n", "300", "-o", str(path)]) == 0
        row = path.read_text().strip().split("\n")[151]
        assert int(row.split(",")[2]) == math.comb(300, 150)

    def test_counts_past_the_int_digit_limit_print_exactly(self, tmp_path):
        # C(15000, 7500) has 4,514 digits, past Python's default limit of 4,300
        path, n = tmp_path / "big.csv", 15_000
        limit = getattr(sys, "get_int_max_str_digits", int)()
        assert run_cli(["spectrum", "--source", B11_SRC, "--n", str(n), "-o", str(path)]) == 0
        assert getattr(sys, "get_int_max_str_digits", int)() == limit
        lines = path.read_text().split("\n")
        assert len(lines) == n + 3 and lines[-1] == ""  # header, n + 1 masses, final newline
        for k in [*range(0, n + 1, 500), 7499, 7501]:  # the row of k ones holds C(n, k)
            assert lines[k + 1].rsplit(",", 1)[1] == _decimal(math.comb(n, k))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_prints_any_int_and_restores_the_limit(self, capsys, fmt):
        big = 7**6000  # 5,071 digits
        limit = getattr(sys, "get_int_max_str_digits", int)()
        _write_output(argparse.Namespace(command="test", format=fmt, output=None), ["a"], [(big,)], {})
        out = capsys.readouterr().out
        assert getattr(sys, "get_int_max_str_digits", int)() == limit
        cell = out.split("\n")[1] if fmt == "csv" else json.loads(out)["rows"][0][0]
        assert cell == _decimal(big)

    @pytest.mark.parametrize("old_pair", [False, True])
    def test_failed_write_leaves_no_new_file_and_an_old_pair_untouched(self, tmp_path, monkeypatch, old_pair):
        path = tmp_path / "out.csv"
        argv = ["spectrum", "--source", B11_SRC, "--n", "40", "-o", str(path)]
        if old_pair:
            assert run_cli([*argv[:-3], "30", "-o", str(path)]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        limit = getattr(sys, "get_int_max_str_digits", int)()
        calls = iter(range(60))

        def failing_fmt(value):  # the writer fails part-way through the rows
            if next(calls) == 59:
                raise ValueError("injected")
            return _fmt(value)

        monkeypatch.setattr(cli, "_fmt", failing_fmt)
        assert run_cli(argv) == 4
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert getattr(sys, "get_int_max_str_digits", int)() == limit

    def test_figure4_families(self, capsys):
        assert run_cli(["figure4"]) == 0
        out = capsys.readouterr().out
        families = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
        assert families == {"bernoulli", "geometric", "poisson"}

    def test_budget_degrades_with_marker(self, tmp_path):
        src = '{"type": "markov", "kernel": [[0.9, 0.1], [0.2, 0.8]]}'
        path = tmp_path / "lim.csv"
        code = run_cli(["limits", "--source", src, "--n-min", "12", "--n-max", "20", "-o", str(path)])
        assert code == 0  # partial output with a marker, not a failure
        meta = json.loads((tmp_path / "lim.csv.meta.json").read_text())
        assert meta["truncated_at_n"] == 15
        last_n = path.read_text().strip().split("\n")[-1].split(",")[0]
        assert last_n == "14"

    def test_geometric_source_limits(self, capsys):
        src = '{"type": "geometric", "param": 0.5}'
        assert run_cli(["limits", "--source", src, "--n-min", "1", "--n-max", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        rbar = float(lines[1].split(",")[4])
        assert rbar == pytest.approx(0.632843, abs=1e-5)


class TestSweepBudgetRule:
    """Every sweep over n writes the rows up to the first blocklength over
    budget and marks the sidecar; it exits 3 only when no blocklength fits."""

    # command argv, a range that partly fits, its first n over budget, a range where none fits
    SWEEPS = {
        "limits": (["limits", "--source", LAW3_SRC], ("5", "12"), 9, ("20", "22")),
        "bounds": (["bounds", "--source", LAW3_SRC], ("5", "12"), 9, ("20", "22")),
        "figure3": (["figure3"], ("40", "60"), 50, ("60", "62")),  # n + 1 type classes
        "dispersion": (["dispersion", "--source", LAW3_SRC], ("5", "12"), 9, ("20", "22")),
    }

    @pytest.mark.parametrize("command", SWEEPS)
    def test_partial_range_writes_rows_that_fit(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPLIMITS_TYPE_CLASS_BUDGET", "50")
        argv, (lo, hi), cut, _ = self.SWEEPS[command]
        path = tmp_path / "out.csv"
        assert run_cli([*argv, "--n-min", lo, "--n-max", hi, "-o", str(path)]) == 0
        rows = path.read_text().strip().split("\n")[1:]
        assert sorted({int(row.split(",")[0]) for row in rows}) == list(range(int(lo), cut))
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        if command == "dispersion":
            assert meta["complete"] is False
        else:
            assert meta["truncated_at_n"] == cut
            assert "exceed budget 50" in meta["budget_note"]

    @pytest.mark.parametrize("command", SWEEPS)
    def test_no_blocklength_fits_is_budget_error(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COMPLIMITS_TYPE_CLASS_BUDGET", "50")
        argv, _, _, (lo, hi) = self.SWEEPS[command]
        assert run_cli([*argv, "--n-min", lo, "--n-max", hi]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["exit_code"] == 3 and "suggestion" in err

    def test_memoryless_budget_error_does_not_suggest_sampling(self, capsys, monkeypatch):
        # Monte-Carlo sampling takes Markov sources only
        monkeypatch.setenv("COMPLIMITS_TYPE_CLASS_BUDGET", "50")
        assert run_cli(["limits", "--source", LAW3_SRC, "--n-min", "20", "--n-max", "22"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert "COMPLIMITS_TYPE_CLASS_BUDGET" in err["suggestion"]
        assert "markov_spectrum_mc" not in err["suggestion"]


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "complimits.cli"],
            input="",
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2  # no subcommand: config error with JSON payload
        assert json.loads(proc.stderr.strip().split("\n")[-1])["exit_code"] == 2
