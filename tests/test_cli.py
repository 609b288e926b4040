import json
import math
import os
import re
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

from votebounds import (
    ExpertPanel,
    bhattacharyya,
    full_report,
    optimal_error,
    simulate_error,
)
import votebounds
from votebounds.bounds import SWEEP_KINDS
from votebounds.cli import main

import oracles


def write_panel(tmp_path, name="panel.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture
def counterexample_path(tmp_path):
    return write_panel(tmp_path, psi=[1.0, 0.0], eta=[0.9, 0.1])


@pytest.fixture
def distinct_path(tmp_path):
    """Two distinct interior experts: a reduced table of 2^2 points."""
    return write_panel(tmp_path, "distinct.json", psi=[0.9, 0.6], eta=[0.8, 0.7])


def distinct_panel(tmp_path, n):
    """n distinct interior experts, which no reduction shrinks."""
    psi = [0.6 + 0.3 * i / n for i in range(n)]
    return write_panel(tmp_path, psi=psi, eta=[0.7] * n)


@pytest.fixture
def three_expert_path(tmp_path):
    return write_panel(tmp_path, psi=[0.9, 0.6, 0.6], eta=[0.9, 0.6, 0.6])


class TestValidate:
    def test_echoes_normalized_panel(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.9], eta=[0.8])
        assert main(["validate", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"psi": [0.9], "eta": [0.8], "p_y": 0.5}

    def test_bad_values_fail_with_diagnostics(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[1.5], eta=[0.8])
        assert main(["validate", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error" in err

    def test_unknown_key_rejected(self, tmp_path):
        path = write_panel(tmp_path, psi=[0.9], eta=[0.8], prior=0.6)
        assert main(["validate", path]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("fields", [
        {"psi": ["0.9"], "eta": [0.8]},
        {"psi": [0.9], "eta": [0.8], "p_y": "0.3"},
    ])
    def test_numbers_written_as_strings_rejected(self, tmp_path, capsys, fields):
        path = write_panel(tmp_path, **fields)
        assert main(["validate", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "strings" in err or "real number" in err

    def test_integer_too_large_for_a_float_rejected(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[10**400], eta=[0.8])
        assert main(["validate", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: psi")

    @pytest.mark.parametrize("text, message", [
        ("[" * 100000, "nests too deeply"),
        ('{"psi": [0.9], "eta": [0.8], "psi": [0.7]}', "repeats the key 'psi'"),
    ], ids=["nested", "repeated-key"])
    def test_unreadable_panel_structure_rejected(self, tmp_path, capsys, text, message):
        path = tmp_path / "panel.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: panel file") and message in err


class TestDecide:
    def test_three_expert_example(self, three_expert_path, capsys):
        assert main(["decide", three_expert_path, "--x", "100"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_json_includes_score(self, three_expert_path, capsys):
        assert main(["decide", three_expert_path, "--x", "100", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decision"] == 1
        assert payload["score"] == pytest.approx(math.log(4.0), rel=1e-9)

    def test_wrong_length_is_validation_failure(self, three_expert_path, capsys):
        assert main(["decide", three_expert_path, "--x", "10"]) == 1
        assert capsys.readouterr().out == ""

    def test_non_bit_string_is_usage_error(self, three_expert_path, capsys):
        assert main(["decide", three_expert_path, "--x", "102"]) == 2

    def test_exact_tie_decides_one(self, tmp_path, capsys):
        # votes 1, 0, 0 weigh log(0.5 / 0.25), log(0.25 / 0.5) and 0, which
        # add to exactly 0.0, and a tie decides 1
        path = write_panel(tmp_path, psi=[0.5, 0.75, 0.6], eta=[0.75, 0.5, 0.4])
        assert main(["decide", path, "--x", "100", "--format", "json"]) == 0
        assert capsys.readouterr().out == '{"decision": 1, "score": 0.0}\n'

    def test_vetoed_vector_decides_zero_with_null_score(self, tmp_path, capsys):
        # expert 1 always votes 1 under label 1, and it voted 0; the score
        # is -inf, which strict JSON has no number for
        path = write_panel(tmp_path, psi=[1.0, 0.999999, 0.999999],
                           eta=[0.5, 0.999999, 0.999999])
        assert main(["decide", path, "--x", "011", "--format", "json"]) == 0

        def refuse(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload == {"decision": 0, "score": None}
        assert main(["decide", path, "--x", "011"]) == 0
        assert capsys.readouterr().out.strip() == "0"


class TestError:
    def test_prints_exact_value(self, counterexample_path, capsys):
        assert main(["error", counterexample_path]) == 0
        assert capsys.readouterr().out.strip() == "0.005"

    def test_json_round_trip(self, counterexample_path, capsys):
        assert main(["error", counterexample_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "exact"
        assert payload["n"] == 2
        panel = ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1])
        expected = float(f"{optimal_error(panel):.12g}")
        assert payload["error"] == expected

    def test_json_output_is_deterministic(self, counterexample_path, capsys):
        main(["error", counterexample_path, "--format", "json"])
        first = capsys.readouterr().out
        main(["error", counterexample_path, "--format", "json"])
        assert capsys.readouterr().out == first

    def test_refuses_oversized_panel_without_mc(self, tmp_path, capsys):
        path = distinct_panel(tmp_path, 30)
        assert main(["error", path]) == 1
        assert "--method mc" in capsys.readouterr().err

    def test_cap_counts_the_reduced_table(self, tmp_path, capsys):
        # 25 identical experts reduce to one 26-state factor; 25 distinct
        # interior experts keep all 2^25 points.
        path = write_panel(tmp_path, psi=[0.7] * 25, eta=[0.8] * 25)
        assert main(["error", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "exact"
        assert payload["n"] == 25
        want = 0.5 * oracles.binomial_min_mass([25], [0.7], [1.0 - 0.8])
        assert_allclose(payload["error"], want, rtol=1e-11)
        assert main(["error", distinct_panel(tmp_path, 25)]) == 1
        err = capsys.readouterr().err
        assert "n = 25 reduces to a table of 33554432 points" in err
        assert "--method mc" in err

    def test_large_jury_runs_past_float_binomials(self, tmp_path, capsys):
        # past about 1030 experts math.comb(m, m // 2) does not fit in a float
        path = write_panel(tmp_path, psi=[0.6] * 1001, eta=[0.6] * 1001)
        assert main(["error", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == (
            '{"error": 8.07979836184e-11, "method": "exact", "n": 1001}\n'
        )
        path = write_panel(tmp_path, psi=[0.6] * 1100, eta=[0.6] * 1100)
        assert main(["error", path, "--n-max", "2000", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 1100
        assert 0.0 < payload["error"] < 1e-10

    def test_mc_method_on_oversized_panel(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.6] * 30, eta=[0.7] * 30)
        code = main([
            "error", path, "--method", "mc",
            "--trials", "200000", "--seed", "1", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "mc"
        assert payload["trials"] == 200000
        assert 0.0 <= payload["error"] <= 0.5
        assert payload["std_error"] > 0.0

    def test_mc_agrees_with_exact_on_small_panel(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.85, 0.7], eta=[0.75, 0.8])
        assert main(["error", path, "--format", "json"]) == 0
        exact = json.loads(capsys.readouterr().out)["error"]
        code = main([
            "error", path, "--method", "mc",
            "--trials", "1000000", "--seed", "5", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["error"] - exact) <= 4.0 * payload["std_error"]

    def test_mc_on_boundary_panel(self, tmp_path, capsys):
        # psi_1 = 1 puts the sampling law on the boundary; exact error 0.1
        path = write_panel(tmp_path, psi=[1.0, 0.7], eta=[0.8, 0.6])
        assert main(["error", path, "--method", "mc", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["std_error"] > 0.0
        assert abs(payload["error"] - 0.1) <= 5.0 * payload["std_error"]

    @pytest.mark.parametrize("psi, eta, positive", [
        # the reduction leaves no interior coordinate: overlap 1e-5, exactly
        ([0.99999, 0.5, 0.5], [1.0, 0.5, 0.5], True),
        # disjoint supports on the first expert: overlap 0
        ([1.0, 0.5, 0.5], [1.0, 0.5, 0.5], False),
    ])
    def test_mc_zero_estimate_keeps_stdout_and_exit_code(self, tmp_path, capsys,
                                                         psi, eta, positive):
        # nothing is sampled, so the exact overlap comes back, with no warning
        path = write_panel(tmp_path, psi=psi, eta=eta)
        args = ["error", path, "--method", "mc", "--trials", "20000", "--seed", "1"]
        error = ("5e-06", "4.99999999998e-06") if positive else ("0", "0.0")
        assert main(args) == 0
        assert capsys.readouterr() == (f"{error[0]} (std_error 0)\n", "")
        assert main(args + ["--format", "json"]) == 0
        assert capsys.readouterr().out == (
            f'{{"error": {error[1]}, "std_error": 0.0, "method": "mc", '
            '"trials": 20000, "seed": 1, "n": 3}\n'
        )

    def test_trials_without_mc_is_usage_error(self, counterexample_path, capsys):
        assert main(["error", counterexample_path, "--trials", "1000"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_seed_without_mc_is_usage_error(self, counterexample_path):
        assert main(["error", counterexample_path, "--seed", "3"]) == 2

    def test_threads_without_mc_is_usage_error(self, counterexample_path, capsys):
        assert main(["error", counterexample_path, "--threads", "4"]) == 2
        assert capsys.readouterr() == (
            "", "usage error: --trials, --seed and --threads require --method mc\n")

    def test_n_max_with_mc_is_usage_error(self, counterexample_path, capsys):
        argv = ["error", counterexample_path, "--method", "mc", "--trials", "1000"]
        assert main(argv + ["--n-max", "30"]) == 2
        assert capsys.readouterr() == ("", "usage error: --n-max requires --method exact\n")

    def test_usage_error_comes_before_reading_the_panel(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["error", missing, "--trials", "5"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_n_max_flag_lowers_cap(self, distinct_path):
        assert main(["error", distinct_path, "--n-max", "1"]) == 1
        assert main(["error", distinct_path, "--n-max", "2"]) == 0


class TestBounds:
    def test_human_output_lists_all_fields(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.5, 0.5], eta=[0.5, 0.5])
        assert main(["bounds", path]) == 0
        out = capsys.readouterr().out
        for key in ("upper", "lower", "symmetric_lower", "hellinger_upper"):
            assert key in out
        assert "0.5" in out

    def test_symmetric_uninformative_values(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.5, 0.5], eta=[0.5, 0.5])
        assert main(["bounds", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["upper"] == 0.5
        assert payload["lower"] == 0.5
        assert payload["symmetric_lower"] == 0.5

    def test_asymmetric_panel_has_nulls(self, counterexample_path, capsys):
        assert main(["bounds", counterexample_path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symmetric_lower"] is None
        assert payload["manino_upper"] is None
        assert payload["exact"] is None

    def test_human_prints_n_a_for_nulls(self, counterexample_path, capsys):
        assert main(["bounds", counterexample_path]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_potential_lower_underflows_quietly(self, tmp_path, capsys):
        # 400 experts at 0.9: exp(2F + 4 sqrt(F)) would overflow
        path = write_panel(tmp_path, psi=[0.9] * 400, eta=[0.9] * 400)
        assert main(["bounds", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["potential_lower"] == 0.0
        assert 0.0 < payload["potential_upper"] < 1e-70

    def test_with_exact_round_trips(self, tmp_path, capsys):
        path = write_panel(tmp_path, psi=[0.8, 0.7], eta=[0.6, 0.9], p_y=0.7)
        assert main(["bounds", path, "--with-exact", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        panel = ExpertPanel(psi=[0.8, 0.7], eta=[0.6, 0.9], p_y=0.7)
        report = full_report(panel, with_exact=True)
        assert payload["exact"] == float(f"{report.exact:.12g}")
        assert payload["n"] == report.n == 3
        assert payload["lower"] <= payload["exact"] <= payload["upper"]


class TestTv:
    def test_values_match_library(self, capsys):
        assert main([
            "tv", "--p", "0.6", "--q", "0.4", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tv"] == pytest.approx(0.2, abs=1e-12)
        assert payload["min_mass"] == pytest.approx(0.8, abs=1e-12)
        assert payload["bhattacharyya"] == pytest.approx(2 * math.sqrt(0.24), rel=1e-9)
        assert payload["hellinger_upper"] == pytest.approx(math.sqrt(0.96), rel=1e-9)
        assert payload["method"] == "enumeration"

    def test_dimension_mismatch_fails_validation(self, capsys):
        assert main(["tv", "--p", "0.6,0.5", "--q", "0.4"]) == 1

    def test_bad_number_is_usage_error(self, capsys):
        assert main(["tv", "--p", "0.6,zebra", "--q", "0.4"]) == 2
        assert main(["tv", "--p", ",", "--q", "0.5"]) == 2
        assert "argument --p: expected at least one number" in capsys.readouterr().err

    def test_human_format(self, capsys):
        assert main(["tv", "--p", "0.6", "--q", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "tv" in out
        assert "0.2" in out


class TestSweep:
    def test_asym_csv(self, capsys):
        assert main(["sweep", "--kind", "asym", "--eps", "0.1,0.01"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eps,exact,bound,ratio"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.1
        assert float(first[1]) == pytest.approx(0.01, abs=1e-12)

    def test_sym_ratio_direction(self, capsys):
        assert main(["sweep", "--kind", "sym", "--eps", "0.1,0.01,0.001"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        ratios = [float(line.split(",")[3]) for line in lines]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_out_of_range_grid_fails_validation(self, capsys):
        assert main(["sweep", "--kind", "asym", "--eps", "0.0,0.1"]) == 1

    def test_eps_below_the_floor_fails_validation(self, capsys):
        assert main(["sweep", "--kind", "sym", "--eps", "1e-20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eps[0] = 1e-20 lies outside [1.1102230246251565e-16, 1)" in captured.err

    def test_unknown_kind_is_usage_error(self):
        assert main(["sweep", "--kind", "diag", "--eps", "0.1"]) == 2


class TestSimulate:
    def test_deterministic_json(self, counterexample_path, capsys):
        args = [
            "simulate", counterexample_path,
            "--trials", "100000", "--seed", "7", "--format", "json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["trials"] == 100000
        assert first["seed"] == 7
        library = simulate_error(
            ExpertPanel(psi=[1.0, 0.0], eta=[0.9, 0.1]), trials=100000, seed=7
        )
        assert first["empirical_error"] == float(f"{library.empirical_error:.12g}")

    def test_missing_trials_is_usage_error(self, counterexample_path):
        assert main(["simulate", counterexample_path, "--seed", "7"]) == 2

    def test_human_output_mentions_std_error(self, counterexample_path, capsys):
        assert main([
            "simulate", counterexample_path, "--trials", "1000", "--seed", "0",
        ]) == 0
        assert "std_error" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["simulate", "PANEL", "--trials", "1000"],
    ["error", "PANEL", "--method", "mc", "--trials", "1000"],
], ids=["simulate", "error-mc"])
def test_monte_carlo_commands_echo_the_seed_as_given(distinct_path, capsys, argv):
    # the stream is keyed by seed mod 2^64, so -1 and 2^64 - 1 give one run
    argv = [distinct_path if a == "PANEL" else a for a in argv] + ["--format", "json"]
    assert main(argv + ["--seed", "-1"]) == 0
    negative = json.loads(capsys.readouterr().out)
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0
    wrapped = json.loads(capsys.readouterr().out)
    assert negative.pop("seed") == -1
    assert wrapped.pop("seed") == 2**64 - 1
    assert negative == wrapped
    # --seed reads every spelling that int() reads
    assert main(argv + ["--seed", f" +{2**64 - 1:_} "]) == 0
    assert json.loads(capsys.readouterr().out) == {**wrapped, "seed": 2**64 - 1}


class TestExitMatrix:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, counterexample_path):
        assert main(["error", counterexample_path, "--fast"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "votebounds" in capsys.readouterr().out

    def test_threads_flag_accepted(self, counterexample_path, capsys):
        argv = ["error", counterexample_path, "--method", "mc", "--trials", "1000"]
        assert main(argv) == 0
        one_thread = capsys.readouterr().out
        assert main(argv + ["--threads", "2"]) == 0
        assert capsys.readouterr().out == one_thread

    def test_zero_threads_is_usage_error(self, counterexample_path):
        assert main(["error", counterexample_path, "--threads", "0"]) == 2

    def test_short_bad_argument_is_echoed_whole(self, capsys):
        assert main(["tv", "--p", "x", "--q", "0.5"]) == 2
        assert "argument --p: 'x' is not a comma-separated list of numbers\n" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["tv", "--p", "BAD", "--q", "0.5"],
        ["sweep", "--kind", "sym", "--eps", "BAD"],
        ["decide", "PANEL", "--x", "BAD"],
        ["simulate", "PANEL", "--trials", "BAD", "--seed", "1"],
    ], ids=["tv", "sweep", "decide", "simulate"])
    def test_long_bad_argument_is_echoed_cut(self, distinct_path, capsys, argv):
        bad = "x," * 2500
        option = argv[argv.index("BAD") - 1]
        assert main([{"PANEL": distinct_path, "BAD": bad}.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert len(err) < 1000
        assert f"argument {option}: " in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "PANEL", "--trials", "10", "--seed", "x," * 3000],
        ["error", "PANEL", "--method", "mc", "--seed", "7" * 6000],
        ["sweep", "--kind", "x," * 3000],
        ["validate", "PANEL", "y" * 6000],
        ["validate", "PANEL"] + ["x"] * 3000,
        ["bounds", "PANEL", "--with-exact=" + "x," * 3000],
    ], ids=["seed", "seed-digits", "kind", "unknown", "unknown-count", "explicit-value"])
    def test_argparse_echoes_are_cut(self, distinct_path, capsys, argv):
        # argparse's own messages echo an argument; each is cut as ours are
        assert main([distinct_path if a == "PANEL" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1000
        assert "..." in err and "Traceback" not in err

    def test_usage_errors_name_every_choice(self, capsys):
        assert main(["foo"]) == 2
        words = set(re.findall(r"\w+", capsys.readouterr().err))
        assert {"validate", "decide", "error", "bounds", "tv", "sweep", "simulate"} <= words
        assert main(["sweep", "--kind", "x", "--eps", "0.1"]) == 2
        assert set(SWEEP_KINDS) <= set(re.findall(r"\w+", capsys.readouterr().err))

    @pytest.mark.parametrize("argv, remedy, retry", [
        (["error", "PANEL"], "--method mc, without --n-max",
         ["error", "PANEL", "--method", "mc", "--trials", "1000"]),
        (["bounds", "PANEL", "--with-exact"], "--with-exact", ["bounds", "PANEL", "--n-max", "1"]),
        (["tv", "--p", "0.6,0.3", "--q", "0.4,0.5"], "--n-max",
         ["tv", "--p", "0.6,0.3", "--q", "0.4,0.5", "--n-max", "2"]),
    ], ids=["error", "bounds", "tv"])
    def test_over_cap_message_names_a_remedy_that_runs(self, distinct_path, capsys,
                                                       argv, remedy, retry):
        argv, retry = ([distinct_path if a == "PANEL" else a for a in v] for v in (argv, retry))
        assert main(argv + ["--n-max", "1"]) == 1
        err = capsys.readouterr().err
        assert "n = 2 reduces to a table of 4 points, more than 2^1" in err
        assert "exceeds the enumeration cap n_max = 1" in err
        assert remedy in err
        # the remedy as the message gives it: mc, no --with-exact, a higher cap
        assert main(retry) == 0


class TestThreadsVariable:
    # only --threads sets the worker count; no command reads the variable
    @staticmethod
    def _check_ignored(argv, path, monkeypatch, capsys):
        argv = [path if a == "PANEL" else a for a in argv]
        monkeypatch.delenv("VOTEBOUNDS_THREADS", raising=False)
        assert main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setenv("VOTEBOUNDS_THREADS", "abc")
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("argv", [
        ["simulate", "PANEL", "--trials", "1000", "--seed", "0"],
        ["error", "PANEL", "--method", "mc", "--trials", "1000", "--seed", "0"],
    ], ids=["simulate", "error-mc"])
    def test_monte_carlo_commands_never_read_it(self, counterexample_path, monkeypatch,
                                                capsys, argv):
        self._check_ignored(argv, counterexample_path, monkeypatch, capsys)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--kind", "sym", "--eps", "0.1"],
        ["tv", "--p", "0.6,0.3", "--q", "0.4,0.5"],
        ["error", "PANEL"],
        ["bounds", "PANEL", "--with-exact"],
    ], ids=["sweep", "tv", "error", "bounds"])
    def test_exact_commands_never_read_it(self, counterexample_path, monkeypatch,
                                          capsys, argv):
        self._check_ignored(argv, counterexample_path, monkeypatch, capsys)

    @pytest.mark.parametrize("argv", [
        ["tv", "--p", "0.6", "--q", "0.4"],
        ["bounds", "PANEL"],
    ], ids=["tv", "bounds"])
    def test_exact_commands_take_no_threads_flag(self, counterexample_path, argv):
        argv = [counterexample_path if a == "PANEL" else a for a in argv]
        assert main(argv + ["--threads", "2"]) == 2


def run_python(args, cwd=None, **env):
    """stdout of a fresh interpreter with the package on its path and
    OPENBLAS_NUM_THREADS unset unless given in env."""
    src = os.path.dirname(os.path.dirname(votebounds.__file__))
    env = {**{k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"},
           "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


def test_import_leaves_thread_pool_unloaded():
    # every CLI run pays for the package's imports; concurrent.futures
    # (and the logging module it loads) is needed only to fan out
    code = "import sys, votebounds; print('concurrent.futures' in sys.modules)"
    assert run_python(["-c", code]) == "False\n"


class TestBlasThreads:
    # a CLI process asks OpenBLAS for one thread unless the user set a
    # number; any other importer keeps its environment; numpy is always
    # imported with the package
    PROBE = ("import os, sys, votebounds\n"
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n")
    # what runpy leaves in sys while it imports the package for
    # python -m votebounds error
    AS_MODULE = ("import sys\n"
                 "sys.argv[:] = ['-m', 'error']\n"
                 "sys.orig_argv[:] = [sys.executable, '-m', 'votebounds', 'error']\n")

    def test_library_import_leaves_it_unset(self):
        assert run_python(["-c", self.PROBE]) == "None True\n"

    @pytest.mark.parametrize("user, seen", [(None, "1"), ("3", "3")])
    def test_module_run_sets_a_default(self, user, seen):
        env = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
        assert run_python(["-c", self.AS_MODULE + self.PROBE], **env) == f"{seen} True\n"

    @pytest.mark.parametrize("user, seen", [(None, "1"), ("3", "3")])
    def test_console_script_sets_a_default(self, tmp_path, user, seen):
        script = tmp_path / "votebounds"
        script.write_text(self.PROBE)
        env = {} if user is None else {"OPENBLAS_NUM_THREADS": user}
        assert run_python([str(script)], **env) == f"{seen} True\n"

    def test_another_module_run_leaves_it_unset(self, tmp_path):
        # python -m runs with sys.argv[0] == "-m" for any module
        (tmp_path / "probe").mkdir()
        (tmp_path / "probe" / "__init__.py").write_text(self.PROBE)
        (tmp_path / "probe" / "__main__.py").write_text("")
        assert run_python(["-m", "probe"], cwd=tmp_path) == "None True\n"

    @pytest.mark.parametrize("argv", [
        ["error", "PANEL"],
        ["error", "PANEL", "--method", "mc", "--trials", "1000", "--seed", "3"],
        ["bounds", "PANEL", "--with-exact"],
    ], ids=["error", "error-mc", "bounds"])
    def test_stdout_does_not_depend_on_it(self, distinct_path, argv):
        argv = ["-m", "votebounds"] + [distinct_path if a == "PANEL" else a for a in argv]
        argv += ["--format", "json"]
        unset = run_python(argv)
        assert json.loads(unset)
        assert run_python(argv, OPENBLAS_NUM_THREADS="2") == unset
