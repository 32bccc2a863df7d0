"""Command line interface: argument plumbing, output shapes, exit codes."""

import json

import pytest

from orderlab.bounds import (
    REFERENCE_B_COLUMNS,
    REFERENCE_C_ROWS,
    success_bound_table,
)
from orderlab.cli import main


class TestBound:
    def test_single_run(self, capsys):
        assert main(["bound", "--m", "128", "--ell", "128", "--B", "10", "--c", "10"]) == 0
        assert capsys.readouterr().out == "0.969207130783\n"

    def test_enumeration_variant(self, capsys):
        assert main(["bound", "--m", "32", "--delta", "4", "--B", "3", "--c", "25"]) == 0
        assert capsys.readouterr().out == "enumeration_budget: 167\n0.916127832165\n"

    def test_factoring_variant(self, capsys):
        code = main(["bound", "--l", "2048", "--k", "8", "--B", "1000", "--c", "25"])
        assert code == 0
        assert capsys.readouterr().out == "0.993342013656\n"

    def test_factoring_reduced_register(self, capsys):
        assert main(["bound", "--l", "64", "--delta", "4", "--B", "10", "--c", "25"]) == 0
        assert capsys.readouterr().out == "0.974043925691\n"

    def test_missing_register_is_usage_error(self, capsys):
        assert main(["bound"]) == 2
        assert "--m" in capsys.readouterr().err

    def test_delta_without_m_is_usage_error(self, capsys):
        assert main(["bound", "--delta", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--m" in captured.err

    def test_invalid_values_exit_2(self, capsys):
        assert main(["bound", "--m", "8", "--ell", "8", "--B", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--k", "-1"], ["--sigma", "0"], ["--n-primes", "1"]])
    def test_invalid_factoring_values_exit_2(self, flags, capsys):
        assert main(["bound", "--l", "64", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestTable:
    def test_layout_and_cells(self, capsys):
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1 + len(REFERENCE_C_ROWS)
        header = lines[0].split()
        assert header[0] == "c\\B"
        assert header[1:] == [str(b) for b in REFERENCE_B_COLUMNS]
        table = success_bound_table()
        for line, c, row in zip(lines[1:], REFERENCE_C_ROWS, table):
            cells = line.split()
            assert cells[0] == str(c)
            assert cells[1:] == row


class TestSimulate:
    ARGS = [
        "simulate", "--m", "10", "--ell", "10", "--B", "4", "--c", "10",
        "--trials", "30", "--seed", "7",
    ]

    def test_json_output_and_exit(self, capsys):
        assert main(self.ARGS) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["trials"] == 30
        assert parsed["config"]["seed"] == 7

    def test_csv_output(self, capsys):
        assert main(self.ARGS + ["--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("m,ell,B,c,")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(self.ARGS + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["trials"] == 30

    def test_deterministic_across_invocations(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        assert capsys.readouterr().out == first

    def test_omitted_flags_take_run_defaults(self, capsys):
        args = ["simulate", "--m", "10", "--ell", "10", "--trials", "30", "--seed", "7"]
        main(args)
        implicit = capsys.readouterr().out
        main(args + ["--B", "10", "--c", "25", "--strategy", "cf", "--recovery", "stack",
                     "--tmax", "16777216"])
        assert capsys.readouterr().out == implicit

    def test_omitted_delta_is_m_minus_ell(self, capsys):
        args = ["simulate", "--m", "12", "--ell", "10", "--strategy", "enumerate",
                "--trials", "20", "--seed", "7"]
        main(args)
        implicit = capsys.readouterr().out
        main(args + ["--delta", "2"])
        assert capsys.readouterr().out.replace('"delta": 2', '"delta": null') == implicit

    def test_unknown_strategy_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--strategy", "newton"])
        assert exc.value.code == 2

    def test_one_bit_extra_register_exits_2(self, capsys):
        # at ell = 1 the window of most full-width orders is empty
        args = ["simulate", "--m", "4", "--ell", "1", "--B", "1", "--c", "2",
                "--trials", "50", "--seed", "1"]
        assert main(args) == 2
        assert "error: ell must be >= 2" in capsys.readouterr().err


class TestSample:
    def test_csv_shape(self, capsys):
        assert main([
            "sample", "--r", "13", "--m", "4", "--ell", "4",
            "--trials", "5", "--seed", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "z,t,j,tail"
        assert len(lines) == 6
        for line in lines[1:]:
            z, t, j, tail = line.split(",")
            assert 0 <= int(z) < 13
            assert tail in ("true", "false")

    def test_tail_row_is_last(self, capsys):
        # the walk capped at one offset; the last draw is a tail, whose t
        # and j print empty
        assert main([
            "sample", "--r", "13", "--m", "4", "--ell", "4",
            "--tmax", "1", "--trials", "13", "--seed", "0",
        ]) == 0
        assert capsys.readouterr().out == (
            "z,t,j,tail\n"
            "6,0,118,false\n"
            "6,0,118,false\n"
            "8,0,158,false\n"
            "12,0,236,false\n"
            "7,0,138,false\n"
            "3,0,59,false\n"
            "4,0,79,false\n"
            "1,-1,19,false\n"
            "4,-1,78,false\n"
            "8,-1,157,false\n"
            "12,-1,235,false\n"
            "2,0,39,false\n"
            "11,,,true\n"
        )

    def test_invalid_order_exits_2(self, capsys):
        assert main(["sample", "--r", "1", "--m", "4", "--ell", "4"]) == 2

    def test_negative_trials_exits_2(self, capsys):
        assert main(["sample", "--r", "13", "--m", "4", "--ell", "4", "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: need a trial count >= 0, got -1" in captured.err

    def test_zero_trials_prints_the_header(self, capsys):
        assert main(["sample", "--r", "13", "--m", "4", "--ell", "4", "--trials", "0"]) == 0
        assert capsys.readouterr().out == "z,t,j,tail\n"


class TestFactor:
    def test_success(self, capsys):
        assert main(["factor", "--N", "15", "--seed", "7"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["success"] is True
        assert parsed["factors"] == {"3": 1, "5": 1}

    def test_invalid_modulus_exits_2(self, capsys):
        assert main(["factor", "--N", "16", "--seed", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_split_iterations_exits_2(self, capsys):
        assert main(["factor", "--N", "3233", "--split-iterations", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: need split_iterations >= 0, got -1" in captured.err

    def test_unknown_recovery_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factor", "--N", "15", "--recovery", "greedy"])
        assert exc.value.code == 2

    def test_omitted_flags_take_run_defaults(self, capsys):
        args = ["factor", "--N", "3233", "--seed", "3"]
        main(args)
        implicit = capsys.readouterr().out
        main(args + ["--B", "10", "--c", "25", "--strategy", "cf", "--recovery", "stack",
                     "--tmax", "16777216"])
        assert capsys.readouterr().out == implicit
