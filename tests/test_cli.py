"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.api import run_experiment
from repro.cli import build_parser, main
from repro.errors import ReproError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for name in ("case-studies", "attack", "table3", "fig6", "fig7",
                     "fig8", "fig9", "fig10", "fig11", "defense",
                     "campaign", "bisect", "run-all", "stream"):
            args = parser.parse_args([name] if name != "attack" else ["attack"])
            assert hasattr(args, "handler")

    def test_attack_flags(self):
        args = build_parser().parse_args(
            ["attack", "--mempool", "7", "--ifus", "2", "--seed", "3"]
        )
        assert args.mempool == 7
        assert args.ifus == 2
        assert args.seed == 3


class TestExecution:
    def test_case_studies_output(self, capsys):
        assert main(["case-studies"]) == 0
        out = capsys.readouterr().out
        assert "case1" in out and "2.5000" in out

    def test_table3_output(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "90.91%" in out

    def test_fig10_output(self, capsys):
        assert main(["fig10"]) == 0
        out = capsys.readouterr().out
        assert "arbitrum" in out

    def test_fig8_prints_the_run_all_text(self, capsys):
        assert main(["fig8"]) == 0
        assert capsys.readouterr().out == run_experiment("fig8").text

    def test_bisect_output(self, capsys):
        assert main(["bisect", "--fault-step", "2"]) == 0
        out = capsys.readouterr().out
        assert "fraud found = False" in out
        assert "localised to step 2" in out

    def test_run_all_subset(self, capsys, tmp_path, monkeypatch):
        out_dir = tmp_path / "artifacts"
        assert main(["run-all", "--out", str(out_dir),
                     "--only", "table3"]) == 0
        printed = capsys.readouterr().out
        assert "table3" in printed
        assert (out_dir / "table3.txt").exists()
        assert (out_dir / "REPORT.md").exists()

    def test_campaign_parser(self):
        args = build_parser().parse_args(
            ["campaign", "--rounds", "2", "--mempool", "8"]
        )
        assert args.rounds == 2
        assert args.mempool == 8

    def test_stream_parser(self):
        args = build_parser().parse_args(
            ["stream", "--duration-batches", "5", "--lanes", "1",
             "--shards", "2", "--jobs", "2"]
        )
        assert args.duration_batches == 5
        assert args.lanes == 1
        assert args.shards == 2
        assert args.jobs == 2

    def test_stream_json_output(self, capsys):
        assert main(["stream", "--duration-batches", "2", "--lanes", "1",
                     "--batch-size", "4", "--submit-per-batch", "5",
                     "--max-swaps", "3", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"violations": []' in out
        assert '"order_digest"' in out


class TestConfigErrors:
    """A bad flag value prints one argparse-style line and exits 2; exit
    1 keeps meaning that the run itself found a failure."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["stream", "--lanes", "0"],
             "parole stream: error: need at least one lane"),
            (["chaos", "--rounds", "0"],
             "parole chaos: error: rounds must be positive"),
        ],
        ids=["stream-lanes-0", "chaos-rounds-0"],
    )
    def test_one_line_on_stderr_and_exit_2(self, capsys, argv, line):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == line + "\n"
        assert captured.out == ""

    def test_other_errors_keep_their_traceback(self, monkeypatch):
        def broken(args):
            raise ReproError("not a config error")

        monkeypatch.setattr(cli, "_cmd_bisect", broken)
        with pytest.raises(ReproError, match="not a config error"):
            main(["bisect"])
