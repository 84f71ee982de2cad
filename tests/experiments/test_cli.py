"""CLI plumbing (cheap commands only; experiment commands are covered by
the integration/benchmark suites)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_versions_command(self, capsys):
        assert main(["versions"]) == 0
        out = capsys.readouterr().out
        for name in ("INDEP", "COOP", "FME", "X-SW-RAID"):
            assert name in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_version_rejected(self):
        # Version names are free-form at parse time (aliases, case
        # folding); resolution rejects unknown names at dispatch.
        with pytest.raises(SystemExit, match="unknown version"):
            main(["--quick", "quantify", "NOPE"])

    def test_unknown_fault_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "COOP", "volcano"])

    def test_figure_unknown_name_is_error(self, capsys):
        assert main(["--quick", "figure", "fig999"]) == 2

    def test_quick_flag_parsed(self):
        args = build_parser().parse_args(["--quick", "versions"])
        assert args.quick

    def test_inject_target_option(self):
        # explain's --target names the component the fault is injected on
        args = build_parser().parse_args(
            ["explain", "COOP", "scsi_timeout", "--target", "n2.disk1"])
        assert args.target == "n2.disk1"

    def test_validate_horizon_option(self):
        args = build_parser().parse_args(["validate", "COOP", "--horizon", "60"])
        assert args.horizon == 60.0


class TestAccountingCommands:
    """``explain`` plumbing that stops before any simulation."""

    REMOVED = ("inject", "trace", "spans", "metrics", "profile", "record",
               "budget", "timeline")

    def test_record_parser_defaults(self):
        # explain takes only the record options; no --out: the flight
        # record is not written; no --seed: the config's seed
        args = build_parser().parse_args(["explain", "COOP", "node_crash"])
        assert set(vars(args)) == {"command", "fn", "quick", "version",
                                   "fault", "target", "seed", "out", "json"}
        assert args.fault == "node_crash"
        assert args.out is None and args.seed is None
        assert not args.json

    @pytest.mark.parametrize("name", REMOVED)
    def test_removed_subcommand_is_an_argparse_error(self, name, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([name, "COOP", "node_crash"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_uninjectable_fault_fails_before_the_run(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("the cell must not run")

        monkeypatch.setattr("repro.cli.run_single_fault", no_run)
        with pytest.raises(SystemExit,
                           match="INDEP has no component for "
                                 "frontend_failure; it can inject "
                                 "scsi_timeout, node_crash"):
            main(["--quick", "explain", "INDEP", "frontend_failure"])
