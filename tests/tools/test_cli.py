"""The command-line toolbox."""

import pytest

from repro.tools.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SOSP 1989" in out
        assert "pvm" in out

    def test_loc(self, capsys):
        assert main(["loc"]) == 0
        out = capsys.readouterr().out
        assert "PVM: machine-independent" in out
        assert "machine-dependent share" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "w(src)" in out
        assert "cpy3" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 6 / Chorus" in out
        assert "Table 7 / Mach" in out
        assert "cow_overhead_per_page_ms" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestVerify:
    def test_verify_gate_passes(self, capsys):
        # The one-stop CI gate: layer contract, obs-schema drift check,
        # live snapshot validation and the exact cell virtual-time
        # golden must all hold on a clean tree.  No wall clock is read.
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "layer contract" in out
        assert "cells match" in out
        assert "verify ok" in out
