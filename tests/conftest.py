"""Fixtures shared by the test modules."""

import pytest

from htbounds.cli import cli_main


@pytest.fixture(scope="session")
def reproduced(tmp_path_factory):
    """The directory that ``reproduce fig1``, ``fig2`` and ``appF`` write, once a session.

    It holds the 18 tables and their plots.  Every test that reads
    ``reproduce`` output reads it from here, so each figure is computed
    once; a test writes nothing into it.
    """
    outdir = tmp_path_factory.mktemp("reproduce")
    for target in ("fig1", "fig2", "appF"):
        assert cli_main(["reproduce", target, "--outdir", str(outdir)]) == 0
    return outdir
