"""Byte-identical command line output, as a test: every row of
data/cli_digests.tsv is replayed in process through ``cli.main`` and must
give the recorded exit code and the recorded sha256 of stdout and of
stderr.  An intended output change regenerates the table with
data/make_cli_digests.py, which names the grid."""

import contextlib
import hashlib
import io
import os
from pathlib import Path

from simplicial_ideals.cli import main

TABLE = Path(__file__).resolve().parent / "data" / "cli_digests.tsv"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest_row(argv):
    """The table row of ``argv``, a list of words none of which holds
    whitespace: argv joined by spaces, the exit code, and the sha256 of
    stdout and of stderr, tab-separated."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "\t".join((" ".join(argv), str(code), _sha256(out.getvalue()),
                      _sha256(err.getvalue())))


def test_cli_output_matches_the_digest_table(monkeypatch):
    # the budget and the config file come from the defaults alone
    for name in list(os.environ):
        if name.startswith("SIDEAL_"):
            monkeypatch.delenv(name)
    rows = TABLE.read_text().splitlines()
    assert len(rows) > 1000
    mismatched = [row for row in rows
                  if digest_row(row.split("\t", 1)[0].split(" ")) != row]
    assert not mismatched, f"{len(mismatched)} rows differ, first {mismatched[0]}"
