"""Byte-identical command line output, as a test: every row of
data/cli_digests.tsv is replayed in process through ``cli.main`` and must
give the recorded exit code and the recorded sha256 of stdout and of
stderr.  An intended output change regenerates the table with
data/make_cli_digests.py, which names the grid."""

import contextlib
import hashlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

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


@pytest.fixture
def rows(no_sideal_variables):
    # the budget and the config file come from the defaults alone
    rows = TABLE.read_text().splitlines()
    assert len(rows) > 1000
    return rows


def _assert_replayed(rows):
    mismatched = [row for row in rows
                  if digest_row(row.split("\t", 1)[0].split(" ")) != row]
    assert not mismatched, f"{len(mismatched)} rows differ, first {mismatched[0]}"


def test_cli_output_matches_the_digest_table(rows):
    _assert_replayed(rows)


def test_cli_output_matches_in_a_shuffled_replay(rows):
    # main keeps each command's parser between calls: a second replay in
    # this process, in another order, shows any state one call leaves for
    # the next
    random.Random(20261020).shuffle(rows)
    _assert_replayed(rows)


def test_digest_table_lists_the_generator_grid():
    # a row deleted or edited by hand would still replay; the table must
    # hold exactly what the generator writes, in its order
    path = TABLE.parent / "make_cli_digests.py"
    spec = importlib.util.spec_from_file_location("make_cli_digests", path)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    argvs = [row.split("\t", 1)[0] for row in TABLE.read_text().splitlines()]
    assert argvs == list(generator.invocations())
