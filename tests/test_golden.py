"""Byte-identity of the CLI's stdout, by SHA-256 digest.

``golden_verify_n8.json`` holds the digest of every identity's report at
``--n-max 8``, text and JSON. ``golden_outputs.json`` maps whole command
lines to digests: ``table --kind poly2nd -n 40`` at k in {-3, 0, 2} and x in
{0, 3, -10/7, 9/5} (at an integer x >= 0 the falling factorials (x)_j vanish
past j = x), ``table --kind bernoulli2nd -n 52 --x 4/3``, and the thm2, thm3
and thm4 reports at the sizes of the benchmark's ``identity-sweep``. A change
that moves any digest changes what polybern prints; regenerate a file only
when that change is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polybern.cli import main
from polybern.polybernoulli import IDENTITIES

HERE = Path(__file__).parent
DIGESTS = json.loads((HERE / "golden_verify_n8.json").read_text())
COMMANDS = json.loads((HERE / "golden_outputs.json").read_text())


def digest_of(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_golden_file_covers_every_identity():
    assert set(DIGESTS) == {f"{name} {fmt}" for name in IDENTITIES for fmt in ("text", "json")}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_verify_report_is_byte_identical(capsys, key):
    name, fmt = key.split()
    argv = ["verify", "--identity", name, "--n-max", "8", "--format", fmt]
    assert digest_of(capsys, argv) == DIGESTS[key]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_output_is_byte_identical(capsys, command):
    assert digest_of(capsys, command.split()) == COMMANDS[command]
