"""Byte-identity of every identity's report at --n-max 8, text and JSON.

``golden_verify_n8.json`` holds the SHA-256 digest of each report's stdout.
A change that moves any digest changes what ``verify`` prints; regenerate the
file only when that change is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from polybern.cli import main
from polybern.polybernoulli import IDENTITIES

DIGESTS = json.loads((Path(__file__).parent / "golden_verify_n8.json").read_text())


def test_golden_file_covers_every_identity():
    assert set(DIGESTS) == {f"{name} {fmt}" for name in IDENTITIES for fmt in ("text", "json")}


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_verify_report_is_byte_identical(capsys, key):
    name, fmt = key.split()
    code = main(["verify", "--identity", name, "--n-max", "8", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[key]
