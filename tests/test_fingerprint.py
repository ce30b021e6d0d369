"""The committed numerical fingerprint (``tests/fingerprint.json``) holds.

See :mod:`tests.fingerprint` for what it pins and how to regenerate it.
"""

import json

from tests.fingerprint import FINGERPRINT_PATH, collect, first_difference


def test_fingerprint_matches_committed_file(smoke_workspace):
    expected = json.loads(FINGERPRINT_PATH.read_text())
    difference = first_difference(expected, collect(smoke_workspace))
    assert difference is None, (
        f"fingerprint group {difference[0]!r} differs first at key "
        f"{difference[1]!r}; if the change is intended, regenerate with "
        f"`python -m tests.fingerprint`")
