"""The CLI's output, byte for byte, against the recorded fixtures of
``tests/golden/`` (see ``tests/golden_cli.py``)."""

import itertools
import json

import pytest
from golden_cli import GOLDEN, run

_MANIFEST = json.loads((GOLDEN / "commands.json").read_text())


def _first_difference(name: str, want: str, got: str) -> str:
    """The first line that differs between two texts, with its neighbours."""
    pairs = list(itertools.zip_longest(want.splitlines(True), got.splitlines(True)))
    i = next(i for i, (a, b) in enumerate(pairs) if a != b)
    lines = [f"{name} first differs at line {i + 1}:"]
    for j in range(max(i - 1, 0), min(i + 3, len(pairs))):
        a, b = pairs[j]
        lines.append(f"  want {j + 1}: {a!r}")
        lines.append(f"  got  {j + 1}: {b!r}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", list(_MANIFEST))
def test_cli_output_matches_fixture(name, tmp_path):
    want = _MANIFEST[name]
    stdout, stderr, code, trace = run(want["argv"], tmp_path)
    for stream, got in (("out", stdout), ("err", stderr)):
        expected = (GOLDEN / f"{name}.{stream}").read_bytes().decode()
        assert got == expected, _first_difference(f"{name}.{stream}", expected, got)
    assert code == want["code"]
    assert trace == want["trace"]
