"""The README's command examples, run through ``cli.main``.

Each ``losrkit ...`` line of the README's command block that carries
``# -> expected`` must print ``expected`` as its first output line.  The
expectation is cut at `` ...`` or `` (``, after which it only has to be a
prefix of that line; numeric tokens match within 1e-9, other tokens exactly.
"""

import re
import shlex
from pathlib import Path

import pytest

from losrkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[list[str], str]]:
    out, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("losrkit ") and "# -> " in line:
            command, expected = line.split("# -> ", 1)
            out.append((shlex.split(command)[1:], expected.strip()))
    return out


EXAMPLES = _examples()


def _number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def test_readme_lists_the_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    cut = re.split(r" \.\.\.| \(", expected, maxsplit=1)
    want = cut[0].split()
    code = main(argv)
    got = capsys.readouterr().out.splitlines()[0].split()
    assert code == 0
    if len(cut) == 1:
        assert len(got) == len(want)
    assert len(got) >= len(want)
    for w, g in zip(want, got):
        if _number(w) is None:
            assert g == w
        else:
            assert _number(g) == pytest.approx(_number(w), abs=1e-9)
