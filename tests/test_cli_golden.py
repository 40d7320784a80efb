"""The README's CLI examples print byte-identical output.

The files under tests/golden/ hold the stdout of each example; a change that
alters any printed digit, residual or layout fails here.
"""

from pathlib import Path

import pytest

from cliffspin.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "classify": ["classify", "--p", "1", "--q", "3"],
    "idempotent": ["idempotent", "--p", "1", "--q", "3"],
    "eval": ["eval", "--sig", "1,3", "rev(e1^e2)*g0"],
    "planewave": ["planewave", "--mass", "1.0", "--px", "0.3", "--py", "-0.2"],
    "fierz": ["fierz", "--trials", "50"],
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_output_is_unchanged(capsys, name):
    code = main(EXAMPLES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
