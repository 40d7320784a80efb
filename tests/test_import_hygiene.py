"""The spinor calculus and the CLI commands that need no arrays run without
loading numpy: each case runs in a fresh interpreter, which must end with
"numpy" left out of sys.modules."""

import json
import os
import subprocess
import sys

import pytest

from cliffspin import Multivector, Signature, to_json_dict

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
PSI = Multivector(Signature(1, 3), {0: 1.0, 0b0011: 0.5, 0b0110: -0.3, 0b1111: 0.25})

CASES = {
    # perfbench's spinor-suite warm-up.
    "warm-up": (
        "import cliffspin as cs\n"
        "s = cs.Signature(1, 3); a = cs.Multivector(s, {m: 1.0 for m in range(16)}); a * a\n"
    ),
    "filtered product and decomposition": (
        "import cliffspin as cs\n"
        "s = cs.Signature(1, 3)\n"
        "a = cs.Multivector(s, {m: 0.5 + m for m in range(16)})\n"
        "assert cs.geometric_product(a, a, grades=(1,)).grades() == {1}\n"
        f"psi = cs.from_json_dict({to_json_dict(PSI)!r})\n"
        "cs.canonical_decompose(cs.DHSRep(cs.fiducial_spinorial_frame(s), psi))\n"
    ),
    "classify, eval and decompose": (
        "from cliffspin import cli\n"
        "assert cli.main(['classify', '--p', '1', '--q', '3']) == 0\n"
        "assert cli.main(['eval', '--sig', '1,3', 'rev(e1^e2)*g0']) == 0\n"
        "assert cli.main(['decompose', '--in', sys.argv[1]]) == 0\n"
    ),
    # n <= 4: the search reads the square +1 blades on Python ints.
    "idempotent": "from cliffspin import cli\nassert cli.main(['idempotent', '--p', '1', '--q', '3']) == 0\n",
}


@pytest.mark.parametrize("case", CASES)
def test_runs_without_numpy(case, tmp_path):
    spinor = tmp_path / "spinor.json"
    spinor.write_text(json.dumps({"psi": to_json_dict(PSI)}))
    code = "import sys\n" + CASES[case] + "sys.exit('numpy' in sys.modules)\n"
    # The child does not inherit pytest's own path to src/.
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code, str(spinor)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
