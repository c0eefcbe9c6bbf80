"""scripts/frozen_digest.py, run as a subprocess against this checkout: the
oracle's frozen outputs hash to the values recorded when they were frozen. A
change that alters any of these outputs edits this test and says why."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "frozen_digest.py")

FROZEN = {
    "enumerate_biposets": "51b6f14e49a1643da66b9f7973c39de3ccf2d9493fec3293249459894b44506d",
    "verify_claim": "56496dc9df24f43ef0597b76682d3f540f1ca2cde66f141ae20540da24982558",
    "duality_sample": "1ba9fdc874fe2db736ee9373f5e5fd319f00432bd9a6b5f8800079274d144211",
    "validity_kernel": "624c59d7e8b56ae68221aaaf2ea7644b240e529961506834889851aa42cfe029",
    "check_axioms": "784f048cf146c9d0ad0524a38a8cb2345f4c3779062c3dd17a54326b9ab2aca5",
    "thm11_sweep": "b9240c5e727245ba5c4bcbf4d54c21638bbfb6e732949162797e4b580b17c823",
}


def test_frozen_outputs_keep_their_digests():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert [line.split() for line in out.stdout.splitlines()] == [list(kv) for kv in FROZEN.items()]
