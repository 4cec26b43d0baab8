"""Behaviour pin: recomputed estimator outputs match the golden file.

``tests/golden_outputs.json`` holds full-precision Fig. 4, Table I,
``simulate`` and sharded-query outputs plus the SHA-256 of every
record payload involved (see ``scripts/golden_outputs.py``).  Any
change to an estimate's last digit, or to a serialized byte, fails
here; a change that moves them on purpose regenerates the file with
``PYTHONPATH=src python scripts/golden_outputs.py`` and says why.
"""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden_outputs.py"


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden_outputs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_match_golden_file():
    golden = _golden_module()
    expected = golden.GOLDEN_PATH.read_text()
    actual = golden.render(golden.compute())
    assert actual == expected, (
        "estimator outputs differ from tests/golden_outputs.json; "
        "regenerate it only if the change is intended"
    )
