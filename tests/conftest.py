from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import _fixtures  # noqa: E402

# Every named drawing in _fixtures, as a fixture of the same name.
for _name in dir(_fixtures):
    if _name.endswith("_spec"):
        globals()[_name] = pytest.fixture(getattr(_fixtures, _name), name=_name)
