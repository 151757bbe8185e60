#!/usr/bin/env python
"""Run the determinism lint from the repo root (see README "Static analysis").

Thin wrapper over ``python -m repro.analysis`` that pins the repository
root, so it works from any working directory and without PYTHONPATH::

    python scripts/lint.py --check            # the CI gate
    python scripts/lint.py src/repro/foo.py   # one file while iterating
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.__main__ import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main(root=REPO_ROOT))
