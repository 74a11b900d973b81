"""Rewrite tests/golden/artifacts.json from the current program and print
every entry that changed.

    python tests/golden/regenerate.py      # from the repository root

Regenerate only for a change that is meant to move the outputs, and name
that change in CHANGES.md. A speed-up or a refactor must pass the golden
test as it stands.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TESTS.parent / "src"))
sys.path.insert(0, str(TESTS))

from test_golden import (GOLDEN, SEED0_REPLICAS, differences,  # noqa: E402
                         produce, toolchain)


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"cases": {}}
    with tempfile.TemporaryDirectory() as workdir:
        new = {"toolchain": toolchain(), "seed0_replicas": SEED0_REPLICAS,
               "cases": produce(Path(workdir))}
    lines = differences(old, new["cases"], same_toolchain=True)
    if old.get("toolchain") != new["toolchain"]:
        lines.insert(0, f"toolchain: {old.get('toolchain')} -> {new['toolchain']}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines) if lines else "no change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
