"""Regenerate the frozen golden copies of generated sources and JSON reports.

Run from the repository root after an intentional emitter change:

    python3 tests/golden/refresh.py

Review the diff before committing; these files pin byte-exact output.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from test_emitter import TestGolden

GOLDEN = Path(__file__).parent


def main():
    for path, content in TestGolden().golden_outputs().items():
        target = GOLDEN / (path + ".golden")
        data = content.encode("utf-8")
        target.write_bytes(data)
        print(f"wrote {target} ({len(data)} bytes)")


if __name__ == "__main__":
    main()
