"""Rewrite ``tests/golden_digests.json`` from the current build's output.

Run from the repository root::

    PYTHONPATH=src python -m tests.regenerate_golden_digests

Only a change that is meant to alter simulated behaviour regenerates the
digests, and CHANGES.md must say why. A change that only affects speed or
structure must leave the file untouched.
"""

from __future__ import annotations

import json

from tests.test_golden_digests import CASES, GOLDEN_PATH, fingerprint


def main() -> None:
    golden = {name: fingerprint(name) for name in CASES}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, entry in golden.items():
        print(f"{name}: {entry['digest']}")


if __name__ == "__main__":
    main()
