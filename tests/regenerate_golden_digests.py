"""Rewrite ``tests/golden_digests.json`` from the current build's output.

Run from the repository root::

    PYTHONPATH=src python -m tests.regenerate_golden_digests

Only a change that is meant to alter simulated behaviour regenerates the
digests, and CHANGES.md must say why. A change that only affects speed or
structure must leave the file untouched.
"""

from __future__ import annotations

import json

from repro.service import SerialBackend
from tests.test_golden_digests import (
    CAMPAIGN,
    CASES,
    GOLDEN_PATH,
    campaign_fingerprint,
    campaign_report,
    fingerprint,
)


def main() -> None:
    golden = {name: fingerprint(name) for name in CASES}
    golden[CAMPAIGN] = campaign_fingerprint(campaign_report(SerialBackend()))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    for name, entry in golden.items():
        print(f"{name}: {entry['digest']}")


if __name__ == "__main__":
    main()
