#!/usr/bin/env python3
"""Regenerate the shipped catalog documents and the golden search results.

Every document is verified before it is written; the script refuses to ship
anything with a nonzero violation list.
"""

import argparse
import sys
from pathlib import Path

from rblie.catalog import shipped_documents
from rblie.cli import verify_structure
from rblie.serialize import save


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent / "catalog"))
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name, obj in sorted(shipped_documents().items()):
        report = verify_structure(obj)
        if not report.ok:
            print(f"REFUSING {name}: {report.lines()[:3]}", file=sys.stderr)
            failures += 1
            continue
        save(obj, out / f"{name}.json")
        print(f"wrote {name}.json ({report.checked} checks)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
