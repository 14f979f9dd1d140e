#!/usr/bin/env python3
"""Pin the digest of every call of the CLI differential set.

    python3 scripts/pin_cli_digests.py

The set is `verify` and `roundtrip` of every catalog document, every
`construct` name on every catalog document, and `compose` of every ordered
pair of catalog `rb-hom` documents, each run in-process through
`rblie.cli.main`.  Each call's exit code, stdout and stderr are hashed
together; the digests are written to tests/cli_digests.json, which
`tests/test_cli.py` compares against.  Each run prints to stderr every
key it adds, removes or changes against the file it overwrites.
Regenerate the file only for a change meant to alter the CLI's output.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "cli_digests.json"


def differential_calls() -> list[list[str]]:
    """The argument lists of the set, with paths relative to the root."""
    from rblie.cli import _CONSTRUCTIONS
    docs = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "catalog").glob("*.json"))
    homs = [d for d in docs if json.loads((ROOT / d).read_text())["kind"] == "rb-hom"]
    calls = [[command, d] for d in docs for command in ("verify", "roundtrip")]
    calls += [["construct", name, d] for d in docs for name in sorted(_CONSTRUCTIONS)]
    calls += [["compose", f, g] for f in homs for g in homs]
    return calls


def digest(argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process call,
    with the paths in `argv` taken from the repository root."""
    from rblie.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(ROOT / a) if a.startswith("catalog/") else a for a in argv])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    return {" ".join(argv): digest(argv) for argv in differential_calls()}


def main() -> int:
    old = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    new = digests()
    for key in sorted(old.keys() | new.keys()):
        if key not in new:
            print(f"removed {key}", file=sys.stderr)
        elif key not in old:
            print(f"added {key}", file=sys.stderr)
        elif old[key] != new[key]:
            print(f"changed {key}", file=sys.stderr)
    PINNED.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
