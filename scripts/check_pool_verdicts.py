#!/usr/bin/env python3
"""Check every mutant verdict pinned in perfbench/oracle.json.

    python3 scripts/check_pool_verdicts.py

For each document of the benchmark's mutant list, every (site, delta)
mutant of its pool is written with `rblie mutate` and checked with
`rblie verify`, both in-process.  The digest of verify's exit code and
VIOLATION bytes must equal the pinned verdict ("-" pins exit 2), and the
`checked N` that verify prints must equal the closed-form count of the
mutant's checks, `structure_checks(load(mutant)).count`.  The benchmark
itself only samples the pool; this walks all of it.  Exit 0 when every
verdict and count matches, 1 on any mismatch (each one is listed).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import rblie  # noqa: E402
from rblie.cli import main as cli_main, structure_checks  # noqa: E402
from rblie.serialize import load  # noqa: E402
from run import ORACLE, call  # noqa: E402
from workloads import (MUTANT_DOCS, load_oracle, mutant_pool,  # noqa: E402
                       verdict_digest)


def main() -> int:
    oracle = load_oracle(ORACLE)
    mismatches = miscounts = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        mutant = str(Path(tmp) / "mutant.json")
        for stem in MUTANT_DOCS:
            path = ROOT / "catalog" / f"{stem}.json"
            pool = mutant_pool(rblie, path)
            pinned = oracle["mutants"][stem].split()
            if len(pinned) != len(pool):
                print(f"{stem}: oracle pins {len(pinned)} mutants, the pool has {len(pool)}")
                return 1
            for (site, delta), want in zip(pool, pinned):
                code, _, _ = call(cli_main, ["mutate", str(path), "--site", site,
                                             f"--delta={delta}", "-o", mutant])
                if code == 0:
                    code, out, err = call(cli_main, ["verify", mutant])
                    got = "-" if code == 2 else verdict_digest(code, out)
                    if code != 2 and int(err.split()[1]) != structure_checks(load(mutant)).count:
                        miscounts += 1
                        print(f"MISCOUNT {stem} {site} {delta}: {err.strip()}")
                else:
                    got = f"mutate exit {code}"
                if got != want:
                    mismatches += 1
                    print(f"MISMATCH {stem} {site} {delta}: pinned {want}, got {got}")
            total += len(pool)
    print(f"{total} pinned mutants, {mismatches} mismatches, {miscounts} count mismatches",
          file=sys.stderr)
    return 1 if mismatches or miscounts else 0


if __name__ == "__main__":
    sys.exit(main())
