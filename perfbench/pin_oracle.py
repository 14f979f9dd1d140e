"""Regenerate perfbench/oracle.json from the current program.

    python3 perfbench/pin_oracle.py

The oracle pins what the benchmark accepts as correct output, so it is
generated once, at the commit that defines the benchmark, and is not
regenerated by a change that claims a gain.  It records:

* `construct`, `compose`: every construct and compose of catalog documents
  that exits 0, with the digest of the document it prints;
* `search`: the operator count and output digest of `search-rb` on sl2 and
  heis3 over {-1,0,1} (aff1 is compared with the golden catalog file);
* `mutants`: per document of MUTANT_DOCS, the verdict digest (exit code and
  VIOLATION bytes of `verify`) of every mutant in site-enumeration order,
  or "-" when the mutant exits 2.
"""

from __future__ import annotations

import json
import shutil
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ORACLE, ROOT, call, fresh_import  # noqa: E402
from workloads import (MUTANT_DOCS, SEARCH_ALGEBRAS, SEARCH_COEFFS,  # noqa: E402
                       catalog_kinds, digest, mutant_pool, verdict_digest)


def main() -> int:
    rb = fresh_import(ROOT)
    main_ = rb.cli.main
    catalog = ROOT / "catalog"
    kinds = catalog_kinds(ROOT)
    oracle: dict = {"construct": [], "compose": [], "search": {}, "mutants": {}}

    for stem, name in product(kinds, sorted(rb.cli._CONSTRUCTIONS)):
        code, out, _ = call(main_, ["construct", name, str(catalog / f"{stem}.json")])
        if code == 0:
            oracle["construct"].append([name, stem, digest(out)])
    homs = [s for s, k in kinds.items() if k == "rb-hom"]
    for f, g in product(homs, repeat=2):
        code, out, _ = call(main_, ["compose", str(catalog / f"{f}.json"),
                                    str(catalog / f"{g}.json")])
        if code == 0:
            oracle["compose"].append([f, g, digest(out)])
    for name in SEARCH_ALGEBRAS[1:]:
        code, out, err = call(main_, ["search-rb", str(catalog / f"{name}.json"),
                                      SEARCH_COEFFS])
        if code != 0:
            raise SystemExit(f"search-rb {name} exited {code}: {err}")
        oracle["search"][name] = [int(err.split()[0]), digest(out)]

    work = ROOT / ".perfbench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tmp = str(work / "mutant.json")
        for stem in MUTANT_DOCS:
            path = catalog / f"{stem}.json"
            verdicts = []
            for site, delta in mutant_pool(rb, path):
                code, _, err = call(main_, ["mutate", str(path), "--site", site,
                                            f"--delta={delta}", "-o", tmp])
                if code != 0:
                    raise SystemExit(f"mutate {stem} {site} {delta} exited {code}: {err}")
                code, out, _ = call(main_, ["verify", tmp])
                verdicts.append("-" if code == 2 else verdict_digest(code, out))
            oracle["mutants"][stem] = " ".join(verdicts)
            print(f"{stem}: {len(verdicts)} mutants, {verdicts.count('-')} exit 2",
                  file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {ORACLE}: {len(oracle['construct'])} constructs, "
          f"{len(oracle['compose'])} composes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
