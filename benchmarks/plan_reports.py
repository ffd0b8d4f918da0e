"""Write every report of the end-to-end benchmark's plans, for diffing two
source trees.

    python3 benchmarks/plan_reports.py PARENT/src parent.json
    python3 benchmarks/plan_reports.py src change.json
    cmp parent.json change.json

Builds the table1, verify-conv and verify-block plans of
``perfbench/inputs.py`` at seeds 1 and 2 and runs each plan once through
``sumrank.cli.main`` the way ``perfbench/run.py`` runs a pass, rechecks of
``False`` witnesses included, with the ``sumrank`` package under SRC on the
pure-Python kernel.  OUT gets every JSON file a pass leaves in its work
directory (inputs, plan, reports and rechecks), keyed by workload, seed
and file name, with every ``elapsed`` field removed and the work
directory's path replaced by ``<work>``, so two trees whose reports agree
write the same bytes.  The exit status is 1 when a call misses its plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "verify-conv", "verify-block")
SEEDS = (1, 2)
PLACEHOLDER = "<work>"


def _load(src: Path):
    """sumrank.cli from src on the pure kernel, and perfbench/run.py."""
    os.environ["SUMRANK_PURE_PYTHON"] = "1"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import sumrank.cli

    if Path(sumrank.cli.__file__).resolve().parent != (src / "sumrank").resolve():
        raise SystemExit(f"error: imported sumrank from {sumrank.cli.__file__}")
    import run  # perfbench/run.py: the plans' passes and their checks

    return sumrank.cli, run


def _scrub(obj, work: str):
    """obj without its elapsed fields, with work replaced in its strings."""
    if isinstance(obj, dict):
        return {k: _scrub(v, work) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_scrub(v, work) for v in obj]
    if isinstance(obj, str):
        return obj.replace(work, PLACEHOLDER)
    return obj


def collect(src, workloads=WORKLOADS, seeds=SEEDS) -> tuple[dict, list]:
    """(files, errors): every JSON file of one pass per workload and seed,
    scrubbed, and the ways the calls missed their plans."""
    cli, run = _load(Path(src).resolve())
    files, errors = {}, []
    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                work = Path(tmp).resolve()
                calls = run.inputs.build(workload, seed, work)
                with contextlib.redirect_stdout(io.StringIO()):
                    done = run.run_pass(cli, calls)
                errors += [f"{workload}/{seed}: {e}".replace(str(work), PLACEHOLDER)
                           for e in done.errors]
                for path in sorted(work.rglob("*.json")):
                    key = f"{workload}/{seed}/{path.relative_to(work)}"
                    files[key] = _scrub(json.loads(path.read_text()), str(work))
    return files, errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[1])
    src, out = argv
    files, errors = collect(src)
    Path(out).write_text(json.dumps(files, indent=1, sort_keys=True) + "\n")
    for e in errors:
        print(e, file=sys.stderr)
    print(f"{len(files)} files, {len(errors)} failed calls -> {out}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
