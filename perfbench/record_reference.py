"""Record reference.json: the expected output of every input the workloads
can draw, computed through the CLI.

    python3 perfbench/record_reference.py

The file in the repository was recorded at the commit that defined the
benchmark.  Re-record it only when a change deliberately alters these
outputs and says so, never to make a failing check pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import SRC, WORK


def query(cli, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"{' '.join(argv)} exited with status {status}")


def main() -> None:
    sys.path.insert(0, str(SRC))
    from chemobound import cli

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
    try:
        blowup = workloads.build("blowup", 0, tmp)
        query(cli, blowup.argv(blowup.queries[0], tmp / "blowup"))
        report = json.loads((tmp / "blowup" / "report.json").read_text())

        cfg = tmp / "sweep_all.cfg"
        cfg.write_text(workloads.sweep_config(workloads.SWEEP_AXES, 0))
        query(cli, ["sweep", "--config", str(cfg), "-o", str(tmp / "sweep")])
        rows = workloads.read_summary(tmp / "sweep")
        sweep = {cell: float(rows[f"run_{idx:03d}"]["t_detect"])
                 for idx, cell in enumerate(
                     workloads.sweep_cells(workloads.SWEEP_AXES))}

        bounds = {}
        for i, q in enumerate(workloads.bound_queries(None)):
            out = tmp / f"bound{i}"
            query(cli, [*q, "-o", str(out)])
            bounds[" ".join(q)] = workloads.bound_t_lower(out, q)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    reference = {
        "blowup": {"trigger": report["trigger"],
                   "t_detect": report["t_detect"], "steps": report["steps"]},
        "sweep": sweep,
        "bound_search": bounds,
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1,
                                              sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}: {len(sweep)} sweep cells, "
          f"{len(bounds)} bound queries")


if __name__ == "__main__":
    main()
