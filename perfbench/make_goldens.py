#!/usr/bin/env python3
"""Regenerate the committed golden report digests.

    python3 perfbench/make_goldens.py

Runs every job of every workload and character variant once and writes
the SHA-256 of each report (without its ``config_hash`` line) to
``golden.json``.  Run it only when a change to the report bytes is
intended.

The ``verify`` workload reads a manifest frozen in this directory.  It is
written from ``oracle.default_manifest()`` only when it does not exist yet,
and checked to read back equal to it; later growth of the default manifest
does not change the workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import jobs
import run


def freeze_manifest(oracle) -> None:
    path = jobs.MANIFEST
    default = oracle.default_manifest()
    if not path.exists():
        path.write_text(json.dumps(default, indent=1) + "\n")
        if json.loads(path.read_text()) != default:
            raise SystemExit(f"{path} does not read back as the default manifest")
        print(f"froze {len(default)} instances in {path}")
    elif json.loads(path.read_text()) != default:
        print(f"note: {path} differs from the current default manifest; "
              "the workload keeps the frozen one")


def main() -> int:
    os.chdir(run.ROOT)
    coendo = run.import_program()
    freeze_manifest(coendo.oracle)
    golden = {}
    with jobs.workdir() as workdir:
        for job in jobs.all_jobs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = coendo.cli.main(job.bind(workdir))
            digest = jobs.report_digest(out.getvalue())
            if code != 0 or digest is None:
                raise SystemExit(f"job {job.key!r}: exit {code}, no digest")
            golden[job.key] = digest
            print(f"{digest[:12]}  {job.key}")
    jobs.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
