"""Every ``tables`` report of the benchmark, all character variants, against
its committed digest in perfbench/golden.json: a change to a coefficient or
prediction report fails here, not only in a benchmark run."""

import contextlib
import importlib.util
import io
from pathlib import Path

import coendo.cli

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tables_reports_match_golden(tmp_path):
    jobs = load_jobs()
    golden = jobs.load_golden()
    checked = set()
    for seed in range(jobs.VARIANTS):
        for job in jobs.jobs_for("tables", seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = coendo.cli.main(job.bind(tmp_path))
            assert code == 0, job.key
            assert jobs.report_digest(out.getvalue()) == golden[job.key], \
                job.key
            checked.add(job.key)
    assert len(checked) == jobs.VARIANTS * len(jobs.TABLES)
