"""Every ``tables`` report of the benchmark, all character variants, and
every ``sweep`` and ``verify`` report, against its committed digest in
perfbench/golden.json: a change to a report fails here, not only in a
benchmark run."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import coendo.cli

JOBS = Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py"


def load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_jobs(jobs, job_list, workdir) -> set:
    """Run each job in-process and compare its report with its golden
    digest; returns the keys checked."""
    golden = jobs.load_golden()
    checked = set()
    for job in job_list:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = coendo.cli.main(job.bind(workdir))
        assert code == 0, job.key
        assert jobs.report_digest(out.getvalue()) == golden[job.key], job.key
        checked.add(job.key)
    return checked


def test_tables_reports_match_golden(tmp_path):
    jobs = load_jobs()
    checked = set()
    for seed in range(jobs.VARIANTS):
        checked |= check_jobs(jobs, jobs.jobs_for("tables", seed), tmp_path)
    assert len(checked) == jobs.VARIANTS * len(jobs.TABLES)


@pytest.mark.parametrize("workload", ["sweep", "verify"])
def test_sweep_and_verify_reports_match_golden(workload, tmp_path,
                                               monkeypatch):
    # a verify report embeds its manifest path, so the jobs are bound to
    # the benchmark's relative work directory, as in a benchmark run
    jobs = load_jobs()
    monkeypatch.chdir(tmp_path)
    jobs.WORKDIR.mkdir()
    checked = check_jobs(jobs, jobs.jobs_for(workload, 0), jobs.WORKDIR)
    expected = (len(jobs.SWEEP) if workload == "sweep"
                else len(json.loads(jobs.MANIFEST.read_text())))
    assert len(checked) == expected
