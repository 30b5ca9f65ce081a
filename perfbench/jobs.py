"""The benchmark's workloads: fixed grids of CLI invocations.

Every input is a fixed grid except the per-place characters of the
``tables`` jobs.  Those are drawn from one of ``VARIANTS`` committed
character sets, chosen by the seed, so that every report of every seed
has a committed golden digest to be checked against.

``verify`` runs the frozen manifest one instance per job: each job is
``verify --manifest`` on a one-instance slice of it, so that each
instance is timed on its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import re
import shutil
from pathlib import Path

VARIANTS = 16
MANIFEST = Path(__file__).with_name("verify_manifest.json")
GOLDEN = Path(__file__).with_name("golden.json")
# Job files go here, relative to the checkout root; run.py makes and
# removes it.
WORKDIR = Path(".perfbench-work")

# strata --route enumerate: the torus sweep and the coendoscopy grouping
# do the work; |W| <= 1152, so Weyl-group changes should not move it.
SWEEP = [
    ("F4", "sc", 25),
    ("F4", "ad", 25),
    ("D4", "sc", 25),
    ("B4", "sc", 13),
    ("C3", "sc", 25),
    ("A2,A1", "sc", 25),
    ("G2", "ad", 49),
]

# classify-route coeffs/predict: Weyl arithmetic and coset-tuple orbits
# dominate and no torus sweep runs.  (command, type, lattice, q, places,
# extra flags)
TABLES = [
    ("coeffs", "F4", "sc", 13, 2, ()),
    ("predict", "D4", "sc", 7, 2, ()),
    ("coeffs", "B3", "sc", 13, 3, ()),
    ("coeffs", "C3", "ad", 7, 2, ()),
    ("predict", "G2", "ad", 7, 4, ()),
    ("predict", "B2", "sc", 5, 2, ("--approx",)),
    ("coeffs", "A2,A1", "ad", 7, 2, ()),
]

# E6: Weyl enumeration (51,840 elements) dominates; the large q runs
# characteristic_of on a prime near 10^6.
RANK6 = [
    ("classify", 7, ()),
    ("classify", 1000003, ()),
    ("strata", 7, ("--route", "classify")),
]

WORKLOADS = ("sweep", "tables", "rank6", "verify")

_CONFIG_HASH_LINE = re.compile(r'^  "config_hash": "[0-9a-f]+",\n', re.M)


class Job:
    """One CLI invocation; ``config`` is written to a file before it runs
    and passed with ``flag``."""

    def __init__(self, key: str, argv: list[str], config=None,
                 flag: str = "--config"):
        self.key = key
        self.argv = argv
        self.config = config
        self.flag = flag

    def bind(self, workdir: Path) -> list[str]:
        """The argv to run, with the config (if any) written under workdir.

        The file name derives from the key alone, so a report that embeds
        the path (``verify`` does) reads the same in every run.
        """
        if self.config is None:
            return list(self.argv)
        path = workdir / (re.sub(r"[^A-Za-z0-9]+", "_", self.key) + ".json")
        path.write_text(json.dumps(self.config, sort_keys=True))
        return self.argv + [self.flag, str(path)]


def _characters(variant: int, key: str, rank: int, places: int, q: int):
    rng = random.Random(f"{variant}:{key}")
    tags = ["inf"] + [f"v{i}" for i in range(1, places)]
    return {
        "places": [
            {"tag": tag,
             "lambda": [rng.randint(-(q - 1), q - 1) for _ in range(rank)]}
            for tag in tags
        ]
    }


def _rank(type_text: str) -> int:
    return sum(int(part[1:]) for part in type_text.split(","))


def jobs_for(workload: str, seed: int) -> list[Job]:
    if workload == "sweep":
        return [
            Job(f"strata {t} {lat} q{q} enumerate",
                ["strata", "--type", t, "--lattice", lat, "--q", str(q),
                 "--route", "enumerate"])
            for t, lat, q in SWEEP
        ]
    if workload == "tables":
        variant = seed % VARIANTS
        out = []
        for cmd, t, lat, q, places, extra in TABLES:
            base = f"{cmd} {t} {lat} q{q} p{places}"
            config = {
                "route": "classify",
                "curve": {"genus": 1, "place_degrees": [1] * places},
                "characters": _characters(variant, base, _rank(t), places, q),
            }
            out.append(Job(
                f"v{variant} {base}",
                [cmd, "--type", t, "--lattice", lat, "--q", str(q), *extra],
                config,
            ))
        return out
    if workload == "rank6":
        return [
            Job(f"{cmd} E6 sc q{q}" + "".join(" " + x for x in extra),
                [cmd, "--type", "E6", "--lattice", "sc", "--q", str(q),
                 *extra])
            for cmd, q, extra in RANK6
        ]
    if workload == "verify":
        manifest = json.loads(MANIFEST.read_text())
        return [Job(f"verify {i:02d} " + " ".join(
                        f"{k}={inst[k]}" for k in sorted(inst)),
                    ["verify"], [inst], flag="--manifest")
                for i, inst in enumerate(manifest)]
    raise ValueError(f"unknown workload {workload!r}")


@contextlib.contextmanager
def workdir():
    """An empty WORKDIR under the current directory, removed afterwards."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        yield WORKDIR
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def all_jobs() -> list[Job]:
    """Every job of every workload and character variant, once each."""
    out = []
    for workload in WORKLOADS:
        seeds = range(VARIANTS) if workload == "tables" else (0,)
        for seed in seeds:
            out.extend(jobs_for(workload, seed))
    return out


def report_digest(text: str) -> str | None:
    """SHA-256 of a JSON report without its ``config_hash`` line.

    ``config_hash`` hashes the effective config, including keys that do
    not change the result, so it is left out; every other byte counts.
    Returns None when the report does not have exactly one such line.
    """
    stripped, n = _CONFIG_HASH_LINE.subn("", text)
    if n != 1:
        return None
    return hashlib.sha256(stripped.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())
