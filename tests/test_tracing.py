"""The benchmark's per-layer tracer, perfbench/tracing.py, against the
program: it patches coendo functions by name, so a renamed or removed
target would break a traced benchmark run (``--trace 1``)."""

import importlib.util
import json
from pathlib import Path

import coendo
import coendo.cli
from coendo.rootsys import WeylGroup

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracing = load_tracing()
    modules = {m.__name__: m for m in tracing.coendo_modules()}
    for module, attr, *_ in tracing.TARGETS:
        owner = modules[f"coendo.{module}"]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
    # the benchmark's machine line reads it
    assert isinstance(coendo.KERNEL_BACKEND, str)


def test_tracer_enters_and_exits(capsys):
    tracing = load_tracing()
    modules = tracing.coendo_modules()
    before = [dict(vars(m)) for m in modules]
    methods = dict(vars(WeylGroup))
    with tracing.Tracer() as tracer:
        assert coendo.cli.main(["strata", "--type", "B2", "--q", "5"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    # B2 at q = 5: 16 points, the strata B2 and A1xA1
    assert metrics["torus.points_swept"] == 16
    assert metrics["coendoscopy.strata"] == 2
    assert metrics["cli.context_s"] > 0 and metrics["cli.emit_s"] > 0
    # leaving the tracer restores every patched binding
    for module, names in zip(modules, before):
        assert {k: vars(module)[k] for k in names} == names
    assert dict(vars(WeylGroup)) == methods


def test_classify_route_strata_counters(capsys):
    # the benchmark's counters on a classify-route strata run: F4 at q = 13
    # has 66 candidates in 8 W-classes and 44 realized strata, and solves
    # one Smith form per class
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert coendo.cli.main(["strata", "--type", "F4", "--q", "13",
                                "--route", "classify"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["coendoscopy.candidates"] == 66
    assert metrics["coendoscopy.strata"] == 44
    assert metrics["torus.subgroup_points_calls"] == 8


def test_enumerate_route_strata_counters(capsys):
    # the sweep workload's counters on an enumerate-route strata run: F4 at
    # q = 25 visits 4177 part points (8^4 + 3^4), keeps 72 elliptic points
    # in 44 strata of 5 W-classes, and solves one Smith form per class
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert coendo.cli.main(["strata", "--type", "F4", "--q", "25",
                                "--route", "enumerate"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["torus.points_swept"] == 4177
    assert metrics["coendoscopy.strata"] == 44
    assert metrics["torus.subgroup_points_calls"] == 5


def test_verify_counters(tmp_path, capsys):
    # one instance per entry, each timed in its check's span
    tracing = load_tracing()
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "bds_cross", "type": "B2", "q": 5},
        {"check": "brute_strata", "factors": ["A1"], "lattice": "sc", "q": 5},
        {"check": "cyclotomic_grid", "factors": ["B2"], "lattice": "sc",
         "q": 5, "samples": 3, "seed": 1},
    ]))
    with tracing.Tracer() as tracer:
        assert coendo.cli.main(["verify", "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    metrics = tracer.metrics()
    assert metrics["oracle.instances"] == 3
    for check in ("bds_cross", "brute_strata", "cyclotomic_grid"):
        assert metrics[f"oracle.{check}_s"] > 0, check
    assert metrics["oracle.field_extension_s"] == 0
