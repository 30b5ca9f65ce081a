import argparse
import contextlib
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coendo import cli, coendoscopy, rootsys, torus


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_g2(capsys):
    code, out, _ = run(
        ["classify", "--type", "G2", "--lattice", "ad", "--q", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["format_version"] == "1"
    assert report["rational_count"] == 3
    nontrivial = [c for c in report["classes"] if not c["whole_group"]]
    assert sorted(c["signature"] for c in nontrivial) == ["A1xA1", "A2"]
    assert all(c["rational"] for c in nontrivial)


def test_classify_a3_only_whole(capsys):
    code, out, _ = run(
        ["classify", "--type", "A3", "--lattice", "sc", "--q", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert [c["signature"] for c in report["classes"]] == ["A3"]


def test_classify_past_255_roots(capsys):
    # E8 x A4 has 260 roots; A4 has no prime highest-root coefficient, so
    # its classes are E8's with an A4 factor, at the same nodes
    code, out, _ = run(["classify", "--type", "E8,A4", "--q", "31"], capsys)
    assert code == 0
    product = json.loads(out)["classes"]
    code, out, _ = run(["classify", "--type", "E8", "--q", "31"], capsys)
    assert code == 0
    e8 = json.loads(out)["classes"]
    assert len(product) == len(e8) == 6
    assert [c["signature"] for c in product] == [
        "x".join(sorted(c["signature"].split("x") + ["A4"])) for c in e8]
    assert "A4xD8" in [c["signature"] for c in product]
    for key in ("deleted_node", "rational"):
        assert [c[key] for c in product] == [c[key] for c in e8]


def test_classify_reads_no_candidate_cap(monkeypatch, capsys, tmp_path):
    # options of one factor that share a signature merge with no W-orbit
    # search, so D_n and C_n whose option orbits pass caps.candidates
    # print a report, and the cap leaves the report as it is
    def refuse(*args):
        raise AssertionError("a W-orbit search ran")

    monkeypatch.setattr(coendoscopy, "orbit_of_subset", refuse)
    for name, count, first in [("D20", 10, [[1, 17]]), ("C30", 16, [[0, 28]]),
                               ("D40", 20, [[1, 37]])]:
        code, out, err = run(["classify", "--type", name, "--q", "7"], capsys)
        assert code == 0 and err == ""
        classes = json.loads(out)["classes"]
        assert len(classes) == count
        assert next(c["equivalent_nodes"] for c in classes
                    if c["equivalent_nodes"]) == first
    cfg = tmp_path / "cap1.json"
    cfg.write_text(json.dumps({"caps": {"candidates": 1}}))
    argv = ["classify", "--type", "D8", "--q", "7"]
    code, plain, err = run(argv, capsys)
    assert code == 0 and err == ""
    code, capped, err = run(argv + ["--config", str(cfg)], capsys)
    assert code == 0 and err == ""
    plain, capped = plain.splitlines(), capped.splitlines()
    assert len(plain) == len(capped)
    changed = [line for line, other in zip(plain, capped) if line != other]
    assert len(changed) == 1 and changed[0].startswith('  "config_hash": ')


def test_malformed_type_exits_2(capsys):
    code, _, err = run(["classify", "--type", "Z9", "--q", "5"], capsys)
    assert code == 2
    assert "config error" in err


def test_bad_q_exits_2(capsys):
    code, _, err = run(["classify", "--type", "A1", "--q", "6"], capsys)
    assert code == 2
    assert "prime power" in err


def test_mismatched_p_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"group": {"factors": ["A1"], "lattice": "sc", "p": 3}, "q": 5}))
    code, _, err = run(["classify", "--config", str(cfg)], capsys)
    assert code == 2
    assert "characteristic" in err


def test_strata_routes_match_via_cli(capsys):
    code, out_e, _ = run(
        ["strata", "--type", "B2", "--q", "5", "--route", "enumerate"], capsys)
    assert code == 0
    code, out_c, _ = run(
        ["strata", "--type", "B2", "--q", "5", "--route", "classify"], capsys)
    assert code == 0
    enum = json.loads(out_e)
    cls = json.loads(out_c)
    assert enum["strata"] == cls["strata"]
    assert enum["mobius"] == cls["mobius"]
    assert enum["config_hash"] != cls["config_hash"]  # route is in the config


def test_coeffs_trivial_type_a(capsys):
    code, out, _ = run(
        ["coeffs", "--type", "A2", "--lattice", "sc", "--q", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["central_product_trivial"] is True
    assert len(report["rows"]) == 1
    assert report["rows"][0]["n"] == 3
    assert report["total_abs"] <= report["bound_constant"]


def test_coeffs_with_character_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"factors": ["A1"], "lattice": "sc"},
        "q": 5,
        "curve": {"genus": 1, "place_degrees": [1, 1]},
        "characters": {"places": [
            {"tag": "inf", "lambda": [1]}, {"tag": "v1", "lambda": [1]}]},
    }))
    code, out, _ = run(["coeffs", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["n"] == 2


def test_place_count_mismatch_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"factors": ["A1"], "lattice": "sc"},
        "q": 5,
        "curve": {"genus": 1, "place_degrees": [1]},
        "characters": {"places": [
            {"tag": "inf", "lambda": [0]}, {"tag": "v1", "lambda": [0]}]},
    }))
    code, _, err = run(["coeffs", "--config", str(cfg)], capsys)
    assert code == 2
    assert "places" in err


def test_predict_approx(capsys):
    code, out, _ = run(
        ["predict", "--type", "A1", "--q", "5", "--genus", "1",
         "--degrees", "1", "--approx"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["leading_term"]["value"] == "10"
    assert report["prediction"]["value"] == "10"
    assert report["prediction"]["mode"] == "approximate"


def test_predict_with_counts_file(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(
        {"rows": [{"stratum_type": "A1", "orbit_rep": [], "count": 10}]}))
    code, out, _ = run(
        ["predict", "--type", "A1", "--q", "5", "--genus", "1",
         "--degrees", "1", "--counts", str(counts)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["prediction"]["value"] == "4"


def test_predict_missing_count_exits_1(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"rows": []}))
    code, _, err = run(
        ["predict", "--type", "A1", "--q", "5", "--counts", str(counts)],
        capsys)
    assert code == 1


def test_formats(capsys):
    code, out, _ = run(
        ["strata", "--type", "B2", "--q", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "signature,roots,z_order,s_size,z_invariants,canonical"
    assert len(lines) == 3
    code, out, _ = run(
        ["strata", "--type", "B2", "--q", "5", "--format", "text"], capsys)
    assert code == 0
    assert "config_hash:" in out


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["coeffs", "--type", "B2", "--q", "5", "--out"]
    assert cli.main(argv + [str(a)]) == 0
    assert cli.main(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_flag_removed(capsys):
    # there is no worker pool, so there is no thread-count flag
    code, _, err = run(["coeffs", "--type", "B2", "--q", "5", "--threads", "4"],
                       capsys)
    assert code == 2
    assert err.startswith("config error:") and "--threads" in err


@pytest.mark.parametrize("args,needle", [
    (["classify", "--type", "A1", "--q", "abc"], "--q"),
    (["classify", "--type", "A1", "--lattice", "xx", "--q", "5"], "--lattice"),
    (["strata", "--type", "B2", "--q", "5", "--route", "sweep"], "--route"),
    (["verify", "--format", "xml"], "--format"),
    ([], "command"),
], ids=["int", "lattice", "route", "verify-format", "no-command"])
def test_argument_errors_are_config_errors(args, needle, capsys):
    code, out, err = run(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and needle in err
    assert err.count("\n") == 1


def subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def action_record(action):
    return (type(action), action.option_strings, action.dest, action.choices,
            action.default, action.type, action.nargs, action.help)


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_one_subparser_matches_the_full_parser(command):
    # a run builds only the subparser its command names, with the same
    # options, in the same order, as the parser that builds all of them
    full = subparsers(cli.build_parser([]))
    one = subparsers(cli.build_parser([command, "--out", "x"]))
    assert list(full) == list(cli.COMMANDS)
    assert list(one) == [command]
    assert ([action_record(a) for a in one[command]._actions]
            == [action_record(a) for a in full[command]._actions])
    assert one[command].format_help() == full[command].format_help()


@pytest.mark.parametrize("argv", [["--help"], ["strata", "--help"],
                                  ["verify", "--help"]])
def test_help_lists_every_command_or_the_subcommand_options(argv, capsys):
    full = cli.build_parser([])
    expected = (subparsers(full)[argv[0]] if argv[0] in cli.COMMANDS
                else full).format_help()
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out == expected and err == ""
    if argv == ["--help"]:
        assert out.startswith(
            "usage: coendo [-h] {classify,strata,coeffs,predict,verify} ...\n")


@pytest.mark.parametrize("argv,line", [
    ([], "config error: the following arguments are required: command"),
    (["bogus"], "config error: argument command: invalid choice: 'bogus' "
                "(choose from 'classify', 'strata', 'coeffs', 'predict', "
                "'verify')"),
    (["strata", "--bogus"], "config error: unrecognized arguments: --bogus"),
], ids=["none", "bogus", "strata-bogus"])
def test_usage_errors_read_as_with_every_subcommand(argv, line, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == line + "\n"


def test_main_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv",
                        ["coendo", "classify", "--type", "A1", "--q", "5"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "classify"


@pytest.mark.parametrize("argv", [
    ["strata", "--type", "G2", "--q", "5"],
    ["verify", "--manifest", "MANIFEST"],
], ids=["strata", "verify"])
def test_unwritable_out_is_config_error(tmp_path, argv, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"check": "bds_cross", "type": "B2"}]))
    target = tmp_path / "missing" / "report.json"
    argv = [str(manifest) if x == "MANIFEST" else x for x in argv]
    code, out, err = run(argv + ["--out", str(target)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write --out: ")
    assert str(target) in err and err.count("\n") == 1
    assert not target.parent.exists()


def test_verify_small_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "brute_strata", "factors": ["A1"], "lattice": "sc", "q": 5},
        {"check": "bds_cross", "type": "B2", "q": 5},
    ]))
    code, out, _ = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["failures"] == 0 and report["instances"] == 2


def test_verify_failure_exits_3(tmp_path, capsys):
    # A2-sc at q=5 has an unstable center: the precondition fails
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "field_extension", "factors": ["A2"], "lattice": "sc",
         "q": 5, "n": 2, "seed": 1},
    ]))
    code, out, _ = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 3
    report = json.loads(out)
    assert report["failures"] == 1


def test_explicit_lattice_matrix_config(tmp_path, capsys):
    # an intermediate lattice for A3: index 2 in the coweights, containing
    # the coroots (basis columns in coweight coordinates)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": {"factors": ["A3"],
                  "lattice": [[1, 0, 0], [0, 1, 0], [1, 0, 2]]},
        "q": 5,
    }))
    code, out, _ = run(["strata", "--config", str(cfg)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lattice"] == "custom"
    assert report["strata"][0]["signature"] == "A3"


def test_strata_warnings_field(capsys):
    # classify route at a q where the divisibility table fails still
    # produces the exact poset, and says so
    code, out, _ = run(
        ["strata", "--type", "G2", "--q", "5", "--route", "classify"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["warnings"] and "exact" in report["warnings"][0]
    code, out_e, _ = run(
        ["strata", "--type", "G2", "--q", "5", "--route", "enumerate"], capsys)
    assert json.loads(out_e)["strata"] == report["strata"]


def test_convention_flag_in_report(capsys):
    code, out, _ = run(
        ["coeffs", "--type", "A1", "--q", "5", "--convention",
         "mixed-inverse"], capsys)
    assert code == 0
    assert json.loads(out)["convention"] == "mixed-inverse"


def without_hash(text):
    return {k: v for k, v in json.loads(text).items() if k != "config_hash"}


def test_strata_never_enumerates_weyl(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"caps": {"weyl": 1}}))
    for route in ("enumerate", "classify"):
        args = ["strata", "--type", "B2", "--q", "5", "--route", route]
        code, capped, err = run(args + ["--config", str(cfg)], capsys)
        assert code == 0, err
        code, uncapped, _ = run(args, capsys)
        assert code == 0
        assert without_hash(capped) == without_hash(uncapped)
    code, _, err = run(["coeffs", "--type", "B2", "--q", "5",
                        "--config", str(cfg)], capsys)
    assert code == 1
    assert "|W| = 8 exceeds cap 1" in err


def test_classify_large_prime_q(capsys):
    # 10^18 + 3 and 10^14 + 31 are prime as well
    start = time.perf_counter()
    for name, q in [("B2", 1000000007), ("A1", 1000000000000000003),
                    ("A1", 100000000000031)]:
        code, out, err = run(["classify", "--type", name, "--q", str(q)],
                             capsys)
        assert code == 0, err
        assert json.loads(out)["q"] == q
    assert time.perf_counter() - start < 1.0


def test_q_past_the_prime_test_bound_exits_2(capsys):
    code, out, err = run(["classify", "--type", "A1", "--q", str(10**25)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:")
    assert str(rootsys.PRIME_TEST_BOUND) in err and err.count("\n") == 1


@pytest.mark.parametrize("genus,exponent", [(100000, 299999),
                                            (10000000, 29999999)])
def test_predict_past_the_print_limit_exits_1(capsys, genus, exponent):
    start = time.perf_counter()
    code, out, err = run(["predict", "--type", "A1", "--q", "5", "--genus",
                          str(genus), "--approx"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "q = 5" in err and f"e = {exponent}" in err, err
    assert time.perf_counter() - start < 5.0


def test_readme_cli_lines_exit_0(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block, with its config example
    # as my.json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", readme, re.S | re.M)
    commands = [line for lang, body in blocks if not lang
                for line in body.splitlines() if line.startswith("coendo ")]
    assert {shlex.split(line)[1] for line in commands} == {
        "classify", "strata", "coeffs", "predict", "verify"}
    (config,) = [body for lang, body in blocks if lang == "json"]
    (tmp_path / "my.json").write_text(config)
    monkeypatch.chdir(tmp_path)
    for line in commands:
        code, out, err = run(shlex.split(line)[1:], capsys)
        assert code == 0, (line, err)
        assert out


def test_bad_caps_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for caps, key in [({"weyl": "x"}, "caps.weyl"),
                      ({"points": True}, "caps.points"),
                      ({"orbits": 0}, "caps.orbits"),
                      ({"weyl": 2.5}, "caps.weyl"),
                      ({"candidates": -3}, "caps.candidates"),
                      (7, "caps")]:
        cfg.write_text(json.dumps({"caps": caps}))
        code, _, err = run(["coeffs", "--type", "A1", "--q", "5",
                            "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("config error:") and key in err
        assert err.count("\n") == 1


def test_repeated_counts_row_exits_2(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"rows": [
        {"stratum_type": "A1", "orbit_rep": [0], "count": 7},
        {"stratum_type": "A1", "orbit_rep": [0], "count": 3},
    ]}))
    code, out, err = run(
        ["predict", "--type", "A1", "--q", "5", "--counts", str(counts)],
        capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and "repeat" in err
    assert err.count("\n") == 1


def test_counts_without_rows_exits_2(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    for raw in [{}, {"rows": {"A1": 3}}, [], {"rows": [{"count": 3}]}]:
        counts.write_text(json.dumps(raw))
        code, _, err = run(
            ["predict", "--type", "A1", "--q", "5", "--counts", str(counts)],
            capsys)
        assert code == 2
        assert err.startswith("config error:") and "rows" in err
        assert err.count("\n") == 1


def test_config_shapes_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw, key in [({"group": "B2"}, "group"),
                     ([{"q": 5}], "JSON object"),
                     ({"curve": {"genus": "x"}}, "curve.genus"),
                     ({"curve": [1]}, "curve"),
                     ({"characters": {"places": 3}}, "character spec"),
                     ({"characters": 3}, "character spec"),
                     ({"group": {"factors": "B2"}}, "group.factors"),
                     ({"group": {"factors": ["B2"], "lattice": [[1, 0], [0]]}},
                      "lattice"),
                     ({"group": {"factors": ["B2"], "lattice": [[1, 0]]}},
                      "lattice"),
                     ({"group": {"factors": ["B2"], "lattice": 5}}, "lattice")]:
        cfg.write_text(json.dumps(raw))
        code, _, err = run(["coeffs", "--config", str(cfg)], capsys)
        assert code == 2, raw
        assert err.startswith("config error:") and key in err, err
        assert err.count("\n") == 1


@pytest.mark.parametrize("content,key", [
    (None, "No such file"),
    (b"[1", "cannot read manifest"),
    (b"\xff\xfe", "cannot read manifest"),
    (b'{"a": 1}', "JSON list"),
    (b"[3]", "'check'"),
    (b'[{"check": "nope"}]', "'check'"),
    (b'[{"check": ["brute_strata"]}]', "'check'"),
    (b'[{"check": "brute_strata", "q": 5}]', "lacks factors, lattice"),
    (b'[{"check": "bds_cross", "type": "G2", "Q": 49}]', "unknown keys Q"),
    (b'[{"check": "brute_strata", "factors": ["A1"], "lattice": "sc", '
     b'"q": 5, "seed": 1, "n": 2}]', "unknown keys n, seed"),
], ids=["missing", "malformed", "not-utf8", "object", "entry-not-object",
        "unknown-check", "unhashable-check", "missing-keys", "unknown-key",
        "keys-of-another-check"])
def test_bad_manifest_exits_2(tmp_path, capsys, content, key):
    manifest = tmp_path / "m.json"
    if content is not None:
        manifest.write_bytes(content)
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and key in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("entry,key", [
    ({"check": "brute_strata", "factors": ["A1"], "lattice": "sc", "q": "x"},
     "q must be"),
    ({"check": "field_extension", "factors": ["A1"], "lattice": "sc", "q": 5,
      "n": "2", "seed": 1}, "n must be"),
    ({"check": "cyclotomic_grid", "factors": ["B2"], "lattice": "sc", "q": 5,
      "samples": "3", "seed": 1}, "samples must be"),
    ({"check": "bds_cross", "type": 5}, "type must be"),
    ({"check": "brute_strata", "factors": ["A1"], "lattice": "sc", "q": 6},
     "not a prime power"),
    ({"check": "brute_strata", "factors": "A1", "lattice": "sc", "q": 5},
     "factors must be"),
    ({"check": "field_extension", "factors": ["A1"], "lattice": "sc", "q": 5,
      "n": 2, "seed": "x"}, "seed must be"),
    ({"check": "bds_cross", "type": "X2", "q": 5}, "unknown family"),
    ({"check": "brute_strata", "factors": ["B2"], "lattice": "sc", "q": 8},
     "p = 2"),
    ({"check": "brute_strata", "factors": ["B2"], "lattice": [[1, 0], [0]],
      "q": 5}, "lattice must be"),
    ({"check": "brute_strata", "factors": ["B2"], "lattice": [[1, 0], [0, 3]],
      "q": 5}, "not contained"),
    ({"check": "brute_strata", "factors": ["A1"], "lattice": "sc",
      "q": 10**25}, str(rootsys.PRIME_TEST_BOUND)),
], ids=["q-not-int", "n-str", "samples-str", "type-int", "q-not-prime-power",
        "factors-str", "seed-str", "type-unknown", "bad-characteristic",
        "lattice-ragged", "lattice-not-sublattice", "q-past-prime-test-bound"])
def test_bad_manifest_values_exit_2(tmp_path, capsys, entry, key):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([entry]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: manifest entry") and key in err, err
    assert err.count("\n") == 1


def test_singular_lattice_is_one_config_error(tmp_path, capsys):
    # through a config and through a manifest entry
    singular = [[1, 1], [1, 1]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"factors": ["B2"],
                                         "lattice": singular}}))
    code, out, err = run(["coeffs", "--q", "5", "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err == ("config error: invalid group datum: "
                   "lattice basis is singular\n")
    entry = {"check": "brute_strata", "factors": ["B2"], "lattice": singular,
             "q": 5}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([entry]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 2 and out == ""
    assert err == (f"config error: manifest entry {entry!r}: "
                   "lattice basis is singular\n")


def test_verify_builds_each_datum_once(tmp_path, capsys, monkeypatch):
    # the entry's datum is built when it is validated and reused to run
    calls = []
    build = rootsys.make_datum

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (rootsys, cli.oracle):
        monkeypatch.setattr(module, "make_datum", counting)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "brute_strata", "factors": ["B2"],
         "lattice": [[1, 1], [0, 1]], "q": 5},
    ]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 0, err
    assert json.loads(out)["failures"] == 0
    assert calls == [(["B2"], [[1, 1], [0, 1]], 5)]


def test_verify_checks_every_entry_before_building_a_datum(tmp_path, capsys,
                                                           monkeypatch):
    # the second entry's unknown check is reported before the first
    # entry's A120 datum is built
    calls = []
    build = rootsys.make_datum

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    for module in (rootsys, cli.oracle):
        monkeypatch.setattr(module, "make_datum", counting)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "brute_strata", "factors": ["A120"], "lattice": "sc",
         "q": 5},
        {"check": "nope"},
    ]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: manifest entries need a 'check'")
    assert err.count("\n") == 1
    assert calls == []


def test_verify_error_while_running_exits_1(tmp_path, capsys, monkeypatch):
    # entries are validated before any runs; a ValueError from a running
    # check is a computation error, not a config error
    def fail(*args):
        raise ValueError("check failed to run")

    monkeypatch.setattr(cli.oracle, "brute_strata_check", fail)
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "brute_strata", "factors": ["A1"], "lattice": "sc", "q": 5},
    ]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert (code, out, err) == (1, "", "error: check failed to run\n")


def test_manifest_values_accepted(tmp_path, capsys):
    # bds_cross may leave q out or null; an explicit lattice matrix is built
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([
        {"check": "bds_cross", "type": "B2"},
        {"check": "bds_cross", "type": "B2", "q": None},
        {"check": "brute_strata", "factors": ["B2"],
         "lattice": [[1, 1], [0, 1]], "q": 5},
    ]))
    code, out, err = run(["verify", "--manifest", str(manifest)], capsys)
    assert code == 0, err
    assert json.loads(out)["instances"] == 3


def test_non_integer_degrees_exit_2(capsys):
    code, _, err = run(["coeffs", "--type", "B2", "--q", "5",
                        "--degrees", "a,b"], capsys)
    assert code == 2
    assert err.startswith("config error: --degrees") and err.count("\n") == 1


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for raw, key in [({"threads": 4}, "threads"),
                     ({"group": {"factors": ["B2"], "lattic": "ad"}},
                      "group.lattic"),
                     ({"curve": {"genus": 1, "degrees": [1, 1]}},
                      "curve.degrees"),
                     ({"caps": {"wyl": 10}}, "caps.wyl")]:
        cfg.write_text(json.dumps(raw))
        code, _, err = run(["coeffs", "--config", str(cfg)], capsys)
        assert code == 2, raw
        assert err.startswith("config error: unknown config keys") \
            and key in err, err
        assert err.count("\n") == 1


def test_non_utf8_config_and_counts_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    for argv, key in [(["coeffs", "--config", str(bad)], "cannot read config"),
                      (["predict", "--type", "A1", "--counts", str(bad)],
                       "cannot read counts")]:
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith(f"config error: {key}") and err.count("\n") == 1


def test_sympy_not_imported_at_runtime():
    # sympy is a test-only reference: importing the CLI and running a
    # command must not load it
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys\n"
            "import coendo.cli\n"
            "assert coendo.cli.main(['coeffs', '--type', 'B2', '--q', '5',"
            " '--out', sys.argv[1]]) == 0\n"
            "print('sympy' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


A1_PLACES = [{"tag": "inf", "lambda": [0]}, {"tag": "v1", "lambda": [1]}]


@pytest.mark.parametrize("raw,key", [
    ({"characters": {"places": [{"tag": "inf", "lambda": [1.7]},
                                A1_PLACES[1]]}}, "lambda"),
    ({"characters": {"places": [{"tag": "inf", "lambda": [True]},
                                A1_PLACES[1]]}}, "lambda"),
    ({"characters": {"places": [{"tag": "inf", "lambda": "1"},
                                A1_PLACES[1]]}}, "lambda"),
    ({"curve": {"genus": 1, "place_degrees": "11"}}, "curve.place_degrees"),
    ({"curve": {"genus": 1, "place_degrees": [1.9, 1]}},
     "curve.place_degrees"),
    ({"characters": {"places": A1_PLACES, "extra": 1}}, "characters.extra"),
], ids=["float-lambda", "bool-lambda", "string-lambda", "string-degrees",
        "float-degrees", "extra-characters-key"])
def test_non_integer_character_and_degree_values_exit_2(tmp_path, capsys,
                                                        raw, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(["coeffs", "--type", "A1", "--q", "5",
                          "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and key in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,caps,message", [
    (["coeffs", "--type", "B2"], {"weyl": 1},
     "|W| = 8 exceeds cap 1 (caps.weyl)"),
    (["strata", "--type", "B2", "--route", "enumerate"], {"points": 10},
     "|T(F_q)| = 16 exceeds cap 10 (caps.points)"),
    (["coeffs", "--type", "B2"], {"orbits": 1},
     "2^1 coset tuples exceed cap 1 (caps.orbits)"),
    (["strata", "--type", "B3", "--route", "classify"], {"candidates": 4},
     "full-rank closed subsystems exceed cap 4 (caps.candidates)"),
], ids=["weyl", "points", "orbits", "candidates"])
def test_cap_errors_name_their_config_key(tmp_path, capsys, argv, caps,
                                          message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"caps": caps}))
    code, out, err = run(argv + ["--q", "5", "--config", str(cfg)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("raw,key", [
    ({"characters": {"places": [
        A1_PLACES[0], {"tag": "v1", "lambda": [1], "extra": 2}]}}, "keys"),
    ({"characters": {"places": [
        A1_PLACES[0], {"tag": "v1", "lambda": [1], "torus": "split"}]}},
     "keys"),
    ({"characters": {"places": [A1_PLACES[0], {"lambda": [1]}]}}, "keys"),
    ({"characters": {"places": [A1_PLACES[0], "v1"]}}, "keys"),
    ({"characters": {"places": [
        A1_PLACES[0], {"tag": ["v"], "lambda": [1]}]}}, "tag"),
    ({"group": {"factors": ["A1"], "p": 5.0}}, "group.p"),
    ({"group": {"factors": ["A1"], "p": True}}, "group.p"),
    ({"group": {"factors": ["A1"], "p": "5"}}, "group.p"),
], ids=["extra-key", "torus-key", "no-tag", "not-object", "list-tag",
        "float-p", "bool-p", "string-p"])
def test_bad_places_and_group_p_exit_2(tmp_path, capsys, raw, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, out, err = run(["coeffs", "--type", "A1", "--q", "5",
                          "--config", str(cfg)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and key in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv,key", [
    (["classify", "--type", "A1", "--q", "0"], "q must be"),
    (["classify", "--type", "", "--q", "5"], "cannot parse type"),
    (["coeffs", "--type", "A1", "--q", "5", "--degrees", ""], "--degrees"),
], ids=["zero-q", "empty-type", "empty-degrees"])
def test_falsy_flag_values_are_not_dropped(capsys, argv, key):
    # a flag overrides the config whatever its value, so a bad one exits 2
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error:") and key in err, err
    assert err.count("\n") == 1


@pytest.mark.parametrize("row", [
    {"stratum_type": "A1", "orbit_rep": [0], "count": 2.7},
    {"stratum_type": "A1", "orbit_rep": [0], "count": "7"},
    {"stratum_type": "A1", "orbit_rep": [0], "count": True},
    {"stratum_type": "A1", "orbit_rep": [0], "count": [1]},
    {"stratum_type": "A1", "orbit_rep": [0], "count": None},
    {"stratum_type": ["A1"], "orbit_rep": [0], "count": 1},
    {"stratum_type": "A1", "orbit_rep": [0.0], "count": 1},
    {"stratum_type": "A1", "orbit_rep": [False], "count": 1},
    {"stratum_type": "A1", "orbit_rep": "0", "count": 1},
    ["A1", [0], 1],
], ids=["float-count", "string-count", "bool-count", "list-count",
        "null-count", "list-type", "float-rep", "bool-rep", "string-rep",
        "list-row"])
def test_bad_count_values_exit_2(tmp_path, capsys, row):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"rows": [row]}))
    code, out, err = run(
        ["predict", "--type", "A1", "--q", "5", "--counts", str(counts)],
        capsys)
    assert code == 2 and out == ""
    assert err.startswith("config error: counts rows need"), err
    assert err.count("\n") == 1


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.sampled_from(["a", "tag", "lambda"]),
                    st.integers(0, 2), max_size=2),
)


def valid_or(valid, one_in=4):
    """A JSON value of the wrong type or range once in ``one_in`` draws,
    else a valid value."""
    return st.integers(0, one_in - 1).flatmap(lambda k: valid if k else JUNK)


LAMBDA = st.lists(st.integers(-4, 4), min_size=1, max_size=2)
PLACE = valid_or(st.fixed_dictionaries({
    "tag": valid_or(st.sampled_from(["inf", "v1", "v2"])),
    "lambda": valid_or(LAMBDA),
}))

CONFIGS = st.fixed_dictionaries({}, optional={
    "group": valid_or(st.fixed_dictionaries(
        {"factors": valid_or(st.lists(st.sampled_from(["A1", "A2", "B2", "G2"]),
                                      min_size=1, max_size=1))},
        optional={"lattice": valid_or(st.sampled_from(["sc", "ad"])),
                  "p": valid_or(st.sampled_from([2, 3, 5, 7]))})),
    "q": valid_or(st.sampled_from([3, 4, 5, 7, 8, 9, 13])),
    "curve": valid_or(st.fixed_dictionaries(
        {"genus": valid_or(st.integers(0, 2)),
         "place_degrees": valid_or(st.lists(st.integers(1, 2), min_size=1,
                                            max_size=3))})),
    "characters": valid_or(st.fixed_dictionaries(
        {"places": valid_or(st.lists(PLACE, min_size=1, max_size=3))})),
    "convention": valid_or(st.sampled_from(["uniform-inverse",
                                            "mixed-inverse"])),
    "route": valid_or(st.sampled_from(["enumerate", "classify"])),
    "caps": valid_or(st.fixed_dictionaries({}, optional={
        key: valid_or(st.integers(1, 10**4))
        for key in ("weyl", "points", "orbits")})),
})


TYPES = st.sampled_from(["A1", "A2", "B2", "G2"])
QS = st.sampled_from([3, 4, 5, 7, 8, 9, 13, 25, 27, 49])

# values for each key a manifest check reads
MANIFEST_VALUES = {
    "factors": st.lists(TYPES, min_size=1, max_size=1),
    "lattice": st.sampled_from(["sc", "ad"]),
    "q": QS,
    "type": TYPES,
    "seed": st.integers(0, 99),
    "n": st.integers(1, 3),
    "samples": st.integers(1, 5),
}


# a manifest or counts file has several values, each of which may be
# wrong: one in 12 is, so that most files still reach the computation
def manifest_entry(check):
    return st.fixed_dictionaries({
        "check": valid_or(st.just(check), 12),
        **{key: valid_or(MANIFEST_VALUES[key], 12)
           for key in cli.oracle.MANIFEST_CHECKS[check]},
    })


MANIFEST = valid_or(st.lists(
    valid_or(st.sampled_from(sorted(cli.oracle.MANIFEST_CHECKS))
             .flatmap(manifest_entry), 12),
    min_size=1, max_size=2), 12)


def count_rows(keys):
    """Counts rows for the given (stratum_type, orbit_rep) keys and a few
    made-up ones, each value valid or of the wrong type."""
    made_up = st.tuples(st.sampled_from(["A1", "A2", "A1xA1", "B2", "G2"]),
                        st.lists(st.integers(0, 7), max_size=2))
    return st.lists(made_up, max_size=2).flatmap(
        lambda extra: st.tuples(*[
            valid_or(st.fixed_dictionaries({
                "stratum_type": valid_or(st.just(stype), 12),
                "orbit_rep": valid_or(st.just(rep), 12),
                "count": valid_or(st.integers(0, 50), 12),
            }), 12)
            for stype, rep in [*keys, *extra]
        ]))


def run_clean(argv, command):
    """Run the CLI and check it ends in a report or one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
        prefix = "config error: " if code == 2 else "error: "
        assert err.getvalue().startswith(prefix), (argv, err.getvalue())
        return code, None
    report = json.loads(out.getvalue())
    assert report["command"] == command
    return code, report


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(CONFIGS, MANIFEST, st.data())
def test_coeffs_config_fuzz_exits_cleanly(tmp_path, raw, manifest, data):
    # any config, counts file or manifest ends in a report or one error
    # line, never a traceback; exit 3 only from verify
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, report = run_clean(["coeffs", "--config", str(cfg)], "coeffs")
    assert code != 3
    for route in ("enumerate", "classify"):
        assert run_clean(["strata", "--config", str(cfg), "--route", route],
                         "strata")[0] != 3
    keys = [(row["stratum_type"], row["orbit_rep"])
            for row in (report["rows"] if report else [])]
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps(data.draw(valid_or(st.fixed_dictionaries(
        {"rows": valid_or(count_rows(keys).map(list), 12)}), 12))))
    assert run_clean(["predict", "--config", str(cfg), "--counts",
                      str(counts)], "predict")[0] != 3
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    run_clean(["verify", "--manifest", str(path)], "verify")


SUBSYSTEM_RUNS = [
    ["classify", "--type", "F4", "--q", "13"],
    ["strata", "--type", "F4", "--q", "13", "--route", "enumerate"],
    ["strata", "--type", "F4", "--q", "13", "--route", "classify"],
    ["coeffs", "--type", "F4", "--q", "13", "--route", "enumerate"],
    ["coeffs", "--type", "F4", "--q", "13", "--route", "classify"],
]


@pytest.mark.parametrize("argv", SUBSYSTEM_RUNS, ids=" ".join)
def test_subsystem_runs_build_no_root_sum_table(monkeypatch, capsys, argv):
    # any read of a root-sum table on a root system raises
    def refuse(self):
        raise AssertionError("a root-sum table was built")

    monkeypatch.setattr(rootsys.RootSystem, "sums", property(refuse),
                        raising=False)
    code, _, err = run(argv, capsys)
    assert code == 0, err


def test_classify_route_coeffs_enumerates_candidates_once(monkeypatch,
                                                          capsys):
    calls = []
    enumerate_ = coendoscopy.equal_rank_subsystems

    def counting(rs, *cap):
        calls.append(rs)
        return enumerate_(rs, *cap)

    monkeypatch.setattr(coendoscopy, "equal_rank_subsystems", counting)
    code, _, err = run(SUBSYSTEM_RUNS[-1], capsys)
    assert code == 0, err
    assert len(calls) == 1


def test_classify_route_coeffs_leaves_no_root_system_cycle(capsys):
    # with DEBUG_SAVEALL the collector keeps what it would have freed
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code, _, err = run(["coeffs", "--type", "F4", "--q", "13", "--route",
                            "classify", "--degrees", "1,1"], capsys)
        gc.collect()
        cyclic = [type(x).__name__ for x in gc.garbage
                  if isinstance(x, (torus.Subsystem, rootsys.RootSystem))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert code == 0, err
    assert cyclic == []
