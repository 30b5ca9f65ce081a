"""Command line surface.

A single JSON config file describes the group, field, curve and character
data; scalar flags override config fields.  Every report embeds the hash
of the effective config and the sign convention, is emitted with sorted
keys, and is byte-identical across runs.

Exit codes: 0 success, 1 computation error, 2 config error, 3 oracle
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from functools import cached_property

from . import coendoscopy, coefficients, oracle, predictions, rootsys, torus

FORMAT_VERSION = "1"

COMMANDS = ("classify", "strata", "coeffs", "predict", "verify")

DEFAULT_CONFIG = {
    "group": {"factors": ["A1"], "lattice": "sc"},
    "q": 5,
    "curve": {"genus": 1, "place_degrees": [1, 1]},
    "characters": None,
    "convention": "uniform-inverse",
    "route": "enumerate",
    "caps": {"weyl": rootsys.DEFAULT_WEYL_CAP,
             "points": torus.DEFAULT_POINT_CAP,
             "orbits": coefficients.DEFAULT_ORBIT_CAP,
             "candidates": coendoscopy.DEFAULT_CANDIDATE_CAP},
}


# Keys a config file may set inside each object-valued section: those of
# DEFAULT_CONFIG, group.p, which is checked against the characteristic
# of q, and characters.places.
_SECTION_KEYS = {
    "group": {"factors", "lattice", "p"},
    "curve": set(DEFAULT_CONFIG["curve"]),
    "caps": set(DEFAULT_CONFIG["caps"]),
    "characters": {"places"},
}


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_int, value))


def _merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        elif value is not None:
            out[key] = value
    return out


def load_config(args) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(file_cfg).__name__}"
            )
        unknown = [key for key in file_cfg if key not in DEFAULT_CONFIG]
        unknown += [f"{key}.{sub}" for key, allowed in _SECTION_KEYS.items()
                    if isinstance(file_cfg.get(key), dict)
                    for sub in file_cfg[key] if sub not in allowed]
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = _merge(cfg, file_cfg)
    overrides = {}
    if getattr(args, "type", None) is not None:
        overrides["group"] = {"factors": args.type.split(",")}
    if getattr(args, "lattice", None) is not None:
        overrides.setdefault("group", {})["lattice"] = args.lattice
    if getattr(args, "q", None) is not None:
        overrides["q"] = args.q
    if getattr(args, "genus", None) is not None:
        overrides["curve"] = {"genus": args.genus}
    if getattr(args, "degrees", None) is not None:
        try:
            degrees = [int(x) for x in args.degrees.split(",")]
        except ValueError as exc:
            raise ConfigError(
                f"--degrees must be comma-separated integers, got "
                f"{args.degrees!r}"
            ) from exc
        overrides.setdefault("curve", {})["place_degrees"] = degrees
    if getattr(args, "convention", None) is not None:
        overrides["convention"] = args.convention
    if getattr(args, "route", None) is not None:
        overrides["route"] = args.route
    cfg = _merge(cfg, overrides)
    for key in ("group", "curve", "caps"):
        if not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be an object, got {cfg[key]!r}")
    for key, value in cfg["caps"].items():
        if not _is_int(value) or value < 1:
            raise ConfigError(
                f"caps.{key} must be a positive integer, got {value!r}"
            )
    return cfg


def load_counts(path: str) -> dict:
    """Fiber point counts keyed by (stratum type, orbit representative)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read counts: {exc}") from exc
    rows = raw.get("rows") if isinstance(raw, dict) else None
    if not isinstance(rows, list):
        raise ConfigError("counts file needs a 'rows' list")
    counts = {}
    for row in rows:
        if not (isinstance(row, dict)
                and isinstance(row.get("stratum_type"), str)
                and _is_int_list(row.get("orbit_rep"))
                and _is_int(row.get("count"))):
            raise ConfigError(
                f"counts rows need a string 'stratum_type', an integer list "
                f"'orbit_rep' and an integer 'count': {row!r}"
            )
        key = (row["stratum_type"], tuple(row["orbit_rep"]))
        if key in counts:
            raise ConfigError(
                f"counts rows repeat stratum_type {key[0]!r} with orbit_rep "
                f"{list(key[1])}"
            )
        counts[key] = row["count"]
    return counts


def load_manifest(path: str) -> list[dict]:
    """The entries of a verify manifest file, a JSON list."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    if not isinstance(manifest, list):
        raise ConfigError(
            f"manifest must be a JSON list, got {type(manifest).__name__}"
        )
    return manifest


def _check_place(place) -> None:
    """A place is an object with exactly a string tag and an integer lambda."""
    if not (isinstance(place, dict) and set(place) == {"tag", "lambda"}):
        raise ValueError(
            f'a place must be an object with keys "tag" and "lambda", got '
            f"{place!r}"
        )
    if not isinstance(place["tag"], str):
        raise ValueError(f"tag must be a string, got {place['tag']!r}")
    if not _is_int_list(place["lambda"]):
        raise ValueError(
            f"lambda must be a list of integers, got {place['lambda']!r}"
        )


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Context:
    """Validated computation inputs derived from a config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        q = cfg["q"]
        if not isinstance(q, int) or q < 3:
            raise ConfigError(f"q must be a prime power >= 3, got {q!r}")
        try:
            self.p = rootsys.characteristic_of(q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        group = cfg["group"]
        declared = group.get("p")
        if declared is not None and not _is_int(declared):
            raise ConfigError(f"group.p must be an integer, got {declared!r}")
        if declared is not None and declared != self.p:
            raise ConfigError(
                f"config p = {declared} is not the characteristic of q = {q}"
            )
        self.q = q
        factors = group.get("factors")
        if not (isinstance(factors, list)
                and all(isinstance(f, str) for f in factors)):
            raise ConfigError(
                f'group.factors must be a list of type names such as ["B2"], '
                f"got {factors!r}"
            )
        try:
            self.datum = rootsys.make_datum(
                factors, group.get("lattice", "sc"), self.p
            )
        except ValueError as exc:  # the rootsys datum errors subclass it
            raise ConfigError(f"invalid group datum: {exc}") from exc
        self.convention = cfg["convention"]
        if self.convention not in coefficients.CONVENTIONS:
            raise ConfigError(f"unknown convention {self.convention!r}")
        self.route = cfg["route"]
        if self.route not in ("enumerate", "classify"):
            raise ConfigError(f"unknown route {self.route!r}")
        curve = cfg["curve"]
        genus = curve.get("genus")
        if type(genus) is not int:
            raise ConfigError(f"curve.genus must be an integer, got {genus!r}")
        degrees = curve["place_degrees"]
        if not _is_int_list(degrees):
            raise ConfigError(
                f"curve.place_degrees must be a list of integers, got "
                f"{degrees!r}"
            )
        try:
            self.curve = predictions.CurveData(genus, degrees)
        except ValueError as exc:
            raise ConfigError(f"invalid curve data: {exc}") from exc
        rank = self.datum.root_system.rank
        chars = cfg.get("characters")
        try:
            if chars is None:
                self.spec = coefficients.CharacterSpec.trivial(
                    rank, max(self.curve.num_places - 1, 0)
                )
            else:
                for place in chars["places"]:
                    _check_place(place)
                self.spec = coefficients.CharacterSpec.from_record(chars, rank)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid character spec: {exc}") from exc
        if self.spec.num_places != self.curve.num_places:
            raise ConfigError(
                f"character spec has {self.spec.num_places} places but the "
                f"curve has {self.curve.num_places}"
            )
        caps = cfg["caps"]
        self.weyl_cap = caps["weyl"]
        self.point_cap = caps["points"]
        self.orbit_cap = caps["orbits"]
        self.candidate_cap = caps["candidates"]

    @cached_property
    def poset(self):
        return coendoscopy.strata_poset(
            self.datum, self.q, self.route,
            point_cap=self.point_cap, candidate_cap=self.candidate_cap,
        )

    @cached_property
    def table(self):
        return coefficients.n_table(
            self.datum, self.q, self.spec, self.poset, self.convention,
            orbit_cap=self.orbit_cap, weyl_cap=self.weyl_cap,
        )

    def envelope(self, command: str) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "command": command,
            "config_hash": config_hash(self.cfg),
            "convention": self.convention,
            "group": repr(self.datum.root_system),
            "lattice": self.datum.cochar.name,
            "q": self.q,
        }


def cmd_classify(ctx: Context) -> dict:
    report = ctx.envelope("classify")
    rows = []
    for cl in coendoscopy.classify(ctx.datum, ctx.q):
        rows.append(
            {
                "signature": cl.signature,
                "deleted_node": (
                    list(cl.deleted_node) if isinstance(cl.deleted_node, tuple)
                    else cl.deleted_node
                ),
                "whole_group": cl.is_whole_group,
                "rational": cl.rational_over_fq,
                "equivalent_nodes": [list(g) for g in cl.equivalent_nodes],
            }
        )
    report["classes"] = rows
    report["rational_count"] = sum(1 for r in rows if r["rational"])
    return report


def cmd_strata(ctx: Context) -> dict:
    report = ctx.envelope("strata")
    poset = ctx.poset
    report["route"] = poset.route
    report["warnings"] = list(poset.warnings)
    report["strata"] = poset.summary()
    mob = [
        [i, j, v] for (i, j), v in sorted(poset.mobius_table.items())
    ]
    report["mobius"] = mob
    return report


def cmd_coeffs(ctx: Context) -> dict:
    report = ctx.envelope("coeffs")
    table = ctx.table
    report["central_product_trivial"] = coefficients.central_product_test(
        ctx.spec, ctx.datum, ctx.q
    )
    report["rows"] = table.to_records()
    report["total_abs"] = table.total_abs
    # a classify-route poset holds the candidates (never an empty list)
    candidates = ctx.poset.candidates or coendoscopy.equal_rank_subsystems(
        ctx.datum.root_system, ctx.candidate_cap)
    report["bound_constant"] = coefficients.bound_constant(
        ctx.datum, ctx.spec.num_places, candidates)
    return report


def cmd_predict(ctx: Context, counts_path: str | None, approx: bool) -> dict:
    report = ctx.envelope("predict")
    if approx or counts_path is None:
        counts = predictions.LEADING_TERM_APPROX
    else:
        counts = load_counts(counts_path)
    pred = predictions.assemble_prediction(
        ctx.datum, ctx.q, ctx.curve, ctx.table, counts
    )
    report["prediction"] = pred.to_record()
    lead = predictions.leading_term(ctx.datum, ctx.q, ctx.curve)
    report["leading_term"] = {**lead, "exponent": str(lead["exponent"]),
                              "value": str(lead["value"])}
    return report


def cmd_verify(manifest_path: str) -> dict:
    """Run a manifest file or the built-in one ("default"), every entry
    validated by oracle.bind_manifest before any runs."""
    if manifest_path == "default":
        manifest = oracle.default_manifest()
    else:
        manifest = load_manifest(manifest_path)
    try:
        checks = oracle.bind_manifest(manifest)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    verdicts = [oracle.run_instance(check) for check in checks]
    return {
        "format_version": FORMAT_VERSION,
        "command": "verify",
        "manifest": manifest_path,
        "config_hash": config_hash({"manifest": manifest}),
        "instances": len(verdicts),
        "failures": sum(1 for v in verdicts if not v.passed),
        "verdicts": [v.to_record() for v in verdicts],
    }


_CSV_COLUMNS = {
    "classify": ("classes", ["signature", "deleted_node", "whole_group",
                             "rational"]),
    "strata": ("strata", ["signature", "roots", "z_order", "s_size",
                          "z_invariants", "canonical"]),
    "coeffs": ("rows", ["stratum_type", "orbit_rep", "orbit_size", "n",
                        "n_sum"]),
    "verify": ("verdicts", ["check", "instance", "passed"]),
}


def emit(report: dict, fmt: str, command: str, out) -> None:
    if fmt == "json":
        json.dump(report, out, sort_keys=True, indent=2, default=str)
        out.write("\n")
        return
    if fmt == "csv":
        if command == "predict":
            rows = report["prediction"]["rows"]
            cols = ["stratum_type", "orbit_rep", "orbit_size", "n_sum",
                    "components", "exponent", "count"]
        else:
            key, cols = _CSV_COLUMNS[command]
            rows = report[key]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([json.dumps(row.get(c), default=str)
                             if isinstance(row.get(c), (list, dict))
                             else row.get(c) for c in cols])
        return
    # text
    head = {k: v for k, v in report.items()
            if not isinstance(v, (list, dict))}
    for k in sorted(head):
        out.write(f"{k}: {head[k]}\n")
    for k, v in report.items():
        if isinstance(v, list) and v and isinstance(v[0], dict):
            out.write(f"{k}:\n")
            for row in v:
                out.write("  " + json.dumps(row, sort_keys=True, default=str))
                out.write("\n")
        elif isinstance(v, dict):
            out.write(f"{k}: " + json.dumps(v, sort_keys=True, default=str))
            out.write("\n")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are config errors: one line, exit 2.

    Subcommand parsers are made with the same class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subcommand that ``argv[0]``
    names, or with all of them when it names none, so that help and usage
    errors read the same either way."""
    parser = _Parser(
        prog="coendo",
        description="split elliptic coendoscopic classification and "
                    "multiplicity coefficients over F_q",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--type", help="comma-separated simple types, e.g. G2 or A2,A1")
        p.add_argument("--lattice", choices=["sc", "ad"])
        p.add_argument("--q", type=int)
        p.add_argument("--genus", type=int)
        p.add_argument("--degrees", help="comma-separated place degrees")
        p.add_argument("--convention", choices=list(coefficients.CONVENTIONS))
        p.add_argument("--route", choices=["enumerate", "classify"])
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--out", help="output file (default stdout)")

    for name in argv[:1] if argv and argv[0] in COMMANDS else COMMANDS:
        p = sub.add_parser(name)
        if name == "verify":
            p.add_argument("--manifest", default="default")
            p.add_argument("--format", choices=["json", "csv", "text"],
                           default="json")
            p.add_argument("--out", help="output file (default stdout)")
            continue
        common(p)
        if name == "predict":
            p.add_argument("--counts", help="JSON file with fiber point counts")
            p.add_argument("--approx", action="store_true",
                           help="leading-term approximation for all counts")
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    buffer = io.StringIO()
    try:
        args = build_parser(argv).parse_args(argv)
        if args.command == "verify":
            report = cmd_verify(args.manifest)
            emit(report, args.format, "verify", buffer)
            code = 3 if report["failures"] else 0
        else:
            cfg = load_config(args)
            ctx = Context(cfg)
            if args.command == "classify":
                report = cmd_classify(ctx)
            elif args.command == "strata":
                report = cmd_strata(ctx)
            elif args.command == "coeffs":
                report = cmd_coeffs(ctx)
            elif args.command == "predict":
                report = cmd_predict(ctx, args.counts, args.approx)
            else:  # pragma: no cover
                raise AssertionError(args.command)
            emit(report, args.format, args.command, buffer)
            code = 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (rootsys.CapExceeded, coefficients.MissingCount, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = buffer.getvalue()
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"config error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
