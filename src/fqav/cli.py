"""Command-line interface: JSON input parsing, command dispatch, and
deterministic report serialization.

Input schema (schema_version 1): rationals travel as strings "p/q", never
floats.  Exit codes: 0 success, 1 input error or bad command-line arguments,
2 violated internal theorem.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import lcm

from .action import DEFAULT_GROUP_CAP, close_group
from .classify import Analysis
from .errors import CertificateError, InputError
from .linalg import TorsionPoint
from .variety import AbelianVarietyModel, EllipticFactor, block_pairs

SCHEMA_VERSION = 1

# The most bits of L, the lcm of the translation denominators.  A report
# prints no integer above L + 1 or L ord(W), W a holonomy, and ord(W) < 2^1284
# (see CHANGES.md), so none reaches 2^14284 < 10^4300, the limit of str()
MAX_DENOMINATOR_BITS = 13000

PROVENANCE = {
    "quasietale": "ramification divisor vanishes (all fixed loci have codim >= 2)",
    "kappa_anticanonical": "anticanonical Kodaira dimension formula for torus quotients",
    "q_fano": "kappa(-K_X) = dim X criterion",
    "fano_type": "Fano type coincides with Q-Fano for these quotients",
    "q_abelian": "quasietale quotients of abelian varieties are Q-abelian",
    "q_x": "irregularity = dim of the holonomy-invariant tangent subspace",
    "q_circle": "maximal quasietale-cover irregularity = dim of the abelian factor",
    "reid_tai": "Reid-Tai age criterion for canonical quotient singularities",
    "uniruled": "age < 1 forces uniruledness; non-quasietale quotients are uniruled",
    "canonical": "Reid-Tai condition characterizes canonical singularities",
    "kappa_zero": "Kodaira dimension 0 iff Reid-Tai holds (quasietale case)",
    "polarized_endo_m": "multiplication map commuting with the action descends",
    "ramification": "codimension-1 fixed loci with pointwise stabilizer orders",
    "decomposition": "quasietale cover by (abelian factor) x (Q-Fano part)",
}


def _is_int(x):
    """JSON integers only: json.loads gives true/false as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_fraction(text):
    """A JSON integer, or a string "p" or "p/q" of ASCII digits with an
    optional minus sign.  Fraction alone would also read " 1/2", "+1/2",
    "1_0/2" and non-ASCII digits."""
    if _is_int(text) or (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        try:
            return Fraction(text)
        except (ZeroDivisionError, ValueError):  # "p/0", or too many digits for int()
            pass
    raise InputError(f"not a rational: {text!r}", code="bad-rational")


def _unique_keys(pairs):
    """The object of ``pairs``, which ``json.loads`` hands over in order; a
    repeated key is refused, where a dict would keep its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise InputError(f"repeated key {key!r}", code="bad-schema")
    return doc


def _check_keys(doc, allowed, where):
    """Refuse the first key of ``doc``, in sorted order, not in ``allowed``:
    a misspelt key would otherwise be read as absent."""
    if not doc.keys() <= allowed:
        raise InputError(f"{where}unknown key {min(doc.keys() - allowed)!r}",
                         code="bad-schema")


def parse_input(text):
    """Parse and validate an action description; returns (variety, generators,
    options dict), each generator the pair (holonomy block rows, translation)
    that ``close_group`` validates against the variety and closes."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer literal too long for
        # int(); RecursionError: arrays or objects nested too deep
        raise InputError(f"invalid JSON: {exc}", code="bad-json")
    if not isinstance(doc, dict):
        raise InputError("top level must be an object", code="bad-schema")
    _check_keys(doc, {"schema_version", "factors", "generators", "options"}, "")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise InputError("unsupported schema_version", code="bad-schema")
    factors_doc = doc.get("factors")
    if not isinstance(factors_doc, list) or not factors_doc:
        raise InputError("factors: nonempty list required", code="bad-schema")
    factors = []
    for i, fd in enumerate(factors_doc):
        if not isinstance(fd, dict) or not isinstance(fd.get("cm"), str):
            raise InputError(f"factors[{i}]: object with string 'cm' required",
                             code="bad-schema")
        _check_keys(fd, {"cm", "label"}, f"factors[{i}]: ")
        label = fd.get("label", "")
        if not isinstance(label, str):
            raise InputError(f"factors[{i}]: label must be a string", code="bad-schema")
        factors.append(EllipticFactor(fd["cm"], label))
    variety = AbelianVarietyModel(tuple(factors))
    n = variety.n

    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, list) or not gens_doc:
        raise InputError("generators: nonempty list required", code="bad-schema")
    gens = []
    for i, gd in enumerate(gens_doc):
        if not isinstance(gd, dict):
            raise InputError(f"generators[{i}]: object required", code="bad-schema")
        _check_keys(gd, {"holonomy", "translation"}, f"generators[{i}]: ")
        hol = gd.get("holonomy")
        if (not isinstance(hol, list) or len(hol) != n
                or any(not isinstance(r, list) or len(r) != n for r in hol)):
            raise InputError(f"generators[{i}]: holonomy must be {n}x{n} of [c,d] pairs",
                             code="bad-schema")
        rows = []
        for r in hol:
            row = []
            for pair in r:
                if not isinstance(pair, list) or len(pair) != 2 \
                        or not all(_is_int(x) for x in pair):
                    raise InputError(f"generators[{i}]: blocks must be [c,d] int pairs",
                                     code="bad-schema")
                row.append((pair[0], pair[1]))
            rows.append(row)
        trans_doc = gd.get("translation", ["0"] * (2 * n))
        if not isinstance(trans_doc, list) or len(trans_doc) != 2 * n:
            raise InputError(f"generators[{i}]: translation needs {2 * n} entries",
                             code="bad-schema")
        trans = TorsionPoint.of([_parse_fraction(t) for t in trans_doc])
        gens.append((rows, trans))
    if lcm(*(trans.order for _, trans in gens)).bit_length() > MAX_DENOMINATOR_BITS:
        raise InputError("the lcm of the translation denominators has more than "
                         f"{MAX_DENOMINATOR_BITS} bits", code="bad-translation")

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise InputError("options must be an object", code="bad-schema")
    _check_keys(options, {"group_cap"}, "options: ")
    cap = options.get("group_cap", DEFAULT_GROUP_CAP)
    if not _is_int(cap) or cap < 1:
        raise InputError("options.group_cap must be a positive integer", code="bad-schema")
    return variety, gens, {"group_cap": cap}


# ---------------------------------------------------------------------------
# serialization

def _factor_doc(f):
    d = {"cm": f.cm}
    if f.label:
        d["label"] = f.label
    return d


def _point_doc(p):
    return [str(a) if b == 1 else f"{a}/{b}" for a, b in p.sort_key()]


def _lattice_doc(lat):
    return {"ambient_rank": lat.ambient_rank,
            "rank": lat.rank,
            "basis": [list(v) for v in lat.basis]}


def _generator_doc(blocks, translation):
    return {"holonomy": [[[c, d] for c, d in row] for row in blocks],
            "translation": _point_doc(translation)}


def _element_doc(g):
    return _generator_doc(block_pairs(g.matrix), g.translation)


def _input_echo(variety, gens, options):
    return {"factors": [_factor_doc(f) for f in variety.factors],
            "generators": [_generator_doc(*g) for g in gens],
            "options": dict(sorted(options.items()))}


def _classification_doc(report):
    doc = dict(vars(report))
    if report.reid_tai_witness is not None:
        doc["reid_tai_witness"] = _element_doc(report.reid_tai_witness)
    doc["notes"] = list(report.notes)
    return doc


def _ramification_doc(data):
    return {
        "component_count": len(data.components),
        "components": [{"lattice": _lattice_doc(c.lattice),
                        "translate": _point_doc(c.translate),
                        "index": e}
                       for c, e in zip(data.components, data.indices)],
        "orbits": [list(o) for o in data.orbits],
        "boundary_coeffs": [str(c) for c in data.boundary_coeffs],
        "intersection_dim": data.intersection_dim,
    }


def _decomposition_doc(result):
    return {
        "q_abelian": result.is_q_abelian,
        "total_abelian_dim": result.total_abelian_dim,
        "abelian_factors": [_lattice_doc(lat) for lat in result.abelian_factors],
        "fano_part": {
            "dim": result.fano_part.dim,
            "group_order": result.fano_part.order,
            "embedding": [list(v) for v in result.fano_part.embedding],
        },
        "stages": [dict(vars(s)) for s in result.stages],
    }


def build_report(variety, gens, options, command):
    group = close_group(variety, gens, cap=options["group_cap"])
    doc = {"schema_version": SCHEMA_VERSION,
           "command": command,
           "input": _input_echo(variety, gens, options)}
    if command == "validate":
        doc["group_order"] = group.order
        return doc
    analysis = Analysis(group)
    if command in ("classify", "report"):
        doc["classification"] = _classification_doc(analysis.classification)
    if command in ("ramification", "report"):
        doc["ramification"] = _ramification_doc(analysis.ramification)
    if command in ("reidtai", "report"):
        holds, witness, witness_age = analysis.reid_tai
        doc["reid_tai"] = {"holds": holds,
                           "witness": None if witness is None else _element_doc(witness),
                           "witness_age": None if witness is None else str(witness_age)}
    if command in ("decompose", "report"):
        doc["decomposition"] = _decomposition_doc(analysis.decomposition)
    if command == "report":
        doc["provenance"] = dict(sorted(PROVENANCE.items()))
    return doc


def _render_markdown(doc):
    out = ["# fqav report", ""]

    def emit(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    out.append(f"{pad}- **{k}**:")
                    emit(v, indent + 1)
                else:
                    out.append(f"{pad}- **{k}**: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    out.append(f"{pad}-")
                    emit(v, indent + 1)
                else:
                    out.append(f"{pad}- {v}")

    emit(doc)
    return "\n".join(out) + "\n"


_JSON_STRING = json.encoder.encode_basestring_ascii


def _json_text(obj, pad="\n"):
    """``json.dumps(obj, indent=2)`` for a document of dicts with str keys,
    lists, str, int, bool and None, ``pad`` the line break and indentation of
    obj's own line.  With an indent, ``json.dumps`` leaves the C encoder for
    its pure-Python one, which takes several times as long."""
    kind = type(obj)
    if kind is str:
        return _JSON_STRING(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = pad + "  "
    if kind is dict:
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_JSON_STRING(k) + ": " + _json_text(v, inner) for k, v in obj.items()]) + pad + "}"
    if kind is list:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + pad + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def serialize(doc, fmt="json"):
    if fmt == "md":
        return _render_markdown(doc)
    return _json_text(doc) + "\n"


COMMANDS = ("validate", "classify", "ramification", "reidtai", "decompose", "report")


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument as an input error (exit 1), not by exit 2."""

    def error(self, message):
        raise InputError(message, code="bad-args")


def _build_parser():
    parser = _Parser(
        prog="fqav",
        description="Classify finite quotients of products of elliptic curves.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="input JSON file, or - for stdin")
    parser.add_argument("--cap", type=int, default=None,
                        help="override the group order cap")
    parser.add_argument("--format", choices=("json", "md"), default="json")
    return parser


# built once per process: parsing reads the parser and changes nothing in
# it, and each add_argument formats its help text to validate the action
PARSER = _build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
        if args.cap is not None and args.cap < 1:
            PARSER.error("argument --cap: must be positive")
        try:
            if args.file == "-":
                text = sys.stdin.read()
            else:
                with open(args.file, "r", encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}", code="io-error")
        except UnicodeDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}", code="bad-json")
        variety, gens, options = parse_input(text)
        if args.cap is not None:
            options["group_cap"] = args.cap
        doc = build_report(variety, gens, options, args.command)
    except InputError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(serialize(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
