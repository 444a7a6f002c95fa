"""Command-line front end.

Subcommands: field info, ideals list, landau, legendre verify,
family construct, family badprimes, nagao ap, nagao series, rank.
Tables are CSV, structured objects JSON; rationals serialize as "num/den".
Exit codes: 0 success, 1 verification failure, 2 usage error (any
InvalidArgument: the library decides them; this module checks JSON shape).
"""

import argparse
import contextlib
import csv
import gc
import json
import os
import re
import sys

from . import legendre as legendre_mod
from . import nagao as nagao_mod
from .errors import InternalIdentityFailure, InvalidArgument, RankforgeError
from .family import FamilySpec, construct_family, is_good_prime
from .finite_field import make_field, quadratic_character
from .number_field import NumberField, enumerate_prime_ideals, landau_sum
from .number_field import prime_ideals_above
from .poly import fraction_to_str, poly_from_str, poly_to_str
from .primes import sieve

DEFAULT_SEED = 20140615


def _at_least(low):
    """Option type: an integer no smaller than low."""
    def check(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return check


def _out_path(value):
    """--out is "-" or a file in an existing directory; creates nothing."""
    if value == "-":
        return value
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value} is a directory")
    folder = os.path.dirname(value)
    if not os.path.isdir(folder or "."):
        raise argparse.ArgumentTypeError(f"{value}: no directory {folder}")
    return value


def _fmt(x):
    """Doubles with 12 significant digits; everything else is exact."""
    return f"{x:.12g}"


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidArgument(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None


def _entry(obj, key, what):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise InvalidArgument(f"{what} spec has no {key!r} entry") from None


def _load_field_spec(obj):
    return NumberField(
        poly_from_str(_entry(obj, "min_poly", "field")).coeffs,
        excluded_primes=obj.get("excluded_primes"),
        assert_irreducible=obj.get("assert_irreducible", False))


def _parse_kelem(K, text):
    return K.elem(poly_from_str(text).coeffs)


def _load_family(path):
    """(spec object, family) for the family spec file at path."""
    obj = _read_json(path)
    K = _load_field_spec(_entry(obj, "field", "family"))
    rho = _entry(obj, "rho", "family")
    if not isinstance(rho, list):
        raise InvalidArgument(f"family spec needs a list of six rho, got {rho!r}")
    spec = FamilySpec(K=K, rho=tuple(_parse_kelem(K, s) for s in rho),
                      alpha=_parse_kelem(K, _entry(obj, "alpha", "family")))
    return obj, construct_family(spec)


@contextlib.contextmanager
def _output(out):
    if out is None or out == "-":
        yield sys.stdout
        return
    try:
        fh = open(out, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidArgument(f"cannot write {out}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_csv(out, header, rows):
    with _output(out) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


class _Parser(argparse.ArgumentParser):
    """Raises InvalidArgument where argparse would print usage and exit;
    takes --help (no -h) and no abbreviated option."""

    def __init__(self, prog=None, description=None):
        super().__init__(prog=prog, description=description,
                         allow_abbrev=False, add_help=False)
        self.add_argument("--help", action="help",
                          help="show this message and exit")
        # "-2,0,1" (a modulus) is a value, not an unknown option
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        raise InvalidArgument(message)


def _subcommands(parser):
    """parser's subcommand action; parser called without one shows its help."""
    parser.set_defaults(command=None, parser=parser)
    return parser.add_subparsers(title="Commands", metavar="COMMAND")


_parser = _Parser("rankforge", "Rank-6 elliptic curve families over number "
                  "fields: construction and numerical rank certification "
                  "via averaged Frobenius traces.")
_commands = _subcommands(_parser)


def _group(name, doc):
    return _subcommands(_commands.add_parser(name, help=doc, description=doc))


def _command(group, name, *options):
    """Subcommand name of group runs the decorated function; options are
    (flag, add_argument keywords) pairs."""
    def register(func):
        parser = group.add_parser(name, help=func.__doc__,
                                  description=func.__doc__)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(command=func)
        return func
    return register


DEFAULT = "default: %(default)s"
FIELD = "--field", dict(dest="field_path", required=True, metavar="PATH")
FAMILY = "--family", dict(dest="family_path", required=True, metavar="PATH")
MAX_NORM = "--max-norm", dict(type=_at_least(1), required=True)
METHOD = "--method", dict(choices=("direct", "analytic"), default="analytic",
                          help=DEFAULT)
OUT = "--out", dict(type=_out_path)

field = _group("field", "Finite-field inspection.")
ideals = _group("ideals", "Prime-ideal enumeration.")
legendre = _group("legendre", "Quadratic character sum verification.")
family = _group("family", "Curve-family construction.")
nagao = _group("nagao", "Frobenius-trace averages and rank series.")


@_command(field, "info",
          ("--p", dict(type=int, required=True, help="odd prime")),
          ("--modulus", dict(required=True,
                             help='monic modulus over F_p, "c0,c1,...,1"')),
          OUT)
def field_info(p, modulus, out):
    """Print q and a sample character table as CSV."""
    fld = make_field(p, poly_from_str(modulus).coeffs)
    print(f"q = {fld.q} (p = {fld.p}, r = {fld.r})")
    sample = map(fld.decode, range(min(fld.q, 32)))
    _write_csv(out, ["code", "coeffs", "chi"],
               [[fld.encode(u), " ".join(map(str, u.coeffs)),
                 quadratic_character(u)] for u in sample])


@_command(ideals, "list", FIELD, MAX_NORM, OUT)
def ideals_list(field_path, max_norm, out):
    """List prime ideals of norm <= X as CSV."""
    K = _load_field_spec(_read_json(field_path))
    rows = ([P.norm, P.p, P.f, P.e, poly_to_str(P.factor)]
            for P in enumerate_prime_ideals(K, max_norm))
    _write_csv(out, ["norm", "p", "f", "e", "factor"], rows)
    skipped = sorted(p for p in K.excluded_primes if p <= max_norm)
    if skipped:
        print(f"excluded rational primes skipped: {skipped}", file=sys.stderr)


@_command(_commands, "landau", FIELD, MAX_NORM)
def landau(field_path, max_norm):
    """Partial sum of log N(P), its ratio to X, and the ideal count."""
    K = _load_field_spec(_read_json(field_path))
    total, ratio, count = landau_sum(K, max_norm)
    print(f"sum = {_fmt(total)}")
    print(f"ratio = {_fmt(ratio)}")
    print(f"count = {count}")


@_command(legendre, "verify",
          ("--max-q", dict(type=_at_least(3), default=343, help=DEFAULT)),
          ("--exhaustive-max-q", dict(type=int, default=49, help=DEFAULT)),
          ("--seed", dict(type=int, default=DEFAULT_SEED, help=DEFAULT)),
          OUT)
def legendre_verify(max_q, exhaustive_max_q, seed, out):
    """Closed form vs. brute force per odd prime power q; exit 1 on any
    mismatch or conic-bound violation."""
    results = legendre_mod.verify_quad_sums(
        max_q=max_q, exhaustive_max_q=exhaustive_max_q, seed=seed)
    _write_csv(out, ["q", "p", "r", "mode", "checked", "mismatches",
                     "conic_violations", "status"],
               [[r.q, r.p, r.r, r.mode, r.checked, r.mismatches,
                 r.conic_violations, "pass" if r.ok else "FAIL"]
                for r in results])
    if not all(r.ok for r in results):
        sys.exit(1)


@_command(family, "construct",
          ("--spec", dict(dest="spec_path", required=True, metavar="PATH")),
          OUT)
def family_construct(spec_path, out):
    """Construct the family and emit its exact coefficients as JSON."""
    obj, fam = _load_family(spec_path)
    doc = {
        "field": obj["field"],
        "rho": [poly_to_str(r.coeffs) for r in fam.spec.rho],
        "alpha": poly_to_str(fam.spec.alpha.coeffs),
        "coefficients": {name: poly_to_str(getattr(fam, name).coeffs)
                         for name in ("a", "b", "c", "A", "B", "C", "D")},
        "g": [poly_to_str(c.coeffs) for c in fam.g.coeffs],
        "h": [poly_to_str(c.coeffs) for c in fam.h.coeffs],
        "D_T": [poly_to_str(c.coeffs) for c in fam.D_T.coeffs],
        "bad_divisor": str(fam.bad_divisor),
    }
    with _output(out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@_command(family, "badprimes", FAMILY,
          ("--max-p", dict(type=_at_least(1), required=True)))
def family_badprimes(family_path, max_p):
    """Rational primes p <= N with a bad ideal above them, with reasons."""
    _, fam = _load_family(family_path)
    for p in sieve(max_p):
        if p in fam.K.excluded_primes:
            print(f"{p}: excluded (Dedekind enumeration)")
            continue
        reasons = []
        for P in prime_ideals_above(fam.K, p):
            good, reason = is_good_prime(fam, P)
            if not good:
                reasons.append(reason)
        if reasons:
            print(f"{p}: {reasons[0]}")


@_command(nagao, "ap", FAMILY,
          ("--p", dict(type=int, required=True, help="rational prime")),
          ("--method",
           {**METHOD[1], "choices": ("direct", "analytic", "both")}))
def nagao_ap(family_path, p, method):
    """sum of a_t and A_p for every prime ideal above p; with --method both,
    an error (exit 1) where the direct and analytic sums differ."""
    _, fam = _load_family(family_path)
    if p in fam.K.excluded_primes:
        print(f"bad prime: {p} is excluded from Dedekind enumeration")
        sys.exit(1)
    above = prime_ideals_above(fam.K, p)
    if method != "analytic":
        nagao_mod.check_direct_cap(max(P.norm for P in above))
    methods = ["direct", "analytic"] if method == "both" else [method]
    failed = False
    for P in above:
        good, reason = is_good_prime(fam, P)
        if not good:
            print(f"{P.label()}: bad prime: {reason}")
            failed = True
            continue
        sums = []
        for m in methods:
            res = nagao_mod.average_A_p(fam, P, method=m)
            print(f"{P.label()}: norm={P.norm} method={m} "
                  f"sum_a_t={res.sum_a_t} "
                  f"A_p={fraction_to_str(res.A_p)} good={res.good}")
            sums.append(res.sum_a_t)
        if len(set(sums)) > 1:  # independent methods agree exactly
            raise InternalIdentityFailure(
                f"{P.label()}: direct sum_a_t={sums[0]} but "
                f"analytic sum_a_t={sums[1]}")
    if failed:
        sys.exit(1)


@_command(nagao, "series", FAMILY, MAX_NORM, METHOD,
          ("--checkpoints",
           dict(help="comma-separated cutoffs; default geometric grid")),
          OUT)
def nagao_series(family_path, max_norm, method, checkpoints, out):
    """Nagao partial sums on a checkpoint grid, as CSV."""
    _, fam = _load_family(family_path)
    grid = None
    if checkpoints:
        try:
            grid = [int(t) for t in checkpoints.split(",")]
        except ValueError:
            raise InvalidArgument(
                f"--checkpoints must be comma-separated integers, "
                f"got {checkpoints!r}") from None
    rows = nagao_mod.nagao_partial_sum(
        fam, max_norm, method=method, checkpoints=grid)
    _write_csv(out, ["X", "partial_sum", "ideals_used", "ideals_skipped"],
               [[r.X, _fmt(r.partial_sum), r.ideals_used,
                 r.ideals_skipped_bad] for r in rows])


@_command(_commands, "rank", FAMILY, MAX_NORM, METHOD)
def rank(family_path, max_norm, method):
    """Rank verdict from the normalized partial sum at X = max-norm."""
    _, fam = _load_family(family_path)
    est = nagao_mod.rank_estimate(fam, max_norm, method=method)
    print(f"partial_sum = {_fmt(est.partial_sum)}")
    print(f"theta_good = {_fmt(est.theta_good)}")
    print(f"residual = {_fmt(est.residual)}")
    if est.low_confidence:
        print("rank estimate: 0 (low confidence: no good primes in range)")
    else:
        print(f"rank estimate: {est.nearest_integer}")


def main(argv=None):
    """Run the command in argv (default: sys.argv[1:]); any InvalidArgument,
    the parser's included, is one "Error:" line on stderr and exit 2."""
    try:
        args = vars(_parser.parse_args(argv))
        command, parser = args.pop("command"), args.pop("parser")
        if command is None:  # a group called bare: its help, exit 2
            parser.print_help(sys.stderr)
            sys.exit(2)
        command(**args)
    except InvalidArgument as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)


def entrypoint():
    # the import graph lives until exit: keep it out of every collection,
    # the one at interpreter exit included
    gc.freeze()
    try:
        main()
        sys.stdout.flush()  # a reader gone (| head) fails here, not at exit
    except BrokenPipeError:  # exit 1 with no traceback; the rest goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except RankforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
