"""Command-line front end.

Subcommands: field info, ideals list, landau, legendre verify,
family construct, family badprimes, nagao ap, nagao series, rank.
Tables are CSV, structured objects JSON; rationals serialize as "num/den".
Exit codes: 0 success, 1 verification failure, 2 usage error (any
InvalidArgument: the library decides them; this module checks JSON shape).
"""

import contextlib
import csv
import gc
import json
import os
import sys

import click

from . import legendre as legendre_mod
from . import nagao as nagao_mod
from .errors import InternalIdentityFailure, InvalidArgument, RankforgeError
from .family import FamilySpec, construct_family, is_good_prime
from .finite_field import make_field, quadratic_character
from .number_field import NumberField, landau_sum
from .number_field import prime_ideals_above
from .number_field import enumerate_prime_ideals
from .poly import fraction_to_str, poly_from_str, poly_to_str
from .primes import sieve

DEFAULT_SEED = 20140615


def _at_least(low):
    """Option callback that refuses values below low."""
    def check(ctx, param, value):
        if value < low:
            raise InvalidArgument(
                f"{param.opts[0]} must be >= {low}, got {value}")
        return value
    return check


def _out_path(ctx, param, value):
    """--out is "-" or a file in an existing directory; checked before any
    work, creating nothing."""
    if value is None or value == "-":
        return value
    if os.path.isdir(value):
        raise InvalidArgument(f"--out {value} is a directory")
    folder = os.path.dirname(value)
    if not os.path.isdir(folder or "."):
        raise InvalidArgument(f"--out {value}: no directory {folder}")
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


class UsageFailure(click.ClickException):
    """A malformed spec or option: one line on stderr, exit code 2."""

    exit_code = 2


@contextlib.contextmanager
def _one_line_usage_errors():
    try:
        yield
    except InvalidArgument as exc:
        raise UsageFailure(str(exc)) from exc
    except getattr(click.exceptions, "NoArgsIsHelpError", ()):
        raise  # click >= 8.2: the help of a group called bare
    except click.UsageError as exc:
        raise UsageFailure(exc.format_message()) from exc


class _Main(click.Group):
    """Reports an InvalidArgument or click's own usage error (but not the
    help of a group called bare) in one line: from its own options, parsed
    in make_context, and from any subcommand."""

    def make_context(self, info_name, args, parent=None, **extra):
        with _one_line_usage_errors():
            return super().make_context(info_name, args, parent=parent, **extra)

    def invoke(self, ctx):
        with _one_line_usage_errors():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main():
    """Rank-6 elliptic curve families over number fields: construction and
    numerical rank certification via averaged Frobenius traces."""


@main.group()
def field():
    """Finite-field inspection."""


@field.command("info")
@click.option("--p", "p", type=int, required=True, help="odd prime")
@click.option("--modulus", required=True,
              help='monic modulus over F_p, "c0,c1,...,1"')
@click.option("--out", default=None, callback=_out_path)
def field_info(p, modulus, out):
    """Print q and a sample character table as CSV."""
    fld = make_field(p, poly_from_str(modulus).coeffs)
    click.echo(f"q = {fld.q} (p = {fld.p}, r = {fld.r})")
    sample = map(fld.decode, range(min(fld.q, 32)))
    _write_csv(out, ["code", "coeffs", "chi"],
               [[fld.encode(u), " ".join(map(str, u.coeffs)),
                 quadratic_character(u)] for u in sample])


@main.group()
def ideals():
    """Prime-ideal enumeration."""


@ideals.command("list")
@click.option("--field", "field_path", required=True, type=click.Path(exists=True))
@click.option("--max-norm", type=int, required=True, callback=_at_least(1))
@click.option("--out", default=None, callback=_out_path)
def ideals_list(field_path, max_norm, out):
    """List prime ideals of norm <= X as CSV."""
    K = _load_field_spec(_read_json(field_path))
    rows = ([P.norm, P.p, P.f, P.e, poly_to_str(P.factor)]
            for P in enumerate_prime_ideals(K, max_norm))
    _write_csv(out, ["norm", "p", "f", "e", "factor"], rows)
    skipped = sorted(p for p in K.excluded_primes if p <= max_norm)
    if skipped:
        click.echo(f"excluded rational primes skipped: {skipped}", err=True)


@main.command()
@click.option("--field", "field_path", required=True, type=click.Path(exists=True))
@click.option("--max-norm", type=int, required=True, callback=_at_least(1))
def landau(field_path, max_norm):
    """Partial sum of log N(P), its ratio to X, and the ideal count."""
    K = _load_field_spec(_read_json(field_path))
    total, ratio, count = landau_sum(K, max_norm)
    click.echo(f"sum = {_fmt(total)}")
    click.echo(f"ratio = {_fmt(ratio)}")
    click.echo(f"count = {count}")


@main.group()
def legendre():
    """Quadratic character sum verification."""


@legendre.command("verify")
@click.option("--max-q", type=int, default=343, show_default=True,
              callback=_at_least(3))
@click.option("--exhaustive-max-q", type=int, default=49, show_default=True)
@click.option("--seed", type=int, default=DEFAULT_SEED, show_default=True)
@click.option("--out", default=None, callback=_out_path)
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


@main.group()
def family():
    """Curve-family construction."""


@family.command("construct")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, callback=_out_path)
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


@family.command("badprimes")
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True))
@click.option("--max-p", type=int, required=True, callback=_at_least(1))
def family_badprimes(family_path, max_p):
    """Rational primes p <= N with a bad ideal above them, with reasons."""
    _, fam = _load_family(family_path)
    for p in sieve(max_p):
        if p in fam.K.excluded_primes:
            click.echo(f"{p}: excluded (Dedekind enumeration)")
            continue
        reasons = []
        for P in prime_ideals_above(fam.K, p):
            good, reason = is_good_prime(fam, P)
            if not good:
                reasons.append(reason)
        if reasons:
            click.echo(f"{p}: {reasons[0]}")


@main.group()
def nagao():
    """Frobenius-trace averages and rank series."""


@nagao.command("ap")
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True))
@click.option("--p", "p", type=int, required=True, help="rational prime")
@click.option("--method", type=click.Choice(["direct", "analytic", "both"]),
              default="analytic", show_default=True)
def nagao_ap(family_path, p, method):
    """sum of a_t and A_p for every prime ideal above p; with --method both,
    an error (exit 1) where the direct and analytic sums differ."""
    _, fam = _load_family(family_path)
    if p in fam.K.excluded_primes:
        click.echo(f"bad prime: {p} is excluded from Dedekind enumeration")
        sys.exit(1)
    above = prime_ideals_above(fam.K, p)
    if method != "analytic":
        nagao_mod.check_direct_cap(max(P.norm for P in above))
    methods = ["direct", "analytic"] if method == "both" else [method]
    failed = False
    for P in above:
        good, reason = is_good_prime(fam, P)
        if not good:
            click.echo(f"{P.label()}: bad prime: {reason}")
            failed = True
            continue
        sums = []
        for m in methods:
            res = nagao_mod.average_A_p(fam, P, method=m)
            click.echo(f"{P.label()}: norm={P.norm} method={m} "
                       f"sum_a_t={res.sum_a_t} "
                       f"A_p={fraction_to_str(res.A_p)} good={res.good}")
            sums.append(res.sum_a_t)
        if len(set(sums)) > 1:  # independent methods agree exactly
            raise InternalIdentityFailure(
                f"{P.label()}: direct sum_a_t={sums[0]} but "
                f"analytic sum_a_t={sums[1]}")
    if failed:
        sys.exit(1)


@nagao.command("series")
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True))
@click.option("--max-norm", type=int, required=True, callback=_at_least(1))
@click.option("--method", type=click.Choice(["direct", "analytic"]),
              default="analytic", show_default=True)
@click.option("--checkpoints", default=None,
              help="comma-separated cutoffs; default geometric grid")
@click.option("--out", default=None, callback=_out_path)
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


@main.command()
@click.option("--family", "family_path", required=True,
              type=click.Path(exists=True))
@click.option("--max-norm", type=int, required=True, callback=_at_least(1))
@click.option("--method", type=click.Choice(["direct", "analytic"]),
              default="analytic", show_default=True)
def rank(family_path, max_norm, method):
    """Rank verdict from the normalized partial sum at X = max-norm."""
    _, fam = _load_family(family_path)
    est = nagao_mod.rank_estimate(fam, max_norm, method=method)
    click.echo(f"partial_sum = {_fmt(est.partial_sum)}")
    click.echo(f"theta_good = {_fmt(est.theta_good)}")
    click.echo(f"residual = {_fmt(est.residual)}")
    if est.low_confidence:
        click.echo("rank estimate: 0 (low confidence: no good primes in range)")
    else:
        click.echo(f"rank estimate: {est.nearest_integer}")


def entrypoint():
    # the import graph lives until exit: keep it out of every collection,
    # the one at interpreter exit included
    gc.freeze()
    try:
        main(standalone_mode=True)
    except RankforgeError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()
