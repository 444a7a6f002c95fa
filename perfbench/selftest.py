"""Self-test of the benchmark's own machinery, on small inputs (a few seconds).

    python3 perfbench/run.py --self-test

Checks that the output checks accept the reference outputs and reject
broken ones, that seeds draw valid inputs, that the tracer wraps every
binding of a name and restores it, that a missing public name is reported
absent rather than crashing, and that a set-up probe and a traced run of
small CLI workloads pass the consistency checks.
"""

import dataclasses
import sys
import tempfile

import run
import spans
from workloads import REFERENCE, WORKLOADS, check_landau, check_legendre
from workloads import check_rank, draw_rho

RANK_OK = ("partial_sum = 5.75469318947\ntheta_good = 1918.23106316\n"
           "residual = 8.881784197e-16\nrank estimate: 6\n")
LANDAU_OK = "sum = 49983.9814647\nratio = 0.999679629295\ncount = 5154\n"


def _legendre_csv(status="pass", bump=0):
    rows = ["q,p,r,mode,checked,mismatches,conic_violations,status"]
    for q, checked in REFERENCE["legendre_sweep"]["checked"].items():
        rows.append(f"{q},0,0,x,{checked + bump},0,0,{status}")
        status, bump = "pass", 0  # only the first row is altered
    return "\n".join(rows) + "\n"


def check_checks():
    yield "rank reference accepted", not check_rank(0, RANK_OK, 0)
    yield "rank invariants accepted (seed 7)", not check_rank(0, RANK_OK, 7)
    yield "rank verdict 5 rejected", check_rank(
        0, RANK_OK.replace("estimate: 6", "estimate: 5"), 7)
    yield "rank residual 1e-3 rejected", check_rank(
        0, RANK_OK.replace("8.881784197e-16", "0.001"), 7)
    yield "rank partial_sum drift rejected", check_rank(
        0, RANK_OK.replace("5.75469318947", "5.754693"), 0)
    yield "rank theta above all ideals rejected (seed 7)", check_rank(
        0, RANK_OK.replace("1918.23106316", "1999.0"), 7)
    yield "rank exit code rejected", check_rank(1, RANK_OK, 0)
    yield "landau reference accepted", not check_landau(0, LANDAU_OK, 3)
    yield "landau count off by one rejected", check_landau(
        0, LANDAU_OK.replace("5154", "5155"), 0)
    yield "landau ratio drift rejected", check_landau(
        0, LANDAU_OK.replace("0.999679629295", "0.9996796"), 0)
    yield "legendre reference accepted", not check_legendre(0, _legendre_csv(), 0)
    yield "legendre FAIL row rejected", check_legendre(
        1, _legendre_csv(status="FAIL"), 0)
    yield "legendre checked count rejected", check_legendre(
        0, _legendre_csv(bump=1), 0)


def check_seeds():
    yield "seed 0 draws the reference rho", draw_rho(0) == [
        str(i) for i in range(1, 7)]
    for seed in (1, 2, 99):
        rho = [tuple(map(int, r.split(","))) for r in draw_rho(seed)]
        valid = (len(rho) == 6 and (0, 0) not in rho and draw_rho(seed) == draw_rho(seed)
                 and all(a != b and a != (-b[0], -b[1])
                         for i, a in enumerate(rho) for b in rho[i + 1:]))
        yield f"seed {seed} draws six valid rho", valid


def check_tracer():
    sys.path.insert(0, str(run.SRC))
    from rankforge import cli, family, nagao

    original = family.is_good_prime
    tracer = spans.Tracer()
    tracer.install(spans.TARGETS + (
        ("family", "reduce_at", "family.reduce_at", None),))
    wrapped = (nagao.is_good_prime is family.is_good_prime is cli.is_good_prime
               is not original)
    tracer.uninstall()
    yield "wrapper bound in family, nagao and cli", wrapped
    yield "originals restored", nagao.is_good_prime is original is family.is_good_prime
    yield "missing name reported absent", tracer.absent == ["family.reduce_at"]
    absent = spans.absent_metrics(["family.is_good_prime"],
                                  ["family.is_good_prime.calls", "family.bad_ideals",
                                   "nagao.ap_r1.calls"])
    yield "absent target maps to its metrics", absent == [
        "family.is_good_prime.calls", "family.bad_ideals"]


def check_small_runs():
    small = {
        "rank_sqrt5": ["--max-norm", "300"],
        "legendre_sweep": ["--max-q", "27", "--exhaustive-max-q", "9"],
    }
    run.STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.STATE) as tmp:
        for name, extra in small.items():
            full = WORKLOADS[name]
            workload = dataclasses.replace(
                full, argv=lambda tmp, seed, full=full, extra=extra:
                _with(full.argv(tmp, seed), extra),
                check=lambda rc, out, seed: [] if rc == 0 else [f"exit {rc}"])
            bench = run.Run(workload, 5, tmp)
            setup = bench.setup_probe()
            yield f"{name}: set-up probe marks the compute call", (
                setup is not None and 0 < setup < 30)
            traced = bench.traced()
            yield f"{name}: traced run passes its consistency checks", (
                traced is not None and not bench.problems)
            if traced is not None:
                metrics = traced[1]
                busy = ("nagao.ap_r1.calls" if name == "rank_sqrt5"
                        else "legendre.standard_field.calls")
                yield f"{name}: spans recorded ({busy})", metrics[busy] > 0
            for problem in bench.problems:
                print(f"    {problem}")


def _with(argv, extra):
    """argv with the values of the options in extra replaced or appended."""
    argv = list(argv)
    for opt, value in zip(extra[::2], extra[1::2]):
        if opt in argv:
            argv[argv.index(opt) + 1] = value
        else:
            argv += [opt, value]
    return argv


def main():
    failures = 0
    for group in (check_checks, check_seeds, check_tracer, check_small_runs):
        for label, ok in group():
            ok = bool(ok)
            failures += not ok
            print(f"{'PASS' if ok else 'FAIL'} {label}")
    print(f"self-test: {'all passed' if not failures else f'{failures} failed'}")
    return 1 if failures else 0
