"""The three benchmark workloads: inputs drawn from a seed, the CLI argv
that runs them, and the checks on what the CLI printed.

Seed 0 reproduces the reference inputs, whose outputs are pinned in
reference.json. Any other seed draws new rho for rank_sqrt5 and a new
sampling seed for legendre_sweep; only seed-independent invariants are
checked then. landau_cbrt2 has no random input, so the seed does not
affect it.
"""

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())
DEFAULT_SEED = 0
REL_TOL = 1e-9
RESIDUAL_MAX = 1e-6

SQRT5 = {"min_poly": "-1,-1,1"}       # Q[x]/(x^2 - x - 1)
CBRT2 = {"min_poly": "-2,0,0,1"}      # Q[x]/(x^3 - 2)


@dataclass(frozen=True)
class Workload:
    name: str  # the "why" of each workload is in BENCHMARK.json
    items: int  # work items per CLI run, for throughput_per_s
    compute: tuple  # (module, name) of the first compute call after set-up
    argv: Callable  # (tmp_dir, seed) -> CLI arguments after "rankforge"
    check: Callable  # (returncode, stdout, seed) -> list of problems


def _write(tmp, name, obj):
    path = Path(tmp) / name
    path.write_text(json.dumps(obj))
    return str(path)


def _close(a, b, rel=REL_TOL):
    return math.isclose(a, b, rel_tol=rel)


def _key_values(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------- rank_sqrt5

def draw_rho(seed):
    """Six small nonzero elements a + b*theta of Q(sqrt 5), no two equal
    up to sign (so their squares are distinct), as CLI coordinate strings."""
    if seed == DEFAULT_SEED:
        return [str(i) for i in range(1, 7)]
    rng = random.Random(seed)
    pool = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    chosen = []
    while len(chosen) < 6:
        a, b = rng.choice(pool)
        if (a, b) not in chosen and (-a, -b) not in chosen:
            chosen.append((a, b))
    return [f"{a},{b}" for a, b in chosen]


def _rank_argv(tmp, seed):
    ref = REFERENCE["rank_sqrt5"]
    spec = {"field": SQRT5, "rho": draw_rho(seed), "alpha": "1"}
    return ["rank", "--family", _write(tmp, "family.json", spec),
            "--max-norm", str(ref["max_norm"])]


def check_rank(returncode, stdout, seed):
    ref = REFERENCE["rank_sqrt5"]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    lines = stdout.splitlines()
    if not lines or lines[-1] != "rank estimate: 6":
        problems.append(f"verdict line is {lines[-1] if lines else None!r}")
    try:
        kv = {k: float(v) for k, v in _key_values(stdout).items()}
        theta, residual = kv["theta_good"], kv["residual"]
    except (KeyError, ValueError):
        return problems + ["partial_sum/theta_good/residual missing"]
    # the residual is float noise by construction: bound it, never pin it
    if not abs(residual) < RESIDUAL_MAX:
        problems.append(f"|residual| = {abs(residual)} >= {RESIDUAL_MAX}")
    if seed == DEFAULT_SEED:
        for key in ("partial_sum", "theta_good"):
            if not _close(kv.get(key, math.nan), ref[key]):
                problems.append(f"{key} = {kv.get(key)}, reference {ref[key]}")
    elif not 0 < theta <= ref["theta_all"] * (1 + REL_TOL):
        problems.append(f"theta_good = {theta} outside (0, {ref['theta_all']}]")
    return problems


# -------------------------------------------------------------- landau_cbrt2

def _landau_argv(tmp, seed):
    return ["landau", "--field", _write(tmp, "field.json", CBRT2),
            "--max-norm", str(REFERENCE["landau_cbrt2"]["max_norm"])]


def check_landau(returncode, stdout, seed):
    ref = REFERENCE["landau_cbrt2"]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    kv = _key_values(stdout)
    try:
        count = int(kv["count"])
        ratio = float(kv["ratio"])
    except (KeyError, ValueError):
        return problems + ["count/ratio missing"]
    if count != ref["count"]:
        problems.append(f"count = {count}, reference {ref['count']}")
    if not 0.95 <= ratio <= 1.05:
        problems.append(f"ratio = {ratio} outside [0.95, 1.05]")
    if not _close(ratio, ref["ratio"]):
        problems.append(f"ratio = {ratio}, reference {ref['ratio']}")
    return problems


# ------------------------------------------------------------ legendre_sweep

def _legendre_argv(tmp, seed):
    ref = REFERENCE["legendre_sweep"]
    argv = ["legendre", "verify", "--max-q", str(ref["max_q"]),
            "--exhaustive-max-q", str(ref["exhaustive_max_q"])]
    if seed != DEFAULT_SEED:
        argv += ["--seed", str(seed)]
    return argv


def legendre_rows(stdout):
    return list(csv.DictReader(io.StringIO(stdout)))


def check_legendre(returncode, stdout, seed):
    expected = REFERENCE["legendre_sweep"]["checked"]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        rows = legendre_rows(stdout)
        checked = {row["q"]: int(row["checked"]) for row in rows}
        statuses = [row["status"] for row in rows]
    except (KeyError, ValueError, csv.Error):
        return problems + ["malformed CSV"]
    failing = len(statuses) - statuses.count("pass")
    if failing:
        problems.append(f"{failing} rows are not 'pass'")
    if checked != expected:
        diff = sorted(set(checked.items()) ^ set(expected.items()))
        problems.append(f"checked counts differ from reference: {diff[:4]}")
    return problems


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rank_sqrt5",
        items=REFERENCE["rank_sqrt5"]["ideals"],
        compute=("nagao", "rank_estimate"),
        argv=_rank_argv, check=check_rank),
    Workload(
        name="landau_cbrt2",
        items=REFERENCE["landau_cbrt2"]["count"],
        compute=("cli", "landau_sum"),
        argv=_landau_argv, check=check_landau),
    Workload(
        name="legendre_sweep",
        items=REFERENCE["legendre_sweep"]["triples"],
        compute=("legendre", "verify_quad_sums"),
        argv=_legendre_argv, check=check_legendre),
)}
