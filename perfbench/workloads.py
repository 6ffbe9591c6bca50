"""Seeded inputs, operations and correctness rules of the three workloads.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the seed; the
program never sees anything but the generated arguments.

``suite``       one pass of the identity battery at run_suite()'s K, M and
                J_max, with (z, t), n and the probe points drawn from the seed.
``evaluators``  one call to bessel_j, neumann, hankel or k_bessel at a fresh
                point of the advertised domain.
``pairs``       one bilinear_check(bessel_pair(), z, t, N) with N in [10, 40],
                interleaved with single z_function / a_function calls.

Draws are stratified (each block of draws covers every stratum once), so the
mix of cheap, expensive and failing calls is nearly the same for every seed.
"""

from __future__ import annotations

import json
import math
import random

from besselmap import identities, sonine, specfun

# An operation may end in one of these documented domain errors; the
# benchmark counts them (ok_ratio) instead of treating them as a crash.
DOMAIN_ERRORS = (ValueError, ArithmeticError)

# A value is within its stated error when |value - reference| is at most
# err_estimate + ERR_FLOOR * |reference| (the floor is about 4.5 ulp).
ERR_FLOOR = 1e-15

MAX_ORDER = 10
ARG_RANGE = (1e-2, 20.0)


class _Strata:
    """Uniform draws on [0, 1) that visit each of k strata once per k draws."""

    def __init__(self, rng: random.Random, k: int) -> None:
        self.rng = rng
        self.k = k
        self.queue: list[int] = []

    def draw(self) -> float:
        if not self.queue:
            self.queue = list(range(self.k))
            self.rng.shuffle(self.queue)
        return (self.queue.pop() + self.rng.random()) / self.k


class _Cycle:
    """Draws from a fixed list that visit every item once per len(items) draws."""

    def __init__(self, rng: random.Random, items) -> None:
        self.rng = rng
        self.items = list(items)
        self.queue: list = []

    def draw(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

# Verdicts of the cold `besselmap --format json suite` report, in output order.
SEED_SUITE_VERDICTS = [
    ("EQ11_SUM", "pass"), ("EQ11_SUM", "pass"), ("EQ11_SUM", "pass"),
    ("EQ14_KERNEL", "pass"),
    ("EQ15_ORDER_J", "fail"), ("EQ15_ORDER_J", "fail"), ("EQ15_ORDER_J", "fail"), ("EQ15_ORDER_J", "fail"),
    ("EQ17_SHIFT", "fail"), ("EQ17_SHIFT", "fail"),
    ("EQ18_ORDER_J", "fail"), ("EQ18_ORDER_J", "fail"),
    ("EQ2_ROUNDTRIP", "pass"),
    ("EQ3P_ORDER_J", "fail"), ("EQ3P_ORDER_J", "fail"), ("EQ3P_ORDER_J", "fail"),
    ("EQ3_CLOSURE", "pass"),
    ("EQ9_REAL", "pass"), ("EQ9_REAL", "pass"), ("EQ9_REAL", "pass"),
]
SEED_SUITE_SHA256 = "8aff7984a3f77ad140861184e41b5bd26b4c9363569d6dd582dbe43681d91106"

# Reports that must pass on every seeded pass: the definitional guards and
# the bilinear sums, whose (z, t) are drawn inside 0 <= z < t.
MUST_PASS = {"EQ2_ROUNDTRIP", "EQ3_CLOSURE", "EQ14_KERNEL", "EQ11_SUM", "EQ9_REAL"}


def suite_specs(rng: random.Random):
    """One dict of checker arguments per pass, shaped like run_suite()."""
    t_strata = _Strata(rng, 8)
    n_cycle = _Cycle(rng, (0, 1, 2))
    while True:
        zt = []
        for _ in range(3):
            t = _log_uniform(t_strata.draw(), 0.5, 6.0)
            zt.append((rng.uniform(0.0, 0.9) * t, t))
        yield {
            "zt": zt,
            # three slots as in run_suite: the first two feed every operator
            # check, the third only EQ3P
            "n": [n_cycle.draw(), n_cycle.draw(), n_cycle.draw()],
            "probes": tuple(sorted(_log_uniform(rng.random(), 0.3, 3.0) for _ in range(3))),
            "shift_t": rng.uniform(0.5, 2.0),
            "eq2_nus": tuple(rng.randint(0, 3) + rng.uniform(0.1, 0.9) for _ in range(4)),
            "eq2_zs": tuple(_log_uniform(rng.random(), 0.2, 4.0) for _ in range(3)),
            "eq3_nus": (rng.uniform(0.1, 2.9), float(rng.randint(0, 3)), rng.uniform(0.1, 2.9)),
            "eq3_zs": tuple(_log_uniform(rng.random(), 0.2, 4.0) for _ in range(3)),
            "eq14_seed": rng.randrange(2**31),
        }


def run_suite_pass(p: dict) -> list:
    """Every checker run_suite() calls, at its K, M and J_max, on seeded inputs."""
    ids = identities
    reports = []
    for z, t in p["zt"]:
        reports.append(ids.check_eq11(z, t))
        reports.append(ids.check_eq9_real(z, t))
    for n in p["n"]:
        reports.append(ids.check_eq3prime_order(n, 1))
    probes = p["probes"]
    for n in p["n"][:2]:
        reports.append(ids.check_eq15_order(n, 1, probes=probes))
        reports.append(ids.check_eq15_order(n, 2, K=24, M=8, probes=probes))
        reports.append(ids.check_eq18_order(1, n, 1, probes=probes))
        reports.append(ids.check_integer_shift(n, t=p["shift_t"]))
    reports.append(ids.check_eq2_roundtrip(p["eq2_nus"], p["eq2_zs"]))
    reports.append(ids.check_eq3_closure(p["eq3_nus"], p["eq3_zs"]))
    reports.append(ids.check_eq14_kernel(seed=p["eq14_seed"]))
    return reports


def check_suite_pass(reports) -> tuple[bool, int, int]:
    """(every must-pass report passed, reports within tolerance, reports)."""
    ok = len(reports) == 20 and all(r.verdict == "pass" for r in reports if r.identity_id in MUST_PASS)
    within = sum(1 for r in reports if r.residual <= r.tolerance)
    return ok, within, len(reports)


def check_cli_suite(stdout: bytes, code: int) -> bool:
    """The cold suite exits 1 with 20 reports carrying the seed's verdicts."""
    if code != 1:
        return False
    try:
        records = json.loads(stdout)
        got = [(r["identity_id"], r["verdict"]) for r in records]
    except (ValueError, KeyError, TypeError):
        return False
    return got == SEED_SUITE_VERDICTS


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

EVAL_FNS = ("J", "N", "H", "K")
ORDER_CLASSES = ("generic", "integer", "near-integer")


def evaluator_specs(rng: random.Random):
    """(fn, nu, x): the 12 (function, order class) combinations in turn.

    Orders: generic uniform in [-10, 10]; exact integers -10..10 (so +-10
    appear in 2 of every 21 integer draws); integers -10..10 moved inward by
    a log-uniform offset in [1e-9, 1e-4].  Arguments: log-uniform over
    [1e-2, 20].
    """
    combos = [(fn, cls) for cls in ORDER_CLASSES for fn in EVAL_FNS]
    x_strata = {c: _Strata(rng, 10) for c in combos}
    generic = {c: _Strata(rng, 10) for c in combos}
    integers = {c: _Cycle(rng, range(-MAX_ORDER, MAX_ORDER + 1)) for c in combos}
    offsets = {c: _Strata(rng, 5) for c in combos}
    while True:
        for combo in combos:
            fn, cls = combo
            if cls == "generic":
                nu = -MAX_ORDER + 2 * MAX_ORDER * generic[combo].draw()
            else:
                nu = float(integers[combo].draw())
                if cls == "near-integer":
                    delta = _log_uniform(offsets[combo].draw(), 1e-9, 1e-4)
                    if nu == MAX_ORDER or (nu != -MAX_ORDER and rng.random() < 0.5):
                        delta = -delta
                    nu += delta
            x = _log_uniform(x_strata[combo].draw(), *ARG_RANGE)
            if fn == "H":
                fn = "H1" if rng.random() < 0.5 else "H2"
            yield (fn, nu, x)


def run_evaluator(spec):
    fn, nu, x = spec
    if fn == "J":
        return specfun.bessel_j(nu, x)
    if fn == "N":
        return specfun.neumann(nu, x)
    if fn == "K":
        return specfun.k_bessel(nu, x)
    return specfun.hankel(1 if fn == "H1" else 2, nu, x)


def evaluator_oracle_request(spec):
    fn, nu, x = spec
    return [{"N": "Y"}.get(fn, fn), nu, x]


def evaluator_cli_args(spec) -> list[str]:
    fn, nu, x = spec
    # "--order=<value>": argparse would read "-6.4e-09" on its own as an option
    return ["--format", "json", "eval", "--fn", fn, f"--order={nu!r}", f"--arg={x!r}"]


# ---------------------------------------------------------------------------
# pairs
# ---------------------------------------------------------------------------


def pair_specs(rng: random.Random):
    """A bilinear check, then single Z, A and Z calls, in turn.

    The bilinear operation is a quarter of the operations, so op_p50_ms
    falls among the single calls and op_p90_ms among the bilinear checks.
    """
    n_cycle = _Cycle(rng, range(10, 41))
    t_strata = _Strata(rng, 8)
    single_n = _Cycle(rng, range(-MAX_ORDER, MAX_ORDER + 1))
    x_strata = _Strata(rng, 8)
    while True:
        t = _log_uniform(t_strata.draw(), 0.5, 4.0)
        yield ("S", rng.uniform(0.05, 0.9) * t, t, n_cycle.draw())
        for fn in ("Z", "A", "Z"):
            yield (fn, single_n.draw(), _log_uniform(x_strata.draw(), 0.1, 4.0))


def run_pair_op(spec):
    fn = spec[0]
    pair = sonine.bessel_pair()
    if fn == "S":
        _, z, t, n_max = spec
        return sonine.bilinear_check(pair, z, t, n_max)
    _, n, x = spec
    return (sonine.z_function if fn == "Z" else sonine.a_function)(pair, n, x)


def pair_oracle_request(spec):
    return list(spec)


def pair_cli_args(spec) -> list[str]:
    fn, n, x = spec
    return ["--format", "json", "eval", "--fn", fn, f"--order={n}", f"--arg={x!r}", "--pair", "bessel"]


# ---------------------------------------------------------------------------
# shared result handling
# ---------------------------------------------------------------------------


def value_and_bound(result) -> tuple[complex, float]:
    """The value an operation returned and the error bound it states."""
    if isinstance(result, dict):  # bilinear_check record
        return complex(result["value"]), float(result["noise_estimate"])
    return complex(result.value), float(result.err_estimate)


def well_formed(result) -> bool:
    """A returned value is finite and carries a finite, non-negative bound."""
    value, bound = value_and_bound(result)
    return math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(bound) and bound >= 0


def fingerprint(result) -> str:
    """Exact text form of a result, for bit-identity comparisons."""
    if isinstance(result, list):
        return json.dumps([r.to_record() for r in result], sort_keys=True)
    if isinstance(result, dict):
        return json.dumps(result, sort_keys=True)
    return repr((result.value, result.err_estimate, result.effort))


WORKLOADS = {
    "suite": {
        "specs": suite_specs,
        "run": run_suite_pass,
        "block": 8,
        "warmup_ops": 2,
        "refs": 0,
    },
    "evaluators": {
        "specs": evaluator_specs,
        "run": run_evaluator,
        "block": 1200,
        "warmup_ops": 240,
        "refs": 1200,
        "oracle": evaluator_oracle_request,
        "cli_args": evaluator_cli_args,
    },
    "pairs": {
        "specs": pair_specs,
        "run": run_pair_op,
        "block": 64,
        "warmup_ops": 8,
        "refs": 744,  # 24 full cycles of the 31 values of N
        "oracle": pair_oracle_request,
        "cli_args": pair_cli_args,
    },
}


def streams(name: str, seed: int) -> dict:
    """Independent spec streams: warm-up, timed loop, traced loop, CLI calls."""
    make = WORKLOADS[name]["specs"]
    return {
        part: make(random.Random(f"besselmap-bench/{name}/{seed}/{part}"))
        for part in ("warmup", "timed", "traced", "cli")
    }


def take(stream, n: int) -> list:
    return [next(stream) for _ in range(n)]


def build_inputs(name: str, seed: int) -> tuple[list, list]:
    """What a run builds before it starts timing: warm-up specs and the first block."""
    s = streams(name, seed)
    w = WORKLOADS[name]
    return take(s["warmup"], w["warmup_ops"]), take(s["timed"], w["block"])
