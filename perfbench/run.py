#!/usr/bin/env python3
"""The besselmap benchmark.

    python3 perfbench/run.py --workload suite|evaluators|pairs|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One
process, one worker thread, closed loop with one caller.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` alternates untraced and
traced slices and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for the workloads, the metrics and what each
per-layer metric is expected to move.
"""

from __future__ import annotations

import os

# one worker thread, also inside numpy's linear algebra
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "besselmap" / "__init__.py").is_file():
    sys.exit(f"error: no besselmap sources under {SRC}")
sys.path.insert(0, str(SRC))

import besselmap  # noqa: E402
from besselmap import cli  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

_perf = time.perf_counter

# A run is split into rounds of two set-up processes, two cold CLI processes
# and an equal slice of the timed loop, so that every metric samples the
# same stretch of time; on a shared host single-thread speed can swing by
# tens of percent over a few seconds.
ROUNDS = 6
PROCESSES_PER_ROUND = 2
CLI_LAYER_RUNS = 3
IDENTITY_CHECKS = 20  # traced results re-run untraced and compared bit for bit
CHILD_TIMEOUT = 120

# name -> (unit, better); the same list, with bounds, is in BENCHMARK.json
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "within_err_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cli_cold_s": ("s", "lower"),
}

_COUNTED = [
    "sigmaop.apply_sigma",
    "logseries.derivative",
    "logseries.antiderivative",
    "logseries.add",
    "logseries.evaluate",
    "specfun.bessel_j",
    "specfun.neumann",
    "specfun.k_bessel",
    "specfun.log_reduced_j",
    "specfun.neumann_scaled_table",
    "specfun.lambda_taylor_target",
    "sonine.z_function",
    "sonine.a_function",
]
_SERIES_BUILDERS = [
    "specfun.reduced_j_series",
    "specfun.bessel_t_series",
    "specfun.neumann_t_series",
    "specfun.hankel_t_series",
]
_CHECKERS = [
    "check_eq11",
    "check_eq9_real",
    "check_eq3prime_order",
    "check_eq15_order",
    "check_eq18_order",
    "check_integer_shift",
    "check_eq2_roundtrip",
    "check_eq3_closure",
    "check_eq14_kernel",
]


def _per_layer_units() -> dict:
    units = {}
    for name in _COUNTED:
        units[f"{name}.calls"] = ("count/op", "lower")
        units[f"{name}.self_ms"] = ("ms/op", "lower")
    for name in ("specfun.bessel_j", "specfun.neumann", "specfun.k_bessel"):
        units[f"{name}.effort"] = ("count/call", "lower")
    for name in ("sonine.z_function", "sonine.a_function"):
        units[f"{name}.nodes"] = ("count/call", "lower")
    units.update(
        {
            "sigmaop.lambda_coefficients.calls": ("count/op", "lower"),
            "sigmaop.apply_exp_sigma.calls": ("count/op", "lower"),
            "sigmaop.useful_ratio": ("ratio", "higher"),
            "logseries.constructed": ("count/op", "lower"),
            "specfun.neumann.integer_share": ("ratio", "lower"),
            "specfun.series_build.self_ms": ("ms/op", "lower"),
            "sonine.omega_calls": ("count/op", "lower"),
            "sonine.bilinear_check.self_ms": ("ms/op", "lower"),
        }
    )
    for checker in _CHECKERS:
        units[f"identities.{checker}.self_ms"] = ("ms/op", "lower")
    units.update(
        {
            "cli.import_besselmap_ms": ("ms", "lower"),
            "cli.import_numpy_ms": ("ms", "lower"),
            "cli.main.self_ms": ("ms", "lower"),
            "cli.stdout_bytes": ("bytes", "lower"),
            "trace.overhead_ratio": ("ratio", "lower"),
            "trace.traced_ops_per_s": ("1/s", "higher"),
        }
    )
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def _timed_child(args: list[str], stdin: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = _perf()
    proc = subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        env=_child_env(),
        timeout=CHILD_TIMEOUT,
        text=stdin is not None,
    )
    return _perf() - t0, proc


_SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build_inputs(sys.argv[3], int(sys.argv[4]))"
)


def setup_once(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing besselmap and building the inputs."""
    dt, proc = _timed_child(["-c", _SETUP_SNIPPET, str(HERE), str(SRC), name, str(seed)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]!r}")
    return dt


def references(requests: list) -> list:
    """mpmath references, from perfbench/oracle.py in its own process."""
    if not requests:
        return []
    _, proc = _timed_child([str(HERE / "oracle.py")], stdin=json.dumps(requests))
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def cli_argv(name: str, spec) -> list[str]:
    if name == "suite":
        return ["--format", "json", "suite"]
    return wl.WORKLOADS[name]["cli_args"](spec)


def cli_specs(name: str, streams: dict, n: int) -> list:
    """Seeded inputs of the cold CLI processes (single evaluations; none for suite)."""
    if name == "suite":
        return [None] * n
    return [s for s in wl.take(streams["cli"], 4 * n) if s[0] != "S"][:n]


def cli_once(name: str, spec) -> tuple[float, bool, str]:
    """Wall time of one cold `besselmap` process, whether its output is right,
    and the sha256 of its standard output."""
    dt, proc = _timed_child(["-m", "besselmap.cli", *cli_argv(name, spec)])
    digest = hashlib.sha256(proc.stdout).hexdigest()
    if name == "suite":
        return dt, wl.check_cli_suite(proc.stdout, proc.returncode), digest
    try:
        expected = wl.WORKLOADS[name]["run"](spec)
    except wl.DOMAIN_ERRORS:
        return dt, proc.returncode == 2 and proc.stderr.startswith(b"error:"), digest
    value = complex(expected.value)
    try:
        rec = json.loads(proc.stdout) if proc.returncode == 0 else {}
    except ValueError:
        rec = {}
    got = (rec.get("value_re"), rec.get("value_im"), rec.get("err_estimate"), rec.get("effort"))
    return dt, got == (value.real, value.imag, expected.err_estimate, expected.effort), digest


def import_times() -> tuple[float, float]:
    """Cumulative import time of besselmap and of numpy, in ms, from -X importtime."""
    got: dict[str, list[float]] = {"besselmap": [], "numpy": []}
    for _ in range(CLI_LAYER_RUNS):
        _, proc = _timed_child(["-X", "importtime", "-c", "import besselmap"])
        for line in proc.stderr.decode().splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in got:
                got[parts[2]].append(float(parts[1]) / 1e3)
    return statistics.median(got["besselmap"]), statistics.median(got["numpy"])


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class LoopResult:
    def __init__(self) -> None:
        self.latency = array("d")  # seconds per operation; inf when it raised
        self.kept: list[tuple] = []  # (spec, result or exception) of the first operations
        self.raised: Counter = Counter()  # documented domain errors, by function
        self.rejected: list[str] = []  # outcomes the benchmark counts as failed
        self.crashed = 0  # exceptions other than the documented domain errors
        self.within = 0  # suite: reports within tolerance
        self.reports = 0
        self.elapsed = 0.0
        self.pending: list = []  # specs of a block that a slice ended in
        self.slice_ends: list[int] = []  # number of operations when each slice ended

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def returned(self) -> int:
        return self.attempted - sum(self.raised.values()) - self.crashed

    def _slices(self) -> list:
        return [self.latency[a:b] for a, b in zip([0, *self.slice_ends], self.slice_ends)]

    def percentile_ms(self, q: float) -> float:
        """Mean over the slices of each slice's nearest-rank percentile.

        A failed operation misses every limit (inf).  Taking the percentile
        per slice keeps a run-wide percentile from jumping between the
        levels of a host that alternates between fast and slow phases.
        """
        values = []
        for lat in self._slices():
            ordered = sorted(lat)
            values.append(ordered[max(0, math.ceil(q * len(ordered)) - 1)] * 1e3)
        return statistics.fmean(values)

    def beyond(self, q: float) -> int:
        """Operations beyond the q-th percentile of their slice, over all slices."""
        return sum(len(lat) - math.ceil(q * len(lat)) for lat in self._slices())


def closed_loop(
    name: str, stream, seconds: float, out: LoopResult, keep: int = 0, tracer: Tracer | None = None
) -> LoopResult:
    """Run operations one after another for `seconds` more, adding to `out`."""
    w = wl.WORKLOADS[name]
    run, block = w["run"], w["block"]
    is_suite = name == "suite"
    budget = out.elapsed + seconds
    done = False
    while not done:
        specs = out.pending or wl.take(stream, block)  # built outside the measured time
        out.pending = []
        start = _perf()
        for i, spec in enumerate(specs):
            t0 = _perf()
            try:
                result = run(spec)
                t1 = _perf()
            except wl.DOMAIN_ERRORS as exc:
                t1 = _perf()
                result = exc
                out.raised[spec[0] if isinstance(spec, tuple) else "pass"] += 1
                if is_suite:
                    out.rejected.append(f"checker raised {exc!r}")
            except Exception as exc:  # a crash is recorded and marks the run incorrect
                t1 = _perf()
                result = exc
                out.crashed += 1
                out.rejected.append(f"crash on {spec!r}: {exc!r}")
            if tracer is not None:
                tracer.end_op()
            if isinstance(result, BaseException):
                out.latency.append(math.inf)
            else:
                out.latency.append(t1 - t0)
                if is_suite:
                    passed, within, total = wl.check_suite_pass(result)
                    out.within += within
                    out.reports += total
                    if not passed:
                        out.rejected.append(f"a must-pass identity failed for {spec!r}")
                elif not wl.well_formed(result):
                    out.rejected.append(f"non-finite value or bound for {spec!r}")
            if len(out.kept) < keep:
                out.kept.append((spec, result))
            if t1 - start + out.elapsed >= budget:
                out.pending = specs[i + 1 :]
                done = True
                break
        out.elapsed += _perf() - start
    out.slice_ends.append(len(out.latency))
    return out


def _abs(re: Decimal, im: Decimal) -> Decimal:
    return (re * re + im * im).sqrt()


def within_error(kept: list, refs: list) -> tuple[int, int]:
    """(results within err_estimate + ERR_FLOOR*|ref| of the reference, results)."""
    within = total = 0
    with localcontext() as ctx:
        ctx.prec = 40
        for (spec, result), (ref_re, ref_im) in zip(kept, refs):
            if isinstance(result, BaseException):
                continue
            value, bound = wl.value_and_bound(result)
            rr, ri = Decimal(ref_re), Decimal(ref_im)
            err = _abs(Decimal(value.real) - rr, Decimal(value.imag) - ri)
            total += 1
            if err <= Decimal(bound) + Decimal(wl.ERR_FLOOR) * _abs(rr, ri):
                within += 1
    return within, total


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def warm_up(name: str, streams: dict) -> None:
    w = wl.WORKLOADS[name]
    for spec in wl.take(streams["warmup"], w["warmup_ops"]):
        try:
            w["run"](spec)
        except wl.DOMAIN_ERRORS:
            pass


def measure(name: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """End-to-end metrics of one untraced run."""
    w = wl.WORKLOADS[name]
    streams = wl.streams(name, seed)
    # the first `refs` timed operations get mpmath references before timing starts
    first = wl.take(streams["timed"], w["refs"])
    refs = references([w["oracle"](s) for s in first]) if first else []
    timed = itertools.chain(first, streams["timed"])
    warm_up(name, streams)
    loop = LoopResult()
    setup_times, cli_times, digests = [], [], set()
    cli_ok = True
    specs = cli_specs(name, streams, ROUNDS * PROCESSES_PER_ROUND)
    for r in range(ROUNDS):
        for spec in specs[r * PROCESSES_PER_ROUND : (r + 1) * PROCESSES_PER_ROUND]:
            setup_times.append(setup_once(name, seed))
            dt, ok, digest = cli_once(name, spec)
            cli_times.append(dt)
            cli_ok = cli_ok and ok
            digests.add(digest)
        closed_loop(name, timed, seconds / ROUNDS, loop, keep=len(first))
    notes = []
    if name == "suite":
        digest = sorted(digests)[0]
        same = "same as" if digest == wl.SEED_SUITE_SHA256 else "differs from"
        notes.append(f"cold suite stdout sha256 {digest} ({same} the seed commit)")
        cli_ok = cli_ok and len(digests) == 1

    if name == "suite":
        within, total = loop.within, loop.reports
    else:
        within, total = within_error(loop.kept, refs)
    p90_beyond = loop.beyond(0.9)
    metrics = {
        "ops_per_s": loop.returned / loop.elapsed,
        "op_p50_ms": loop.percentile_ms(0.5),
        "op_p90_ms": loop.percentile_ms(0.9),
        "ok_ratio": loop.returned / loop.attempted,
        "within_err_ratio": within / total if total else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_cold_s": statistics.median(cli_times),
    }
    problems = list(loop.rejected[:10])
    if not cli_ok:
        problems.append("cold CLI output is wrong")
    if p90_beyond < 10:
        problems.append(f"only {p90_beyond} samples beyond p90; the run is too short")
    if not all(math.isfinite(v) for v in metrics.values()):
        problems.append("a metric is not finite (more than 10% of operations raised?)")
    info = {
        "attempted": loop.attempted,
        "failed": len(loop.rejected),
        "raised": dict(loop.raised),
        "within": f"{within}/{total}",
        "p90_beyond": p90_beyond,
        "notes": notes,
    }
    return metrics, info, problems


def _cli_layer(name: str, streams: dict) -> dict:
    """cli.main self time (serialization and parsing) and output size, in process."""
    argv = cli_argv(name, cli_specs(name, streams, 1)[0])
    tracer = Tracer()
    selfs, size = [], 0
    with tracer:
        for _ in range(CLI_LAYER_RUNS):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            tracer.end_op()
            size = len(buf.getvalue().encode())
            selfs.append(tracer.self_s["cli.main"])
            tracer.self_s["cli.main"] = 0.0
    imp_b, imp_np = import_times()
    return {
        "cli.import_besselmap_ms": imp_b,
        "cli.import_numpy_ms": imp_np,
        "cli.main.self_ms": statistics.median(selfs) * 1e3,
        "cli.stdout_bytes": float(size),
    }


def measure_traced(name: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics: half the time untraced, half traced, in alternating slices."""
    streams = wl.streams(name, seed)
    warm_up(name, streams)
    plain, traced = LoopResult(), LoopResult()
    tracer = Tracer()
    for _ in range(ROUNDS):
        closed_loop(name, streams["timed"], seconds / (2 * ROUNDS), plain)
        with tracer:
            closed_loop(name, streams["traced"], seconds / (2 * ROUNDS), traced, IDENTITY_CHECKS, tracer)
    problems = plain.rejected[:5] + traced.rejected[:5]
    run = wl.WORKLOADS[name]["run"]
    for spec, result in traced.kept:
        try:
            again = run(spec)
        except wl.DOMAIN_ERRORS as exc:
            again = exc
        if isinstance(result, BaseException) or isinstance(again, BaseException):
            same = type(result) is type(again) and str(result) == str(again)
        else:
            same = wl.fingerprint(result) == wl.fingerprint(again)
        if not same:
            problems.append(f"traced result differs from untraced for {spec!r}")

    ops = max(tracer.ops, 1)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m: dict[str, float] = {}
    for span in _COUNTED:
        m[f"{span}.calls"] = calls[span] / ops
        m[f"{span}.self_ms"] = self_s[span] * 1e3 / ops
    for span in ("specfun.bessel_j", "specfun.neumann", "specfun.k_bessel"):
        m[f"{span}.effort"] = counts[f"{span}.effort"] / calls[span] if calls[span] else 0.0
    for span in ("sonine.z_function", "sonine.a_function"):
        m[f"{span}.nodes"] = counts[f"{span}.effort"] / calls[span] if calls[span] else 0.0
    n_sigma = calls["sigmaop.apply_sigma"]
    n_neu = calls["specfun.neumann"]
    m.update(
        {
            "sigmaop.lambda_coefficients.calls": calls["sigmaop.lambda_coefficients"] / ops,
            "sigmaop.apply_exp_sigma.calls": calls["sigmaop.apply_exp_sigma"] / ops,
            "sigmaop.useful_ratio": counts["sigmaop.useful"] / n_sigma if n_sigma else 0.0,
            "logseries.constructed": counts["logseries.constructed"] / ops,
            "specfun.neumann.integer_share": counts["specfun.neumann.integer"] / n_neu if n_neu else 0.0,
            "specfun.series_build.self_ms": sum(self_s[s] for s in _SERIES_BUILDERS) * 1e3 / ops,
            "sonine.omega_calls": counts["sonine.omega_calls"] / ops,
            "sonine.bilinear_check.self_ms": self_s["sonine.bilinear_check"] * 1e3 / ops,
        }
    )
    for checker in _CHECKERS:
        m[f"identities.{checker}.self_ms"] = self_s[f"identities.{checker}"] * 1e3 / ops
    m.update(_cli_layer(name, streams))
    plain_rate = plain.returned / plain.elapsed
    traced_rate = traced.returned / traced.elapsed
    m["trace.overhead_ratio"] = plain_rate / traced_rate
    m["trace.traced_ops_per_s"] = traced_rate

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{name}-{seed}.json", "w") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "ops": tracer.ops,
                "spans": {k: {"calls": calls[k], "total_s": tracer.total_s[k], "self_s": self_s[k]} for k in sorted(calls)},
                "counts": dict(counts),
                "first_ops": tracer.kept,
            },
            fh,
        )
    info = {
        "attempted": plain.attempted + traced.attempted,
        "failed": len(plain.rejected) + len(traced.rejected),
        "raised": dict(plain.raised + traced.raised),
        "notes": [f"trace written to {(out_dir / f'trace-{name}-{seed}.json').relative_to(ROOT)}"],
    }
    return m, info, problems


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(name: str, metrics: dict, units: dict, info: dict, problems: list[str]) -> dict:
    print(f"== {name}: {info['attempted']} operations, {info['failed']} failed the benchmark's checks")
    for key, value in metrics.items():
        unit, better = units[key]
        print(f"  {key:40s} {value:14.6g} {unit:10s} ({better} is better)")
    if "ok_ratio" in metrics:
        # the complements of the two ratios, which can read 0
        print(f"  {'fail_ratio':40s} {1 - metrics['ok_ratio']:14.6g} ratio      (raised / attempted)")
        print(f"  {'err_miss_ratio':40s} {1 - metrics['within_err_ratio']:14.6g} ratio      (outside stated error)")
        print(f"  samples beyond p90, over {ROUNDS} slices: {info['p90_beyond']}; within stated error: {info['within']}")
    if info["raised"]:
        print(f"  domain errors raised, by function: {info['raised']}")
    for note in info["notes"]:
        print(f"  {note}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    print(f"  correct: {not problems}")
    return {
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not Path(besselmap.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: besselmap was imported from {besselmap.__file__}, not {SRC}")
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        if args.trace:
            metrics, info, problems = measure_traced(name, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, info, problems = measure(name, args.seed, args.seconds)
            units = END_TO_END
        results[name] = report(name, metrics, units, info, problems)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
