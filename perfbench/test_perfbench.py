"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import besselmap  # noqa: E402
from besselmap import cli, logseries  # noqa: E402

SAMPLES = {"suite": 1, "evaluators": 96, "pairs": 4}


def _outcomes(name: str, specs: list) -> list[str]:
    out = []
    for spec in specs:
        try:
            out.append(wl.fingerprint(wl.WORKLOADS[name]["run"](spec)))
        except wl.DOMAIN_ERRORS as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    first = wl.streams(name, 7)
    again = wl.streams(name, 7)
    other = wl.streams(name, 8)
    for part in first:
        a = wl.take(first[part], 50)
        assert a == wl.take(again[part], 50)
        assert a != wl.take(other[part], 50)
    assert repr(wl.build_inputs(name, 7)) == repr(wl.build_inputs(name, 7))


def test_evaluator_inputs_cover_the_advertised_domain():
    specs = wl.take(wl.streams("evaluators", 3)["timed"], 12 * 210)
    orders = [nu for _, nu, _ in specs]
    args = [x for _, _, x in specs]
    assert {fn for fn, _, _ in specs} == {"J", "N", "H1", "H2", "K"}
    assert -10.0 in orders and 10.0 in orders
    assert all(-10.0 <= nu <= 10.0 for nu in orders)
    assert all(1e-2 <= x <= 20.0 for x in args)
    assert any(1e-9 <= abs(nu - round(nu)) <= 1e-4 for nu in orders)
    assert len(set(specs)) == len(specs)  # no repeated points


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_results_are_bit_identical(name):
    specs = wl.take(wl.streams(name, 11)["timed"], SAMPLES[name])
    plain = _outcomes(name, specs)
    tracer = Tracer()
    with tracer:
        traced = []
        for spec in specs:
            traced.extend(_outcomes(name, [spec]))
            tracer.end_op()
    assert traced == plain
    assert tracer.ops == len(specs) and sum(tracer.calls.values()) > 0


@pytest.mark.parametrize(
    "name, spec",
    [("evaluators", ("N", -6.42946788796801e-09, 0.11038937277300545)), ("pairs", ("Z", -7, 0.25))],
)
def test_cli_arguments_keep_negative_orders(name, spec):
    args = cli.build_parser().parse_args(wl.WORKLOADS[name]["cli_args"](spec))
    assert (args.order, args.arg) == (spec[1], spec[2])


def _bound_objects() -> dict:
    mods = [m for n, m in sys.modules.items() if n == "besselmap" or n.startswith("besselmap.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snap.update({("LogPowerSeries", k): v for k, v in vars(logseries.LogPowerSeries).items()})
    return snap


def test_wrappers_restore_the_original_functions():
    before = _bound_objects()
    tracer = Tracer().install()
    try:
        during = _bound_objects()
        changed = {key for key in before if during[key] is not before[key]}
        # re-bound names are wrapped too, not only the defining module's
        assert ("besselmap.identities", "neumann") in changed
        assert ("besselmap", "bessel_j") in changed
        assert ("LogPowerSeries", "derivative") in changed
        assert ("besselmap.sonine", "bessel_pair") in changed
    finally:
        tracer.restore()
    after = _bound_objects()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_parent_time_is_self_plus_child_time():
    tracer = Tracer()
    leaf = tracer._spanned("leaf", lambda: sum(range(2000)))
    mid = tracer._spanned("mid", lambda: [leaf() for _ in range(3)])
    root = tracer._spanned("root", lambda: (mid(), leaf(), sum(range(5000))))
    root()
    spans = [list(s) for s in tracer.spans]
    tracer.end_op()
    assert [s[0] for s in spans] == ["root", "mid", "leaf", "leaf", "leaf", "leaf"]
    assert [s[3] for s in spans] == [-1, 0, 1, 1, 1, 0]
    dur = [end - start for _, start, end, _ in spans]
    children = lambda i: sum(d for s, d in zip(spans, dur) if s[3] == i)  # noqa: E731
    own = tracer.self_s
    assert own["root"] + children(0) == pytest.approx(dur[0], rel=1e-12)
    assert own["mid"] + children(1) == pytest.approx(dur[1], rel=1e-12)
    assert own["leaf"] == pytest.approx(tracer.total_s["leaf"], rel=1e-12)
    assert tracer.total_s["root"] == dur[0]
    # self times over the whole tree add up to the root's duration
    assert sum(own.values()) == pytest.approx(dur[0], rel=1e-9)
    assert tracer.kept == [{"op": 0, "spans": spans}]
    assert tracer.spans == []


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_short_run_prints_a_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "evaluators", "--seed", "1", "--seconds", "1"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END)
    assert last["correct"] is True and last["failed"] == 0


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_besselmap_is_imported_from_this_checkout():
    assert Path(besselmap.__file__).resolve().is_relative_to(HERE.parent / "src")
