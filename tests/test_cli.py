"""CLI behaviour: output correctness, formats, exit codes, determinism.

The tests call ``cli.main`` in process; one smoke test runs the module as a
fresh interpreter, as a user does.
"""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import besselmap
from besselmap import cli, identities, sigmaop, specfun


@pytest.fixture
def run_cli(capsys):
    """Run ``besselmap`` in process: (returncode, stdout, stderr), like a
    finished subprocess."""

    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return SimpleNamespace(returncode=code, stdout=out, stderr=err)

    return run


def run_cold(*args):
    """Run ``besselmap`` as a fresh interpreter on the package these tests imported."""
    src = os.path.dirname(os.path.dirname(besselmap.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "besselmap.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_eval_half_order_closed_form(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "J", "--order", "0.5", "--arg", "1.5707963")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["schema"] == 1
    assert payload["value_re"] == pytest.approx(2.0 / math.pi, abs=1e-6)
    assert payload["value_im"] == 0.0


def test_eval_text_output(run_cli):
    r = run_cli("eval", "--fn", "K", "--order", "0.5", "--arg", "1.0")
    assert r.returncode == 0
    assert "K(order=0.5, arg=1.0)" in r.stdout
    assert "0.4610685" in r.stdout


def test_eval_text_output_of_a_real_and_a_complex_value(run_cli):
    r = run_cli("eval", "--fn", "N", "--order", "2", "--arg", "1")
    assert r.returncode == 0
    assert r.stdout == "N(order=2.0, arg=1.0) = -1.650682607 (err<=2.97e-15, effort=12)\n"
    r = run_cli("eval", "--fn", "H1", "--order", "2", "--arg", "1")
    assert r.returncode == 0
    assert r.stdout == "H1(order=2.0, arg=1.0) = 0.1149034849-1.650682607i (err<=3.21e-15, effort=21)\n"


def test_series_text_output(run_cli):
    r = run_cli("series", "--family", "N", "--n", "0", "--K", "2")
    assert r.returncode == 0
    assert r.stdout == (
        "series N n=0 [u-of-t, K_trunc=2]\n"
        "  u^0: +0.146831305044\n"
        "  u^0*(log u)^1: +0.318309886184\n"
        "  u^1: +0.244894233662\n"
        "  u^1*(log u)^1: -0.159154943092\n"
        "  u^2: -0.0505061470942\n"
        "  u^2*(log u)^1: +0.0198943678865\n"
    )


def test_eval_overflow_at_tiny_z_names_the_order_and_argument(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "N", "--order", "1", "--arg", "1e-320")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: N_nu(z) at nu = 1.0, z = 1e-320 leaves the float range\n"


def test_eval_pair_functions_from_registry(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "Z", "--order", "0", "--arg", "1.0",
                "--pair", "bessel")
    payload = json.loads(r.stdout)
    assert payload["pair"] == "bessel"
    assert payload["value_re"] == pytest.approx(0.7651976865579666, abs=1e-12)
    r = run_cli("--format", "json", "eval", "--fn", "A", "--order", "1", "--arg", "2.0")
    assert json.loads(r.stdout)["value_re"] == pytest.approx(0.11389387274953343, rel=1e-9)


@pytest.mark.parametrize("fn", ["Z", "A"])
def test_eval_pair_functions_reject_a_non_integer_order(run_cli, fn):
    """Z_n and A_n take an integer index; a fractional --order is an error, not truncated."""
    r = run_cli("--format", "json", "eval", "--fn", fn, "--order", "2.5", "--arg", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: --fn {fn} takes an integer order; got 2.5\n"
    r = run_cli("--format", "json", "eval", "--fn", fn, "--order", "2", "--arg", "1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == 2.0


def test_series_json_has_leading_log_coefficient(run_cli):
    r = run_cli("--format", "json", "series", "--family", "N", "--n", "0", "--K", "12")
    payload = json.loads(r.stdout)
    lead = [t for t in payload["terms"] if t["k"] == 0 and t["j"] == 1]
    assert len(lead) == 1
    assert lead[0]["re"] == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_map_lambda_zero_echoes_series(run_cli):
    base = run_cli("--format", "json", "series", "--family", "N", "--n", "0", "--K", "12")
    mapped = run_cli(
        "--format", "json", "map", "--family", "N", "--n", "0", "--K", "12", "--lambda", "0"
    )
    assert mapped.returncode == 0
    assert json.loads(base.stdout)["terms"] == json.loads(mapped.stdout)["terms"]


def test_map_nonzero_lambda_reports_reliable_order(run_cli):
    r = run_cli(
        "--format", "json", "map", "--family", "reducedJ", "--n", "0", "--K", "16",
        "--lambda", "0.5", "--shift-window", "4", "--exp-order", "2",
    )
    payload = json.loads(r.stdout)
    assert payload["K_trunc"] == 16 - 2 * 4
    assert (payload["variant"], payload["sign"]) == ("z1", -1)


@pytest.mark.parametrize("family", specfun.FAMILIES)
def test_map_is_decided_by_the_series_variable(run_cli, family):
    """The map record is apply_exp_sigma on the family's series and names the
    (variant, sign) that the series' variable picks; neither can be chosen."""
    r = run_cli(
        "--format", "json", "map", "--family", family, "--n", "1", "--K", "16",
        "--lambda", "0.5", "--shift-window", "4", "--exp-order", "2",
    )
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    s = specfun.FAMILIES[family](1, 16)
    mapped = sigmaop.apply_exp_sigma(s, 4, 2, 0.5)
    assert {k: payload[k] for k in mapped.to_records()} == json.loads(json.dumps(mapped.to_records()))
    assert (payload["variant"], payload["sign"]) == sigmaop.MAP_FOR_TAG[s.variable_tag]
    for flag, value in (("--variant", "z1"), ("--sign", "-1")):
        assert run_cli("map", "--family", family, flag, value).returncode == 2


@pytest.mark.parametrize(
    "option,message",
    [
        (("--shift-window", "0"), "shift_window must be >= 1"),
        (("--exp-order", "-1"), "exp_order must be >= 0"),
        (("--lambda", "1.5"), "lam must lie in [0, 1]"),
    ],
)
def test_map_rejects_out_of_range_numbers(run_cli, option, message):
    r = run_cli("--format", "json", "map", "--family", "N", *option)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


def test_check_eq11_passes(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ11_SUM", "--z", "0.5", "--t", "2", "--N", "200")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "pass"
    assert payload["residual"] < 5e-3
    assert payload["tolerance"] == 5e-3


@pytest.mark.parametrize("identity_id", identities.CHECKERS)
def test_check_without_options_runs_the_checker_defaults(run_cli, identity_id):
    r = run_cli("--format", "json", "check", "--id", identity_id)
    record = identities.CHECKERS[identity_id]().to_record()
    assert r.stdout == json.dumps(record, sort_keys=True, indent=2) + "\n"


def test_check_forwards_only_the_options_set(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ17_SHIFT", "--n", "1", "--jmax-list", "2", "4")
    record = identities.check_integer_shift(1, J_max_list=(2, 4)).to_record()
    assert r.stdout == json.dumps(record, sort_keys=True, indent=2) + "\n"
    assert json.loads(r.stdout)["params"]["t"] == 1.0


def test_check_rejects_options_the_identity_does_not_take(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ2_ROUNDTRIP", "--K", "5", "--z", "3")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: EQ2_ROUNDTRIP does not take --K --z\n"


def test_check_rejects_probes_outside_the_protocol_range(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ18_ORDER_J", "--probes", "10")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: probes must lie in (0, 4]\n"


def test_check_rejects_a_shift_window_below_one(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ17_SHIFT", "--M", "0")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: shift_window must be >= 1\n"


def test_check_handled_overflow_writes_nothing_to_stderr():
    # EQ17's ladder overflows at J_max = 40; the checker reports inf without numpy warnings
    r = run_cold("--format", "json", "check", "--id", "EQ17_SHIFT", "--jmax-list", "2", "40")
    assert r.returncode == 1
    assert r.stderr == ""
    assert json.loads(r.stdout)["observed"] == [5.0850014149928566e26, math.inf]


def test_check_failing_identity_exits_one(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ3P_ORDER_J", "--n", "0", "--j", "1")
    assert r.returncode == 1
    assert json.loads(r.stdout)["verdict"] == "fail"


def test_suite_exit_matches_verdict_conjunction(run_cli):
    r = run_cli("--format", "json", "suite")
    payload = json.loads(r.stdout)
    all_pass = all(rec["verdict"] == "pass" for rec in payload)
    assert r.returncode == (0 if all_pass else 1)
    ids = {rec["identity_id"] for rec in payload}
    assert {"EQ11_SUM", "EQ9_REAL", "EQ3P_ORDER_J", "EQ15_ORDER_J", "EQ17_SHIFT"} <= ids


def test_suite_deterministic_bytes(run_cli):
    a = run_cli("--format", "json", "suite")
    b = run_cli("--format", "json", "suite")
    assert a.stdout == b.stdout


def test_csv_format(run_cli):
    r = run_cli("--format", "csv", "check", "--id", "EQ14_KERNEL")
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("identity_id,residual")
    assert lines[1].startswith("EQ14_KERNEL,")


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--fn", "J", "--order", "0.5", "--arg", "1"),
        ("series", "--family", "J"),
        ("map", "--family", "reducedJ"),
    ],
)
def test_csv_format_takes_only_reports(run_cli, args):
    r = run_cli("--format", "csv", *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert f"error: --format csv writes identity reports (check, suite); {args[0]} has none" in r.stderr


def _input_id(args):
    """A test id naming the input: ("--order", "nan", "--arg=1") reads order=nan-arg=1."""
    flat = [token for arg in args for token in arg.split("=", 1)]
    return "-".join(f"{flag.lstrip('-')}={value}" for flag, value in zip(flat[::2], flat[1::2]))


_EVAL_DOMAIN_ERRORS = [
    *[(("eval", "--fn", fn, "--order", "nan", "--arg", "1"), "|nu| = nan") for fn in ("J", "N", "H1", "H2", "K")],
    *[
        (("eval", "--fn", fn, "--order", "1", "--arg", "nan"), "t = nan" if fn == "K" else "|z| = nan")
        for fn in ("J", "N", "H1", "H2", "K", "Z")
    ],
    (("eval", "--fn", "Z", "--order", "nan", "--arg", "1"), "takes an integer order; got nan"),
    (("eval", "--fn", "A", "--order", "nan", "--arg", "1"), "takes an integer order; got nan"),
    (("eval", "--fn", "A", "--order", "1", "--arg", "nan"), "t = nan outside the supported range (0, 20.0]"),
    (("eval", "--fn", "Z", "--order", "1", "--arg", "50"), "|z| = 50.0 outside the supported range"),
    # A once printed "arg": Infinity, which is not JSON, with the value 0
    (("eval", "--fn", "A", "--order", "3", "--arg", "inf"), "t = inf outside the supported range (0, 20.0]"),
    (("eval", "--fn", "A", "--order", "3", "--arg", "25"), "t = 25.0 outside the supported range (0, 20.0]"),
    (("eval", "--fn", "A", "--order", "inf", "--arg", "2"), "takes an integer order; got inf"),
    (("eval", "--fn", "A", "--order=-inf", "--arg", "2"), "takes an integer order; got -inf"),
]


@pytest.mark.parametrize(
    "args, message",
    _EVAL_DOMAIN_ERRORS,
    ids=[f"{args[2]}-{_input_id(args[3:])}" for args, _ in _EVAL_DOMAIN_ERRORS],
)
def test_eval_nan_and_out_of_range_input_is_a_domain_error(run_cli, args, message):
    r = run_cli("--format", "json", *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and message in r.stderr


def test_output_file(run_cli, tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("--format", "json", "--output", str(out), "check", "--id", "EQ2_ROUNDTRIP")
    assert r.returncode == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_usage_error_exit_two(run_cli):
    r = run_cli("eval", "--fn", "J", "--order", "0.5")  # missing --arg
    assert r.returncode == 2
    r = run_cli("eval", "--fn", "BOGUS", "--order", "0.5", "--arg", "1.0")
    assert r.returncode == 2


def test_domain_error_exit_two(run_cli):
    r = run_cli("eval", "--fn", "K", "--order", "0.5", "--arg", "-1.0")
    assert r.returncode == 2
    assert "error:" in r.stderr
    r = run_cli("series", "--family", "reducedJ", "--n", "0", "--K", "99")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: c_k(n) at n = 0, k = 99:")
    r = run_cli("eval", "--fn", "A", "--order", "99", "--arg", "0.5")
    assert r.returncode == 2
    assert r.stderr == "error: A_99(0.5): Mho(x)^99 leaves the float range at a quadrature node\n"


_EXHAUSTED = (sigmaop.ReliableOrderExhausted, "K = 10 cannot support 1 Sigma applications at window M = 12")
_NEGATIVE_N = (ValueError, "n must be >= 0 (use the reflection N_{-n} = (-1)^n N_n)")
_NEGATIVE_Z = (ValueError, "z must be >= 0 and finite")


@pytest.mark.parametrize(
    "identity_id, kwargs, error",
    [
        ("EQ3P_ORDER_J", {"n": 0, "j": 1, "K": 10, "M": 12}, _EXHAUSTED),
        ("EQ15_ORDER_J", {"n": 0, "j": 1, "K": 10, "M": 12}, _EXHAUSTED),
        ("EQ18_ORDER_J", {"n": 0, "j": 1, "K": 10, "M": 12}, _EXHAUSTED),
        ("EQ17_SHIFT", {"n": -1}, _NEGATIVE_N),
        ("EQ11_SUM", {"z": -0.5, "t": 2.0}, _NEGATIVE_Z),
        ("EQ9_REAL", {"z": -0.5, "t": 2.0}, _NEGATIVE_Z),
        ("EQ11_SUM", {"z": math.nan}, _NEGATIVE_Z),
        ("EQ9_REAL", {"t": math.nan}, (ValueError, "t = nan outside the supported range (0, 20.0]")),
        ("EQ11_SUM", {"z": math.inf}, _NEGATIVE_Z),
        ("EQ9_REAL", {"z": math.inf}, _NEGATIVE_Z),
    ],
)
def test_checkers_raise_their_callees_guards(run_cli, identity_id, kwargs, error):
    """Each condition is guarded once, by the function that uses the value
    (``lambda_coefficients``, the series builders, ``log_reduced_j``), and
    raises the same exception through every checker and through ``check``."""
    exc_type, message = error
    with pytest.raises(exc_type) as info:
        identities.CHECKERS[identity_id](**kwargs)
    assert str(info.value) == message
    args = [a for key, value in kwargs.items() for a in (f"--{key}", str(value))]
    r = run_cli("check", "--id", identity_id, *args)
    assert r.returncode == 2
    assert r.stderr == f"error: {message}\n"


def test_check_infinite_z_is_an_error_not_nan_json(run_cli):
    # an infinite z once summed to NaN tokens, which are not valid JSON, and exited 0
    r = run_cli("--format", "json", "check", "--id", "EQ11_SUM", "--z", "inf")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == "error: z must be >= 0 and finite\n"


_BILINEAR_FLOAT_RANGE_ERRORS = [
    # z^2/2 overflows: the bracket once summed to NaN with a numpy warning
    (["--z", "1e300", "--t", "2"], "z = 1e+300 outside the supported range [0, 20.0]"),
    # the terms overflowed here, and the sums once read inf and NaN, with a numpy warning
    (["--z", "100", "--t", "2"], "z = 100.0 outside the supported range [0, 20.0]"),
    # inside z's range the terms still overflow: the sums would read inf and NaN
    (["--z", "20", "--t", "2"], "the bilinear terms at z = 20.0, t = 2.0, N = 200 leave the float range"),
    # t^2 underflows to 0: the target was once a bare division by zero
    (
        ["--z", "0", "--t", "1e-320"],
        "singular input: t^2 - z^2 = 0.0 at z = 0.0, t = 1e-320; the target (2/pi)/(t^2 - z^2) is not finite",
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("identity_id", ["EQ11_SUM", "EQ9_REAL"])
@pytest.mark.parametrize(
    "args, message",
    _BILINEAR_FLOAT_RANGE_ERRORS,
    ids=[_input_id(args) for args, _ in _BILINEAR_FLOAT_RANGE_ERRORS],
)
def test_check_bilinear_outside_the_float_range_is_an_error(run_cli, identity_id, args, message):
    r = run_cli("--format", "json", "check", "--id", identity_id, *args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: {message}\n"


@pytest.mark.parametrize(
    "identity_id, args",
    [
        ("EQ15_ORDER_J", ["--n", "10"]),
        ("EQ18_ORDER_J", ["--n", "10"]),
        ("EQ3P_ORDER_J", ["--n", "10", "--j", "2", "--K", "26"]),
    ],
)
def test_check_at_order_bound_prints_a_report(run_cli, identity_id, args):
    """At n = 10 the targets are columns of the order jet, which needs no order
    past n: the check prints its report and exits with its verdict."""
    r = run_cli("--format", "json", "check", "--id", identity_id, *args)
    assert r.returncode in (0, 1), r.stderr
    assert r.stderr == ""
    record = json.loads(r.stdout)
    assert record["identity_id"] == identity_id
    assert record["params"]["n"] == 10


def test_eval_negative_order_in_scientific_notation(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "N", "--order", "-6.4e-09", "--arg", "1")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["order"] == -6.4e-09
    assert payload["value_re"] == specfun.neumann(-6.4e-09, 1.0).value.real


def test_eval_negative_arg_in_scientific_notation(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "J", "--order", "1", "--arg", "-2.5E+00")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["arg"] == -2.5
    assert payload["value_re"] == -specfun.bessel_j(1.0, 2.5).value.real


def test_eval_attached_negative_order_still_accepted(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "N", "--order=-6.4e-09", "--arg=1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["order"] == -6.4e-09


def test_cold_process_suite_matches_in_process(run_cli):
    cold = run_cold("--format", "json", "suite")
    warm = run_cli("--format", "json", "suite")
    assert cold.returncode == warm.returncode == 1
    assert cold.stdout == warm.stdout
