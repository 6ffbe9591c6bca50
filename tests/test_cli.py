"""CLI behaviour: output correctness, formats, exit codes, determinism.

The tests call ``cli.main`` in process; one smoke test runs the module as a
fresh interpreter, as a user does.
"""

import json
import math
import subprocess
import sys
from types import SimpleNamespace

import pytest

from besselmap import cli, identities, specfun


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
    return subprocess.run(
        [sys.executable, "-m", "besselmap.cli", *args],
        capture_output=True,
        text=True,
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


def test_eval_pair_functions_from_registry(run_cli):
    r = run_cli("--format", "json", "eval", "--fn", "Z", "--order", "0", "--arg", "1.0",
                "--pair", "bessel")
    payload = json.loads(r.stdout)
    assert payload["pair"] == "bessel"
    assert payload["value_re"] == pytest.approx(0.7651976865579666, abs=1e-12)
    r = run_cli("--format", "json", "eval", "--fn", "A", "--order", "1", "--arg", "2.0")
    assert json.loads(r.stdout)["value_re"] == pytest.approx(0.11389387274953343, rel=1e-9)


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
        "--lambda", "0.5", "--shift-window", "4", "--exp-order", "2", "--sign", "-1",
    )
    payload = json.loads(r.stdout)
    assert payload["K_trunc"] == 16 - 2 * 4
    assert payload["variant"] == "z2"


def test_check_eq11_passes(run_cli):
    r = run_cli("--format", "json", "check", "--id", "EQ11_SUM", "--z", "0.5", "--t", "2", "--N", "200")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["verdict"] == "pass"
    assert payload["residual"] < 5e-3
    assert payload["tolerance"] == 5e-3


@pytest.mark.parametrize("identity_id", identities.IDENTITY_IDS)
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
