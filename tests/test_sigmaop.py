"""Sigma operator: definitional behaviour, exponential truncation, bookkeeping."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from besselmap import (
    LogPowerSeries,
    SigmaConfig,
    apply_exp_sigma,
    apply_sigma,
    kernel_identity_check,
    lambda_coefficients,
    reduced_j_series,
    sigmaop,
)


def const(K=8):
    return LogPowerSeries("u-of-z", {(0, 0): 1.0}, K)


def test_config_validation():
    with pytest.raises(ValueError):
        SigmaConfig(variant="bogus")
    with pytest.raises(ValueError):
        SigmaConfig(shift_window=0)
    with pytest.raises(ValueError):
        SigmaConfig(exp_order=-1)
    with pytest.raises(ValueError):
        SigmaConfig(lam=1.5)
    assert SigmaConfig(variant="Z2").variant == "z2"


def test_plain_variant_on_constant_window_two():
    # derivative terms vanish on constants, leaving -sum u^m/(m*m!)
    out = apply_sigma(const(), SigmaConfig("z1", shift_window=2))
    assert out.terms == {(1, 0): -1.0, (2, 0): -0.25}


def test_alternating_variant_on_constant_window_two():
    out = apply_sigma(const(), SigmaConfig("z2", shift_window=2))
    assert out.terms == {(1, 0): 1.0, (2, 0): -0.25}


def test_variants_differ_by_odd_term_signs():
    z1 = apply_sigma(const(), SigmaConfig("z1", shift_window=3))
    z2 = apply_sigma(const(), SigmaConfig("z2", shift_window=3))
    for m in (1, 2, 3):
        c1, c2 = z1.coefficient(m, 0), z2.coefficient(m, 0)
        assert c1 == (-c2 if m % 2 else c2)


def test_sigma_linearity():
    s = reduced_j_series(0, 12)
    cfg = SigmaConfig("z1", shift_window=4)
    doubled = apply_sigma(s.scale(2.0), cfg)
    reference = apply_sigma(s, cfg).scale(2.0)
    assert doubled.compare(reference, doubled.K_trunc) == 0.0


def test_sigma_reliable_order_drop():
    s = reduced_j_series(0, 12)
    out = apply_sigma(s, SigmaConfig("z1", shift_window=5))
    assert out.K_trunc == 7
    assert all(k <= 7 for k, _ in out.terms)


def test_exp_sigma_lambda_zero_is_identity():
    s = reduced_j_series(1, 12)
    for variant in ("z1", "z2"):
        out = apply_exp_sigma(s, SigmaConfig(variant, 6, 4, lam=0.0))
        assert out.compare(s, s.K_trunc) == 0.0
        assert out.K_trunc == s.K_trunc


def test_exp_sigma_first_order_is_definitional():
    s = reduced_j_series(0, 12)
    cfg = SigmaConfig("z2", shift_window=3, exp_order=1, lam=0.35)
    for sign in (1, -1):
        out = apply_exp_sigma(s, cfg, sign=sign)
        expected = s.add(apply_sigma(s, cfg).scale(sign / 1).scale(cfg.lam))
        assert out.compare(expected, expected.K_trunc) == 0.0


def test_lambda_coefficients_structure():
    s = reduced_j_series(0, 16)
    cfg = SigmaConfig("z1", shift_window=3, exp_order=3)
    for sign in (1, -1):
        entries = lambda_coefficients(s, cfg, sign=sign)
        assert len(entries) == 4
        assert entries[0] is s
        assert entries[1].compare(apply_sigma(s, cfg).scale(sign), entries[1].K_trunc) == 0.0
        # Cauchy relation of the exponential: entry_j = sign * Sigma(entry_{j-1}) / j
        for j in (2, 3):
            expected = apply_sigma(entries[j - 1], cfg).scale(sign / j)
            assert entries[j].compare(expected, expected.K_trunc) == 0.0
            assert entries[j].K_trunc == s.K_trunc - j * cfg.shift_window


def test_second_order_entry_hand_expansion():
    # variant z2, M = 1: Sigma(u^0) = u, Sigma(u) = -1 + u^2/2,
    # so the lam^2 entry is (1/2) Sigma(Sigma u^0) = -1/2 + u^2/4.
    s = const(K=8)
    entries = lambda_coefficients(s, SigmaConfig("z2", shift_window=1, exp_order=2), sign=1)
    assert entries[2].terms == {(0, 0): -0.5, (2, 0): 0.25}


def test_sigma_log_structure_is_closed():
    # derivatives of log terms reach negative powers, but repeated Sigma
    # applications never raise the log degree of a j <= 1 seed: the only
    # j-raising rule needs a negative-power log term, and those never form
    # from non-negative-power seeds.
    s = LogPowerSeries("u-of-t", {(0, 1): 1.0, (2, 1): 0.5, (1, 0): 1.0}, 8)
    once = apply_sigma(s, SigmaConfig("z2", shift_window=2))
    assert once.k_min < 0
    twice = apply_sigma(once, SigmaConfig("z2", shift_window=2))
    assert twice.j_max <= 1
    assert all(j == 0 for k, j in twice.terms if k < 0)


def test_invalid_sign():
    with pytest.raises(ValueError):
        lambda_coefficients(const(), SigmaConfig("z1", 2, 1), sign=0)


def test_kernel_identity_zero_residual():
    for z, t in ((0.5, 2.0), (1.0, 3.0), (2.7, 0.3)):
        assert kernel_identity_check(z, t) == 0.0


def test_kernel_identity_random_points_exact():
    rng = random.Random(99)
    for _ in range(50):
        z, t = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        if abs(t * t - z * z) < 1e-9:
            continue
        assert kernel_identity_check(z, t) == 0.0


def test_kernel_identity_singular():
    with pytest.raises(ValueError):
        kernel_identity_check(2.0, 2.0)
    with pytest.raises(ValueError):
        kernel_identity_check(2.0, -2.0)


def test_truncated_map_known_gap_is_stable():
    """The truncated exponential map does not reproduce the real-order
    reduced series: its first-order coefficient at u^0 converges (in the
    shift window M) to sum_m (-1)^(m+1)/(m m! 2^m) = 0.44384..., not to the
    order-derivative value gamma - log 2 = -0.11593.  Pin the measured
    plateau so any silent change in the operator shows up here."""
    s = reduced_j_series(0, 40)

    def u0_coeff(M):
        entry = lambda_coefficients(s, SigmaConfig("z1", M, 1), sign=-1)[1]
        return entry.coefficient(0, 0).real

    plateau = u0_coeff(24)
    assert abs(u0_coeff(16) - plateau) < 1e-12  # already converged in M
    expected = sum((-1.0) ** (m + 1) / (m * math.factorial(m) * 2.0**m) for m in range(1, 40))
    assert plateau == pytest.approx(expected, abs=1e-12)
    assert abs(plateau - (0.5772156649015329 - math.log(2.0))) > 0.5


# ---------------------------------------------------------------------------
# the cached matrix form against the definition
# ---------------------------------------------------------------------------

_coefficient = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _series_and_config(draw):
    K = draw(st.integers(0, 10))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(-5, K), st.integers(0, 2)), _coefficient, min_size=1, max_size=14
        )
    )
    terms[(-1, draw(st.integers(0, 2)))] = draw(_coefficient)  # the u^-1 row raises log powers
    cfg = SigmaConfig(draw(st.sampled_from(("z1", "z2"))), shift_window=draw(st.integers(1, 6)))
    return LogPowerSeries("u-of-t", terms, K), cfg


def _sigma_by_definition(s, cfg):
    """sum_m w(m)/m (d^m s - I^m s), truncated at K_trunc - M, one step at a time."""
    M = cfg.shift_window
    out = LogPowerSeries(s.variable_tag, {}, s.K_trunc - M)
    for m in range(1, M + 1):
        w = cfg.weight(m) / m
        out = out.add(s.derivative(m).scale(w)).add(s.antiderivative(m).scale(-w))
    scale = max(
        (
            abs(a) / m
            for m in range(1, M + 1)
            for x in (s.derivative(m), s.antiderivative(m))
            for a in x.terms.values()
        ),
        default=0.0,
    )
    return out, scale


@settings(max_examples=150, deadline=None)
@given(_series_and_config())
def test_apply_sigma_matches_definition(case):
    s, cfg = case
    got = apply_sigma(s, cfg)
    want, scale = _sigma_by_definition(s, cfg)
    assert got.K_trunc == want.K_trunc == s.K_trunc - cfg.shift_window
    assert got.compare(want, got.K_trunc) <= 1e-13 * scale


def test_sigma_matrix_cache_is_bounded():
    s = const()
    for K in range(sigmaop.SIGMA_CACHE_SIZE + 8):
        apply_sigma(LogPowerSeries("u-of-z", {(0, 0): 1.0}, K), SigmaConfig("z1", shift_window=1))
    info = sigmaop._sigma_matrix.cache_info()
    assert info.maxsize == sigmaop.SIGMA_CACHE_SIZE
    assert info.currsize <= info.maxsize
    # a hit returns the same read-only matrix and the same result
    first = apply_sigma(s, SigmaConfig("z2", shift_window=3))
    hits = sigmaop._sigma_matrix.cache_info().hits
    again = apply_sigma(s, SigmaConfig("z2", shift_window=3))
    assert sigmaop._sigma_matrix.cache_info().hits == hits + 1
    assert again == first
