"""Sigma operator: definitional behaviour, exponential truncation, bookkeeping."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from besselmap import (
    LogPowerSeries,
    ReliableOrderExhausted,
    apply_exp_sigma,
    apply_sigma,
    bessel_t_series,
    hankel_t_series,
    lambda_coefficients,
    reduced_j_series,
    sigmaop,
)
from besselmap.logseries import _TAGS


def const(K=8, tag="u-of-z"):
    """The constant 1; a series in u of z takes the plain variant, one in u of t the alternating."""
    return LogPowerSeries(tag, {(0, 0): 1.0}, K)


def test_config_validation():
    """Each entry point checks the numbers it takes, with one message per number."""
    s = const()
    window, order, lam = "shift_window must be >= 1", "exp_order must be >= 0", r"lam must lie in \[0, 1\]"
    with pytest.raises(ValueError, match=window):
        apply_sigma(s, 0)
    with pytest.raises(ValueError, match=window):
        lambda_coefficients(s, 0, 1)
    with pytest.raises(ValueError, match=order):
        lambda_coefficients(s, 1, -1)
    for call in (sigmaop.exp_sigma_partial_sums, apply_exp_sigma):
        with pytest.raises(ValueError, match=window):
            call(s, 0, 1, 0.5)
        with pytest.raises(ValueError, match=order):
            call(s, 1, -1, 0.5)
        with pytest.raises(ValueError, match=lam):
            call(s, 1, 1, 1.5)
    # the lam = 0 shortcut returns s only after M and J pass
    with pytest.raises(ValueError, match=window):
        apply_exp_sigma(s, 0, 1, 0.0)
    with pytest.raises(ValueError, match=order):
        apply_exp_sigma(s, 1, -1, 0.0)


def test_lambda_coefficients_guard_reliable_order():
    """Entry J of the ladder needs K_trunc - J*M >= 0; the partial sums are not guarded."""
    s = reduced_j_series(0, 16)
    with pytest.raises(ReliableOrderExhausted, match="K = 16 cannot support 2 Sigma applications at window M = 12"):
        lambda_coefficients(s, 12, 2)
    assert lambda_coefficients(s, 8, 2)[2].K_trunc == 0
    *_, last = sigmaop.exp_sigma_partial_sums(s, 12, 2, 1.0)
    assert last.K_trunc == -8


def test_map_for_tag_covers_every_variable():
    assert set(sigmaop.MAP_FOR_TAG) == set(_TAGS)
    assert sigmaop.MAP_FOR_TAG == {"u-of-z": ("z1", -1), "u-of-t": ("z2", 1)}


def test_plain_variant_on_constant_window_two():
    # derivative terms vanish on constants, leaving -sum u^m/(m*m!)
    out = apply_sigma(const(), 2)
    assert out.terms == {(1, 0): -1.0, (2, 0): -0.25}


def test_alternating_variant_on_constant_window_two():
    out = apply_sigma(const(tag="u-of-t"), 2)
    assert out.terms == {(1, 0): 1.0, (2, 0): -0.25}


def test_variants_differ_by_odd_term_signs():
    z1 = apply_sigma(const(), 3)
    z2 = apply_sigma(const(tag="u-of-t"), 3)
    for m in (1, 2, 3):
        c1, c2 = z1.coefficient(m, 0), z2.coefficient(m, 0)
        assert c1 == (-c2 if m % 2 else c2)


def test_sigma_linearity():
    s = reduced_j_series(0, 12)
    doubled = apply_sigma(s.scale(2.0), 4)
    reference = apply_sigma(s, 4).scale(2.0)
    assert doubled.compare(reference, doubled.K_trunc) == 0.0
    # Sigma is real: the images of t^n H^(1,2)_n = t^n (J_n +/- i N_n) recombine into
    # the image of t^n J_n exactly, the Hankel recombination of criterion 8
    for n in (0, 1):
        h1, h2 = (apply_sigma(hankel_t_series(kind, n, 16), 12) for kind in (1, 2))
        j = apply_sigma(bessel_t_series(n, 16), 12)
        assert (h1 + h2).scale(0.5).compare(j, j.K_trunc) == 0.0


def test_sigma_of_the_empty_series_is_empty():
    for tag in _TAGS:
        assert apply_sigma(LogPowerSeries(tag, {}, 5), 2) == LogPowerSeries(tag, {}, 3)


def test_sigma_reliable_order_drop():
    s = reduced_j_series(0, 12)
    out = apply_sigma(s, 5)
    assert out.K_trunc == 7
    assert all(k <= 7 for k, _ in out.terms)


def test_exp_sigma_lambda_zero_is_identity():
    for s in (reduced_j_series(1, 12), bessel_t_series(1, 12)):
        out = apply_exp_sigma(s, 6, 4, 0.0)
        assert out.compare(s, s.K_trunc) == 0.0
        assert out.K_trunc == s.K_trunc


def test_exp_sigma_first_order_is_definitional():
    lam = 0.35
    for s in (bessel_t_series(0, 12), reduced_j_series(0, 12)):
        sign = sigmaop.MAP_FOR_TAG[s.variable_tag][1]
        out = apply_exp_sigma(s, 3, 1, lam)
        expected = s.add(apply_sigma(s, 3).scale(sign / 1).scale(lam))
        assert out.compare(expected, expected.K_trunc) == 0.0


def test_lambda_coefficients_structure():
    M = 3
    for s in (bessel_t_series(0, 16), reduced_j_series(0, 16)):
        sign = sigmaop.MAP_FOR_TAG[s.variable_tag][1]
        entries = lambda_coefficients(s, M, 3)
        assert len(entries) == 4
        assert entries[0] is s
        assert entries[1].compare(apply_sigma(s, M).scale(sign), entries[1].K_trunc) == 0.0
        # Cauchy relation of the exponential: entry_j = sign * Sigma(entry_{j-1}) / j
        for j in (2, 3):
            expected = apply_sigma(entries[j - 1], M).scale(sign / j)
            assert entries[j].compare(expected, expected.K_trunc) == 0.0
            assert entries[j].K_trunc == s.K_trunc - j * M


def test_second_order_entry_hand_expansion():
    # variant z2, M = 1: Sigma(u^0) = u, Sigma(u) = -1 + u^2/2,
    # so the lam^2 entry is (1/2) Sigma(Sigma u^0) = -1/2 + u^2/4.
    s = const(K=8, tag="u-of-t")
    entries = lambda_coefficients(s, 1, 2)
    assert entries[2].terms == {(0, 0): -0.5, (2, 0): 0.25}


def test_sigma_log_structure_is_closed():
    # derivatives of log terms reach negative powers, but repeated Sigma
    # applications never raise the log degree of a j <= 1 seed: the only
    # j-raising rule needs a negative-power log term, and those never form
    # from non-negative-power seeds.
    s = LogPowerSeries("u-of-t", {(0, 1): 1.0, (2, 1): 0.5, (1, 0): 1.0}, 8)
    once = apply_sigma(s, 2)
    assert once.k_min < 0
    twice = apply_sigma(once, 2)
    assert twice.j_max <= 1
    assert all(j == 0 for k, j in twice.terms if k < 0)


def test_truncated_map_known_gap_is_stable():
    """The truncated exponential map does not reproduce the real-order
    reduced series: its first-order coefficient at u^0 converges (in the
    shift window M) to sum_m (-1)^(m+1)/(m m! 2^m) = 0.44384..., not to the
    order-derivative value gamma - log 2 = -0.11593.  Pin the measured
    plateau so any silent change in the operator shows up here."""
    s = reduced_j_series(0, 40)

    def u0_coeff(M):
        entry = lambda_coefficients(s, M, 1)[1]
        return entry.coefficient(0, 0).real

    plateau = u0_coeff(24)
    assert abs(u0_coeff(16) - plateau) < 1e-12  # already converged in M
    expected = sum((-1.0) ** (m + 1) / (m * math.factorial(m) * 2.0**m) for m in range(1, 40))
    assert plateau == pytest.approx(expected, abs=1e-12)
    assert abs(plateau - (0.5772156649015329 - math.log(2.0))) > 0.5


# ---------------------------------------------------------------------------
# apply_sigma against the definition built from the public calculus
# ---------------------------------------------------------------------------

_coefficient = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@st.composite
def _series_and_window(draw):
    K = draw(st.integers(0, 10))
    terms = draw(
        st.dictionaries(
            st.tuples(st.integers(-5, K), st.integers(0, 2)), _coefficient, min_size=1, max_size=14
        )
    )
    terms[(-1, draw(st.integers(0, 2)))] = draw(_coefficient)  # the u^-1 row raises log powers
    M = draw(st.integers(1, 6))
    return LogPowerSeries(draw(st.sampled_from(_TAGS)), terms, K), M


def _sigma_by_definition(s, M):
    """sum_m w(m)/m (d^m s - I^m s), truncated at K_trunc - M, one step at a time;
    w(m) is 1 for a series in u of z and (-1)^m for one in u of t."""
    out = LogPowerSeries(s.variable_tag, {}, s.K_trunc - M)
    for m in range(1, M + 1):
        w = (1.0 if s.variable_tag == "u-of-z" else (-1.0) ** m) / m
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
@given(_series_and_window())
def test_apply_sigma_matches_definition(case):
    s, M = case
    got = apply_sigma(s, M)
    want, scale = _sigma_by_definition(s, M)
    assert got.K_trunc == want.K_trunc == s.K_trunc - M
    assert got.compare(want, got.K_trunc) <= 1e-13 * scale
    assert got == want
