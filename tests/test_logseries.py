"""Log-power series calculus: rules, bookkeeping, round trips."""

import cmath
import math
import random

import pytest

from besselmap import LogPowerSeries, neumann_t_series


def S(terms, K=10, tag="u-of-z"):
    return LogPowerSeries(tag, terms, K)


# ---------------------------------------------------------------------------
# derivative / antiderivative rules
# ---------------------------------------------------------------------------


def test_derivative_power():
    assert S({(2, 0): 1.0}).derivative().terms == {(1, 0): 2.0}


def test_derivative_log():
    assert S({(0, 1): 1.0}).derivative().terms == {(-1, 0): 1.0}


def test_derivative_u_log_u():
    out = S({(1, 1): 1.0}).derivative()
    assert out.terms == {(0, 1): 1.0, (0, 0): 1.0}


def test_antiderivative_power():
    assert S({(1, 0): 1.0}).antiderivative().terms == {(2, 0): 0.5}


def test_antiderivative_inverse_power():
    assert S({(-1, 0): 1.0}).antiderivative().terms == {(0, 1): 1.0}


def test_antiderivative_log():
    out = S({(0, 1): 1.0}).antiderivative()
    assert out.terms == {(1, 1): 1.0, (1, 0): -1.0}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pure_power_m_fold_antiderivative(m):
    k = 4
    out = S({(k, 0): 1.0}).antiderivative(m)
    expected = math.factorial(k) / math.factorial(k + m)
    assert out.coefficient(k + m, 0) == pytest.approx(expected, rel=1e-15)
    assert len(out) == 1


def test_invalid_m():
    with pytest.raises(ValueError):
        S({(0, 0): 1.0}).derivative(0)
    with pytest.raises(ValueError):
        S({(0, 0): 1.0}).antiderivative(-1)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_constant():
    assert S({(0, 0): 1.0}).evaluate(3.0) == 1.0


def test_evaluate_u_plus_log_u_at_one():
    assert S({(1, 0): 1.0, (0, 1): 1.0}).evaluate(1.0) == 1.0


def test_evaluate_log_over_u_at_e():
    val = S({(-1, 1): 1.0}).evaluate(math.e)
    assert val.real == pytest.approx(math.exp(-1), rel=1e-15)
    assert val.imag == 0.0


def test_evaluate_singular_at_zero():
    with pytest.raises(ValueError):
        S({(-1, 0): 1.0}).evaluate(0.0)
    with pytest.raises(ValueError):
        S({(0, 1): 1.0}).evaluate(0.0)
    assert S({(0, 0): 2.5, (3, 0): 1.0}).evaluate(0.0) == 2.5


def test_evaluate_principal_branch():
    s = S({(0, 1): 1.0})
    assert s.evaluate(-1.0) == pytest.approx(cmath.log(-1.0))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def test_compare_self_is_zero():
    s = S({(2, 0): 1.0, (0, 1): -3.0})
    assert s.compare(s, 5) == 0.0


def test_compare_perturbed():
    a = S({(2, 0): 1.0})
    b = S({(2, 0): 1.0, (1, 0): 1e-12})
    assert a.compare(b, 2) == pytest.approx(1e-12)


def test_compare_tag_mismatch():
    with pytest.raises(ValueError):
        S({(0, 0): 1.0}).compare(S({(0, 0): 1.0}, tag="u-of-t"), 0)


def test_compare_order_above_truncation():
    with pytest.raises(ValueError):
        S({(0, 0): 1.0}, K=4).compare(S({(0, 0): 1.0}, K=4), 5)


def test_two_oracle_neumann_series_agreement():
    """The t^0 N_0 series built from the order-limit of the two-sided
    combination must agree with the logarithmic-series construction."""

    def f_series(nu, K):
        # J_nu(t)/t^nu as a power series in u = t^2/2
        return {
            (k, 0): (-1.0) ** k * 2.0 ** (-nu - k) / (math.factorial(k) * math.gamma(nu + k + 1))
            for k in range(K + 1)
        }

    def two_u_power(eps, jmax=2):
        # (2u)^eps expanded through eps^2, as a (k=0, j<=jmax) series
        ln2 = math.log(2.0)
        out = {}
        for p in range(jmax + 1):
            for j in range(p + 1):
                c = eps**p / math.factorial(p) * math.comb(p, j) * ln2 ** (p - j)
                out[(0, j)] = out.get((0, j), 0.0) + c
        return out

    def eps_series(eps, K):
        # [cos(eps pi) (2u)^eps F_eps - F_(-eps)] / sin(eps pi)
        fp = f_series(eps, K)
        fm = f_series(-eps, K)
        pref = two_u_power(eps)
        num = {}
        c = math.cos(math.pi * eps)
        for (k, _), a in fp.items():
            for (_, j), b in pref.items():
                num[(k, j)] = num.get((k, j), 0.0) + c * a * b
        for (k, j), a in fm.items():
            num[(k, j)] = num.get((k, j), 0.0) - a
        s = math.sin(math.pi * eps)
        return {kj: v / s for kj, v in num.items()}

    def even_richardson(K):
        def even(eps):
            p = eps_series(eps, K)
            m = eps_series(-eps, K)
            return {kj: 0.5 * (p.get(kj, 0.0) + m.get(kj, 0.0)) for kj in set(p) | set(m)}

        a = even(1e-3)
        b = even(5e-4)
        return {kj: (4.0 * b.get(kj, 0.0) - a.get(kj, 0.0)) / 3.0 for kj in set(a) | set(b)}

    K = 6
    oracle = LogPowerSeries("u-of-t", even_richardson(K), K)
    built = neumann_t_series(0, K)
    # oracle has eps-residue on (log u)^2 terms; compare absorbs them as distances
    assert oracle.compare(built, 3) < 1e-8


# ---------------------------------------------------------------------------
# linear plumbing and invariants
# ---------------------------------------------------------------------------


def _random_series(rng, tag="u-of-z"):
    terms = {}
    for _ in range(rng.randint(3, 12)):
        k = rng.randint(-4, 8)
        j = rng.randint(0, 3)
        terms[(k, j)] = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    return LogPowerSeries(tag, terms, 10)


def test_round_trip_derivative_of_antiderivative():
    """d/du after ∫du restores the series; the only possible defect is the
    final rounding of the coefficient division, i.e. at most 1 ulp."""
    rng = random.Random(42)
    worst = 0.0
    for _ in range(200):
        s = _random_series(rng)
        back = s.antiderivative().derivative()
        scale = max(abs(c) for c in s.terms.values())
        worst = max(worst, s.compare(back, s.K_trunc) / scale)
    assert worst <= 2.0 ** -50


def test_linearity_of_calculus_ops():
    rng = random.Random(7)
    for _ in range(20):
        a, b = _random_series(rng), _random_series(rng)
        al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
        combo = a.scale(al).add(b.scale(be))
        for op in ("derivative", "antiderivative"):
            lhs = getattr(combo, op)()
            rhs = getattr(a, op)().scale(al).add(getattr(b, op)().scale(be))
            assert lhs.compare(rhs, lhs.K_trunc) < 1e-13


def test_evaluate_commutes_with_add_and_scale():
    rng = random.Random(3)
    for _ in range(20):
        a, b = _random_series(rng), _random_series(rng)
        u = rng.uniform(0.2, 3.0)
        lhs = a.add(b.scale(2.5)).evaluate(u)
        rhs = a.evaluate(u) + 2.5 * b.evaluate(u)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_truncation_bookkeeping():
    s = S({(2, 0): 1.0}, K=8)
    assert s.derivative(3).K_trunc == 5
    assert s.antiderivative(2).K_trunc == 10
    other = S({(1, 0): 1.0}, K=3)
    summed = s.add(other)
    assert summed.K_trunc == 3


def test_add_drops_terms_above_joint_truncation():
    a = S({(6, 0): 1.0, (1, 0): 1.0}, K=8)
    b = S({(1, 0): 1.0}, K=3)
    out = a.add(b)
    assert (6, 0) not in out.terms
    assert out.coefficient(1, 0) == 2.0


def test_constructor_validation():
    with pytest.raises(ValueError):
        LogPowerSeries("u-of-q", {(0, 0): 1.0}, 4)
    with pytest.raises(ValueError):
        LogPowerSeries("u-of-z", {(5, 0): 1.0}, 4)
    with pytest.raises(ValueError):
        LogPowerSeries("u-of-z", {(0, 0): math.inf}, 4)
    with pytest.raises(ValueError):
        LogPowerSeries("u-of-z", {(0, -1): 1.0}, 4)
    s = LogPowerSeries("u-of-z", {(0, 0): 0.0, (1, 0): 2.0}, 4)
    assert (0, 0) not in s.terms  # zero coefficients are not stored


def test_structural_properties():
    s = S({(-2, 0): 1.0, (3, 2): 1.0})
    assert s.k_min == -2
    assert s.j_max == 2
    empty = S({})
    assert empty.k_min == 0 and empty.j_max == 0


def test_serialization_round_trip():
    rng = random.Random(11)
    s = _random_series(rng)
    rec = s.to_records()
    back = LogPowerSeries.from_records(rec)
    assert back.compare(s, s.K_trunc) == 0.0
    assert back.K_trunc == s.K_trunc
    assert back.variable_tag == s.variable_tag
    # record order is deterministic
    assert rec == s.to_records()


# ---------------------------------------------------------------------------
# dense storage against the termwise rules
# ---------------------------------------------------------------------------


def _termwise_derivative(terms):
    """d/du by the termwise rule, one (k, j) term at a time in sorted order."""
    out = {}
    for (k, j), a in sorted(terms.items()):
        if k != 0:
            out[(k - 1, j)] = out.get((k - 1, j), 0.0) + a * k
        if j != 0:
            out[(k - 1, j - 1)] = out.get((k - 1, j - 1), 0.0) + a * j
    return {kj: a for kj, a in out.items() if a != 0}


def _termwise_antiderivative(terms):
    """∫ du by the termwise rule: u^-1 raises the log power, every other
    power integrates by parts down the log powers."""
    out = {}
    for (k, j), a in sorted(terms.items()):
        if k == -1:
            out[(0, j + 1)] = out.get((0, j + 1), 0.0) + a / (j + 1)
            continue
        for jj in range(j, -1, -1):
            out[(k + 1, jj)] = out.get((k + 1, jj), 0.0) + a / (k + 1)
            a = -a * jj / (k + 1)
    return {kj: a for kj, a in out.items() if a != 0}


def test_dense_calculus_matches_termwise_rules():
    """The array kernels do the termwise arithmetic in the same order, so the
    results agree bit for bit, including the u^-1 row and log powers up to 3."""
    rng = random.Random(5)
    for _ in range(200):
        s = _random_series(rng)
        assert dict(s.derivative().terms) == _termwise_derivative(s.terms)
        assert dict(s.antiderivative().terms) == _termwise_antiderivative(s.terms)


def test_terms_view_is_read_only_and_sorted():
    s = S({(3, 0): 1.0, (-1, 1): 2.0, (0, 2): -1.0})
    assert list(s.terms) == [(-1, 1), (0, 2), (3, 0)]
    with pytest.raises(TypeError):
        s.terms[(0, 0)] = 1.0
    with pytest.raises(ValueError):
        s.coef[0, 0] = 1.0
    with pytest.raises(AttributeError):
        s.K_trunc = 12


@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(0.0, math.inf), complex(math.nan, 1.0)])
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        LogPowerSeries("u-of-z", {(0, 0): 1.0, (2, 1): bad}, 4)
