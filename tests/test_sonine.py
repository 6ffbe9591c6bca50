"""Generating-pair engine: contour quadrature, half-line quadrature, bilinear sums."""

import math

import pytest
from scipy import special as sp

from besselmap import a_function, bessel_pair, bilinear_check, k_bessel, z_function
from besselmap.sonine import GeneratingPair, PAIRS, _contour_sum


def test_pair_registry():
    assert "bessel" in PAIRS
    pair = PAIRS["bessel"]()
    assert pair.name == "bessel"


def test_pair_inverse_validation():
    with pytest.raises(ValueError):
        GeneratingPair(
            name="broken",
            omega=lambda tau: 1.0 / (2.0 * tau),
            inverse=lambda x: 1.0 / x,  # not the inverse of omega
        )


def test_pair_parameter_validation():
    with pytest.raises(ValueError):
        bessel_pair(radius=-1.0)
    with pytest.raises(ValueError):
        bessel_pair(nodes=100)  # not a power of two
    with pytest.raises(ValueError):
        bessel_pair(nodes=32)  # below the floor


def test_z_function_residue_at_origin():
    # at z = 0 the integrand is exp(tau/2)/tau^(n+1): residues 1, 1/2, 1/8
    pair = bessel_pair()
    assert z_function(pair, 0, 0.0).value.real == pytest.approx(1.0, abs=1e-13)
    assert z_function(pair, 1, 0.0).value.real == pytest.approx(0.5, abs=1e-13)
    assert z_function(pair, 2, 0.0).value.real == pytest.approx(0.125, abs=1e-13)


@pytest.mark.parametrize("n", range(0, 9))
@pytest.mark.parametrize("z", [0.3, 1.0, 2.5])
def test_z_function_matches_reduced_bessel(n, z):
    pair = bessel_pair()
    want = float(sp.jv(n, z)) / z**n
    assert abs(z_function(pair, n, z).value.real - want) < 1e-10


def test_z_function_example_values():
    pair = bessel_pair()
    assert z_function(pair, 0, 1.0).value.real == pytest.approx(0.7651976865579666, abs=1e-12)
    assert z_function(pair, 2, 2.0).value.real == pytest.approx(
        float(sp.jv(2, 2.0)) / 4.0, abs=1e-12
    )


def test_z_function_negative_index():
    pair = bessel_pair()
    # Z_(-n)(z) = J_(-n)(z) z^n = (-1)^n J_n(z) z^n
    z = 1.5
    want = -float(sp.jv(1, z)) * z
    assert z_function(pair, -1, z).value.real == pytest.approx(want, abs=1e-12)


def test_z_function_radius_independence():
    for n in (0, 3):
        for z in (0.5, 2.0):
            a = z_function(bessel_pair(radius=0.7), n, z).value
            b = z_function(bessel_pair(radius=1.3), n, z).value
            assert abs(a - b) < 1e-10


def test_contour_node_doubling_is_geometric():
    pair = bessel_pair()
    ref = _contour_sum(pair, 0, 1.0, 512)
    errs = [abs(_contour_sum(pair, 0, 1.0, nodes) - ref) for nodes in (4, 8, 16)]
    # spectral accuracy: each doubling shrinks the error by far more than 10x
    # until the rounding floor is reached
    assert errs[1] < max(0.1 * errs[0], 1e-15)
    assert errs[2] < max(0.1 * errs[1], 1e-15)
    assert errs[2] < 1e-15


def test_a_function_identifies_with_k():
    pair = bessel_pair()
    assert a_function(pair, 1, 2.0).value == pytest.approx(float(sp.kv(0, 2.0)), rel=1e-10)
    # n = 0, t = 1: t^-1 K_-1(1) = K_1(1)
    assert a_function(pair, 0, 1.0).value == pytest.approx(float(sp.kv(1, 1.0)), rel=1e-10)
    assert a_function(pair, 1, 2.0).value == pytest.approx(k_bessel(0.0, 2.0).value, rel=1e-10)


def test_a_function_monotone_decreasing_in_t():
    pair = bessel_pair()
    vals = [a_function(pair, 1, t).value for t in (1.0, 1.5, 2.0, 2.5, 3.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_a_function_domain():
    with pytest.raises(ValueError):
        a_function(bessel_pair(), 1, -1.0)


def test_a_function_overflow_is_a_clear_error():
    # Mho(x)^n leaves the float range at some node; the error names n and t
    with pytest.raises(ArithmeticError, match=r"^A_99\(0\.5\): Mho\(x\)\^99 leaves the float range"):
        a_function(bessel_pair(), 99, 0.5)
    with pytest.raises(ArithmeticError, match=r"^A_-83\(0\.5\): "):
        bilinear_check(bessel_pair(), 0.05, 0.5, 83)


def test_bilinear_singular_input():
    with pytest.raises(ValueError):
        bilinear_check(bessel_pair(), 2.0, 2.0, 10)
    with pytest.raises(ValueError):
        bilinear_check(bessel_pair(), 0.5, 2.0, 0)


def test_bilinear_converges_to_decaying_convention_limit():
    pair = bessel_pair()
    rec = bilinear_check(pair, 0.0, 2.0, 12)
    # symmetric tail behaves like 1/(4 n^2) termwise, so the partial sum sits
    # about 1/(4N) below the limit, plus the amplified quadrature noise floor
    assert rec["residual_vs_empirical"] < 2.0 / (4.0 * 12) + 3.0 * rec["noise_estimate"]
    assert rec["empirical_limit"] == pytest.approx(0.25)
    assert rec["formal_target"] == pytest.approx(-0.25)
    assert "decaying" in rec["convention_note"]


def test_bilinear_residual_decreases_in_n():
    pair = bessel_pair()
    r6 = bilinear_check(pair, 0.5, 2.0, 6)
    r12 = bilinear_check(pair, 0.5, 2.0, 12)
    assert r12["residual_vs_empirical"] < r6["residual_vs_empirical"]


def test_bilinear_noise_floor_grows_past_useful_range():
    # the raw-product engine is honest about where it stops being usable:
    # by N ~ 40 the amplified Z-noise dwarfs the limit itself
    rec = bilinear_check(bessel_pair(), 0.0, 2.0, 40)
    assert rec["noise_estimate"] > abs(rec["empirical_limit"])


def test_bilinear_deterministic():
    pair = bessel_pair()
    a = bilinear_check(pair, 0.5, 2.0, 15)
    b = bilinear_check(pair, 0.5, 2.0, 15)
    assert a == b
