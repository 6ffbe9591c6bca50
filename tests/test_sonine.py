"""Generating-pair engine: contour quadrature, half-line quadrature, bilinear sums."""

import math

import numpy as np
import pytest
from scipy import special as sp

from besselmap import a_function, bessel_pair, bilinear_check, k_bessel, z_function
from besselmap.sonine import (
    GeneratingPair,
    _circle_nodes,
    _contour_samples,
    _contour_sums,
    _symmetric_partials,
    _a_lanes,
    _tail_fit,
    _z_lanes,
)
from besselmap import sonine, specfun
from besselmap.specfun import EvalResult, _halfline_level, _halfline_quadrature


def test_pair_registry():
    # the one built-in pair, which the CLI's --pair bessel names
    assert bessel_pair().name == "bessel"


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
    ref = _contour_sums(_contour_samples(pair, 1.0, 512), [0], 1.0)[0]
    errs = [
        abs(_contour_sums(_contour_samples(pair, 1.0, nodes), [0], 1.0)[0] - ref) for nodes in (4, 8, 16)
    ]
    # spectral accuracy: each doubling shrinks the error by far more than 10x
    # until the rounding floor is reached
    assert errs[1] < max(0.1 * errs[0], 1e-15)
    assert errs[2] < max(0.1 * errs[1], 1e-15)
    assert errs[2] < 1e-15


def test_z_function_estimate_bounds_the_error_on_a_grid():
    """err_estimate bounds the error against mpmath at 40 digits on n = -10..10,
    z in {0.05, 0.1, 0.5, 1, ..., 7}, with no floor.  The node-doubling
    difference alone misses at about half the points: the samples are far
    larger than their mean, whose rounding it does not see."""
    mpmath = pytest.importorskip("mpmath")
    pair = bessel_pair()
    misses, evaluated = [], 0
    for n in range(-10, 11):
        for z in (0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0):
            try:
                r = z_function(pair, n, z)
            except ArithmeticError:
                continue  # outside what the budget resolves at r = 1 (ROADMAP item 7)
            evaluated += 1
            with mpmath.workdps(40):
                err = float(abs(mpmath.mpc(r.value) - mpmath.besselj(n, z) / mpmath.mpf(z) ** n))
            if not err <= r.err_estimate:
                misses.append((n, z, err, r.err_estimate))
    assert evaluated >= 183
    assert not misses


@pytest.mark.parametrize("z, sizes", [(0.5, [256, 256]), (5.0, [256, 256, 512, 1024, 2048])])
def test_contour_samples_each_node_once(z, sizes):
    """The first node count samples its 256 nodes, and each doubling only its
    new odd nodes, so the samples add up to the confirming grid, twice the
    node count a value is taken at."""
    bessel = bessel_pair()
    calls = []

    def omega(tau):
        if isinstance(tau, np.ndarray):
            calls.append(tau)
        return bessel.omega(tau)

    pair = GeneratingPair("recorded", omega, bessel.inverse)
    r = z_function(pair, 3, z)
    assert [len(tau) for tau in calls] == sizes
    assert sum(sizes) == 2 * r.effort
    nodes = np.concatenate(calls)
    assert len(np.unique(nodes)) == len(nodes)


@pytest.mark.parametrize("z", [0.5, 5.0])
def test_nested_samples_have_the_bits_of_a_full_grid(z):
    # each doubling keeps the previous samples as its even nodes and samples the odd ones
    pair = bessel_pair(radius=0.7)
    b = _contour_samples(pair, z, 256)
    while len(b) < 4096:
        b = _contour_samples(pair, z, 2 * len(b), b)
        assert np.array_equal(b, _contour_samples(pair, z, len(b)))


def test_circle_nodes_are_kept_read_only():
    """The nodes depend only on (r, nodes, odd only), so each set is computed
    once and shared; no sampler may write into it."""
    tau = _circle_nodes(0.7, 512, True)
    assert _circle_nodes(0.7, 512, True) is tau
    assert len(tau) == 256 and not tau.flags.writeable
    full = _circle_nodes(0.7, 512, False)
    assert np.array_equal(full[1::2], tau)


def test_z_floor_bounds_the_complex_mean():
    """The rounding floor bounds the error of the complex trapezoid mean before
    ``_real_if_close`` drops its imaginary noise; for a pair whose Z is not real
    that mean is the value.  At large z and negative n, a floor from mean|b_j|
    in place of rms|b_j| misses at 16 of these 30 points."""
    mpmath = pytest.importorskip("mpmath")
    pair = bessel_pair()
    ns = list(range(-30, -15))
    misses = []
    for z in (6.0, 7.0):
        for n, r in zip(ns, _z_lanes(pair, ns, z)):
            mean = _contour_sums(_contour_samples(pair, z, r.effort), [n], 1.0)[0]
            with mpmath.workdps(40):
                err = float(abs(mpmath.mpc(mean) - mpmath.besselj(n, z) / mpmath.mpf(z) ** n))
            if not err <= r.err_estimate:
                misses.append((n, z, err, r.err_estimate))
    assert not misses


def test_z_function_estimate_bounds_the_error_at_the_bilinear_orders():
    """err_estimate bounds the error against mpmath at 40 digits, with no
    allowance added, at the large |n| that bilinear_check reaches (N up to 40)
    over the z its checks draw: there the samples exceed the mean by up to 60
    orders of magnitude, so the estimate rests on the rounding floor."""
    mpmath = pytest.importorskip("mpmath")
    pair = bessel_pair()
    misses = []
    for n in (-40, -25, -15, 15, 25, 40):
        for z in (0.05, 0.3, 0.5, 1.0, 2.0, 3.5):
            r = z_function(pair, n, z)
            with mpmath.workdps(40):
                err = float(abs(mpmath.mpc(r.value) - mpmath.besselj(n, z) / mpmath.mpf(z) ** n))
            if not err <= r.err_estimate:
                misses.append((n, z, err, r.err_estimate))
    assert not misses


@pytest.mark.parametrize("n", [2.5, 1.0000001])
def test_z_function_rejects_a_non_integer_order(n):
    # a closed contour defines Z_n only for integer n; near an integer the
    # trapezoid would return a number whose estimate does not bound its error
    with pytest.raises(ValueError, match=f"got n = {n}$"):
        z_function(bessel_pair(), n, 1.0)


@pytest.mark.parametrize("radius, n", [(0.5, 1100), (2.0, -1100)])
def test_z_function_names_an_order_whose_contour_scale_overflows(radius, n):
    # r^-n scales every mean; where it leaves the float range the error names n and r
    with pytest.raises(ValueError, match=rf"^Z_n at n = {n}: .* contour radius r = {radius}$"):
        z_function(bessel_pair(radius), n, 1.0)


def test_a_function_takes_a_real_order():
    # A_1.5(2) = 2^0.5 K_0.5(2)
    assert a_function(bessel_pair(), 1.5, 2.0).value == pytest.approx(
        math.sqrt(2.0) * float(sp.kv(0.5, 2.0)), rel=1e-12
    )


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


def test_bilinear_raises_the_first_single_call_error():
    # n ascending, Z_n before A_n: Z_-10(15) fails before any A is looked at
    with pytest.raises(ArithmeticError, match=r"^Z_-10\(15\.0\) did not converge"):
        bilinear_check(bessel_pair(), 15.0, 16.0, 10)
    with pytest.raises(ValueError, match=r"^t = -1\.0 outside the supported range \(0, 20\.0\]$"):
        bilinear_check(bessel_pair(), 0.5, -1.0, 10)


def _bilinear_reference(pair, z, t, N):
    """The terms, noise and effort from single calls, one n at a time."""
    terms = np.empty(2 * N + 1)
    noise = 0.0
    effort = 0
    for n in range(-N, N + 1):
        zr = z_function(pair, n, z)
        ar = a_function(pair, n, t)
        terms[n + N] = (zr.value * ar.value).real
        noise += zr.err_estimate * abs(ar.value) + abs(zr.value) * ar.err_estimate
        effort += zr.effort + ar.effort
    return terms, noise, effort


@pytest.mark.parametrize("z, t, N", [(0.0, 2.0, 12), (0.5, 2.0, 40), (3.0, 2.0, 15), (0.05, 0.5, 25)])
def test_bilinear_lanes_equal_single_calls(z, t, N):
    pair = bessel_pair()
    rec = bilinear_check(pair, z, t, N)
    terms, noise, effort = _bilinear_reference(pair, z, t, N)
    assert rec["partials"] == _symmetric_partials(terms, N)
    assert rec["noise_estimate"] == noise
    assert rec["effort"] == effort
    assert rec["tail_exponent"] == _tail_fit(terms, N)[0]


def _single_a_call(pair, n, t):
    try:
        return a_function(pair, n, t)
    except ArithmeticError as exc:
        return exc


@pytest.mark.parametrize(
    "ns, t",
    [
        ([0.5, 1.5, 3], 2.0),  # real orders among integer ones
        ([-7.5, -4, -1.5, 0], 0.7),
        (list(range(-83, 84)), 0.5),  # the A lanes of bilinear_check(bessel_pair(), 0.05, 0.5, 83)
    ],
)
def test_a_lanes_equal_single_calls(ns, t):
    """Each A lane has the bits of its single call, or raises its error, also
    where other lanes of the same levels overflow; a numpy warning would fail
    the test, since pytest turns RuntimeWarning into an error."""
    pair = bessel_pair()
    lanes = _a_lanes(pair, ns, t)
    for lane, single in zip(lanes, (_single_a_call(pair, n, t) for n in ns)):
        if isinstance(single, Exception):
            assert (type(lane), str(lane)) == (type(single), str(single))
        else:
            assert lane == single
    if t == 0.5:
        failed = [n for n, lane in zip(ns, lanes) if isinstance(lane, Exception)]
        # the most negative orders overflow; the rest are finite lanes of the same levels
        assert failed and failed == ns[: len(failed)] and len(failed) < len(ns)
        with pytest.raises(ArithmeticError) as info:
            bilinear_check(pair, 0.05, 0.5, 83)
        assert str(info.value) == str(lanes[0])


def _scalar_a_lanes(pair, ns, t):
    """The scalar integrand the array pass replaced: libm's pow per term,
    each lane summed in node order from 0.0, inf once a power overflows
    (Python floats, so an overflowing ** raises rather than warns)."""

    def g(xs, live):
        sums = []
        for i in live:
            total = 0.0
            try:
                for x in xs.tolist():
                    m = pair.inverse(x)
                    expo = -t * t * x - 0.5 * m
                    if not expo < -700.0:
                        total += m ** float(ns[i]) * math.exp(expo) * x
            except OverflowError:
                total = math.inf
            sums.append(total)
        return sums

    return _halfline_quadrature(g, len(ns))


@pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
def test_a_lanes_match_the_scalar_loop(t):
    """np.power may differ from libm's pow in the last bit, so each value is
    held to 4 eps of the scalar loop's (its terms are positive, so an ulp per
    term moves the sum by about an ulp), at the same node count."""
    pair = bessel_pair()
    ns = [*range(-12, 13), -2.5, 1.5]
    for lane, ref in zip(_a_lanes(pair, ns, t), _scalar_a_lanes(pair, ns, t)):
        value, _, nodes = ref
        assert lane.effort == nodes
        assert lane.value == pytest.approx(value, rel=4 * 2.0**-52, abs=0.0)


def test_a_samples_each_level_as_one_array():
    """The A integrand passes each level's nodes to the pair's inverse as one
    array, each node once, and the arrays add up to the nodes of the value."""
    bessel = bessel_pair()
    calls = []

    def inverse(x):
        if isinstance(x, np.ndarray):
            calls.append(x)
        return bessel.inverse(x)

    pair = GeneratingPair("recorded", bessel.omega, inverse)
    r = a_function(pair, 3, 2.0)
    assert r == a_function(bessel, 3, 2.0)
    assert [len(x) for x in calls] == [49, 48, 96]
    nodes = np.concatenate(calls)
    assert len(nodes) == r.effort and len(np.unique(nodes)) == len(nodes)
    # another order and t on the same levels get the very same read-only arrays
    assert a_function(pair, -2, 0.8) == a_function(bessel, -2, 0.8)
    assert len(calls) > 3 and all(x is y for x, y in zip(calls[3:], calls))
    assert all(x is _halfline_level(i) for i, x in enumerate(calls[3:]))
    assert not any(x.flags.writeable for x in calls)


def test_k_and_a_read_the_same_level_arrays(monkeypatch):
    """K and A are runs of one trapezoid, whose level arrays are built once:
    every call's integrand receives the same array objects."""
    seen = []

    def recording(g, lanes):
        def g_seen(xs, live):
            seen.append(xs)
            return g(xs, live)

        return _halfline_quadrature(g_seen, lanes)

    monkeypatch.setattr(specfun, "_halfline_quadrature", recording)
    monkeypatch.setattr(sonine, "_halfline_quadrature", recording)
    k = k_bessel(1.5, 1.0)
    a = a_function(bessel_pair(), 3, 2.0)
    assert k.effort == a.effort == 193
    assert len(seen) == 6
    assert all(x is _halfline_level(i) for i, x in enumerate(seen[:3]))
    assert all(x is y for x, y in zip(seen[3:], seen[:3]))


def test_a_level_with_no_node_above_the_exponent_floor_adds_nothing():
    # Mho(x) = 1e4/x puts -t^2 x - Mho(x)/2 below -700 at every node once t >= 5,
    # so every level keeps no node and A_n(t), about exp(-848) here, reads 0
    pair = GeneratingPair("far", lambda tau: 1e4 / tau, lambda x: 1e4 / x)
    r = a_function(pair, 2, 6.0)
    assert (r.value, r.effort) == (0.0, 97)


def _gaussian_in_w(a):
    # exp(-a w^2) at x = e^w: the wider it is, the fewer doublings it needs
    return lambda x: math.exp(-a * math.log(x) ** 2)


def _diverging(x):
    # 1/w^4 near w = 0: each halving of the node spacing multiplies the sum by ~8
    return 0.0 if x == 1.0 else math.log(x) ** -4


def _lanes(fns):
    """The trapezoid's integrand for one lane per function: each live lane's
    function summed over the level's nodes, in order from 0.0."""

    def g(xs, live):
        sums = []
        for i in live:
            total = 0.0
            for x in xs.tolist():
                total += fns[i](x)
            sums.append(total)
        return sums

    return g


def _one_lane_run(f):
    (r,) = _halfline_quadrature(_lanes([f]), 1)
    return r


def test_halfline_lanes_equal_their_one_lane_runs():
    fns = [_gaussian_in_w(a) for a in (1.0, 100.0, 10.0)]
    lanes = _halfline_quadrature(_lanes(fns), len(fns))
    assert lanes == [_one_lane_run(f) for f in fns]
    assert [nodes for _, _, nodes in lanes] == [97, 1537, 385]  # each stops at its own doubling


def test_halfline_samples_each_node_once():
    lane = _lanes([_gaussian_in_w(100.0)])
    calls = []

    def g(xs, live):
        calls.extend(xs)
        return lane(xs, live)

    ((_, _, nodes),) = _halfline_quadrature(g, 1)
    assert len(calls) == nodes == 1537
    assert len(set(calls)) == nodes


def test_halfline_samples_a_lane_only_while_it_is_live():
    good = [_gaussian_in_w(a) for a in (1.0, 100.0, 10.0)]
    fns = good + [_diverging]
    lanes = _lanes(fns)
    seen = [0] * len(fns)
    asked = []

    def g(xs, live):
        asked.append(list(live))
        for i in live:
            seen[i] += len(xs)
        return lanes(xs, live)

    out = _halfline_quadrature(g, len(fns))
    assert out[:3] == [_one_lane_run(f) for f in good]
    assert isinstance(out[3], ArithmeticError)
    # each lane is sampled at its own nodes only: the diverging one fails at 193
    assert seen == [97, 1537, 385, 193]
    # no level is sampled once every lane has stopped: the last one asks for
    # the lane that stops last alone
    assert all(asked) and asked[-1] == [1]


def test_halfline_lane_failures_stay_in_their_lane():
    good = _gaussian_in_w(100.0)
    lanes = _halfline_quadrature(_lanes([good, _diverging, lambda x: math.inf]), 3)
    # the diverging lane fails at 193 nodes; the good lane goes on to its own stop
    assert lanes[0] == _one_lane_run(good)
    with pytest.raises(ArithmeticError, match="diverges"):
        raise lanes[1]
    assert isinstance(lanes[2], OverflowError)


def test_single_k_and_a_calls_keep_their_bits():
    assert k_bessel(1.5, 1.0) == EvalResult(0.9221370088957893, 4.0145857714087525e-14, 193)
    assert k_bessel(7.3, 15.0) == EvalResult(5.33967773924763e-07, 4.6017435591771213e-20, 385)
    assert a_function(bessel_pair(), 3, 2.0) == EvalResult(1.0150390182642235, 4.7051813673036934e-14, 193)
    assert a_function(bessel_pair(), -4, 0.7) == EvalResult(13186.12293267438, 1.1272443709752525e-09, 385)


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
