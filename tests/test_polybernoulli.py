import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import naive_polylog, one_minus_exp_neg_coeffs
from polybern import bernoulli, combinatorics, gf, polybernoulli, polynomial, series
from polybern.bernoulli import bernoulli2nd_poly
from polybern.polybernoulli import (
    IDENTITIES,
    poly_b2nd_theorem1,
    poly_b2nd_theorem2,
    poly_b2nd_values,
    polylog_series,
    theorem3_rhs,
    theorem4_rhs,
    verify_identity,
)
from polybern.polynomial import X, common_denominator
from polybern.series import TruncatedSeries, constant_series, t_series


def one_minus_exp_neg(order):
    return TruncatedSeries(tuple(one_minus_exp_neg_coeffs(order)))


# -- polylog ---------------------------------------------------------------


def test_polylog_k1_collapses_to_t():
    assert polylog_series(1, one_minus_exp_neg(10)) == t_series(10)


def test_polylog_k2_brute_force():
    got = polylog_series(2, one_minus_exp_neg(3))
    assert list(got.coeffs) == [F(0), F(1), F(-1, 4), F(1, 36)]
    assert list(got.coeffs) == naive_polylog(2, one_minus_exp_neg_coeffs(3), 3)


def test_polylog_of_t_is_the_defining_series():
    for k in (-3, -1, 0, 1, 2, 5):
        got = polylog_series(k, t_series(3))
        assert list(got.coeffs) == [F(0), F(1), F(2) ** (-k), F(3) ** (-k)]


def test_polylog_matches_brute_force_for_negative_k():
    inner = one_minus_exp_neg_coeffs(6)
    for k in (-3, -2, -1, 0):
        got = polylog_series(k, TruncatedSeries(tuple(inner)))
        assert list(got.coeffs) == naive_polylog(k, inner, 6)


def test_polylog_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="zero constant term"):
        polylog_series(2, constant_series(F(1), 3))


def test_polylog_routes_only_large_k_through_horner(monkeypatch):
    up, down = series.HORNER_PER_TERM_POS_K, series.HORNER_PER_TERM_NEG_K
    assert (up, down) == (35, 15)
    composed = []
    original = TruncatedSeries.compose

    def counted(self, inner):
        composed.append(inner.order)
        return original(self, inner)

    monkeypatch.setattr(TruncatedSeries, "compose", counted)
    assert polylog_series(200, t_series(40)).coeffs[40] == F(40) ** -200
    assert composed == [40]
    composed.clear()
    polylog_series(3, one_minus_exp_neg(40))
    assert composed == []
    # k >= up s and k <= -down s take Horner's rule, s the nonzero terms of
    # the inner series, and the k between them the differential equation,
    # whatever the order.
    t_plus_t3 = TruncatedSeries([0, 1, 0, 1] + [0] * 37)
    five_terms = TruncatedSeries([0, 1, 0, F(1, 3), 0, F(-2, 5), 0, 1, 0, F(1, 7), 0, 0, 0])
    for inner, s in ((t_series(40), 1), (t_plus_t3, 2), (t_series(5), 1), (five_terms, 5)):
        for k in (-down * s, -down * s + 1, up * s - 1, up * s):
            composed.clear()
            polylog_series(k, inner)
            horner = k >= up * s or k <= -down * s
            assert composed == ([inner.order] if horner else []), (s, k)
    # A dense inner series takes the ladder even for |k| >= N.
    for k in (-41, 41):
        composed.clear()
        polylog_series(k, one_minus_exp_neg(40))
        assert composed == []


def test_polylog_checks_k_before_any_work(monkeypatch):
    # At |k| = MAX_ABS_K the polylog of t takes Horner's rule; one past it,
    # or a k that is not an int, is refused before the composition.
    from polybern.caps import MAX_ABS_K

    def refuse(self, inner):
        raise AssertionError("composed")

    monkeypatch.setattr(TruncatedSeries, "compose", refuse)
    for k in (MAX_ABS_K, -MAX_ABS_K):
        with pytest.raises(AssertionError, match="composed"):
            polylog_series(k, t_series(1))
    for k in (MAX_ABS_K + 1, -MAX_ABS_K - 1, 10**6):
        with pytest.raises(ValueError, match=f"at most {MAX_ABS_K}"):
            polylog_series(k, t_series(1))
    with pytest.raises(TypeError, match="k must be an int, not float"):
        polylog_series(2.0, t_series(1))
    # A bool is an int to isinstance, but not a polylog order.
    for call in (
        lambda: polylog_series(True, t_series(1)),
        lambda: poly_b2nd_values(3, True),
        lambda: verify_identity("thm2", 1, ks=[True]),
    ):
        with pytest.raises(TypeError, match="k must be an int, not bool"):
            call()


def test_the_route_counts_terms_in_the_reading_the_series_holds():
    raw, egf = TruncatedSeries([0, 1, 0, F(-1, 3)]), t_series(3)
    assert raw._nonzero_terms() == 2 and "_egf" not in vars(raw)
    assert egf._nonzero_terms() == 1 and "coeffs" not in vars(egf)


def test_polylog_of_the_zero_series_is_zero():
    zero = TruncatedSeries([0] * 6)
    for k in (-2, -1, 0, 1, 2, 7, -7):
        assert polylog_series(k, zero) == zero, k


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def inner_series(draw):
    """A rational series of order <= 30 with valuation 1..3."""
    v = draw(st.integers(min_value=1, max_value=3))
    order = draw(st.integers(min_value=v, max_value=30))
    lead = draw(small_rationals.filter(lambda c: c != 0))
    rest = draw(st.lists(small_rationals, min_size=order - v, max_size=order - v))
    return TruncatedSeries((F(0),) * v + (lead,) + tuple(rest))


def horner_polylog(k, inner):
    n = inner.order
    weights = [F(0)] + [F(m) ** -k for m in range(1, n + 1)]
    return TruncatedSeries(weights).compose(inner)


@given(inner_series(), st.integers(min_value=-5, max_value=5))
def test_polylog_ode_matches_horner_composition(inner, k):
    assert polylog_series(k, inner) == horner_polylog(k, inner)


@settings(max_examples=30)
@given(inner_series(), st.randoms(use_true_random=False))
def test_polylog_ladder_in_any_order_matches_the_defining_sum(inner, rng):
    # Nothing is kept from one request to the next; in whatever order the k
    # come, the result is sum f^m / m^k.
    # The powers f^m are shared by every k, so this costs about one Horner
    # composition (which test_polylog_ode_matches_horner_composition uses).
    n = inner.order
    powers = [list(inner.coeffs)]
    for _ in range(n - 1):
        powers.append(oracles.naive_mul(powers[-1], list(inner.coeffs), n))
    ks = list(range(-6, 7))
    rng.shuffle(ks)
    for k in ks:
        expected = [sum(F(m) ** -k * p[i] for m, p in enumerate(powers, 1)) for i in range(n + 1)]
        assert list(polylog_series(k, inner).coeffs) == expected, k


# -- generating-function route ----------------------------------------------


def test_the_gf_routes_equal_the_general_polylog():
    # Li_k(1 - e^(-t)) by the gf's S2 sum against polylog_series, which
    # solves the general ladder (or Horner's rule) on the raw inner series.
    cases = [(order, range(-7, 8)) for order in range(13)]
    cases += [(40, range(-14, 15)), (60, (-300, 300))]
    for order, ks in cases:
        inner = one_minus_exp_neg(order)
        for k in ks:
            got = TruncatedSeries.from_egf(*gf._s2_sum(order, k))
            assert got == series.polylog_series(k, inner), (order, k)


def test_the_s2_sum_equals_the_weights_of_theorem2():
    for k in (-20, -7, -1, 0, 1, 2, 13, 30):
        nums, den = gf._s2_sum(25, k)
        assert [F(c, den) for c in nums] == [polybernoulli._li_coeff(n, k) for n in range(26)], k


def test_the_gf_takes_the_s2_sum_once_per_miss(monkeypatch):
    calls = []
    original = gf._s2_sum

    def counted(order, k):
        calls.append((order, k))
        return original(order, k)

    monkeypatch.setattr(gf, "_s2_sum", counted)
    gf._gf_values.cache_clear()
    try:
        for k in range(-8, 9):
            calls.clear()
            gf._gf_values(12, k)
            gf._gf_values(12, k)
            assert calls == [(13, k)], k
    finally:
        gf._gf_values.cache_clear()


def test_the_gf_reads_no_stirling_row_at_the_default_k_of_verify(monkeypatch):
    # Theorem 2 takes its weights from _li_coeff, the S2 sum over
    # stirling2_row. The gf must not read them at any k that verify checks
    # by default, nor beyond, so that thm2 stays an independent check of
    # the gf.
    from polybern.cli import MAX_VERIFY_N

    def refuse(*args):
        raise AssertionError("the gf read the Stirling triangle")

    for module, name in ((combinatorics, "stirling2_row"), (polybernoulli, "_li_coeff")):
        monkeypatch.setattr(module, name, refuse)
    ks = {k for spec in IDENTITIES.values() for k in spec.ks or ()}
    assert ks == set(range(-5, 6))
    polybernoulli._gf_values.cache_clear()
    try:
        for k in sorted(ks | {-14, -6, 6, 14}):
            for n in range(MAX_VERIFY_N + 1):
                assert polybernoulli._gf_values(n, k).order == n
    finally:
        polybernoulli._gf_values.cache_clear()


def closed_sum_weights(family, k, n):
    """w_0..w_n of ``family`` at k, as the one closed-sum cache holds them."""
    polybernoulli._x_free_sums(family, n, k)
    return [w for w, _ in polybernoulli._CLOSED_SUMS[family, k][: n + 1]]


def test_the_closed_sum_weights_call_nothing_of_the_gf(monkeypatch):
    # _li_coeff is the route of Theorems 2 and 3 over stirling2_row; it
    # shares no code with the gf's S2 sum, which it checks.
    ks = [*range(-5, 6), -14, 14]
    expected = {}
    for k in ks:
        nums, den = gf._s2_sum(26, k)
        expected["thm3", k] = [F(c, den) for c in nums]
        expected["thm2", k] = [F(c, den) / n for n, c in enumerate(nums[1:], 1)]

    def refuse(*args):
        raise AssertionError("the closed sums called the gf")

    for name in ("_s2_sum", "_inverse_powers"):
        monkeypatch.setattr(gf, name, refuse)
    monkeypatch.setattr(polybernoulli, "_CLOSED_SUMS", {})
    for family in ("thm2", "thm3"):
        for k in ks:
            assert closed_sum_weights(family, k, 25) == expected[family, k][:26], (family, k)


def test_gf_reduces_to_second_kind_at_k1():
    for x in (F(0), F(1, 2), F(-1)):
        values = poly_b2nd_values(8, 1, x)
        for n in range(9):
            assert values[n] == bernoulli2nd_poly(n)(x)
    symbolic = poly_b2nd_values(8, 1, X)
    for n in range(9):
        assert symbolic[n] == bernoulli2nd_poly(n)


def test_gf_k2_values():
    assert list(poly_b2nd_values(2, 2)) == [F(1), F(1, 4), F(-13, 36)]


def test_gf_index_one_is_two_to_minus_k():
    for k in range(-3, 6):
        assert poly_b2nd_values(1, k)[1] == F(2) ** (-k)


def test_gf_constant_term_is_one_for_every_k():
    for k in range(-5, 6):
        assert poly_b2nd_values(4, k)[0] == 1


def test_floats_are_rejected_and_do_not_poison_the_cache():
    with pytest.raises(TypeError):
        poly_b2nd_values(3, 2.0)
    assert poly_b2nd_values(3, 2)[2] == F(-13, 36)
    with pytest.raises(TypeError):
        poly_b2nd_values(2, 1, 0.1)
    calls = [
        lambda: poly_b2nd_theorem1(2, 0.5),
        lambda: poly_b2nd_theorem2(2, 2.0),
        lambda: poly_b2nd_theorem2(2, 2, 0.5),
        lambda: theorem3_rhs(2, 2.0),
        lambda: theorem3_rhs(2, 2, 0.5),
        lambda: theorem4_rhs(2, 2.0, 0, 0),
        lambda: theorem4_rhs(2, 2, 0, 0.5),
        lambda: verify_identity("thm2", 2, ks=[2.0]),
        lambda: verify_identity("thm1", 2, xs=[0.5]),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


# -- closed formulas ---------------------------------------------------------


def test_theorem1_examples():
    assert poly_b2nd_theorem1(0) == 1
    assert poly_b2nd_theorem1(1) == F(1, 4)
    assert poly_b2nd_theorem1(2) == F(-13, 36)


def test_theorem1_matches_gf():
    for x in (F(0), F(1), F(-1), F(1, 2)):
        table = poly_b2nd_values(12, 2, x)
        for n in range(13):
            assert poly_b2nd_theorem1(n, x) == table[n]


def test_theorem2_examples():
    for k in (-2, 0, 1, 3):
        assert poly_b2nd_theorem2(0, k) == 1
    assert poly_b2nd_theorem2(1, 2) == F(1, 4)
    assert poly_b2nd_theorem2(2, 2) == F(-13, 36)


def test_theorem2_matches_gf_and_theorem1():
    for k in (-3, -1, 0, 1, 2, 4):
        for x in (F(0), F(-1), F(1, 2)):
            table = poly_b2nd_values(10, k, x)
            for n in range(11):
                assert poly_b2nd_theorem2(n, k, x) == table[n]
    for n in range(13):
        for x in (F(0), F(2, 3)):
            assert poly_b2nd_theorem1(n, x) == poly_b2nd_theorem2(n, 2, x)


def test_theorem2_symbolic_route_agreement():
    # Coefficient-wise agreement with the gf route for the indeterminate.
    for k in range(-5, 6):
        table = poly_b2nd_values(15, k, X)
        for n in range(16):
            assert poly_b2nd_theorem2(n, k, X) == table[n]


# -- forward difference and addition ----------------------------------------


def test_theorem3_examples():
    for k in (-2, 0, 1, 3):
        assert theorem3_rhs(1, k) == 1
    # k = 1 reduces to b_2(x+1) - b_2(x) with b_2(x) = x^2 - 1/6.
    assert theorem3_rhs(2, 1) == bernoulli2nd_poly(2)(F(1)) - bernoulli2nd_poly(2)(F(0)) == 1
    gf_diff = poly_b2nd_values(2, 2, F(1))[2] - poly_b2nd_values(2, 2, F(0))[2]
    assert theorem3_rhs(2, 2) == gf_diff


def test_theorem3_matches_gf_difference():
    for k in (-2, 0, 2):
        for x in (F(0), F(1, 2), F(-2)):
            hi = poly_b2nd_values(10, k, x + 1)
            lo = poly_b2nd_values(10, k, x)
            for n in range(1, 11):
                assert theorem3_rhs(n, k, x) == hi[n] - lo[n]


def test_theorem3_rejects_n_zero():
    with pytest.raises(ValueError, match="n >= 1"):
        theorem3_rhs(0, 2)


def test_theorem4_examples():
    assert theorem4_rhs(0, 3, F(2, 7), F(-1, 3)) == 1
    for k in (-1, 0, 2):
        for x, y in ((F(0), F(1)), (F(1, 3), F(2, 5))):
            assert theorem4_rhs(1, k, x, y) == x + F(2) ** (-k) + y
    for n in range(6):
        for k in (-1, 2):
            x = F(3, 7)
            assert theorem4_rhs(n, k, x, F(0)) == poly_b2nd_values(n, k, x)[n]


def test_theorem4_matches_gf_addition():
    for n in range(5):
        for k in (-1, 0, 2):
            for i in range(n + 1):
                for j in range(n + 1):
                    x, y = F(i, 3), F(j, 5)
                    assert theorem4_rhs(n, k, x, y) == poly_b2nd_values(n, k, x + y)[n]


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)


def test_theorem4_takes_rational_points_only():
    for x, y in ((X, F(1)), (F(1), X), (X + 1, X)):
        with pytest.raises(TypeError, match="rational"):
            theorem4_rhs(2, 1, x, y)


def rising_pow1p_row(series_, x):
    """pow1p_row with the rising factorial x (x+1) ... (x+j-1) in place of
    (x)_j: the egf coefficients of series * (1-t)^(-x), a wrong x-shift."""
    order = series_.order
    shift = [F(1)]
    for j in range(1, order + 1):
        shift.append(shift[-1] * (x + j - 1) / j)
    product = oracles.naive_mul(list(series_.coeffs), shift, order)
    return tuple(math.factorial(n) * c for n, c in enumerate(product))


def rising_pow1p_nums(series_, x, basis=None):
    """``rising_pow1p_row`` over the denominators of ``pow1p_nums``: a wrong
    (1+t)^x shift, so no ``basis`` row."""
    assert basis is None
    x = F(x)
    den, c = series_._egf[1], x.denominator
    return [int(v * den * c**n) for n, v in enumerate(rising_pow1p_row(series_, x))]


def rising_products(a, c, n):
    """``_falling_products`` with a + i c in place of a - i c: the rising
    factorials, a wrong x-shift on polybernoulli's side."""
    out = [1]
    for l in range(n):
        out.append(out[-1] * (a + l * c))
    return out


def wrong_x_free_entry(original, index):
    """``_x_free_sums`` with v_index one too large."""

    def wrong(family, n, k):
        nums, den = original(family, n, k)
        return tuple(v + den if m == index else v for m, v in enumerate(nums)), den

    return wrong


def inject(monkeypatch, fault):
    if fault.startswith("x-free row"):
        wrong = wrong_x_free_entry(polybernoulli._x_free_sums, int(fault[-1]))
        monkeypatch.setattr(polybernoulli, "_x_free_sums", wrong)
    elif fault == "series x-shift":
        for module in (series, polybernoulli):
            monkeypatch.setattr(module, "pow1p_nums", rising_pow1p_nums)
    else:
        monkeypatch.setattr(polybernoulli, "_falling_products", rising_products)


def test_thm4_catches_a_wrong_x_shift(monkeypatch):
    # thm4 compares the gf's x-shift at x + y (pow1p_nums) with its own
    # falling factorials applied to the gf at x; the two share no code, so a
    # wrong shift in the series fails the identity.
    inject(monkeypatch, "series x-shift")
    report = verify_identity("thm4", 6)
    assert report.total == 840
    assert len(report.failures) > 600


def test_thm4_catches_a_wrong_shift_on_its_own_side(monkeypatch):
    inject(monkeypatch, "falling products")
    report = verify_identity("thm4", 6)
    assert report.total == 840
    assert len(report.failures) > 600


# Two constant polynomials: at 1, (x)_j vanishes for j >= 2, so a wrong
# x-free entry moves only some of its values although the rows differ.
FAULT_POINTS = (
    F(-1), F(0), F(1, 2), F(7, 3), X, 2 * X + F(1, 3),
    polynomial.Polynomial.constant(F(-2, 3)), polynomial.Polynomial.constant(F(1)),
)


def public_sides(name, n, k, x, y):
    """Both sides of an identity at one point, from the public functions."""
    if name == "thm1":
        return poly_b2nd_theorem1(n, x), poly_b2nd_values(n, 2, x)[n]
    if name == "thm2":
        return poly_b2nd_theorem2(n, k, x), poly_b2nd_values(n, k, x)[n]
    if name == "thm3":
        return poly_b2nd_values(n, k, x + 1)[n] - poly_b2nd_values(n, k, x)[n], theorem3_rhs(n, k, x)
    return poly_b2nd_values(n, k, x + y)[n], theorem4_rhs(n, k, x, y)


@pytest.mark.parametrize("fault", ["x-free row at 3", "x-free row at 6", "series x-shift", "falling products"])
@pytest.mark.parametrize("name", ["thm1", "thm2", "thm3", "thm4"])
def test_each_point_holds_exactly_when_the_public_values_agree(monkeypatch, fault, name):
    # verify decides a point by one int comparison, or at a polynomial point
    # by comparing x-free rows, and builds both sides only where these
    # differ. Under a fault on either side, each point must still hold
    # exactly when the public values agree, and a failure must show them as
    # text. The last x-free entry, v_6 at n_max = 6, is read at n = 6 only.
    inject(monkeypatch, fault)
    n_max, ks = (4, [-1, 2]) if name == "thm4" else (6, [-2, 0, 3])
    ks = None if name == "thm1" else ks
    report = verify_identity(name, n_max, ks=ks, xs=None if name == "thm4" else FAULT_POINTS)
    points, failures = [], []
    for n in range(name == "thm3", n_max + 1):
        for k in ks or [2]:
            if name == "thm4":
                grid = [(F(i, 3), F(j, 5)) for i in range(n + 1) for j in range(n + 1)]
            else:
                grid = [(x, None) for x in FAULT_POINTS]
            for x, y in grid:
                lhs, rhs = public_sides(name, n, k, x, y)
                labels = (str(x), str(y)) if name == "thm4" else (polybernoulli._point_label(x),)
                values = (n, *labels) if name == "thm1" else (n, k, *labels)
                points.append((*values, lhs == rhs))
                if lhs != rhs:
                    params = dict(zip(IDENTITIES[name].params, values))
                    failures.append({"params": params, "lhs": str(lhs), "rhs": str(rhs)})
    assert report.points == points
    assert report.failures == failures
    assert failures or (name == "thm4" and fault.startswith("x-free row"))


def test_closed_sums_at_a_rational_point_use_no_gf_x_shift(monkeypatch):
    cases = [(n, k, x) for n in range(1, 9) for k in (-2, 2, 3) for x in (F(0), F(3), F(-10, 7))]
    expected = {
        (n, k, x): (
            poly_b2nd_values(n, 2, x)[n],
            poly_b2nd_values(n, k, x)[n],
            poly_b2nd_values(n, k, x + 1)[n] - poly_b2nd_values(n, k, x)[n],
        )
        for n, k, x in cases
    }

    def forbidden(*args):
        raise AssertionError("a closed sum reached the gf's x-shift")

    for module in (series, bernoulli, gf):
        monkeypatch.setattr(module, "pow1p_row", forbidden)
    for module in (series, polybernoulli):
        monkeypatch.setattr(module, "pow1p_nums", forbidden)
    monkeypatch.setattr(bernoulli, "bernoulli2nd_values", forbidden)
    for n, k, x in cases:
        got = (poly_b2nd_theorem1(n, x), poly_b2nd_theorem2(n, k, x), theorem3_rhs(n, k, x))
        assert got == expected[n, k, x], (n, k, x)


def test_closed_sums_read_neither_value_rows_nor_the_gf_x_shift(monkeypatch):
    # Theorems 1-3 move their own x-free sums to the point: no b_m(x) by
    # bernoulli2nd_poly and Horner's rule, and no pow1p_row of the gf.
    points = (F(-2), F(1, 2), F(7, 3))
    ks = range(-3, 4)
    rows = {(k, x): poly_b2nd_values(12, k, x) for k in ks for x in {*points, *(x + 1 for x in points)}}
    cases = [(n, k, x) for n in range(13) for k in ks for x in points]
    expected = {
        (n, k, x): (rows[2, x][n], rows[k, x][n], rows[k, x + 1][n] - rows[k, x][n] if n else None)
        for n, k, x in cases
    }

    def forbidden(*args):
        raise AssertionError("a closed sum read a value row or the gf's x-shift")

    for module in (series, bernoulli, gf):
        monkeypatch.setattr(module, "pow1p_row", forbidden, raising=False)
    for module in (series, polybernoulli):
        monkeypatch.setattr(module, "pow1p_nums", forbidden)
    for module in (bernoulli, polybernoulli):
        monkeypatch.setattr(module, "bernoulli2nd_poly", forbidden, raising=False)
    for module in (polynomial, polybernoulli):
        monkeypatch.setattr(module, "homogeneous_horner", forbidden, raising=False)
    for n, k, x in cases:
        got = (
            poly_b2nd_theorem1(n, x),
            poly_b2nd_theorem2(n, k, x),
            theorem3_rhs(n, k, x) if n else None,
        )
        assert got == expected[n, k, x], (n, k, x)


def test_a_library_loop_over_n_builds_each_x_free_sum_once(monkeypatch):
    x = F(1, 3)
    expected = [poly_b2nd_values(n, 3, x)[n] for n in range(41)]
    built = []
    original = polybernoulli._more_closed_sums

    def once(family, k, prefix, hi):
        lo = len(prefix)
        if any(lo <= m <= hi for f, k_, m in built if (f, k_) == (family, k)):
            raise AssertionError(f"x-free sums of {family} at k = {k} built again")
        built.extend((family, k, m) for m in range(lo, hi + 1))
        return original(family, k, prefix, hi)

    monkeypatch.setattr(polybernoulli, "_CLOSED_SUMS", {})
    monkeypatch.setattr(polybernoulli, "_more_closed_sums", once)
    assert [poly_b2nd_theorem2(n, 3, x) for n in range(41)] == expected
    assert [poly_b2nd_theorem2(n, 3, x) for n in range(41)] == expected
    assert poly_b2nd_theorem2(40, 3, X)(x) == expected[40]
    for n in range(1, 41):
        theorem3_rhs(n, 3, x)
    assert sorted(built) == [(family, 3, m) for family in ("thm2", "thm3") for m in range(41)]


def test_the_caches_keep_the_latest_k_only(monkeypatch):
    bound = polybernoulli.MAX_CACHED_K
    names = ("thm2", "thm3", "thm4")
    assert bound >= sum(len(IDENTITIES[name].ks) for name in names)
    monkeypatch.setattr(polybernoulli, "_CLOSED_SUMS", {})
    gf._gf_values.cache_clear()
    try:
        for k in range(-50, 50):
            assert poly_b2nd_theorem2(3, k, F(1, 2)) == poly_b2nd_values(3, k, F(1, 2))[3]
        latest = set(range(50 - bound, 50))
        assert set(polybernoulli._CLOSED_SUMS) == {("thm2", k) for k in latest}
        assert gf._gf_values.cache_info().currsize == bound
        # verify's default k of thm2, thm3 and thm4 fit at once, also at
        # three different n_max.
        gf._gf_values.cache_clear()
        for _ in range(2):
            for n_max, name in enumerate(names, 3):
                assert verify_identity(name, n_max).passed
        assert gf._gf_values.cache_info().misses == sum(len(IDENTITIES[name].ks) for name in names)
    finally:
        gf._gf_values.cache_clear()


def test_weights_are_a_grow_only_prefix():
    for family, k in (("thm1", None), ("thm2", 3), ("thm2", -2), ("thm3", 4)):
        short = closed_sum_weights(family, k, 5)
        long = closed_sum_weights(family, k, 30)
        assert long[:6] == short
    assert closed_sum_weights("thm2", 3, 12) == [polybernoulli._li_coeff(l + 1, 3) / (l + 1) for l in range(13)]
    assert closed_sum_weights("thm3", -1, 12) == [polybernoulli._li_coeff(p, -1) for p in range(13)]
    b = bernoulli.bernoulli_numbers(12)
    assert closed_sum_weights("thm1", None, 12) == [b[l] / (l + 1) for l in range(13)]


@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=40), min_size=1, max_size=12),
    st.data(),
)
def test_addition_sum_matches_the_fraction_loop(row, data):
    n = data.draw(st.integers(0, len(row) - 1))
    y = data.draw(st.one_of(small_rationals, st.integers(-6, 6).map(F)))
    value = polybernoulli._addition_sum(common_denominator(row), n, y)
    assert type(value) is F
    assert value == oracles.addition_sum(row, n, y)


def test_addition_sum_edge_points():
    row = [F(1), F(-1, 2), F(1, 6)]
    for y in (F(0), F(3), F(-2), F(-5, 3)):
        for n in range(3):
            assert polybernoulli._addition_sum(common_denominator(row), n, y) == (
                oracles.addition_sum(row, n, y)
            )
    assert polybernoulli._addition_sum(([7], 3), 0, F(4, 9)) == F(7, 3)


def test_li_coeff_matches_the_fraction_loop():
    for k in range(-5, 6):
        for n in range(31):
            value = polybernoulli._li_coeff(n, k)
            assert type(value) is F
            assert value == oracles.li_coeff(n, k), (n, k)
    assert polybernoulli._li_coeff(0, 3) == 0 and polybernoulli._li_coeff(1, -4) == 1


@given(st.integers(0, 8), st.integers(-3, 3), small_rationals, small_rationals)
def test_theorem4_at_random_points(n, k, x, y):
    assert theorem4_rhs(n, k, x, y) == poly_b2nd_values(n, k, x + y)[n]


@given(st.integers(0, 8), st.integers(-3, 3), small_rationals)
def test_theorem2_at_random_points(n, k, x):
    assert poly_b2nd_theorem2(n, k, x) == poly_b2nd_values(n, k, x)[n]


@given(st.integers(1, 8), st.integers(-3, 3), small_rationals)
def test_theorem3_at_random_points(n, k, x):
    diff = poly_b2nd_values(n, k, x + 1)[n] - poly_b2nd_values(n, k, x)[n]
    assert theorem3_rhs(n, k, x) == diff


@given(st.integers(0, 10), st.integers(-3, 3), small_rationals)
def test_symbolic_row_evaluates_to_the_rational_row(n, k, r):
    # The symbolic row is a basis change of the quotient's coefficients; at a
    # rational point it must agree with the series product there.
    symbolic = poly_b2nd_values(n, k, X)
    assert tuple(p(r) for p in symbolic) == poly_b2nd_values(n, k, r)


def test_thm3_at_the_symbolic_point(monkeypatch):
    # At a non-constant point the gf side b_n(x+1) - b_n(x) has the x-free
    # row t Q(t), compared with the closed sum's; a point that holds builds no
    # polynomial.
    def forbidden(*args):
        raise AssertionError("built a polynomial")

    monkeypatch.setattr(combinatorics, "binomial_falling_poly", forbidden)
    report = verify_identity("thm3", 6, xs=[X, 2 * X + F(1, 3), 0])
    assert report.passed and report.total == 6 * 7 * 3


@pytest.mark.parametrize("name", ["eq9", "eq2", "b-equals-higher-order"])
def test_symbolic_identities_share_no_basis_change(monkeypatch, name):
    # bernoulli2nd_poly, one side of each identity, comes from its cache; the
    # other side must reach neither the S1-row basis change nor a Stirling
    # triangle.
    for n in range(9):
        bernoulli2nd_poly(n)

    def forbidden(*args):
        raise AssertionError("reached a Stirling basis change")

    for module in (combinatorics, polybernoulli, bernoulli):
        for name_ in ("to_monomial_basis", "stirling1", "stirling2", "stirling1_row", "stirling2_row"):
            monkeypatch.setattr(module, name_, forbidden, raising=False)
    assert verify_identity(name, 8).passed


def test_eq2_catches_a_wrong_series_quotient(monkeypatch):
    # The gf side of eq2 divides series by _quotient_term; bernoulli2nd_poly
    # must not, or a sign error there would pass on both sides. Both caches
    # behind bernoulli2nd_poly start empty, so it is rebuilt under the error.

    def flipped(a_m, la, q, b, lb, row):
        qs, lq = q
        s = series._dot(row, qs, b[len(qs):0:-1])
        return F(a_m * lq * lb + la * s, la * lq * b[0])

    monkeypatch.setattr(series, "_quotient_term", flipped)
    monkeypatch.setattr(bernoulli, "_B2ND", {})
    bernoulli2nd_poly.cache_clear()
    try:
        assert not verify_identity("eq2", 12).passed
    finally:
        bernoulli2nd_poly.cache_clear()


# -- caches ------------------------------------------------------------------


def cache_sizes():
    return {
        name: fn.cache_info().currsize
        for name, fn in vars(polybernoulli).items()
        if hasattr(fn, "cache_info")
    }


def test_caches_do_not_grow_with_the_number_of_points():
    def evaluate_at(points):
        for x in points:
            poly_b2nd_values(6, 2, x)
            poly_b2nd_theorem1(6, x)
            poly_b2nd_theorem2(6, -1, x)
            theorem3_rhs(6, 3, x)

    evaluate_at(F(i, 7) for i in range(1, 11))
    sizes = cache_sizes()
    assert "_gf_values" in sizes
    evaluate_at(F(2 * i + 1, 11) for i in range(200))
    assert cache_sizes() == sizes


@pytest.mark.parametrize("name", ["thm2", "thm3", "thm4"])
def test_verify_composes_the_polylog_once_per_k(monkeypatch, name):
    composed = []
    original = gf._s2_sum

    def counted(order, k):
        composed.append(k)
        return original(order, k)

    monkeypatch.setattr(gf, "_s2_sum", counted)
    polybernoulli._gf_values.cache_clear()
    assert verify_identity(name, 6).passed
    assert sorted(composed) == list(IDENTITIES[name].ks)
    assert polybernoulli._gf_values.cache_info().misses == len(IDENTITIES[name].ks)


# -- verify_identity ---------------------------------------------------------


def test_verify_identity_passes_on_small_ranges():
    report = verify_identity("thm2", 10, ks=[-2, -1, 0, 1, 2, 3], xs=[F(0)])
    assert report.passed and report.status == "pass"
    assert report.total == 11 * 6
    assert report.failures == []

    report = verify_identity("thm2", 3, ks=[1, 1])
    assert report.total == 4 * len(IDENTITIES["thm2"].xs)
    assert report.range_spec["k"] == "1"

    report = verify_identity("eq9", 12)
    assert report.passed and report.total == 13

    report = verify_identity("eq2", 10)
    assert report.passed

    report = verify_identity("b-equals-higher-order", 8)
    assert report.passed

    report = verify_identity("stirling-inversion", 12)
    assert report.passed and report.total == sum(n + 1 for n in range(13))

    report = verify_identity("thm1", 4)
    assert report.passed
    assert report.range_spec["x"] == "-1,0,1/2,1,x"

    report = verify_identity("thm3", 6)
    assert report.passed and report.total == 6 * 7 * 3

    report = verify_identity("thm4", 8, ks=[2])
    assert report.passed and report.total == sum((n + 1) ** 2 for n in range(9))


def test_verify_identity_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown identity name"):
        verify_identity("thm9", 3)
    with pytest.raises(ValueError, match="does not take a k range"):
        verify_identity("eq9", 3, ks=[1])
    with pytest.raises(ValueError, match="does not take x points"):
        verify_identity("stirling-inversion", 3, xs=[F(0)])
    with pytest.raises(ValueError, match="n_max"):
        verify_identity("eq9", -1)


@pytest.mark.parametrize(
    "name, n_max, ranges",
    [
        ("thm3", 0, {}),
        ("thm3", 0, {"ks": [2], "xs": [F(1, 2)]}),
        ("thm2", 3, {"ks": []}),
        ("thm3", 3, {"ks": ()}),
        ("thm4", 3, {"ks": []}),
        ("thm1", 3, {"xs": []}),
        ("thm2", 3, {"xs": []}),
    ],
)
def test_verify_identity_rejects_a_range_without_points(name, n_max, ranges):
    with pytest.raises(ValueError, match=f"identity '{name}' has no point in the range n_max={n_max}"):
        verify_identity(name, n_max, **ranges)


def test_verify_identity_report_is_lexicographically_ordered():
    report = verify_identity("thm2", 3, ks=[2, -1, 0], xs=[F(1), F(0), F(-1)])
    seen = [
        (p["params"]["n"], p["params"]["k"], p["params"]["x"]) for p in report.checked
    ]
    expected = [
        (n, k, str(F(x)))
        for n in range(4)
        for k in (-1, 0, 2)
        for x in (-1, 0, 1)
    ]
    assert seen == expected


def test_identity_registry_is_complete():
    assert set(IDENTITIES) == {
        "thm1",
        "thm2",
        "thm3",
        "thm4",
        "eq9",
        "eq2",
        "b-equals-higher-order",
        "stirling-inversion",
    }
