"""Small independent references that tests check the package against."""

import itertools
from contextlib import contextmanager
from fractions import Fraction
from functools import cmp_to_key
from unittest import mock

from holerates.extremal import _hole_classes
from holerates.measures import BernoulliMeasure, MarkovChain, hole_measure, is_allowed, markov_weights
from holerates.polynomials import RationalPolynomial, survival_denominator
from holerates.roots import (
    DEFAULT_TOL,
    _Core,
    _Enclosure,
    _sign_at,
    _sturm_chain,
    _variations,
    compare,
    escape_rate,
    rate_from_denominator,
    refine,
    smallest_positive_root,
)
from holerates.survival import build_automaton
from holerates.words import DEFAULT_ENUMERATION_CAP, enumerate_words


def trinomial(r, m):
    """m z^r - z + 1: the survival denominator of every unbordered hole of
    length r and measure m."""
    return RationalPolynomial([1, -1] + [0] * (r - 2) + [m])


def count_roots(poly, a, b):
    """Distinct roots of ``poly`` in (a, b) for 0 <= a < b, neither a root,
    by Sturm's theorem."""
    chain = _sturm_chain(poly.ints)
    a, b = Fraction(a), Fraction(b)
    return sum(
        sign * _variations(_sign_at(p, x.numerator, x.denominator) for p in chain) for sign, x in ((1, a), (-1, b))
    )


def horner(poly, x):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def dyadic_value(ints, num, k):
    """2^(kd) p(num / 2^k), exactly: Horner in num with each coefficient
    a_i times (2^k)^(d - i)."""
    d = len(ints) - 1
    acc = 0
    for i in range(d, -1, -1):
        acc = acc * num + ints[i] * 2 ** (k * (d - i))
    return acc


def poly_add(*polys):
    """The sum of RationalPolynomials, in Fraction arithmetic."""
    size = max(len(p.coeffs) for p in polys)
    return RationalPolynomial(
        sum(p.coeffs[k] for p in polys if k < len(p.coeffs)) for k in range(size)
    )


def poly_mul(a, b):
    """The product of two RationalPolynomials, in Fraction arithmetic."""
    out = [Fraction(0)] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return RationalPolynomial(out)


def poly_sub(a, b):
    return poly_add(a, poly_mul(RationalPolynomial([-1]), b))


def monomial(k, c):
    """c z^k."""
    return RationalPolynomial([0] * k + [c])


ONE_MINUS_Z = RationalPolynomial([1, -1])


def autocorrelation(word):
    """The 0/1 border vector: bit i is 1 iff the suffix starting at i equals
    the prefix of the same length.  Bit 0 is always 1."""
    w = word.letters
    return tuple(int(w[i:] == w[: len(w) - i]) for i in range(len(w)))


def weighted_autocorrelation(word, measure):
    """Border polynomial of ``word`` with the z^j term weighted by the
    product measure of the last j letters.  Constant term is always 1."""
    coeffs = []
    weight = Fraction(1)
    for bit, letter in zip(autocorrelation(word), reversed(word.letters)):
        coeffs.append(weight if bit else 0)
        weight *= measure.probs[letter]
    return RationalPolynomial(coeffs)


def markov_weighted_autocorrelation(word, chain):
    """Border polynomial of ``word`` weighted by transition probabilities,
    as (full, reduced): the z^j term of ``full`` carries the product of the
    last j transition probabilities of the word; ``reduced`` drops the
    j = r-1 term (present exactly when the word starts and ends with the
    same letter)."""
    w = word.letters
    weights = [Fraction(1)]
    for i, j in zip(w[-2::-1], w[:0:-1]):
        weights.append(weights[-1] * chain.matrix[i][j])
    coeffs = [c if bit else 0 for bit, c in zip(autocorrelation(word), weights)]
    return RationalPolynomial(coeffs), RationalPolynomial(coeffs[:-1])


def bernoulli_form(word, measure):
    """mu z^r + (1 - z) * weighted autocorrelation, in Fraction arithmetic."""
    mu_zr = monomial(len(word), hole_measure(word, measure))
    return poly_add(mu_zr, poly_mul(ONE_MINUS_Z, weighted_autocorrelation(word, measure)))


def chain_forms(word, chain):
    """The path-weight and the cycle-weight forms of the chain denominator,
    in Fraction arithmetic; their degree-(r+1) terms cancel."""
    weights = markov_weights(word, chain)
    full, reduced = markov_weighted_autocorrelation(word, chain)
    letters = word.letters
    r = len(letters)
    chi = chain.second_eigenvalue
    equal_ends = letters[0] == letters[-1]
    factor = poly_mul(ONE_MINUS_Z, RationalPolynomial([1, -chi]))
    head = RationalPolynomial([chain.matrix[letters[-1]][letters[0]]] + ([-chi] if equal_ends else []))
    path_form = poly_add(poly_mul(head, monomial(r, weights.path_weight)), poly_mul(factor, full))
    cycle_form = poly_add(monomial(r, weights.cycle_weight), poly_mul(factor, reduced))
    if equal_ends:
        cycle_form = poly_add(
            cycle_form,
            poly_mul(RationalPolynomial([1, -(1 + chi)]), monomial(r - 1, weights.path_weight)),
        )
    return path_form, cycle_form


def survival_part(avoiding, denominator, r):
    """The numerator of sum p_n z^n over ``denominator``, from the
    avoiding-words generating function avoiding / denominator, in Fraction
    arithmetic: minus the window of the words shorter than r, over z^r."""
    shifted = poly_sub(avoiding, poly_mul(denominator, RationalPolynomial([1] * r)))
    assert not any(shifted.coeffs[:r])
    return RationalPolynomial(shifted.coeffs[r:])


def fraction_genfun(word, measure):
    """(numerator, denominator) of the survival generating function, in
    Fraction arithmetic: the closed form for a product measure; for a chain
    the automaton's series times the path-weight denominator, which must
    truncate below degree r; the package solves the word equations for
    both measures instead."""
    r = len(word)
    if isinstance(measure, BernoulliMeasure):
        denominator = bernoulli_form(word, measure)
        return survival_part(weighted_autocorrelation(word, measure), denominator, r), denominator
    denominator = chain_forms(word, measure)[0]
    den = denominator.coeffs
    seeds = over_powers(build_automaton(word, measure).integer_totals(3 * r + 8), measure)[r:]
    conv = [
        sum(den[i] * seeds[n - i] for i in range(min(n, len(den) - 1) + 1))
        for n in range(2 * r + 9)
    ]
    assert not any(conv[r:])
    return RationalPolynomial(conv[:r]), denominator


def fraction_det(matrix):
    """Determinant of a matrix of RationalPolynomials, by cofactor expansion
    along the first row, in Fraction arithmetic."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = RationalPolynomial([])
    for j, entry in enumerate(matrix[0]):
        term = poly_mul(entry, fraction_det([row[:j] + row[j + 1 :] for row in matrix[1:]]))
        total = poly_sub(total, term) if j % 2 else poly_add(total, term)
    return total


def fraction_word_equations(word, measure):
    """(avoiding, terminal, avoiding_by_last, det) of the word-counting
    equations, solved by Cramer's rule in Fraction arithmetic with the
    probabilities as they are, every field then divided by det's constant
    term."""
    r = len(word)
    one, zero = RationalPolynomial([1]), RationalPolynomial([])
    if isinstance(measure, BernoulliMeasure):
        border = weighted_autocorrelation(word, measure)
        matrix = [[ONE_MINUS_Z, one], [monomial(r, hole_measure(word, measure)), poly_sub(zero, border)]]
        rhs = [one, zero]
    else:
        first, last = word.letters[0], word.letters[-1]
        pi, x = measure.matrix, measure.stationary
        path = markov_weights(word, measure).path_weight
        border = markov_weighted_autocorrelation(word, measure)[0]
        matrix = [
            [poly_sub(monomial(1, pi[0][0]), one), monomial(1, pi[1][0]), monomial(0, -(last == 0))],
            [monomial(1, pi[0][1]), poly_sub(monomial(1, pi[1][1]), one), monomial(0, -(last == 1))],
            [monomial(r, pi[0][first] * path), monomial(r, pi[1][first] * path), poly_sub(zero, border)],
        ]
        rhs = [monomial(1, -x[0]), monomial(1, -x[1]), monomial(r, -x[first] * path)]
    det = fraction_det(matrix)
    unknowns = [
        fraction_det([row[:j] + [b] + row[j + 1 :] for row, b in zip(matrix, rhs)])
        for j in range(len(matrix))
    ]
    scale = RationalPolynomial([1 / det.coeffs[0]])
    unknowns = [poly_mul(scale, u) for u in unknowns]
    det = poly_mul(scale, det)
    if isinstance(measure, BernoulliMeasure):
        return unknowns[0], unknowns[1], None, det
    return poly_add(det, unknowns[0], unknowns[1]), unknowns[2], tuple(unknowns[:2]), det


def over_powers(totals, measure):
    """Integer totals b^n x_n, b the measure's common denominator, as the
    Fractions x_n."""
    b = measure.integer_factors[0]
    return [Fraction(t, b**n) for n, t in enumerate(totals)]


def series_terms(series):
    """The terms q_n / d_0^(n+1) of a ``RationalGenFun.series`` result
    (q, d_0), as Fractions."""
    q, d0 = series
    return [Fraction(q_n, d0 ** (n + 1)) for n, q_n in enumerate(q)]


def fraction_series(numerator, denominator, count):
    """The plain Fraction recurrence sum_i d_i p_(n-i) = N_n, solved for p_n."""
    num, den = numerator.coeffs, denominator.coeffs
    out = []
    for n in range(count):
        acc = (num[n] if n < len(num) else 0) - sum(
            den[i] * out[n - i] for i in range(1, min(n, len(den) - 1) + 1)
        )
        out.append(acc / den[0])
    return out


def border_data(word, measure):
    """``polynomials.border_data`` from the autocorrelation bits times a
    running product of the factors from the end of the word, every shift
    visited."""
    w = word.letters
    _, start, rows = measure.integer_factors
    chain = isinstance(measure, MarkovChain)
    factors = [rows[x][y] for x, y in zip(w, w[1:])] if chain else [start[x] for x in w]
    if chain and 0 in factors:
        return None
    data, prod = [], 1
    for j, bit in enumerate(autocorrelation(word)):
        if j:
            prod *= factors[-j]
        data.append(prod if bit else 0)
    return (*data, prod * start[w[0]]) if chain else (*data, prod * factors[0])


def literal_totals(word, measure, length):
    """The measures of the words of each length 0..``length`` that do not
    contain ``word`` as a factor, each word listed by ``itertools.product``
    and weighed in ``Fraction``s: its probabilities, or a chain's
    stationary weight times its transitions."""
    hole, r = word.letters, len(word)
    totals = []
    for n in range(length + 1):
        total = Fraction(0)
        for letters in itertools.product(range(measure.alphabet.size), repeat=n):
            if any(letters[i : i + r] == hole for i in range(n - r + 1)):
                continue
            if isinstance(measure, MarkovChain):
                weight = measure.stationary[letters[0]] if letters else Fraction(1)
                for x, y in zip(letters, letters[1:]):
                    weight *= measure.matrix[x][y]
            else:
                weight = Fraction(1)
                for x in letters:
                    weight *= measure.probs[x]
            total += weight
        totals.append(total)
    return tuple(totals)


def brute_period(letters):
    n = len(letters)
    for t in range(1, n + 1):
        if all(letters[i] == letters[i + t] for i in range(n - t)):
            return t


def unbordered(word):
    return brute_period(word.letters) == len(word)


def brute_force_max(r, measure, tol):
    """The maximal escape rate over the words of length r by the plain loop:
    every correlation class rated, its denominator built from its first word
    (not from the walk's border data), the maximum kept with ``compare``.
    Returns the snapshot of the first argmax word and every argmax word in
    enumeration order."""
    classes = _hole_classes(r, measure, DEFAULT_ENUMERATION_CAP)
    best, top = None, []
    for hole_class in classes:
        res = rate_from_denominator(survival_denominator(hole_class.words[0], measure), measure, tol)
        order = 1 if best is None else compare(res, best)
        if order > 0:
            best, top = res, [hole_class]
        elif order == 0:
            top.append(hole_class)
    return best, tuple(sorted((w for c in top for w in c.words), key=lambda w: w.letters))


def ordering_by_sort(r, measure, tol):
    """(word, rate, rank) of every allowed word of length r, each rated on
    its own and all sorted at once: by rate, largest first by ``compare``,
    ties by letters.  A rank is the position of the first word of its rate."""
    words = [w for w in enumerate_words(measure.alphabet, r) if is_allowed(w, measure)]
    rates = {w: escape_rate(w, measure, tol) for w in words}

    def order(a, b):
        return compare(rates[b], rates[a]) or (a.letters > b.letters) - (a.letters < b.letters)

    words.sort(key=cmp_to_key(order))
    table = []
    for i, w in enumerate(words):
        tied = i and compare(rates[w], rates[words[i - 1]]) == 0
        table.append((w, rates[w], table[-1][2] if tied else i + 1))
    return table


def bisection_refine(enclosure, tol):
    """``enclosure`` narrowed by plain bisection: ``step`` until the relative
    width is at most tol and the interval lies below the cap.  Quadratic
    interval refinement must end on the same endpoints."""
    tn, td = tol.numerator, tol.denominator
    while enclosure.exact is None and not (
        enclosure.lo_n > 0
        and (enclosure.hi_n - enclosure.lo_n) * td <= tn * enclosure.lo_n
        and (
            enclosure.cap is None
            or enclosure.hi_n * enclosure.cap.denominator <= enclosure.cap.numerator << enclosure.k
        )
    ):
        enclosure.step()


def rate_by_narrowing(poly, measure, tol=DEFAULT_TOL):
    """``rate_from_denominator`` by narrowing in steps: while the lower end
    is not above 1, refine to 1/1024 of the relative width, which from a
    cell (1, 1 + 2^-s) lands ten levels deeper each time.  Landing at once
    on the first of those levels with lower > 1 must give the same ends."""
    result = smallest_positive_root(poly, tol, measure.root_candidates)
    while result.lower <= 1:
        result = refine(result, result.rel_width() / 1024)
    return result


@contextmanager
def plain_bisection():
    """Every enclosure bracketed by the probes and refined by
    ``bisection_refine`` inside the block: no landing on the stop cell."""
    with mock.patch.object(_Enclosure, "refine", bisection_refine), mock.patch.object(
        _Enclosure, "_land", lambda enclosure, tol: False
    ):
        yield


@contextmanager
def no_certificate():
    """Every count inside the block read off a Sturm chain: no core certifies
    a point, not even by Descartes' rule, so no enclosure leaves plain
    bisection for quadratic refinement."""
    with mock.patch.object(_Core, "certifies", lambda core, num, den: False):
        yield


def slope_bound(ints, x):
    """q(x) = sum_{a_i > 0} i a_i x^(i-1) + sum_{a_i < 0} i a_i, in Fraction
    arithmetic: at least p'(z) for every z in [1, x]."""
    x = Fraction(x)
    return sum(i * a * (x ** (i - 1) if a > 0 else 1) for i, a in enumerate(ints) if i)
