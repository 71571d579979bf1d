"""Small independent references that tests check the package against."""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from holerates.extremal import _class_rates, _hole_classes
from holerates.measures import MarkovChain
from holerates.polynomials import RationalPolynomial
from holerates.roots import _Enclosure, _sturm_chain, _variations_at, compare
from holerates.words import DEFAULT_ENUMERATION_CAP, autocorrelation


def trinomial(r, m):
    """m z^r - z + 1: the survival denominator of every unbordered hole of
    length r and measure m."""
    return RationalPolynomial([1, -1] + [0] * (r - 2) + [m])


def count_roots(poly, a, b):
    """Distinct roots of ``poly`` in (a, b) for 0 <= a < b, neither a root,
    by Sturm's theorem."""
    chain = _sturm_chain(poly.ints)
    return _variations_at(chain, Fraction(a)) - _variations_at(chain, Fraction(b))


def horner(poly, x):
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def border_data(word, measure):
    """``polynomials.border_data`` from the autocorrelation bits times a
    running product of the factors from the end of the word, every shift
    visited."""
    w = word.letters
    nums = measure.integer_factors[1]
    chain = isinstance(measure, MarkovChain)
    factors = [nums[2 * x + y] for x, y in zip(w, w[1:])] if chain else [nums[x] for x in w]
    if chain and 0 in factors:
        return None
    data, prod = [], 1
    for j, bit in enumerate(autocorrelation(word)):
        if j:
            prod *= factors[-j]
        data.append(prod if bit else 0)
    return (*data, prod, w[0], w[-1]) if chain else (*data, prod * factors[0])


def brute_period(letters):
    n = len(letters)
    for t in range(1, n + 1):
        if all(letters[i] == letters[i + t] for i in range(n - t)):
            return t


def unbordered(word):
    return brute_period(word.letters) == len(word)


def brute_force_max(r, measure, tol):
    """The maximal escape rate over the words of length r by the plain loop:
    every correlation class rated, the maximum kept with ``compare``.
    Returns the snapshot of the first argmax word and every argmax word in
    enumeration order."""
    classes = _hole_classes(r, measure, DEFAULT_ENUMERATION_CAP)
    best, top = None, []
    for hole_class, res in zip(classes, _class_rates(classes, measure, tol)):
        order = 1 if best is None else compare(res, best)
        if order > 0:
            best, top = res, [hole_class]
        elif order == 0:
            top.append(hole_class)
    return best, tuple(sorted((w for c in top for w in c.words), key=lambda w: w.letters))


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


@contextmanager
def plain_bisection():
    """Every enclosure refined by ``bisection_refine`` inside the block."""
    with mock.patch.object(_Enclosure, "refine", bisection_refine):
        yield
