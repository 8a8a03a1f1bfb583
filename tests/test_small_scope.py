"""Every map between discrete spaces of one to three atoms, with weights
from {0, 1/3, 1, 2, inf}, up to relabelling (the small-scope hypothesis:
most faults show on some small instance)."""

from dataclasses import fields, replace
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import factorial

from malg import (
    INF,
    check_hom_laws,
    compression,
    induced_homomorphism,
    is_inverse_nil_preserving,
    lipschitz_bruteforce,
    lipschitz_fast,
    make_map,
    make_space,
    rho,
)

from helpers import definition_pair_oracle, oracle_outputs, point_images

WEIGHTS = (0, Fraction(1, 3), 1, 2, INF)


def canonical_forms():
    """One form per map up to relabelling source and target atoms: a sorted
    tuple with one (target weight, sorted source weights sent to it) per
    target atom, with 1 to 3 atoms on each side."""
    kinds = [
        (w, sent)
        for w in range(len(WEIGHTS))
        for k in range(4)
        for sent in combinations_with_replacement(range(len(WEIGHTS)), k)
    ]

    def extend(form, start, sources_left):
        if sources_left < 3:
            yield form
        if len(form) < 3:
            for i in range(start, len(kinds)):
                k = len(kinds[i][1])
                if k <= sources_left:
                    yield from extend(form + (kinds[i],), i, sources_left - k)

    for i, kind in enumerate(kinds):
        yield from extend((kind,), i, 3 - len(kind[1]))


@cache
def discrete_space(prefix, weights):
    points = [f"{prefix}{i}" for i in range(len(weights))]
    return make_space(points, [[p] for p in points], [WEIGHTS[w] for w in weights])


def build_map(form):
    point_fn, source_weights = {}, []
    for t, (_, sent) in enumerate(form):
        for w in sent:
            point_fn[f"s{len(source_weights)}"] = f"t{t}"
            source_weights.append(w)
    source = discrete_space("s", tuple(source_weights))
    target = discrete_space("t", tuple(w for w, _ in form))
    return make_map(source, target, point_fn)


def labelled_count(form):
    """How many maps with labelled atoms have this form: the orderings of
    its target atoms, times the labellings of the sources that send the
    right multiset of weights to each."""
    orderings = factorial(len(form))
    for kind in set(form):
        orderings //= factorial(form.count(kind))
    n_sources = sum(len(sent) for _, sent in form)
    labellings = factorial(n_sources)
    for _, sent in form:
        for w in set(sent):
            labellings //= factorial(sent.count(w))
    return orderings * labellings


def test_canonical_forms_cover_every_map():
    forms = list(canonical_forms())
    assert len(forms) == len(set(forms)) == 21_900
    n_weights = len(WEIGHTS)
    every_map = sum(
        n_weights**n * n_weights**m * m**n for n in range(1, 4) for m in range(1, 4)
    )
    assert every_map == 480_400
    assert sum(labelled_count(form) for form in forms) == every_map


def test_every_small_map():
    for form in canonical_forms():
        phi = build_map(form)
        comp = compression(phi)
        brute = lipschitz_bruteforce(phi)
        assert comp == lipschitz_fast(phi) == brute.result, form
        # the oracle's value and witness are those of its definition
        expected = definition_pair_oracle(phi, point_images(phi))
        assert oracle_outputs(brute) == expected, form
        # a bounded form with 2^n >= 2 finite target elements computes
        # 2^n (2^n - 1) / 2 ratios, one per unordered pair; any other none
        n = sum(1 for w in phi.target.weights if not (w.is_zero or w.is_infinite))
        elements = 1 << n
        pairs = elements * (elements - 1) // 2 if brute.result.is_bounded else 0
        assert brute.pairs == pairs, form
        if not is_inverse_nil_preserving(phi):
            continue
        hom = induced_homomorphism(phi)
        assert check_hom_laws(hom).ok, form
        if brute.witness is not None:
            a, b = brute.witness
            attained = rho(hom.apply(a), hom.apply(b))
            assert attained == brute.result.value * rho(a, b), form


def test_oracle_computes_each_unordered_pair_once():
    # test_every_small_map checks the count on every form; these name it:
    # 2^n finite target elements give 2^n (2^n - 1) / 2 ratios, and an
    # unbounded form none
    cases = {
        ((2, (2,)),): 1,
        ((1, (1, 2)), (2, ())): 6,
        ((1, (2,)), (2, (3,)), (3, (1,))): 28,
        ((4, (2,)),): 0,
        ((0, (2,)),): 0,
    }
    for form, pairs in cases.items():
        brute = lipschitz_bruteforce(build_map(form))
        assert brute.pairs == pairs, form
    assert not brute.result.is_bounded
    # the report stores these three fields, and the count takes no part in
    # equality
    assert [f.name for f in fields(brute)] == ["result", "witness", "pairs"]
    assert brute == replace(brute, pairs=brute.pairs + 1)
