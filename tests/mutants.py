"""The one registry of planted faults, and the one kill oracle.

Each row of `MUTANTS` plants one fault in malg. Either one snippet of one
function's source is replaced (`helpers.mutated`), or, where the snippet
is None, a hand-written fault takes the function's place. A module
function is replaced in every malg module that binds it, since the cli
and metric import the routes and the induced hom by name; a method is
replaced on its class.

Seven observers read malg through its modules. Each yields its output item
by item, and its clean output is computed, and sanity-checked, once per
session. A row is killed by the first of its observers, run cheapest
first, whose output under the fault leaves the clean output; the
observer stops at the first item that differs, and an exception that
ends it counts as a difference. A row that must survive names why it is
equivalent. A route row that changes the constant names the route that
each theorem-check violation must show alone against the other two.

test_cli and test_maps run the rows: one parametrized test for each
observer set, under the test names the rows have always had. Run them
alone with `pytest tests -k "mutant or planted_fault_caught and not functor"`.

The observers' inputs live here too: the worked example, the null-law
maps and the small and faulty homs, which the null-law and hom-law tests
of test_maps compare against their references as well.
"""

from __future__ import annotations

import io
import json
import random
import sys
import tempfile
from contextlib import closing, contextmanager, redirect_stdout
from fractions import Fraction
from functools import cache, reduce
from itertools import chain, product, zip_longest
from operator import and_, or_
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import malg.algebra
import malg.cli
import malg.maps
import malg.metric
import malg.spaces
from malg import (
    INF,
    AlgebraElement,
    BooleanHom,
    ExtRational,
    build_algebra,
    identity_map,
    induced_homomorphism,
    is_inverse_nil_preserving,
    make_map,
    make_space,
    mu_bar,
    random_instance,
)
from malg.formats import dumps_canonical, map_to_obj

from helpers import drop_lowest_image_atom, mutated, point_disagreement
from test_small_scope import build_map, canonical_forms


# --- the observers' inputs -------------------------------------------------


@cache
def _worked_example() -> tuple:
    """conftest's s1 and phi, built once with the clean code: the documents
    id.json (the identity on s1) and phi.json, and phi's induced hom."""
    s1 = make_space(
        ["p1", "p2", "p3", "p4"],
        [["p1", "p2"], ["p3"], ["p4"]],
        [Fraction(1, 2), Fraction(1, 3), 0],
    )
    s2 = make_space(["q1", "q2"], [["q1"], ["q2"]], [1, 2])
    phi = make_map(s1, s2, {"p1": "q1", "p2": "q1", "p3": "q1", "p4": "q2"})
    documents = {
        "id.json": dumps_canonical(map_to_obj(identity_map(s1))),
        "phi.json": dumps_canonical(map_to_obj(phi)),
    }
    return documents, induced_homomorphism(phi)


# A metric map whose pointwise Lipschitz constant, 3/2, is attained only
# on its last point pair (b, c): the classify observer's document. It is
# written out, so no library code builds it.
METRIC_MAP = {
    "source": {
        "points": ["a", "b", "c"],
        "atoms": [["a"], ["b"], ["c"]],
        "weights": ["1", "1", "1"],
        "dist": ["1", "2", "2"],
    },
    "target": {
        "points": ["x", "y", "z"],
        "atoms": [["x"], ["y"], ["z"]],
        "weights": ["1", "2", "1/2"],
        "dist": ["1", "2", "3"],
    },
    "fn": {"a": "x", "b": "y", "c": "z"},
}


# Atom masks for the hom of phi (non-null atoms 0 and 1 into a codomain
# with top 0b011), each bad in one way or, as the first two, in two; the
# first bad mask in order is named, as a check of each mask in turn names
# it. The last two have a bad key: a bool equal to atom 1, and an atom
# that is not in the domain.
BAD_ATOM_MASKS = (
    {0: -1, 1: 3.0},
    {0: 3.0, 1: -1},
    {0: 0b011, 1: True},
    {0: 0b111, 1: 0},
    {0: 0b100, 1: 0},  # the null atom alone: no bit inside top
    {0: 0b011, 1: 0b1000},
    {0: 0b011, True: 0},
    {0: 0b011, 2: 0},
)


@cache
def _null_law_maps() -> tuple:
    """(map, is_inverse_nil_preserving) for all 21,900 small-scope forms
    and 1,200 random instances (seeds 0, 7 and 11, a null target atom
    forced on even indices)."""
    maps = [build_map(form) for form in canonical_forms()]
    maps += [
        random_instance(seed, i, force_null_target=(i % 2 == 0))
        for seed in (0, 7, 11)
        for i in range(400)
    ]
    return tuple((phi, is_inverse_nil_preserving(phi)) for phi in maps)


def _report_items(report):
    """Law names and witness items, in order: LawReport equality would
    not see the order of the witness keys."""
    return [(v.law, list(v.witness.items())) for v in report.violations]


def _law_algebras():
    """Measure algebras of 0 to 4 non-null atoms, some with a null atom
    among them."""
    weights = [
        (0,), (1,), (1, 2), (2, 0, 1), (1, INF, 3), (1, 0, 2, 3, Fraction(1, 2)),
    ]
    for ws in weights:
        points = [f"x{i}" for i in range(len(ws))]
        yield build_algebra(make_space(points, [[x] for x in points], list(ws)))


def _small_homs():
    """Every hom between the law algebras of at most 3 non-null atoms."""
    algebras = [alg for alg in _law_algebras() if len(alg.nonnull_atoms) <= 3]
    for domain, codomain in product(algebras, repeat=2):
        atoms = domain.nonnull_atoms
        masks = [e.mask for e in codomain.all_elements()]
        for images in product(masks, repeat=len(atoms)):
            yield BooleanHom(domain, codomain, dict(zip(atoms, images)))


class _FromTable(BooleanHom):
    """Ignores its atom masks: apply reads each image off `table`, a
    dict from domain masks to codomain masks, so it may break any law."""

    def apply(self, elem):
        return AlgebraElement(self.codomain, self.table[elem.mask])


def _faulty_tables(rng, domain, codomain):
    """Seeded image tables: a join of arbitrary atom images over an
    arbitrary image of zero (it keeps joins), its dual (it keeps meets),
    arbitrary images of the elements without the highest atom with the
    complements of those images on their complements (it keeps
    complements), and a lawful table with the image of zero, of top or of
    one other element replaced."""
    elements = [e.mask for e in domain.all_elements()]
    atoms = domain.nonnull_atoms
    top, codomain_top = domain._top, codomain._top

    def arbitrary():
        return rng.getrandbits(codomain_top.bit_length()) & codomain_top

    def joined(base, atom_images):
        # base joined with the images of each element's atoms
        return {
            a: reduce(or_, (g for i, g in zip(atoms, atom_images) if a >> i & 1), base)
            for a in elements
        }

    def met(base, atom_images):
        # base met with the images of the atoms missing from each element
        return {
            a: reduce(and_, (h for i, h in zip(atoms, atom_images) if not a >> i & 1), base)
            for a in elements
        }

    # a lawful table: each codomain atom goes to the image of one domain atom
    cover = [0] * len(atoms)
    for j in codomain.nonnull_atoms:
        cover[rng.randrange(len(atoms))] |= 1 << j
    lawful = joined(0, cover)
    complemented = {}
    for a in elements:
        if not a >> atoms[-1] & 1:
            complemented[a] = arbitrary()
            complemented[a ^ top] = complemented[a] ^ codomain_top
    tables = [
        ("join-form", joined(arbitrary(), [arbitrary() for _ in atoms])),
        ("meet-form", met(arbitrary(), [arbitrary() for _ in atoms])),
        ("complement-form", complemented),
    ]
    for a in (0, top, rng.choice(elements)):
        tables.append(("replaced", {**lawful, a: arbitrary()}))
    return tables


def _faulty_homs():
    """(kind, hom) for 40 seeded rounds of _faulty_tables over every pair
    of law algebras with a non-null atom."""
    rng = random.Random(12)
    algebras = [alg for alg in _law_algebras() if alg.nonnull_atoms]
    for _ in range(40):
        for domain, codomain in product(algebras, repeat=2):
            for kind, table in _faulty_tables(rng, domain, codomain):
                hom = _FromTable(domain, codomain, dict.fromkeys(domain.nonnull_atoms, 0))
                hom.table = table
                yield kind, hom


# --- the hand-written route faults -----------------------------------------


def _skip_last_source_atom(phi):
    # off-by-one: each preimage block loses its last source atom
    return tuple(
        sum((phi.source.weights[a] for a in block[:-1]), ExtRational(0))
        for block in phi.atom_preimages
    )


def _lowest_atom_only(elem):
    # counts only the lowest atom of the element
    return mu_bar(AlgebraElement(elem.algebra, elem.mask & -elem.mask))


def _drop_lowest_image_atom(phi):
    # the images stay disjoint, so fast and the oracle still agree with
    # each other
    return drop_lowest_image_atom(induced_homomorphism(phi))


# --- the observers, cheapest first -----------------------------------------


def _cli(*argv) -> tuple:
    """malg's exit code and report for argv."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = malg.cli.main(list(argv))
    return code, out.getvalue()


def _bad_masks():
    """What BooleanHom makes of each of BAD_ATOM_MASKS on the algebras of
    the worked example's hom."""
    hom = _worked_example()[1]
    for masks in BAD_ATOM_MASKS:
        try:
            malg.maps.BooleanHom(hom.domain, hom.codomain, masks)
            seen = "accepted"
        except Exception as exc:
            seen = type(exc).__name__, str(exc)
        yield seen


def _functor_check():
    """functor-check on id.json and phi.json, clean and then under the
    planted _drop_lowest_image_atom fault."""
    documents = _worked_example()[0]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        for name, text in documents.items():
            Path(name).write_text(text)
        yield _cli("functor-check", "id.json", "phi.json")
        patch.setattr(malg.metric, "induced_homomorphism", _drop_lowest_image_atom)
        yield _cli("functor-check", "id.json", "phi.json")


def _classify():
    """classify on METRIC_MAP, as a json report and as a text report."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp)
        Path("metric.json").write_text(json.dumps(METRIC_MAP))
        for fmt in ("json", "text"):
            yield _cli("classify", "metric.json", "--format", fmt)


def _lipschitz(out) -> str:
    """The pointwise constant of classify's json report."""
    return json.loads(out[0][1])["results"]["classification"]["lipschitz"]


def _reference():
    """What first differs between the functor-law path and point preimages
    on the 400 seed-0 random maps, whose spaces and maps it builds again."""
    found = point_disagreement(phi for phi, _ in _null_law_maps()[-1200:-800])
    yield None if found is None else found[1]


def _null_laws():
    """For each null-law map: do both null-ideal laws agree with the
    per-atom weight loop?"""
    for phi, inp in _null_law_maps():
        yield (
            malg.maps.null_ideal_preserved(phi)
            == malg.maps.check_well_definedness(phi)
            == inp
        )


def _hom_laws():
    """check_hom_laws's report on each small hom and then each faulty
    one; clean, these are the pair scan's reports."""
    for hom in chain(_small_homs(), (hom for _, hom in _faulty_homs())):
        yield _report_items(malg.maps.check_hom_laws(hom))


def _theorem_check():
    yield _cli("theorem-check", "--trials", "30", "--seed", "7")


# Each observer, with what its clean output must show.
OBSERVERS = {
    "bad-masks": (_bad_masks, lambda out: "accepted" not in out),
    "functor-check": (_functor_check, lambda out: [code for code, _ in out] == [0, 1]),
    "classify": (
        _classify, lambda out: [code for code, _ in out] == [0, 0] and _lipschitz(out) == "3/2"
    ),
    "reference": (_reference, lambda out: out == [None]),
    "null-laws": (_null_laws, all),
    "hom-laws": (_hom_laws, any),  # some faulty hom breaks a law
    "theorem-check": (_theorem_check, lambda out: out[0][0] == 0),
}


@cache
def clean(observer: str) -> list:
    """The observer's output on the clean code, checked; once a session."""
    output = list(OBSERVERS[observer][0]())
    assert OBSERVERS[observer][1](output), f"clean {observer} output fails its check"
    return output


# --- the registry ----------------------------------------------------------


class Mutant(NamedTuple):
    owner: object  # the module or the class whose function is replaced
    function: str
    snippet: Optional[str]  # None: replacement is a hand-written fault
    replacement: object  # the new snippet, or the fault itself
    observers: tuple[str, ...]
    reason: Optional[str] = None  # why a survivor is equivalent
    alone: Optional[str] = None  # the route each violation shows alone
    modules: Optional[tuple[str, ...]] = None  # plant only in these modules


# The rows' observer sets. Each one is the kill criterion of the rows it
# names, and one parametrized test of test_cli or test_maps runs those
# rows under the test name they have always had.
ROUTE = ("theorem-check",)
FUNCTOR = ("functor-check",)
CLASSIFY = ("classify",)
HOM = ("bad-masks", "functor-check", "reference", "theorem-check")
NULL = ("null-laws",)
SHORTCUT = ("hom-laws",)


MUTANTS = {
    # Faults in the three routes to the constant, seen by theorem-check on
    # 30 seeded instances. A row that names a route `alone` must make it
    # exit 1, and every violation must show that route alone against the
    # other two; the oracle's witness rows change the report's bytes only.
    # only compression reads the pushforward
    "pushforward-_skip_last_source_atom-compression": Mutant(
        malg.maps, "pushforward", None, _skip_last_source_atom, ROUTE,
        alone="compression",
    ),
    # only lipschitz_fast reads mu_bar
    "mu_bar-_lowest_atom_only-lipschitz_fast": Mutant(
        malg.algebra, "mu_bar", None, _lowest_atom_only, ROUTE, alone="lipschitz_fast"
    ),
    # fast and the oracle share the hom, compression does not
    "induced_homomorphism-_drop_lowest_image_atom-compression": Mutant(
        malg.maps, "induced_homomorphism", None, _drop_lowest_image_atom, ROUTE,
        alone="compression",
    ),
    # each route's own ratio arithmetic: a 1-ppm error in compression's
    # division, a flipped comparison in fast's cross-multiplication
    "compression-division-1ppm": Mutant(
        malg.maps,
        "compression",
        "ratio = m.as_fraction() / w.as_fraction()",
        "ratio = m.as_fraction() / w.as_fraction() * Fraction(1000001, 10**6)",
        ROUTE,
        alone="compression",
    ),
    "lipschitz_fast-flipped-comparison": Mutant(
        malg.maps, "lipschitz_fast", "p * den > num * q", "p * den < num * q", ROUTE,
        alone="lipschitz_fast",
    ),
    # and the oracle's: a flipped comparison and a row's min for its max in
    # its pair loop, a meet for the join in its images recurrence, a
    # doubled target weight in its mass recurrence
    "lipschitz_bruteforce-flipped-comparison": Mutant(
        malg.maps, "lipschitz_bruteforce", "top > best", "top < best", ROUTE,
        alone="lipschitz_bruteforce",
    ),
    "lipschitz_bruteforce-row-min": Mutant(
        malg.maps, "lipschitz_bruteforce", "top = max(ratios)", "top = min(ratios)",
        ROUTE,
        alone="lipschitz_bruteforce",
    ),
    # the oracle's witness: the (zero, b) best pair left unreversed, and a
    # row's last attaining pair for its first. The constant is unchanged,
    # so theorem-check exits 0 and only its witness bytes differ: no route
    # is alone
    "lipschitz_bruteforce-witness-unoriented": Mutant(
        malg.maps,
        "lipschitz_bruteforce",
        "pair = (b, 0) if a == 0 else best_pair",
        "pair = best_pair",
        ROUTE,
    ),
    "lipschitz_bruteforce-last-attaining": Mutant(
        malg.maps,
        "lipschitz_bruteforce",
        "row[ratios.index(top)]",
        "row[len(ratios) - 1 - ratios[::-1].index(top)]",
        ROUTE,
    ),
    "lipschitz_bruteforce-images-join-as-meet": Mutant(
        malg.maps,
        "lipschitz_bruteforce",
        "images[rest] | atom_masks[high]",
        "images[rest] & atom_masks[high]",
        ROUTE,
        alone="lipschitz_bruteforce",
    ),
    "lipschitz_bruteforce-target-weight-doubled": Mutant(
        malg.maps,
        "lipschitz_bruteforce",
        "mu2[rest] + tgt_weights[high].as_fraction()",
        "mu2[rest] + 2 * tgt_weights[high].as_fraction()",
        ROUTE,
        alone="lipschitz_bruteforce",
    ),
    # The pointwise Lipschitz constant's int comparison, seen by classify's
    # json and text reports on METRIC_MAP: flipped, no pair ever replaces
    # the starting 0/1.
    "lipschitz_point-flipped-comparison": Mutant(
        malg.metric, "lipschitz_point", "p * den > num * q", "p * den < num * q",
        CLASSIFY,
    ),
    # The two functor-law checks, seen by functor-check's exit code and
    # report on id.json and phi.json, clean and under the planted fault.
    "composition-compose-check-flipped": Mutant(
        malg.metric,
        "composition_law_violations",
        "hom_g.domain != hom_gf.domain",
        "hom_g.domain == hom_gf.domain",
        FUNCTOR,
    ),
    "composition-codomain-check-flipped": Mutant(
        malg.metric,
        "composition_law_violations",
        "hom_f.codomain != hom_gf.codomain",
        "hom_f.codomain == hom_gf.codomain",
        FUNCTOR,
    ),
    "composition-comparison-flipped": Mutant(
        malg.metric,
        "composition_law_violations",
        "via_composite != via_factors",
        "via_composite == via_factors",
        FUNCTOR,
    ),
    # the composition law joins the factors' images through _join
    "composition-join-as-meet": Mutant(
        malg.spaces, "_join", "out |=", "out &=", FUNCTOR
    ),
    "composition-join-as-xor": Mutant(
        malg.spaces, "_join", "out |=", "out ^=", FUNCTOR,
        # induced homs send distinct atoms to disjoint images, and the
        # planted fault keeps them disjoint: ^= joins them as |= does
        "equivalent over disjoint images",
    ),
    "identity-comparison-flipped": Mutant(
        malg.metric, "identity_law_violations", "image != 1 << b", "image == 1 << b",
        FUNCTOR,
    ),
    "identity-atom-shifted": Mutant(
        malg.metric, "identity_law_violations", "1 << b", "2 << b", FUNCTOR
    ),
    # The submultiplicativity verdict's order: strict, it refuses the
    # equality C(phi after id) = 5/6 = C(id) * C(phi), so functor-check
    # exits 1 with a compression-submultiplicativity violation.
    "le-strict": Mutant(
        malg.maps.CompressionResult,
        "le",
        "self.value <= other.value",
        "self.value < other.value",
        FUNCTOR,
    ),
    # The functor-law path's one-pass builders: MeasurableMap's preimage
    # masks, induced_homomorphism's atom masks and INP guard, the loop of
    # FiniteMeasureSpace.__init__ that sorts the atoms into the classes
    # every algebra copies (nonnull_atoms, fin_atoms, _top and _fin),
    # BooleanHom.__init__'s one-pass check, and _refuse_masks, which names
    # the first fault of a table that fails it. Seen by BAD_ATOM_MASKS,
    # functor-check, the point preimages of the 400 seed-0 random maps and
    # theorem-check.
    # every preimage of the worked example has at most two atoms, and the
    # three routes read the same masks, so theorem-check still exits 0
    "make-map-block-cut-to-two": Mutant(
        malg.maps.MeasurableMap,
        "__init__",
        "masks[b] |= 1 << a",
        "masks[b] |= 1 << a if masks[b].bit_count() < 2 else 0",
        HOM,
    ),
    "induced-top-dropped": Mutant(
        malg.maps, "induced_homomorphism", "pre[b] & top", "pre[b]", HOM
    ),
    "induced-meet-as-join": Mutant(
        malg.maps, "induced_homomorphism", "pre[b] & top", "pre[b] | top", HOM
    ),
    # an endomorphism's hom has one algebra on both sides; one algebra for
    # every map puts the target's algebra on the hom's codomain
    "induced-algebra-always-shared": Mutant(
        malg.maps, "induced_homomorphism", "phi.source is phi.target", "True", HOM
    ),
    "induced-algebra-never-shared": Mutant(
        malg.maps, "induced_homomorphism", "phi.source is phi.target", "False", HOM,
        # MeasureAlgebra compares by its space, so a second algebra of the
        # source equals the shared one and the hom is the same value
        "equivalent: algebras of one space are equal",
    ),
    "induced-inp-guard-negated": Mutant(
        malg.maps,
        "induced_homomorphism",
        "if not is_inverse_nil_preserving(phi):",
        "if is_inverse_nil_preserving(phi):",
        HOM,
    ),
    "induced-join-as-xor": Mutant(
        malg.maps.MeasurableMap, "__init__", "masks[b] |= 1 << a", "masks[b] ^= 1 << a",
        HOM,
        # the one pass visits each source atom once: ^= sets the same bits
        # as |=
        "equivalent over distinct atom ids",
    ),
    "space-null-flipped": Mutant(
        malg.spaces.FiniteMeasureSpace, "__init__", "if w.is_zero:", "if not w.is_zero:",
        HOM,
    ),
    "algebra-finiteness-flipped": Mutant(
        malg.spaces.FiniteMeasureSpace,
        "__init__",
        "if not w.is_infinite:",
        "if w.is_infinite:",
        HOM,
    ),
    "algebra-top-join-as-meet": Mutant(
        malg.spaces.FiniteMeasureSpace,
        "__init__",
        "nonnull_mask |= bit",
        "nonnull_mask &= bit",
        HOM,
    ),
    "algebra-fin-join-as-meet": Mutant(
        malg.spaces.FiniteMeasureSpace, "__init__", "fin_mask |= bit", "fin_mask &= bit",
        HOM,
    ),
    # the one pass's key checks and its range check on the union: each
    # dropped, a table with a bad key or mask is accepted
    "hom-key-type-check-dropped": Mutant(
        malg.maps.BooleanHom, "__init__", "type(b) is not int or ", "", HOM
    ),
    "hom-key-set-check-dropped": Mutant(
        malg.maps.BooleanHom,
        "__init__",
        "(tuple(masks) == atoms or sorted(masks) == list(atoms))",
        "True",
        HOM,
    ),
    "hom-union-range-check-dropped": Mutant(
        malg.maps.BooleanHom, "__init__", "and not union & ~codomain._top", "", HOM
    ),
    "hom-type-check-flipped": Mutant(
        malg.maps,
        "_refuse_masks",
        "if type(mask) is not int:",
        "if type(mask) is int:",
        HOM,
    ),
    "hom-range-check-as-meet": Mutant(
        malg.maps,
        "_refuse_masks",
        "outside = ~codomain._top",
        "outside = codomain._top",
        HOM,
    ),
    "hom-checks-joined-by-and": Mutant(
        malg.maps,
        "_refuse_masks",
        "mask < 0 or mask & outside",
        "mask < 0 and mask & outside",
        HOM,
    ),
    "hom-sign-check-dropped": Mutant(
        malg.maps,
        "_refuse_masks",
        "if mask < 0 or mask & outside:",
        "if mask & outside:",
        HOM,
        # ~top is negative, so a negative mask meets it in infinitely many
        # bits: the range check alone rejects it, with the same message
        "equivalent: a negative mask leaves top",
    ),
    # The one-pullback null-ideal laws and the `_join` they pull back
    # through, seen by the two laws and the per-atom weight loop on the
    # null-law maps. The count of disagreeing maps (of 23,100) is noted
    # for each.
    "null-ideal-negated": Mutant(  # 23,100
        malg.maps,
        "null_ideal_preserved",
        "return _weighted_sum",
        "return not _weighted_sum",
        NULL,
    ),
    "null-ideal-pullback-emptied": Mutant(  # 6,924
        malg.maps,
        "null_ideal_preserved",
        "_join(phi._preimage_masks, null_tgt)",
        "_join(phi._preimage_masks, null_tgt) & 0",
        NULL,
    ),
    "well-defined-mod-null-as-join": Mutant(  # 15,723
        malg.maps, "check_well_definedness", "& nonnull_src", "| nonnull_src", NULL
    ),
    "well-defined-null-kept": Mutant(  # 6,924
        malg.maps, "check_well_definedness", "top ^ null_tgt", "top", NULL
    ),
    "well-defined-null-joined": Mutant(  # 6,924
        malg.maps, "check_well_definedness", "top ^ null_tgt", "top | null_tgt", NULL
    ),
    "well-defined-difference-as-join": Mutant(  # 15,555
        malg.maps, "check_well_definedness", ") ^ _join", ") | _join", NULL
    ),
    "well-defined-not-dropped": Mutant(  # 23,100
        malg.maps, "check_well_definedness", "return not", "return", NULL
    ),
    "well-defined-top-short": Mutant(
        malg.maps,
        "check_well_definedness",
        "phi.target._top",
        "phi.target._top - 1",
        NULL,
        # the XOR of the two preimages is the preimage of the null atoms
        # whatever top is, so top without atom 0 decides the law as well
        "equivalent: the XOR does not depend on top",
    ),
    "pullback-join-as-meet": Mutant(  # 6,924
        malg.spaces, "_join", "out |=", "out &=", NULL
    ),
    "pullback-join-as-xor": Mutant(
        malg.spaces, "_join", "out |=", "out ^=", NULL,
        # the preimage masks of distinct target atoms are disjoint
        "equivalent over disjoint preimage blocks",
    ),
    # check_hom_laws's shortcut, the one test that decides a table lawful,
    # and the canonical order its witnesses are named in, seen by its
    # reports on the small and faulty homs. Only the complement-form tables
    # keep complements while breaking joins, so they alone kill the mutant
    # without the join certificate.
    "and-as-or": Mutant(
        malg.maps,
        "check_hom_laws",
        "bad is None and _joins_certified(image)",
        "bad is None or _joins_certified(image)",
        SHORTCUT,
    ),
    "join-certificate-dropped": Mutant(
        malg.maps,
        "check_hom_laws",
        "bad is None and _joins_certified(image)",
        "bad is None",
        SHORTCUT,
    ),
    "complement-condition-dropped": Mutant(
        malg.maps,
        "check_hom_laws",
        "bad is None and _joins_certified(image)",
        "_joins_certified(image)",
        SHORTCUT,
    ),
    # the one generator of canonical order that fills its table: every
    # atom above the highest added at once, so submasks go missing; and
    # each submask's complement in its place, the same set in another
    # order, so witnesses are named in the wrong order. Planted everywhere,
    # both also change the algebras' element lists that build the
    # observer's homs; the order fault planted in malg.maps alone leaves
    # those inputs as they are, so check_hom_laws itself must show it
    "canonical-adds-all-atoms-above": Mutant(
        malg.spaces, "_canonical", "sub |= above & -above", "sub |= above", SHORTCUT
    ),
    "canonical-yields-complements": Mutant(
        malg.spaces, "_canonical", "yield sub", "yield sub ^ top", SHORTCUT
    ),
    "canonical-yields-complements-in-maps": Mutant(
        malg.spaces, "_canonical", "yield sub", "yield sub ^ top", SHORTCUT,
        modules=("malg.maps",),
    ),
}


def mutant_names(observers: tuple[str, ...]) -> list[str]:
    """The rows seen by exactly these observers."""
    return sorted(name for name, row in MUTANTS.items() if row.observers == observers)


# --- the runner ------------------------------------------------------------


@contextmanager
def _planted(row: Mutant):
    """The row's fault in its function's place: on the class that owns
    the function, or in every malg module that binds it, or in those of
    them the row names."""
    original = getattr(row.owner, row.function)
    if row.snippet is None:
        fault = row.replacement
    else:
        fault = mutated(original, row.snippet, row.replacement)
    with pytest.MonkeyPatch.context() as patch:
        if isinstance(row.owner, type):
            patch.setattr(row.owner, row.function, fault)
        else:
            for name, module in sorted(sys.modules.items()):
                if (
                    name.partition(".")[0] == "malg"
                    and (row.modules is None or name in row.modules)
                    and getattr(module, row.function, None) is original
                ):
                    patch.setattr(module, row.function, fault)
        yield


def _differences(output, clean_output):
    """The items of output that differ from the clean item at their place;
    an exception that ends the output stands for one more."""
    try:
        for seen, want in zip_longest(output, clean_output, fillvalue="<no item>"):
            if seen != want:
                yield seen
    except Exception as exc:
        yield type(exc).__name__


def kill(name: str) -> Optional[tuple]:
    """(observer, item) for the first of the row's observers, cheapest
    first, whose output under the planted fault leaves the clean output,
    and the first item of it that differs; None if every one agrees."""
    row = MUTANTS[name]
    observers = [o for o in OBSERVERS if o in row.observers]
    expected = [clean(o) for o in observers]  # before the fault is planted
    with _planted(row):
        for observer, clean_output in zip(observers, expected):
            with closing(OBSERVERS[observer][0]()) as output:
                for seen in _differences(output, clean_output):
                    return observer, seen
    return None


def assert_verdict(name: str) -> None:
    """The row is killed, or survives if it names why it is equivalent."""
    row = MUTANTS[name]
    killed = kill(name)
    if row.reason is not None:
        assert killed is None, f"{name} ({row.reason}) killed by {killed[0]}"
        return
    assert killed is not None, f"{name} survived: no observer differed"
    if row.alone:
        code, text = killed[1]  # theorem-check's exit code and report
        report = json.loads(text)
        assert code == 1 and report["violations"], f"{name}: theorem-check exit {code}"
        routes = ("compression", "lipschitz_fast", "lipschitz_bruteforce")
        for violation in report["violations"]:
            witness = violation["witness"]
            a, b = (witness[r] for r in routes if r != row.alone)
            assert a == b != witness[row.alone], (
                f"{name}: {[witness[r] for r in routes]} does not single out {row.alone}"
            )
