"""Metric structure on spaces, morphism classification, functor laws.

A metric measure space pairs a finite measure space with an exact
rational distance table. Classification decides, for one map, the whole
battery: measurability, inverse-nil-preservation, compression, pointwise
Lipschitz constant, shortness, and bounded deformation. The functor-law
checks certify contravariance (images reverse composition) and the
submultiplicativity of compression constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .errors import (
    ArityMismatch,
    ForeignElement,
    MetricAxiomViolation,
    NotInverseNilPreserving,
    SpaceMismatch,
    UnknownPoint,
)
from .maps import (
    BooleanHom,
    CompressionResult,
    LawReport,
    LawViolation,
    MeasurableMap,
    compose,
    compression,
    identity_map,
    induced_homomorphism,
    is_inverse_nil_preserving,
)
from .rationals import to_fraction
from .spaces import FiniteMeasureSpace, _ids, _join, _require, make_space


class FiniteMetricMeasureSpace:
    """A finite measure space together with a rational metric on points."""

    __slots__ = ("base", "dist", "_index")

    dist: tuple[tuple[Fraction, ...], ...]

    def __init__(self, base: FiniteMeasureSpace, dist: Sequence[Sequence]):
        n = len(_require(base, FiniteMeasureSpace, "a metric space's base").points)
        rows = [tuple(map(to_fraction, row)) for row in dist]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ArityMismatch(f"distance table must be {n}x{n}")
        # The axioms are checked on int tables: a Fraction is in lowest
        # terms with a positive denominator, so it equals another exactly
        # when numerators and denominators do, and a triangle compares by
        # cross-multiplying only the three entries involved.
        num = [[f.numerator for f in row] for row in rows]
        den = [[f.denominator for f in row] for row in rows]
        for i in range(n):
            if num[i][i] != 0:
                raise MetricAxiomViolation(
                    f"d({base.points[i]}, {base.points[i]}) != 0"
                )
            for j in range(n):
                if num[i][j] != num[j][i] or den[i][j] != den[j][i]:
                    raise MetricAxiomViolation("distance table is not symmetric")
                if i != j and num[i][j] <= 0:
                    raise MetricAxiomViolation(
                        f"d({base.points[i]}, {base.points[j]}) must be positive"
                    )
        for i in range(n):
            ik_num, ik_den = num[i][i + 1 :], den[i][i + 1 :]
            for j in range(n):
                b_n, b_d = num[i][j], den[i][j]
                # a > b + c for a = d(i, k), b = d(i, j), c = d(j, k), over
                # positive denominators; symmetry makes (k, j, i) fail exactly
                # when (i, j, k) does, so k > i finds the same first failure
                for k, a_n, a_d, c_n, c_d in zip(
                    range(i + 1, n), ik_num, ik_den, num[j][i + 1 :], den[j][i + 1 :]
                ):
                    if a_n * b_d * c_d > (b_n * c_d + c_n * b_d) * a_d:
                        raise MetricAxiomViolation(
                            "triangle inequality fails on "
                            f"({base.points[i]}, {base.points[j]}, {base.points[k]})"
                        )
        self.base = base
        self.dist = tuple(rows)
        self._index = {p: i for i, p in enumerate(base.points)}

    def distance(self, x: str, y: str) -> Fraction:
        try:
            return self.dist[self._index[x]][self._index[y]]
        except KeyError as exc:
            raise UnknownPoint(f"unknown point {exc.args[0]!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMetricMeasureSpace):
            return NotImplemented
        return self.base == other.base and self.dist == other.dist

    def __hash__(self):
        return hash((self.base, self.dist))

    def __repr__(self) -> str:
        return f"FiniteMetricMeasureSpace({len(self.base.points)} points)"


def make_metric_space(points, weights, dist) -> FiniteMetricMeasureSpace:
    """Metric measure space with the discrete (singleton-atom) algebra.

    Finite metric spaces are discrete, so the attached sigma-algebra
    defaults to the full powerset; use FiniteMetricMeasureSpace directly
    to attach a metric to a coarser measure-only space.
    """
    base = make_space(points, [[p] for p in points], weights)
    return FiniteMetricMeasureSpace(base, dist)


def lipschitz_point(
    phi: MeasurableMap,
    source_metric: FiniteMetricMeasureSpace,
    target_metric: FiniteMetricMeasureSpace,
) -> CompressionResult:
    """Pointwise Lipschitz constant: max distance ratio over point pairs.

    Always bounded on finite spaces; constant maps and single points give
    Bounded(0) (an empty sup). The best ratio is an int pair (num, den):
    each pair's d2 / d1 is p / q with q > 0, since distinct points are at
    a positive distance, so it is compared by cross-multiplying, and one
    Fraction is made at the end.
    """
    if phi.source != source_metric.base or phi.target != target_metric.base:
        raise SpaceMismatch("metric structures do not match the map's spaces")
    num, den = 0, 1
    for x, y in combinations(phi.source.points, 2):
        d1 = source_metric.distance(x, y)
        d2 = target_metric.distance(phi.point_fn[x], phi.point_fn[y])
        p = d2.numerator * d1.denominator
        q = d2.denominator * d1.numerator
        if p * den > num * q:
            num, den = p, q
    return CompressionResult.bounded(Fraction(num, den))


@dataclass(frozen=True)
class MorphismClassification:
    """Everything classify() decides about one map.

    The record holds what classify measures; every verdict is derived
    from the two constants, since bounded deformation is Lipschitz plus
    bounded compression. Metric-dependent verdicts are None when no
    Lipschitz constant was given. The rescale factors are guidance for
    making the map short and are given only when the Lipschitz constant
    exceeds 1: scaling source distances by `rescale_source_to_short`, or
    target distances by `rescale_target_to_short`, yields constant
    exactly 1. Each field's type is checked on construction, and a given
    Lipschitz constant must be bounded, as it is on finite spaces.
    """

    inverse_nil_preserving: bool
    compression: CompressionResult
    lipschitz_point: Optional[CompressionResult] = None

    # a MeasurableMap cannot be built unless it is measurable
    measurable = True

    def __post_init__(self):
        _require(self.inverse_nil_preserving, bool, "inverse_nil_preserving")
        _require(self.compression, CompressionResult, "compression")
        if self.lipschitz_point is not None:
            lip = _require(self.lipschitz_point, CompressionResult, "lipschitz_point")
            if not lip.is_bounded:
                raise ValueError("lipschitz_point is bounded on finite spaces")

    @property
    def short(self) -> Optional[bool]:
        lip = self.lipschitz_point
        return None if lip is None else lip.value <= 1

    @property
    def bounded_deformation(self) -> Optional[bool]:
        lip = self.lipschitz_point
        return None if lip is None else lip.is_bounded and self.compression.is_bounded

    @property
    def rescale_source_to_short(self) -> Optional[Fraction]:
        return self.lipschitz_point.value if self.short is False else None

    @property
    def rescale_target_to_short(self) -> Optional[Fraction]:
        return 1 / self.lipschitz_point.value if self.short is False else None


def classify(
    phi: MeasurableMap,
    source_metric: Optional[FiniteMetricMeasureSpace] = None,
    target_metric: Optional[FiniteMetricMeasureSpace] = None,
) -> MorphismClassification:
    """Measure what the available structure supports: inverse-nil-
    preservation and compression always, the pointwise Lipschitz constant
    when both metrics are given. The record derives every verdict."""
    lip = None
    if source_metric is not None and target_metric is not None:
        lip = lipschitz_point(phi, source_metric, target_metric)
    return MorphismClassification(is_inverse_nil_preserving(phi), compression(phi), lip)


def composition_law_violations(
    hom_gf: BooleanHom, hom_f: BooleanHom, hom_g: BooleanHom
) -> list[LawViolation]:
    """Compare (g after f)'s hom with f's hom composed after g's hom on
    each atom of the domain, as int masks; the lowest failing atom is the
    witness. Raises ForeignElement when the three homs do not compose."""
    if hom_g.domain != hom_gf.domain or hom_f.domain != hom_g.codomain:
        raise ForeignElement("element is not in the hom's domain algebra")
    if hom_f.codomain != hom_gf.codomain:
        raise ForeignElement(
            "the composite and the factors land in different algebras"
        )
    for b in hom_gf.domain.nonnull_atoms:
        via_composite = hom_gf.atom_masks[b]
        via_factors = _join(hom_f.atom_masks, hom_g.atom_masks[b])
        if via_composite != via_factors:
            return [
                LawViolation(
                    "contravariant-composition",
                    {
                        "element": [b],
                        "via_composite": list(_ids(via_composite)),
                        "via_factors": list(_ids(via_factors)),
                    },
                )
            ]
    return []


def identity_law_violations(space: FiniteMeasureSpace) -> list[LawViolation]:
    """The hom induced by the identity map must send each atom to itself."""
    hom = induced_homomorphism(identity_map(space))
    for b in hom.domain.nonnull_atoms:
        image = hom.atom_masks[b]
        if image != 1 << b:
            return [
                LawViolation(
                    "identity-hom", {"element": [b], "image": list(_ids(image))}
                )
            ]
    return []


def contravariance_check(f: MeasurableMap, g: MeasurableMap) -> LawReport:
    """Certify functoriality on a composable pair: images reverse order.

    Both laws are checked on atoms alone, in time linear in the atoms,
    by comparing the int masks of atom images; no algebra element is
    built unless a law fails. That is exact: `BooleanHom.apply` sends an
    element to the join of its atoms' images, and a join of joins is a
    join, so two homs built this way agree on every element exactly when
    they agree on every atom. On homs the library induced, a violation
    means a library fault; its witness is the lowest failing atom.

    Requires f and g (hence g after f) to be inverse-nil-preserving;
    raises NotInverseNilPreserving otherwise, SpaceMismatch when the pair
    does not compose.
    """
    gf = compose(g, f)
    homs = []
    for name, m in (("f", f), ("g", g), ("g after f", gf)):
        try:
            homs.append(induced_homomorphism(m))
        except NotInverseNilPreserving:
            raise NotInverseNilPreserving(
                f"{name} is not inverse-nil-preserving"
            ) from None
    hom_f, hom_g, hom_gf = homs
    violations = composition_law_violations(hom_gf, hom_f, hom_g)
    for space in (f.source, f.target, g.target):
        violations.extend(identity_law_violations(space))
    return LawReport(tuple(violations))


def compression_submultiplicativity(f: MeasurableMap, g: MeasurableMap) -> bool:
    """Whether C(g after f) <= C(f) * C(g), with Unbounded absorbing."""
    composite = compression(compose(g, f))
    return composite.le(compression(f).times(compression(g)))
