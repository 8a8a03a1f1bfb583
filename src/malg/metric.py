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
    MetricAxiomViolation,
    NonPositiveFactor,
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
from .spaces import FiniteMeasureSpace, make_space


class FiniteMetricMeasureSpace:
    """A finite measure space together with a rational metric on points."""

    __slots__ = ("base", "dist", "_index")

    dist: tuple[tuple[Fraction, ...], ...]

    def __init__(self, base: FiniteMeasureSpace, dist: Sequence[Sequence]):
        n = len(base.points)
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


def rescale_space(
    mm: FiniteMetricMeasureSpace, factor
) -> FiniteMetricMeasureSpace:
    """Multiply every distance by a positive factor; measure untouched."""
    k = to_fraction(factor)
    if k <= 0:
        raise NonPositiveFactor(f"rescaling factor must be positive, got {k}")
    scaled = tuple(tuple(k * v for v in row) for row in mm.dist)
    return FiniteMetricMeasureSpace(mm.base, scaled)


def lipschitz_point(
    phi: MeasurableMap,
    source_metric: FiniteMetricMeasureSpace,
    target_metric: FiniteMetricMeasureSpace,
) -> CompressionResult:
    """Pointwise Lipschitz constant: max distance ratio over point pairs.

    Always bounded on finite spaces; constant maps and single points give
    Bounded(0) (an empty sup).
    """
    if phi.source != source_metric.base or phi.target != target_metric.base:
        raise SpaceMismatch("metric structures do not match the map's spaces")
    best = Fraction(0)
    for x, y in combinations(phi.source.points, 2):
        d1 = source_metric.distance(x, y)
        d2 = target_metric.distance(phi.point_fn[x], phi.point_fn[y])
        ratio = d2 / d1
        if ratio > best:
            best = ratio
    return CompressionResult.bounded(best)


@dataclass(frozen=True)
class MorphismClassification:
    """Everything classify() decides about one map.

    Metric-dependent fields are None when no metric structure was given.
    The rescale factors are guidance for making the map short and are
    reported only when the Lipschitz constant exceeds 1: scaling source
    distances by `rescale_source_to_short`, or target distances by
    `rescale_target_to_short`, yields constant exactly 1.
    """

    measurable: bool
    inverse_nil_preserving: bool
    compression: CompressionResult
    lipschitz_point: Optional[CompressionResult] = None
    short: Optional[bool] = None
    bounded_deformation: Optional[bool] = None
    rescale_source_to_short: Optional[Fraction] = None
    rescale_target_to_short: Optional[Fraction] = None


def classify(
    phi: MeasurableMap,
    source_metric: Optional[FiniteMetricMeasureSpace] = None,
    target_metric: Optional[FiniteMetricMeasureSpace] = None,
) -> MorphismClassification:
    """Fill every classification field the available structure supports."""
    comp = compression(phi)
    inp = is_inverse_nil_preserving(phi)
    if source_metric is None or target_metric is None:
        return MorphismClassification(
            measurable=True, inverse_nil_preserving=inp, compression=comp
        )
    lip = lipschitz_point(phi, source_metric, target_metric)
    needs_rescale = lip.value > 1
    return MorphismClassification(
        measurable=True,
        inverse_nil_preserving=inp,
        compression=comp,
        lipschitz_point=lip,
        short=lip.value <= 1,
        bounded_deformation=lip.is_bounded and comp.is_bounded,
        rescale_source_to_short=lip.value if needs_rescale else None,
        rescale_target_to_short=1 / lip.value if needs_rescale else None,
    )


def composition_law_violations(
    hom_gf: BooleanHom, hom_f: BooleanHom, hom_g: BooleanHom
) -> list[LawViolation]:
    """Compare (g after f)'s hom with f's hom composed after g's hom on
    each atom of the domain; the lowest failing atom is the witness."""
    for b in hom_gf.domain.nonnull_atoms:
        e = hom_gf.domain.element((b,))
        via_composite = hom_gf.apply(e)
        via_factors = hom_f.apply(hom_g.apply(e))
        if via_composite != via_factors:
            return [
                LawViolation(
                    "contravariant-composition",
                    {
                        "element": list(e.sort_key),
                        "via_composite": list(via_composite.sort_key),
                        "via_factors": list(via_factors.sort_key),
                    },
                )
            ]
    return []


def identity_law_violations(space: FiniteMeasureSpace) -> list[LawViolation]:
    """The hom induced by the identity map must fix every atom."""
    hom = induced_homomorphism(identity_map(space))
    for b in hom.domain.nonnull_atoms:
        e = hom.domain.element((b,))
        if hom.apply(e) != e:
            return [
                LawViolation(
                    "identity-hom",
                    {
                        "element": list(e.sort_key),
                        "image": list(hom.apply(e).sort_key),
                    },
                )
            ]
    return []


def contravariance_check(f: MeasurableMap, g: MeasurableMap) -> LawReport:
    """Certify functoriality on a composable pair: images reverse order.

    Both laws are checked on atoms alone, in time linear in the atoms.
    That is exact: `BooleanHom.apply` sends an element to the join of
    its atoms' images, and a join of joins is a join, so two homs built
    this way agree on every element exactly when they agree on every
    atom. On homs the library induced, a violation means a library fault.

    Requires f and g (hence g after f) to be inverse-nil-preserving;
    raises NotInverseNilPreserving otherwise, SpaceMismatch when the pair
    does not compose.
    """
    gf = compose(g, f)
    for name, m in (("f", f), ("g", g), ("g after f", gf)):
        if not is_inverse_nil_preserving(m):
            raise NotInverseNilPreserving(f"{name} is not inverse-nil-preserving")
    # the homs hold the three spaces' algebras, which build_algebra then
    # returns to the identity checks instead of building them again
    homs = induced_homomorphism(gf), induced_homomorphism(f), induced_homomorphism(g)
    violations = composition_law_violations(*homs)
    for space in (f.source, f.target, g.target):
        violations.extend(identity_law_violations(space))
    return LawReport(tuple(violations))


def compression_submultiplicativity(f: MeasurableMap, g: MeasurableMap) -> bool:
    """Whether C(g after f) <= C(f) * C(g), with Unbounded absorbing."""
    composite = compression(compose(g, f))
    return composite.le(compression(f).times(compression(g)))
