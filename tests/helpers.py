"""Independent oracles and exhaustive-check utilities for the tests.

These deliberately avoid the code paths they are used to verify: the
pushforward oracle works from the raw point function, the compression
oracle scans every measurable target set against the defining
inequality, and the scaled mass tables are re-derived from atom weights
and cross-checked against the public rho before any law uses them.
`drop_lowest_image_atom` is a planted hom fault shared by the CLI and
metric tests, `python_child_output` runs a child interpreter on the
malg under test. `fraction_metric_check` is the metric axiom check in
`Fraction` arithmetic, the reference for the library's integer check.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import malg

from malg import (
    UNBOUNDED,
    AlgebraElement,
    BooleanHom,
    CompressionResult,
    ExtRational,
    MeasurableMap,
    MeasureAlgebra,
    MetricAxiomViolation,
    rho,
)


def oracle_pushforward_masses(phi: MeasurableMap) -> list[ExtRational]:
    """Per-target-atom mass, recomputed from the point function alone."""
    out = []
    for block in phi.target.atoms:
        block_points = set(block)
        mass = ExtRational(0)
        for a, src_block in enumerate(phi.source.atoms):
            if all(phi.point_fn[p] in block_points for p in src_block):
                mass = mass + phi.source.weights[a]
        out.append(mass)
    return out


def oracle_compression(phi: MeasurableMap) -> CompressionResult:
    """Infimal C with pushforward <= C * measure over EVERY measurable set.

    Set-level scan of the defining inequality, independent of the
    atomwise implementation it is used to check.
    """
    n = phi.target.n_atoms
    masses = oracle_pushforward_masses(phi)
    best = Fraction(0)
    for mask in range(1 << n):
        mass = ExtRational(0)
        weight = ExtRational(0)
        for b in range(n):
            if mask >> b & 1:
                mass = mass + masses[b]
                weight = weight + phi.target.weights[b]
        if mass.is_zero:
            continue
        if weight.is_zero or (mass.is_infinite and not weight.is_infinite):
            return UNBOUNDED
        if weight.is_infinite:
            continue
        ratio = (mass / weight).as_fraction()
        if ratio > best:
            best = ratio
    return CompressionResult.bounded(best)


def scaled_mass_table(algebra: MeasureAlgebra) -> tuple[list[int], int]:
    """Integer masses of every finite-ideal mask, plus the common denominator.

    Entry m of the table is denom * mu_bar(element(mask m over fin atoms)).
    The caller is expected to cross-check the table against rho before
    trusting it (see assert_table_matches_rho).
    """
    fin = algebra.fin_atoms
    weights = [algebra.space.weights[i].as_fraction() for i in fin]
    denom = lcm(*(w.denominator for w in weights)) if weights else 1
    scaled = [int(w * denom) for w in weights]
    table = [0] * (1 << len(fin))
    for mask in range(1, 1 << len(fin)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask & (mask - 1)] + scaled[low]
    return table, denom


def fin_mask_elements(algebra: MeasureAlgebra) -> list:
    """Finite-ideal elements indexed by mask position over fin atoms."""
    fin = algebra.fin_atoms
    return [
        algebra.element(tuple(fin[i] for i in range(len(fin)) if mask >> i & 1))
        for mask in range(1 << len(fin))
    ]


def assert_table_matches_rho(algebra: MeasureAlgebra, table: list[int], denom: int):
    """table[a ^ b] must equal denom * rho(a, b) for every fin pair."""
    elems = fin_mask_elements(algebra)
    for a in range(len(elems)):
        for b in range(len(elems)):
            assert Fraction(table[a ^ b], denom) == rho(elems[a], elems[b])


def drop_lowest_image_atom(hom: BooleanHom) -> BooleanHom:
    """A planted fault: each atom's image loses its lowest source atom."""
    action = {
        b: AlgebraElement(hom.codomain, e.mask & (e.mask - 1))
        for b, e in hom.atom_action.items()
    }
    return BooleanHom(hom.domain, hom.codomain, action)


def fraction_metric_check(points, rows) -> None:
    """Raise MetricAxiomViolation as FiniteMetricMeasureSpace must, on a
    square table of Fractions, by `Fraction` comparison and addition."""
    n = len(points)
    for i in range(n):
        if rows[i][i] != 0:
            raise MetricAxiomViolation(f"d({points[i]}, {points[i]}) != 0")
        for j in range(n):
            if rows[i][j] != rows[j][i]:
                raise MetricAxiomViolation("distance table is not symmetric")
            if i != j and rows[i][j] <= 0:
                raise MetricAxiomViolation(
                    f"d({points[i]}, {points[j]}) must be positive"
                )
    for i in range(n):
        for j in range(n):
            for k in range(i + 1, n):
                if rows[i][k] > rows[i][j] + rows[j][k]:
                    raise MetricAxiomViolation(
                        "triangle inequality fails on "
                        f"({points[i]}, {points[j]}, {points[k]})"
                    )


def primes_from(start: int, count: int) -> list[int]:
    """The first `count` primes at or above `start`, by a sieve of one
    window of 200,000 integers (enough for about 9,000 primes near 10**9)."""
    size = 200_000
    sieve = bytearray([1]) * size
    for p in range(2, isqrt(start + size) + 1):
        first = max(p * p, (start + p - 1) // p * p)
        sieve[first - start :: p] = bytes(len(range(first - start, size, p)))
    found = [start + i for i in range(size) if sieve[i]]
    assert len(found) >= count, "sieve window too small"
    return found[:count]


def python_child_output(args, timeout=None, exit_code=0) -> bytes:
    """stdout of `python *args` in a child that imports the malg under
    test, installed or not; the child must exit with `exit_code`."""
    src = str(Path(malg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )
    assert proc.returncode == exit_code, proc.stderr
    return proc.stdout
