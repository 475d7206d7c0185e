"""Exact brute-force enumeration of partition intervals.

Ground truth for every closed form in the package: stage-K intervals of a
weighted IFS are aggregated by exponent vector (multinomial counts, exact
rational masses and lengths); atomic-family stage cells are built directly
from whole atom groups with a telescoped tail (never truncated atom lists),
so masses are exact rationals at every stage within budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .ifs_core import (
    AtomicMeasureSpec,
    BudgetExceededError,
    WeightedIFS,
    factorize,
)
from .regularity import (
    AmbiguousRegularityError,
    FractionKey,
    InfiniteKey,
    OnePlusLogKey,
    PreparedIFS,
    RegularityKey,
    RegularityValue,
    VectorKey,
    class_columns,
    prepare,
    unit_rows,
    value_columns,
    vector_matrix,
)
from .sequences import multinomial

# the most intervals (N^K) or cells (base^n) one stage may enumerate
STAGE_BUDGET = 10**7


@dataclass(frozen=True)
class IntervalRecord:
    """Aggregated partition intervals sharing one exponent vector / mass.

    ``k`` is the exponent vector for IFS stages, or a length-1 tuple with a
    representative position index for atomic stages.  ``count`` is the
    number of intervals aggregated into the record.
    """

    k: tuple[int, ...]
    mass: Fraction
    length: Fraction
    count: int
    kind: str  # "ifs" | "atomic" | "gap"
    regularity: RegularityValue | None
    key_hint: RegularityKey


@dataclass(frozen=True)
class StageEnumeration:
    """One stage of the natural partition sequence: intervals plus gaps."""

    intervals: tuple[IntervalRecord, ...]
    gaps: tuple[IntervalRecord, ...]

    def all_records(self) -> tuple[IntervalRecord, ...]:
        return self.intervals + self.gaps


# ---------------------------------------------------------------------------
# IFS stages
# ---------------------------------------------------------------------------


def enumerate_stage(ifs: WeightedIFS | PreparedIFS, K: int) -> StageEnumeration:
    """Aggregate the N^K stage-K intervals by exponent vector.

    Each record carries count = multinomial(K; k), and its mass, length and
    regularity are a row of one ``class_columns`` call over the stage's
    class vectors, keyed by the primitive class vector.  Gap intervals (mass
    0) of all levels <= K are reported separately, aggregated by the
    exponent vector of their enclosing level-(j-1) cell.  Both come from one
    ``vector_matrix``, by level, each level in lexicographic order.
    """
    prepared = prepare(ifs)
    ifs = prepared.ifs
    if K < 1:
        raise ValueError("stage K must be >= 1")
    if ifs.N**K > STAGE_BUDGET:
        raise BudgetExceededError(f"N^K = {ifs.N**K} exceeds budget {STAGE_BUDGET}")
    vectors = vector_matrix(ifs.N, K)
    levels = vectors.sum(axis=1)
    ks = vectors[levels == K]
    columns = class_columns(prepared, ks @ unit_rows(prepared))
    keys = columns.k // np.gcd.reduce(columns.k, axis=1)[:, None]
    intervals = []
    for i, (k, key) in enumerate(zip(ks.tolist(), keys.tolist())):
        value = columns.value(i)
        intervals.append(
            IntervalRecord(
                k=tuple(k),
                mass=value.mass_pev.as_fraction(),
                length=value.length_pev.as_fraction(),
                count=multinomial(K, k),
                kind="ifs",
                regularity=value,
                key_hint=VectorKey(tuple(key)),
            )
        )

    gaps = []
    gap = ifs.gap
    if gap > 0:
        # the N - 1 gaps under each cell of levels 0 .. K - 1
        # each length gap * prod r_i**k_i as one quotient of integer products
        ratios = [(r.numerator, r.denominator) for r in ifs.ratios]
        order = np.argsort(levels, kind="stable")
        for cell, level in zip(vectors[order].tolist(), levels[order].tolist()):
            if level == K:
                break
            num, den = gap.numerator, gap.denominator
            for ki, (n, d) in zip(cell, ratios):
                num, den = num * n**ki, den * d**ki
            gaps.append(
                IntervalRecord(
                    k=tuple(cell),
                    mass=Fraction(0),
                    length=Fraction(num, den),
                    count=multinomial(level, cell) * (ifs.N - 1),
                    kind="gap",
                    regularity=None,
                    key_hint=InfiniteKey(),
                )
            )
    return StageEnumeration(intervals=tuple(intervals), gaps=tuple(gaps))


# ---------------------------------------------------------------------------
# Atomic stages
# ---------------------------------------------------------------------------


def _classify_atomic_mass(
    spec: AtomicMeasureSpec, n: int, mass: Fraction, length: Fraction
) -> tuple[RegularityValue | None, RegularityKey]:
    if mass == 0:
        return None, InfiniteKey()
    value = RegularityValue(factorize(mass), factorize(length))
    q = value.rational_value()
    if q is not None:
        return value, FractionKey(q)
    if 2 * mass == length:
        # mass = base^-n / 2: regularity 1 + log_{base^n} 2
        return value, OnePlusLogKey(n)
    raise AmbiguousRegularityError(
        f"unclassified atomic regularity for mass {mass}, length {length}"
    )


def atomic_stage(spec: AtomicMeasureSpec, n: int) -> StageEnumeration:
    """Partition stage n into base^n left-closed intervals (last closed),
    with exact cell masses, aggregated by mass.
    """
    if n < 1:
        raise ValueError("stage n must be >= 1")
    b = spec.base
    cells = b**n
    if cells > STAGE_BUDGET:
        raise BudgetExceededError(f"base^n = {cells} exceeds budget {STAGE_BUDGET}")
    length = Fraction(1, cells)
    groups: dict[Fraction, tuple[int, int]] = {}  # mass -> (first index, count)

    if spec.family == "sigma1":
        # only n+2 distinct masses; build them directly
        groups[Fraction(1, 2 * cells)] = (0, 1)
        for i in range(1, n + 1):
            groups[Fraction(1, 3**i)] = (3 ** (n - i), 1)
        zero_count = cells - n - 1
        if zero_count > 0:
            groups[Fraction(0)] = (2, zero_count)
    else:
        m = spec.m
        # place whole atom groups into cells; group j has (m-1)m^(j-1)
        # atoms of weight b^-j at positions (m^j + t') * b^-j.  Once a
        # group's span [(m/b)^j, (m/b)^(j-1)] sits inside cell 0, the rest
        # telescopes to (m/b)^jmax.
        jmax = 1
        while m**jmax * b**n > b**jmax:
            jmax += 1
        num = [0] * cells  # cell mass numerators over b**jmax
        for j in range(1, jmax + 1):
            n_j = (m - 1) * m ** (j - 1)
            w_j = b ** (jmax - j)
            if j <= n:
                step = b ** (n - j)
                base = m**j * step
                for tp in range(n_j):
                    num[base + tp * step] += w_j
            else:
                span = b ** (j - n)  # atoms per interior cell
                t0 = m**j // span
                t1 = (m**j + n_j - 1) // span
                if t0 == t1:
                    num[t0] += n_j * w_j
                else:
                    num[t0] += ((t0 + 1) * span - m**j) * w_j
                    num[t1] += (m**j + n_j - t1 * span) * w_j
                    full = span * w_j
                    for t in range(t0 + 1, t1):
                        num[t] += full
        num[0] += m**jmax  # telescoped tail of groups beyond jmax
        by_num: dict[int, tuple[int, int]] = {}
        for t, v in enumerate(num):
            if v in by_num:
                first, cnt = by_num[v]
                by_num[v] = (first, cnt + 1)
            else:
                by_num[v] = (t, 1)
        den = b**jmax
        groups = {Fraction(v, den): fc for v, fc in by_num.items()}

    records = []
    for mass, (first, cnt) in sorted(groups.items(), key=lambda kv: kv[1][0]):
        value, key = _classify_atomic_mass(spec, n, mass, length)
        records.append(
            IntervalRecord(
                k=(first,),
                mass=mass,
                length=length,
                count=cnt,
                kind="atomic",
                regularity=value,
                key_hint=key,
            )
        )
    return StageEnumeration(intervals=tuple(records), gaps=())


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------

_KEY_ORDER = {FractionKey: 0, VectorKey: 1, OnePlusLogKey: 2, InfiniteKey: 3}


def _key_sort_token(key: RegularityKey):
    if isinstance(key, FractionKey):
        payload = (key.value.numerator, key.value.denominator)
    elif isinstance(key, VectorKey):
        payload = key.vector
    elif isinstance(key, OnePlusLogKey):
        payload = (key.level,)
    else:
        payload = ()
    return (_KEY_ORDER[type(key)], payload)


def _ladder(records: Iterable[IntervalRecord]) -> list[tuple[Fraction, int]]:
    """(length, multiplicity) pairs of records, equal lengths merged, by
    decreasing length."""
    merged: dict[Fraction, int] = {}
    for rec in records:
        merged[rec.length] = merged.get(rec.length, 0) + rec.count
    return sorted(merged.items(), key=lambda kv: kv[0], reverse=True)


def group_by_regularity(
    records: Iterable[IntervalRecord],
) -> dict[RegularityKey, list[tuple[Fraction, int]]]:
    """Group records by exact regularity (one ``ClassColumns.partition`` of
    their values); never merges undecided values.

    Each group is keyed by its smallest key hint and carries (length,
    multiplicity) pairs sorted by decreasing length with equal lengths merged.
    """
    finite, infinite = [], []
    for rec in records:
        (infinite if rec.regularity is None else finite).append(rec)
    parts: dict[int, list[IntervalRecord]] = {}
    if finite:
        number = value_columns([rec.regularity for rec in finite]).partition()
        for n, rec in zip(number.tolist(), finite):
            parts.setdefault(n, []).append(rec)
    out: dict[RegularityKey, list[tuple[Fraction, int]]] = {}
    for group in parts.values():
        out[min((rec.key_hint for rec in group), key=_key_sort_token)] = _ladder(group)
    if infinite:
        out[InfiniteKey()] = _ladder(infinite)
    return out

