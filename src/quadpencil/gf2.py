"""Small GF(2) linear algebra on int bitmasks (bit i = coordinate i)."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def reduce_basis(vectors: Iterable[int]) -> List[int]:
    """Row-reduced basis (pivot = lowest set bit, ascending)."""
    basis: List[int] = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            # keep echelon: clear this pivot from earlier rows
            low = v & -v
            for i, b in enumerate(basis[:-1]):
                if b & low:
                    basis[i] = b ^ v
    basis.sort(key=lambda b: b & -b)
    return basis


def rank(vectors: Iterable[int]) -> int:
    return len(reduce_basis(vectors))


def in_span(v: int, basis: Sequence[int]) -> bool:
    for b in reduce_basis(basis):
        low = b & -b
        if v & low:
            v ^= b
    return v == 0


def intersect(a: Sequence[int], b: Sequence[int], n: int) -> List[int]:
    """Basis of span(a) & span(b); vectors live in n bits (Zassenhaus).

    Rows carry (v, v) for a-vectors and (v, 0) for b-vectors; with pivots
    taken at the lowest set bit, echelon rows supported only on the high
    copy have low-block combination zero, so their high parts span the
    intersection.
    """
    rows = [v | (v << n) for v in a] + list(b)
    basis: List[int] = []
    for v in rows:
        for w in basis:
            low = w & -w
            if v & low:
                v ^= w
        if v:
            basis.append(v)
    mask = (1 << n) - 1
    return reduce_basis([v >> n for v in basis if (v & mask) == 0])


def kernel(rows: Sequence[int], ncols_domain: int) -> List[int]:
    """Basis of {x : xor of rows[i] over set bits of x == 0}."""
    aug = [(rows[i], 1 << i) for i in range(ncols_domain)]
    basis: List[tuple[int, int]] = []
    ker: List[int] = []
    for v, tag in aug:
        for bv, bt in basis:
            low = bv & -bv
            if v & low:
                v ^= bv
                tag ^= bt
        if v:
            basis.append((v, tag))
        else:
            ker.append(tag)
    return reduce_basis(ker)


def null_space(rows: Sequence[int], n: int) -> List[int]:
    """Basis of {x in F_2^n : <x, row> = 0 for every row} (dot product)."""
    basis = reduce_basis(rows)
    pivots = [b & -b for b in basis]
    pivot_bits = {p.bit_length() - 1 for p in pivots}
    out = []
    for j in range(n):
        if j in pivot_bits:
            continue
        v = 1 << j
        for b, p in zip(basis, pivots):
            if (b >> j) & 1:
                v |= p
        out.append(v)
    return out


def same_space(a: Sequence[int], b: Sequence[int]) -> bool:
    return reduce_basis(a) == reduce_basis(b)


def parity(v: int) -> int:
    return bin(v).count("1") & 1
