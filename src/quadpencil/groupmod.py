"""Brute-force verification layer for the finite S5-module machinery.

G is the zero-sum submodule of the degree-5 permutation module over F_2
(even-weight bitmasks in F_2^5).  The wreath-type group (Z/2)^5 x| S5
permutes the 10-point double cover of a 5-point set; everything here is
small enough for exhaustive closure and exact F_2 linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import gf2

Perm = tuple[int, ...]  # images of 0..4

IDENTITY_PERM: Perm = (0, 1, 2, 3, 4)


def perm_mul(a: Perm, b: Perm) -> Perm:
    """(a b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(5))


def perm_inv(a: Perm) -> Perm:
    out = [0] * 5
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def permute_mask(perm: Perm, mask: int) -> int:
    """Push a sign vector forward: bit i of mask lands at position perm[i]."""
    out = 0
    for i in range(5):
        if (mask >> i) & 1:
            out |= 1 << perm[i]
    return out


@dataclass(frozen=True)
class WreathElement:
    """Element (sign, perm) of (Z/2)^5 x| S5; sign is a 5-bit mask."""

    sign: int
    perm: Perm

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        return WreathElement(
            self.sign ^ permute_mask(self.perm, other.sign),
            perm_mul(self.perm, other.perm),
        )

    def inverse(self) -> "WreathElement":
        pinv = perm_inv(self.perm)
        return WreathElement(permute_mask(pinv, self.sign), pinv)

    def fixed_points(self) -> list["DeltaPoint"]:
        return [x for x in all_delta_points() if act_on_delta(self, x) == x]

    def __str__(self) -> str:
        bits = "".join(str((self.sign >> i) & 1) for i in range(5))
        return f"({bits}; {self.perm})"


WREATH_IDENTITY = WreathElement(0, IDENTITY_PERM)


@dataclass(frozen=True)
class DeltaPoint:
    """One of the 10 points (root index, sheet) of the double cover."""

    root: int
    sheet: int

    def __post_init__(self):
        if not (0 <= self.root < 5 and self.sheet in (0, 1)):
            raise ValueError("root in 0..4, sheet in {0,1}")


def all_delta_points() -> list[DeltaPoint]:
    return [DeltaPoint(i, s) for i in range(5) for s in (0, 1)]


def act_on_delta(g: WreathElement, x: DeltaPoint) -> DeltaPoint:
    """Permute the root and flip the sheet where the sign bit is set."""
    r = g.perm[x.root]
    return DeltaPoint(r, x.sheet ^ ((g.sign >> r) & 1))


# ---------------------------------------------------------------------------
# Subgroup closure

def perm_closure(gens: Iterable[Perm]) -> frozenset[Perm]:
    gens = list(gens)
    seen = {IDENTITY_PERM}
    frontier = [IDENTITY_PERM]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                x = perm_mul(h, g)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return frozenset(seen)


def wreath_closure(gens: Iterable[WreathElement], cap: int = 4000) -> frozenset[WreathElement]:
    gens = list(gens)
    seen = {WREATH_IDENTITY}
    frontier = [WREATH_IDENTITY]
    while frontier:
        new = []
        for h in frontier:
            for g in gens:
                x = h * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) > cap:
                        raise RuntimeError("closure exceeded cap")
        frontier = new
    return frozenset(seen)


def orbits(perms: Iterable[Perm]) -> list[frozenset[int]]:
    perms = list(perms)
    remaining = set(range(5))
    out = []
    while remaining:
        i = min(remaining)
        orb = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for g in perms:
                k = g[j]
                if k not in orb:
                    orb.add(k)
                    frontier.append(k)
        out.append(frozenset(orb))
        remaining -= orb
    return out


def is_transitive(perms: Iterable[Perm]) -> bool:
    return len(orbits(perms)) == 1


class NotTransitiveError(ValueError):
    def __init__(self, orbit_partition):
        self.orbit_partition = orbit_partition
        super().__init__(f"subgroup not transitive; orbits {sorted(map(sorted, orbit_partition))}")


# ---------------------------------------------------------------------------
# The module G and F_2 representations

# Basis of G (even-weight subspace of F_2^5).
G_BASIS = (0b00011, 0b00110, 0b01100, 0b11000)


def g_coords(mask: int) -> int:
    """Coordinates of an even-weight mask in G_BASIS, as a 4-bit mask."""
    if gf2.parity(mask):
        raise ValueError("not a zero-sum vector")
    coords = 0
    # Echelon structure: bit i of the residual decides basis vector i.
    v = mask
    for i in range(4):
        if (v >> i) & 1:
            coords |= 1 << i
            v ^= G_BASIS[i]
    assert v == 0
    return coords


def perm_matrix_on_g(perm: Perm) -> tuple[int, ...]:
    """Columns (as 4-bit masks) of the action of perm on G in G_BASIS."""
    return tuple(g_coords(permute_mask(perm, G_BASIS[i])) for i in range(4))


# ---------------------------------------------------------------------------
# Cohomology and endomorphism rings

def h1_dim(gens: Sequence[Perm]) -> int:
    """dim_F2 H^1(H, G) for H = <gens> transitive, by cocycle linear algebra.

    A cocycle is determined by its values on the generators; breadth-first
    closure of the Cayley graph turns every coincidence of group elements
    into 4 linear relations over F_2.
    """
    gens = list(gens)
    group = perm_closure(gens)
    if not is_transitive(group):
        raise NotTransitiveError(orbits(group))
    ngen = len(gens)
    ncols = 4 * ngen
    gen_mats = [perm_matrix_on_g(g) for g in gens]

    # element -> (rows of the 4 x ncols matrix M with f(element) = M . unknowns)
    def compose(h_mat_rows, h_perm, i):
        # f(h g_i) = f(h) + h . f(g_i)
        rho = perm_matrix_on_g(h_perm)
        rows = list(h_mat_rows)
        for r in range(4):
            add = 0
            for c in range(4):
                # row r of rho as acting on unknown block i
                if (rho[c] >> r) & 1:
                    add ^= 1 << (4 * i + c)
            rows[r] ^= add
        return tuple(rows)

    table = {IDENTITY_PERM: (0, 0, 0, 0)}
    relations: list[int] = []
    frontier = [IDENTITY_PERM]
    while frontier:
        new = []
        for h in frontier:
            for i, g in enumerate(gens):
                hg = perm_mul(h, g)
                rows = compose(table[h], h, i)
                if hg in table:
                    for r in range(4):
                        rel = table[hg][r] ^ rows[r]
                        if rel:
                            relations.append(rel)
                else:
                    table[hg] = rows
                    new.append(hg)
        frontier = new

    z1 = ncols - gf2.rank(relations)
    # B^1 has dimension dim G - dim G^H = 4 for transitive H (no invariants).
    return z1 - 4


def end_ring_r(gens: Sequence[Perm]) -> int:
    """r with End_H(G) isomorphic to F_{2^r}; raises if not a field."""
    gens = list(gens)
    group = perm_closure(gens)
    if not is_transitive(group):
        raise NotTransitiveError(orbits(group))
    # Unknown 4x4 matrix X (bit 4*j + i = entry (i,j)); relations X rho = rho X.
    rows = []
    for g in gens:
        rho = perm_matrix_on_g(g)
        for i in range(4):
            for j in range(4):
                # (X rho)_{ij} = sum_k X_{ik} rho_{kj}; (rho X)_{ij} = sum_k rho_{ik} X_{kj}
                rel = 0
                for k in range(4):
                    if (rho[j] >> k) & 1:  # rho_{kj}
                        rel ^= 1 << (4 * k + i)
                    if (rho[k] >> i) & 1:  # rho_{ik}
                        rel ^= 1 << (4 * j + k)
                if rel:
                    rows.append(rel)
    sols = gf2.null_space(rows, 16)
    r = len(sols)
    for coeffs in range(1, 1 << r):
        x = 0
        for i in range(r):
            if (coeffs >> i) & 1:
                x ^= sols[i]
        cols = tuple((x >> (4 * j)) & 0xF for j in range(4))
        if gf2.rank(cols) != 4:
            raise RuntimeError("centralizer contains a non-invertible element; not a field")
    return r


# ---------------------------------------------------------------------------
# Admissibility

def is_admissible(elements: Sequence[WreathElement]) -> list[bool]:
    """Per element: does it fix a point of the 10-point cover?  The answer
    depends on the conjugacy class alone."""
    return [bool(g.fixed_points()) for g in elements]


# ---------------------------------------------------------------------------
# Named transitive subgroups of S5

C5_GENS: list[Perm] = [(1, 2, 3, 4, 0)]
D10_GENS: list[Perm] = [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)]
F20_GENS: list[Perm] = [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)]
A5_GENS: list[Perm] = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
S5_GENS: list[Perm] = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]

TRANSITIVE_SUBGROUPS: dict[str, list[Perm]] = {
    "C5": C5_GENS,
    "D10": D10_GENS,
    "F20": F20_GENS,
    "A5": A5_GENS,
    "S5": S5_GENS,
}


def lemma_table() -> list[tuple[str, int, int, int]]:
    """(label, order, H^1 dim, endomorphism degree r) for all five subgroups."""
    out = []
    for label, gens in TRANSITIVE_SUBGROUPS.items():
        order = len(perm_closure(gens))
        out.append((label, order, h1_dim(gens), end_ring_r(gens)))
    return out
