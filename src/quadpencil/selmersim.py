"""Synthetic 2-Selmer machinery on split quadratic F_2-spaces.

Each place carries a split quadratic space of dimension 2d: the quadratic
form q(x) = sum x_i x_(d+i) refines the alternating pairing, the local
condition is a maximal q-isotropic subspace, and the global structure is a
single maximal q-isotropic subspace of the orthogonal direct sum.  The
Selmer group is the intersection of the global subspace with the product
of local conditions.

The quadratic refinement is what makes the twisting laws theorems here:
for maximal isotropics in a split quadratic space the intersection
dimensions satisfy dim(R & C) + dim(R & C') = r + dim(C & C') mod 2, the
char-2 shadow of the two-rulings geometry.  With alternating structure
alone those laws are false, so conditions and global subspaces are kept
isotropic for q throughout, matching the fact that Kummer-map images are
isotropic for the quadratic refinement of the local pairing.

Orthogonal transvections x -> x + <x,u> u with q(u) = 1 preserve q and act
transitively on the maximal isotropics, so seeded transvection words give
deterministic "random" systems.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import gf2


def q_split(x: int, d: int) -> int:
    """q(x) = sum x_i x_(d+i): the parity of the pairs of set bits."""
    return (x & (x >> d) & ((1 << d) - 1)).bit_count() & 1


def pair_split(x: int, y: int, d: int) -> int:
    """The polar pairing sum x_i y_(d+i) + y_i x_(d+i) of q, as one parity."""
    return (((x & (y >> d)) ^ (y & (x >> d))) & ((1 << d) - 1)).bit_count() & 1


def transvection(x: int, u: int, d: int) -> int:
    return x ^ u if pair_split(x, u, d) else x


def standard_lagrangian(d: int) -> list[int]:
    return [1 << i for i in range(d)]


def random_isotropic(rng: random.Random, d: int, words: int = 0) -> list[int]:
    """Image of the standard maximal isotropic under a seeded word of
    orthogonal transvections (q(u) = 1 vectors)."""
    if d == 0:
        return []
    basis = standard_lagrangian(d)
    n2 = 2 * d
    # odd/even word lengths reach the two rulings of the quadric, so both
    # intersection parities occur across seeds
    count = words or 3 * d + 2 + rng.randrange(2)
    for _ in range(count):
        u = 0
        while q_split(u, d) != 1:
            u = rng.randrange(1, 1 << n2)
        basis = [transvection(x, u, d) for x in basis]
    return gf2.reduce_basis(basis)


def is_isotropic_basis(basis: Sequence[int], d: int) -> bool:
    for i, x in enumerate(basis):
        if q_split(x, d):
            return False
        for y in basis[i + 1 :]:
            if pair_split(x, y, d):
                return False
    return True


@dataclass(frozen=True)
class LocalSpace:
    """Split quadratic space of dimension 2d with a maximal isotropic
    condition subspace."""

    d: int
    condition: tuple[int, ...]

    def __post_init__(self):
        if len(self.condition) != self.d:
            raise ValueError("condition must have dimension d")
        if gf2.rank(self.condition) != self.d:
            raise ValueError("condition basis is dependent")
        if not is_isotropic_basis(self.condition, self.d):
            raise ValueError("condition is not isotropic for the quadratic form")

    @property
    def dim(self) -> int:
        return 2 * self.d


@dataclass(frozen=True)
class SelmerSystem:
    places: tuple[LocalSpace, ...]
    global_lagrangian: tuple[int, ...]

    @functools.cached_property
    def offsets(self) -> list[int]:
        out = [0]
        for pl in self.places:
            out.append(out[-1] + pl.dim)
        return out

    @property
    def total_dim(self) -> int:
        return self.offsets[-1]

    def q_total(self, x: int) -> int:
        acc = 0
        for pl, off in zip(self.places, self.offsets):
            acc ^= q_split((x >> off) & ((1 << pl.dim) - 1), pl.d)
        return acc

    def pair_total(self, x: int, y: int) -> int:
        acc = 0
        for pl, off in zip(self.places, self.offsets):
            mask = (1 << pl.dim) - 1
            acc ^= pair_split((x >> off) & mask, (y >> off) & mask, pl.d)
        return acc

    def res(self, x: int, v: int) -> int:
        off = self.offsets[v]
        return (x >> off) & ((1 << self.places[v].dim) - 1)

    def validate(self) -> None:
        want = sum(pl.d for pl in self.places)
        if len(self.global_lagrangian) != want:
            raise ValueError("global subspace must have dimension sum d_v")
        if gf2.rank(self.global_lagrangian) != want:
            raise ValueError("global basis is dependent")
        for i, x in enumerate(self.global_lagrangian):
            if self.q_total(x):
                raise ValueError("global subspace not isotropic for q")
            for y in self.global_lagrangian[i + 1 :]:
                if self.pair_total(x, y):
                    raise ValueError("global subspace not isotropic for the pairing")

    def conditions_product(self) -> list[int]:
        out = []
        for pl, off in zip(self.places, self.offsets):
            out.extend(v << off for v in pl.condition)
        return out


def make_system(
    seed: int,
    num_places: int,
    dims,
    condition_words: Optional[int] = None,
    global_words: Optional[int] = None,
) -> SelmerSystem:
    """Deterministic system from a seed: conditions and the global subspace
    are transvection words applied to standard maximal isotropics.

    dims: an even integer (same local dimension 2d everywhere) or a list of
    even integers per place; zero is allowed and contributes nothing.  Short
    word overrides keep the global subspace close to the product of
    conditions, which is how large-Selmer starting points are seeded.
    """
    if isinstance(dims, int):
        dims = [dims] * num_places
    if len(dims) != num_places:
        raise ValueError("one dimension per place required")
    if any(x % 2 for x in dims):
        raise ValueError("local dimensions must be even")
    rng = random.Random(seed)
    places = []
    for dim in dims:
        d = dim // 2
        places.append(LocalSpace(d, tuple(random_isotropic(rng, d, words=condition_words or 0))))
    total_d = sum(pl.d for pl in places)
    system = SelmerSystem(
        tuple(places), tuple(_global_word(rng, places, total_d, global_words))
    )
    system.validate()
    return system


def _global_word(
    rng: random.Random,
    places: Sequence[LocalSpace],
    total_d: int,
    words: Optional[int] = None,
) -> list[int]:
    # start from the product of the conditions, itself maximal isotropic
    system = SelmerSystem(tuple(places), ())
    basis = system.conditions_product()
    if system.total_dim == 0:
        return []
    count = words if words is not None else 4 * total_d + 4 + rng.randrange(2)
    for _ in range(count):
        u = 0
        while system.q_total(u) != 1:
            u = rng.randrange(1, 1 << system.total_dim)
        basis = [x ^ u if system.pair_total(x, u) else x for x in basis]
    return gf2.reduce_basis(basis)


# ---------------------------------------------------------------------------
# Selmer groups and duality


def selmer(system: SelmerSystem) -> list[int]:
    """Global subspace meet the product of local conditions, by basis."""
    return gf2.intersect(
        list(system.global_lagrangian), system.conditions_product(), system.total_dim
    )


def relaxed_selmer(system: SelmerSystem, v: int) -> list[int]:
    """Selmer conditions away from v, no condition at v."""
    cond = []
    for i, (pl, off) in enumerate(zip(system.places, system.offsets)):
        if i == v:
            cond.extend(1 << (off + k) for k in range(pl.dim))
        else:
            cond.extend(x << off for x in pl.condition)
    return gf2.intersect(list(system.global_lagrangian), cond, system.total_dim)


def verify_pt_duality(system: SelmerSystem, v: int) -> bool:
    """Image of the relaxed group in H_v / C_v equals the annihilator of the
    image of the Selmer group inside C_v, exactly."""
    pl = system.places[v]
    if pl.d == 0:
        return True
    sel = selmer(system)
    rel = relaxed_selmer(system, v)
    res_sel = [system.res(x, v) for x in sel]
    res_rel = [system.res(x, v) for x in rel]
    cond = list(pl.condition)
    # subspace of H_v containing C_v representing the image in the quotient
    image_plus = gf2.reduce_basis(cond + res_rel)
    # annihilator of res_sel under the pairing, as a subspace containing C_v
    rows = [_pair_partner(x, pl.d) for x in gf2.reduce_basis(res_sel)]
    ann = gf2.null_space(rows, pl.dim)
    return gf2.same_space(image_plus, ann)


def _pair_partner(x: int, d: int) -> int:
    """y -> <x, y> equals the dot product with the half-swapped mask."""
    lo = x & ((1 << d) - 1)
    hi = x >> d
    return (lo << d) | hi


# ---------------------------------------------------------------------------
# Twisting


@dataclass(frozen=True)
class TwistStep:
    place: int
    old_condition: tuple[int, ...]
    new_condition: tuple[int, ...]
    r: int
    n1: int
    n2: int
    transverse: bool
    dim_before: int
    dim_after: int


def twist_at(system: SelmerSystem, v: int, new_condition: Sequence[int]) -> tuple[SelmerSystem, TwistStep]:
    """Replace the condition at v; record and check the dimension laws.

    Always: dim change = n1 - n2 and n1 + n2 = r + dim(old & new) mod 2.
    For a transverse swap (the ramified-twist model) additionally
    n1 + n2 <= r.
    """
    pl = system.places[v]
    new_pl = LocalSpace(pl.d, tuple(gf2.reduce_basis(new_condition)))  # validates
    places = list(system.places)
    places[v] = new_pl
    new_system = SelmerSystem(tuple(places), system.global_lagrangian)

    old_sel = selmer(system)
    new_sel = selmer(new_system)
    n2 = gf2.rank([system.res(x, v) for x in old_sel])
    n1 = gf2.rank([new_system.res(x, v) for x in new_sel])
    r = pl.d
    meet = gf2.intersect(list(pl.condition), list(new_pl.condition), pl.dim)
    transverse = not meet

    if len(new_sel) - len(old_sel) != n1 - n2:
        raise RuntimeError("dimension-change law violated")
    if (n1 + n2) % 2 != (r + len(meet)) % 2:
        raise RuntimeError("parity law violated")
    if transverse and n1 + n2 > r:
        raise RuntimeError("bound law violated")
    step = TwistStep(
        v, pl.condition, new_pl.condition, r, n1, n2, transverse, len(old_sel), len(new_sel)
    )
    return new_system, step


def random_transverse_condition(
    rng: random.Random, pl: LocalSpace, max_tries: int = 200
) -> tuple[int, ...]:
    """Seeded maximal isotropic with trivial intersection with the current
    condition (the shadow of a ramified local twist)."""
    for _ in range(max_tries):
        cand = random_isotropic(rng, pl.d)
        if not gf2.intersect(cand, list(pl.condition), pl.dim):
            return tuple(cand)
    raise RuntimeError("no transverse isotropic found")  # pragma: no cover


# ---------------------------------------------------------------------------
# Descent driver


class DescentBlockedError(RuntimeError):
    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class DescentTrace:
    mode: str
    dims: tuple[int, ...]
    steps: tuple[TwistStep, ...]
    final_selmer: tuple[int, ...]
    delta: int

    @property
    def terminated(self) -> bool:
        return self.dims[-1] == 1 or (self.mode == "B" and self.dims[-1] == 3)


def descent_driver(
    system: SelmerSystem,
    target_class_index: int = 0,
    mode: str = "A",
    seed: int = 0,
    max_steps: int = 32,
) -> DescentTrace:
    """Drive the Selmer dimension down by repeated condition swaps.

    Mode A looks for places with r = 2, mode B for places with r = 4.  A
    move needs the distinguished class to have zero residue at the place
    (so it survives any swap) and the Selmer image there to span the whole
    condition; a transverse swap then drops the dimension by exactly r.
    Stops at dimension 1 (either mode) or 3 (mode B); raises with the
    blocking state when no move exists.
    """
    if mode not in ("A", "B"):
        raise ValueError("mode must be A or B")
    drop = 2 if mode == "A" else 4
    rng = random.Random(seed)
    sel = selmer(system)
    if not sel:
        raise ValueError("Selmer group is zero; nothing to descend")
    if target_class_index >= len(sel):
        raise ValueError("target class index out of range")
    delta = sel[target_class_index]
    dims = [len(sel)]
    steps: list[TwistStep] = []
    while len(sel) != 1 and not (mode == "B" and len(sel) == 3) and len(steps) < max_steps:
        move = None
        for v, pl in enumerate(system.places):
            if pl.d != drop:
                continue
            if system.res(delta, v) != 0:
                continue
            n2 = gf2.rank([system.res(x, v) for x in sel])
            if n2 != pl.d:
                continue
            move = v
            break
        if move is None:
            raise DescentBlockedError(
                "no admissible move",
                {
                    "dims": tuple(dims),
                    "selmer_dim": len(sel),
                    "per_place": [
                        {
                            "d": pl.d,
                            "delta_res_zero": system.res(delta, v) == 0,
                            "selmer_image_dim": gf2.rank([system.res(x, v) for x in sel]),
                        }
                        for v, pl in enumerate(system.places)
                    ],
                },
            )
        new_cond = random_transverse_condition(rng, system.places[move])
        system, step = twist_at(system, move, new_cond)
        steps.append(step)
        sel = selmer(system)
        if not gf2.in_span(delta, sel):
            raise RuntimeError("distinguished class fell out of the Selmer group")
        dims.append(len(sel))
    return DescentTrace(mode, tuple(dims), tuple(steps), tuple(sel), delta)


def find_descent_instance(
    mode: str,
    start_dim: int,
    num_places: int,
    dims,
    max_seed: int = 4000,
    global_words: Optional[int] = None,
) -> Optional[tuple[int, SelmerSystem, DescentTrace]]:
    """Seed search for a system whose descent reaches its terminal dimension
    from the requested starting dimension.

    Short global words (or a small sweep of them) are how high starting
    dimensions are found: random maximal isotropics intersect in low
    dimension almost always.
    """
    if global_words is not None:
        word_choices = [global_words]
    else:
        total_d = (sum(dims) if not isinstance(dims, int) else dims * num_places) // 2
        center = total_d - start_dim
        word_choices = [w for w in (center, center + 1, center + 2, center + 4) if w >= 0]
        word_choices.append(None)
    for words in word_choices:
        for seed in range(max_seed):
            system = make_system(seed, num_places, dims, global_words=words)
            sel = selmer(system)
            if len(sel) != start_dim:
                continue
            for idx in range(len(sel)):
                try:
                    trace = descent_driver(system, idx, mode=mode, seed=seed)
                except (DescentBlockedError, RuntimeError, ValueError):
                    continue
                if trace.terminated and trace.dims[0] == start_dim:
                    return seed, system, trace
    return None
