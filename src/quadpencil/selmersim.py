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

Both forms are parities of one mask: with partner(y) the vector y with the
two halves of every place swapped and `low` the mask of the first halves,
q(x) is the parity of x & partner(x) & low and <x, y> that of
x & partner(y).

Orthogonal transvections x -> x + <x,u> u with q(u) = 1 preserve q and act
transitively on the maximal isotropics, so seeded transvection words give
deterministic "random" systems.  `check_corpus` runs the `simulate` corpus:
duality at every place and one transverse twist per place of a run of
seeded systems, optionally under a non-isotropic global subspace (the
negative control).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import gf2


def _pair_partner(x: int, d: int) -> int:
    """x with its two halves swapped, for x < 2^(2d): y -> <x, y> is the
    parity of y & _pair_partner(x, d)."""
    return ((x & ((1 << d) - 1)) << d) | (x >> d)


def _transvection_word(
    rng: random.Random,
    basis: list[int],
    n: int,
    low: int,
    partner: Callable[[int], int],
    count: int,
) -> list[int]:
    """`basis` under `count` seeded orthogonal transvections of F_2^n, each
    u redrawn until q(u) = 1, in reduced form."""
    for _ in range(count):
        u = pu = 0
        while not (u & pu & low).bit_count() & 1:
            u = rng.randrange(1, 1 << n)
            pu = partner(u)
        basis = [x ^ u if (x & pu).bit_count() & 1 else x for x in basis]
    return gf2.reduce_basis(basis)


def _check_maximal_isotropic(
    basis: Sequence[int], r: int, low: int, partner: Callable[[int], int]
) -> None:
    """Raise ValueError unless `basis` is r independent vectors on which q
    and the pairing vanish."""
    if len(basis) != r or gf2.rank(basis) != r:
        raise ValueError(f"a maximal isotropic needs {r} independent vectors")
    for i, x in enumerate(basis):
        px = partner(x)
        if (x & px & low).bit_count() & 1 or any((y & px).bit_count() & 1 for y in basis[i + 1 :]):
            raise ValueError("subspace is not isotropic for the quadratic form")


def standard_lagrangian(d: int) -> list[int]:
    return [1 << i for i in range(d)]


def random_isotropic(rng: random.Random, d: int) -> list[int]:
    """Image of the standard maximal isotropic under a seeded word of
    orthogonal transvections (q(u) = 1 vectors)."""
    if d == 0:
        return []
    # odd/even word lengths reach the two rulings of the quadric, so both
    # intersection parities occur across seeds
    count = 3 * d + 2 + rng.randrange(2)
    return _transvection_word(
        rng, standard_lagrangian(d), 2 * d, (1 << d) - 1, lambda x: _pair_partner(x, d), count
    )


@dataclass(frozen=True)
class LocalSpace:
    """Split quadratic space of dimension 2d with a maximal isotropic
    condition subspace."""

    d: int
    condition: tuple[int, ...]

    def __post_init__(self):
        _check_maximal_isotropic(
            self.condition, self.d, (1 << self.d) - 1, lambda x: _pair_partner(x, self.d)
        )

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

    @functools.cached_property
    def low(self) -> int:
        """The mask of the first halves of the places."""
        return sum(((1 << pl.d) - 1) << off for pl, off in zip(self.places, self.offsets))

    def partner(self, y: int) -> int:
        """y with the two halves of every place swapped: <x, y> is the
        parity of x & partner(y)."""
        out = 0
        for v, pl in enumerate(self.places):
            out |= _pair_partner(self.res(y, v), pl.d) << self.offsets[v]
        return out

    def q_total(self, x: int) -> int:
        return (x & self.partner(x) & self.low).bit_count() & 1

    def res(self, x: int, v: int) -> int:
        off = self.offsets[v]
        return (x >> off) & ((1 << self.places[v].dim) - 1)

    def validate(self) -> None:
        _check_maximal_isotropic(self.global_lagrangian, self.total_dim // 2, self.low, self.partner)

    def conditions_product(self) -> list[int]:
        out = []
        for pl, off in zip(self.places, self.offsets):
            out.extend(v << off for v in pl.condition)
        return out


def make_system(seed: int, num_places: int, dims, global_words: Optional[int] = None) -> SelmerSystem:
    """Deterministic system from a seed: conditions and the global subspace
    are transvection words applied to standard maximal isotropics.

    dims: an even integer (same local dimension 2d everywhere) or a list of
    even integers per place; zero is allowed and contributes nothing.  A
    short global word keeps the global subspace close to the product of
    conditions, which is how large-Selmer starting points are seeded.
    """
    if isinstance(dims, int):
        dims = [dims] * num_places
    if len(dims) != num_places:
        raise ValueError("one dimension per place required")
    if any(x % 2 for x in dims):
        raise ValueError("local dimensions must be even")
    rng = random.Random(seed)
    places = tuple(LocalSpace(dim // 2, tuple(random_isotropic(rng, dim // 2))) for dim in dims)
    # the global word starts from the product of the conditions, itself
    # maximal isotropic
    start = SelmerSystem(places, ())
    glob = []
    if start.total_dim:
        n = start.total_dim
        count = global_words if global_words is not None else 2 * n + 4 + rng.randrange(2)
        glob = _transvection_word(rng, start.conditions_product(), n, start.low, start.partner, count)
    system = SelmerSystem(places, tuple(glob))
    system.validate()
    return system


# ---------------------------------------------------------------------------
# Selmer groups and duality


def selmer(system: SelmerSystem) -> list[int]:
    """Global subspace meet the product of local conditions, by basis."""
    return relaxed_selmer(system, None)


def relaxed_selmer(system: SelmerSystem, v: Optional[int]) -> list[int]:
    """Selmer conditions away from v, no condition at v (v None: the Selmer
    group itself)."""
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


def random_transverse_condition(rng: random.Random, pl: LocalSpace) -> tuple[int, ...]:
    """Seeded maximal isotropic with trivial intersection with the current
    condition (the shadow of a ramified local twist), from at most 200
    draws."""
    for _ in range(200):
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
) -> DescentTrace:
    """Drive the Selmer dimension down by repeated condition swaps.

    Mode A looks for places with r = 2, mode B for places with r = 4.  A
    move needs the distinguished class to have zero residue at the place
    (so it survives any swap) and the Selmer image there to span the whole
    condition; a transverse swap then drops the dimension by exactly r.
    Stops at dimension 1 (either mode) or 3 (mode B), or after 32 steps;
    raises with the blocking state when no move exists.
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
    while len(sel) != 1 and not (mode == "B" and len(sel) == 3) and len(steps) < 32:
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
    mode: str, start_dim: int, num_places: int, dims, max_seed: int = 4000
) -> Optional[tuple[int, SelmerSystem, DescentTrace]]:
    """Seed search for a system whose descent reaches its terminal dimension
    from the requested starting dimension.

    A small sweep of short global words is how high starting dimensions are
    found: random maximal isotropics intersect in low dimension almost
    always.
    """
    total_d = (sum(dims) if not isinstance(dims, int) else dims * num_places) // 2
    center = total_d - start_dim
    word_choices = [w for w in (center, center + 1, center + 2, center + 4) if w >= 0]
    for words in word_choices + [None]:
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


# ---------------------------------------------------------------------------
# The simulate corpus


def check_corpus(seed: int, dims: Sequence[int], systems: int, negative_control: bool = False) -> dict:
    """Duality at every place and one transverse twist per place of positive
    dimension, over the systems seeded seed, seed + 1, ...; with the
    negative control each global subspace is first replaced by a seeded
    one on which q does not vanish.  Returns the checks and failures of
    each kind."""
    r = sum(dims) // 2
    if negative_control and r < 2:
        # at total dimension 0 no nonzero vector exists, so the redraw below
        # could never stop; at 2 the redrawn line is the anisotropic vector,
        # and both sides of the duality check are all of H_v
        raise ValueError(
            "--negative-control needs a total dimension of at least 4: "
            f"{','.join(map(str, dims))!r}"
        )
    counts = {"duality": {"checks": 0, "failures": 0}, "twists": {"checks": 0, "failures": 0}}
    rng = random.Random(seed)
    for k in range(systems):
        system = make_system(seed + k, len(dims), dims)
        if negative_control:
            cand = []
            while len(cand) != r or not any(system.q_total(x) for x in cand):
                cand = gf2.reduce_basis([rng.randrange(1, 1 << (2 * r)) for _ in range(r)])
            system = SelmerSystem(system.places, tuple(cand))
        for v in range(len(dims)):
            counts["duality"]["checks"] += 1
            counts["duality"]["failures"] += not verify_pt_duality(system, v)
        for v, pl in enumerate(system.places):
            if pl.d == 0:
                continue
            try:
                twist_at(system, v, random_transverse_condition(rng, pl))
                counts["twists"]["checks"] += 1
            except (RuntimeError, ValueError):
                counts["twists"]["failures"] += 1
    return counts
