"""Output checks that do not trust the code under test.

Everything here is recomputed from the op's inputs with plain `Fraction`
arithmetic, small GF(p) routines written out below, and sympy for
discriminants and factorizations; nothing calls into `quadpencil`.
Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

import jsonschema
import sympy

_t = sympy.Symbol("t")

# H^1 dimension and endomorphism degree of the zero-sum module, per
# transitive subgroup of S5, with the subgroup order.
LEMMA_TABLE = {
    "C5": (5, 0, 4),
    "D10": (10, 0, 2),
    "F20": (20, 0, 1),
    "A5": (60, 0, 1),
    "S5": (120, 0, 1),
}
SQUARE_DISC_LABELS = {"C5", "D10", "A5"}
NONSQUARE_DISC_LABELS = {"F20", "S5"}


# ---------------------------------------------------------------------------
# Rationals and polynomials over Q (coefficient lists, low to high)


def poly(strs) -> list[Fraction]:
    return trim([Fraction(s) for s in strs])


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def prem(a, m):
    r = trim(a)
    lc = m[-1]
    while len(r) >= len(m):
        c = r[-1] / lc
        k = len(r) - len(m)
        for i, y in enumerate(m):
            r[k + i] -= c * y
        r = trim(r)
    return r


def peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def from_roots(roots):
    out = [Fraction(1)]
    for r in roots:
        out = pmul(out, [Fraction(-r), Fraction(1)])
    return out


def det(m) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return d


def is_square(x: Fraction) -> bool:
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def valuation(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _sympy_poly(a):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(a)], _t)


@lru_cache(maxsize=4096)
def _disc_cached(key):
    return sympy.discriminant(_sympy_poly(list(key)))


def discriminant(a) -> Fraction:
    d = _disc_cached(tuple(a))
    return Fraction(int(d.p), int(d.q))


@lru_cache(maxsize=4096)
def _factor_cached(key):
    _, pairs = _sympy_poly(list(key)).factor_list()
    out = []
    for f, mult in pairs:
        cs = [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, reversed(f.all_coeffs()))]
        lc = cs[-1]
        out.append((tuple(c / lc for c in cs), int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)


def factor_q(a):
    """Monic irreducible factors over Q, ordered by (degree, coefficients)
    as the README's delta convention states."""
    return [(list(f), m) for f, m in _factor_cached(tuple(a))]


def poly_expr(a) -> str:
    """Polynomial as an expression in t, e.g. 't^5 - 5*t + 12'."""
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    s = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        s += f" {sign} {body}"
    return s


# ---------------------------------------------------------------------------
# GF(p) polynomials (int lists, low to high)


def gf_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def gf_reduce(a, p):
    return gf_trim([x % p for x in a])


def gf_rem(a, m, p):
    r = gf_reduce(a, p)
    inv = pow(m[-1], -1, p)
    while len(r) >= len(m):
        c = r[-1] * inv % p
        k = len(r) - len(m)
        for i, y in enumerate(m):
            r[k + i] = (r[k + i] - c * y) % p
        r = gf_trim(r)
    return r


def gf_mulmod(a, b, m, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return gf_rem(out, m, p)


def gf_powmod(a, e, m, p):
    result = [1]
    base = gf_rem(a, m, p)
    while e:
        if e & 1:
            result = gf_mulmod(result, base, m, p)
        base = gf_mulmod(base, base, m, p)
        e >>= 1
    return result


def rat_mod(c: Fraction, p: int) -> int:
    return c.numerator * pow(c.denominator, -1, p) % p


def gf_of(a, p):
    return gf_trim([rat_mod(c, p) for c in a])


def gf_factors(a, p):
    """Monic irreducible factors of a mod p (a squarefree mod p)."""
    f = sympy.Poly(list(reversed(gf_of(a, p))), _t, modulus=p)
    out = []
    for g, mult in f.factor_list()[1]:
        cs = [int(c) % p for c in reversed(sympy.Poly(g, _t, modulus=p).all_coeffs())]
        inv = pow(cs[-1], -1, p)
        out.append(([c * inv % p for c in cs], mult))
    return out


def class_datum(P, delta_factors, p):
    """Multiset of (local degree, residue bit) of (P, delta) at the odd
    prime p, or None when p is bad for them.

    delta_factors pairs each monic irreducible factor of P over Q with its
    delta class; the bit of a local factor m is 0 when delta is a square in
    F_p[t]/(m) and 1 when it is not.
    """
    for f, d in delta_factors:
        if any(c.denominator % p == 0 for c in list(f) + list(d)):
            return None
    if any(c.denominator % p == 0 for c in P):
        return None
    disc = discriminant(P)
    if disc.numerator % p == 0 or disc.denominator % p == 0:
        return None
    out = []
    for m, mult in gf_factors(P, p):
        if mult != 1:
            return None
        i = next(i for i, (f, _) in enumerate(delta_factors) if not gf_rem(gf_of(f, p), m, p))
        e = gf_rem(gf_of(delta_factors[i][1], p), m, p)
        if not e:
            return None
        deg = len(m) - 1
        s = gf_powmod(e, (p**deg - 1) // 2, m, p)
        if s == [1]:
            out.append((deg, 0))
        elif s == [p - 1]:
            out.append((deg, 1))
        else:
            raise ArithmeticError("residue power is not +-1")
    return tuple(sorted(out, reverse=True))


def delta_factors_of(P, delta):
    """Per-factor delta classes: delta is one class (coefficient list) or a
    list with one entry per factor in factor order."""
    factors = [f for f, _ in factor_q(P)]
    if delta and isinstance(delta[0], list):
        if len(delta) != len(factors):
            raise ValueError("one delta entry per factor required")
        return list(zip(factors, delta))
    return [(f, delta) for f in factors]


def pick_conditions(P, delta, count, start=101):
    """Class data at the first `count` good primes >= start that fix a point
    of the 10-point cover (a (1, 0) entry), as `search` conditions."""
    dfs = delta_factors_of(P, delta)
    out = []
    p = start - 1
    while len(out) < count:
        p = int(sympy.nextprime(p))
        datum = class_datum(P, dfs, p)
        if datum is not None and (1, 0) in datum:
            out.append([list(e) for e in datum])
    return out


# ---------------------------------------------------------------------------
# Verb checks


def load_json(out: str, problems: list):
    try:
        return json.loads(out)
    except json.JSONDecodeError as e:
        problems.append(f"output is not JSON: {e}")
        return None


def _integral_form(m, p):
    den = math.lcm(*(x.denominator for row in m for x in row))
    a = [[int(x * den) for x in row] for row in m]
    while all(v % p == 0 for row in a for v in row):
        a = [[v // p for v in row] for row in a]
    return a


def _gf_rank(rows, p):
    a = [[v % p for v in r] for r in rows]
    rank = 0
    for c in range(len(a[0])):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(v - f * w) % p for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def check_local_certificates(certs, pencil, places, problems):
    """Verdicts are well formed; every p-adic "soluble" witness is a common
    zero of both forms modulo p^level (and smooth mod p at level 1)."""
    got = [c["place"] for c in certs]
    if places is not None and got != ["real"] + [str(p) for p in places]:
        problems.append(f"certificate places {got}")
    for c in certs:
        if c["verdict"] not in ("soluble", "insoluble", "unknown"):
            problems.append(f"verdict {c['verdict']!r}")
        if c["place"] == "real" or c["verdict"] != "soluble":
            continue
        p = int(c["place"])
        w = c["witness"] or {}
        level = w.get("level")
        x = w.get("point_mod_p") if level == 1 else w.get("point_mod_pk")
        if x is None or level is None:
            problems.append(f"soluble at {p} without a witness point")
            continue
        forms = [_integral_form(m, p) for m in pencil]
        mod = p**level
        for a in forms:
            val = sum(x[i] * a[i][j] * x[j] for i in range(5) for j in range(5))
            if val % mod:
                problems.append(f"witness at {p} is not a zero mod {p}^{level}")
        if all(v % p == 0 for v in x):
            problems.append(f"witness at {p} is zero mod {p}")
        if level == 1:
            jac = [[2 * sum(a[i][j] * x[j] for j in range(5)) for i in range(5)] for a in forms]
            if _gf_rank(jac, p) != 2:
                problems.append(f"witness at {p} is not smooth mod {p}")


def check_analyze(code, out, spec, schema) -> list[str]:
    """Schema, factor product, label against disc squareness, known label,
    exit code against the report's own verdicts, local witnesses."""
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    try:
        jsonschema.validate(rep, schema)
    except jsonschema.ValidationError as e:
        problems.append(f"schema: {e.message}")
        return problems
    P = poly(rep["P"])
    prod = [Fraction(1)]
    for f in rep["factors"]:
        prod = pmul(prod, poly(f))
    if prod != P:
        problems.append("product of factors differs from P")
    if len(P) != 6 or P[-1] != 1:
        problems.append("P is not a monic quintic")
        return problems
    disc = discriminant(P)
    sq = is_square(disc)
    label = rep["galois"]["label"]
    reducible = len(factor_q(P)) > 1
    if rep["galois"]["disc_is_square"] != sq:
        problems.append("disc_is_square disagrees with the discriminant")
    if reducible != (label == "REDUCIBLE"):
        problems.append(f"label {label} but P reducible={reducible}")
    if label in SQUARE_DISC_LABELS and not sq or label in NONSQUARE_DISC_LABELS and sq:
        problems.append(f"label {label} contradicts disc squareness {sq}")
    if spec.get("label") and label != spec["label"]:
        problems.append(f"label {label}, expected {spec['label']}")
    undecided = (
        "undecided" in rep["square_flags"]
        or any(c["verdict"] == "unknown" for c in rep["local_certificates"])
        or rep["classification"] is None
    )
    if code != (2 if undecided else 0):
        problems.append(f"exit {code} but report undecided={undecided}")
    check_local_certificates(rep["local_certificates"], spec["pencil"], None, problems)
    return problems


def check_local(code, out, spec) -> list[str]:
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    certs = rep["certificates"]
    check_local_certificates(certs, spec["pencil"], spec["places"], problems)
    unknown = any(c["verdict"] == "unknown" for c in certs)
    if code != (2 if unknown else 0):
        problems.append(f"exit {code} but unknown={unknown}")
    return problems


def check_witness(rep, spec) -> list[str]:
    """Re-check a (b, T) witness from scratch: val_p(P(b)) = 1, p outside
    the margin and unramified, and the class datum mod p is the condition."""
    problems: list[str] = []
    P, margin = spec["P"], spec.get("margin", 100)
    conds = [tuple(sorted(((int(l), int(s)) for l, s in c), reverse=True)) for c in spec["conditions"]]
    b = Fraction(rep["b"])
    primes = rep["primes"]
    if len(primes) != len(conds) or len(set(primes)) != len(primes):
        return [f"{len(primes)} primes for {len(conds)} conditions"]
    Pb = peval(P, b)
    if Pb == 0:
        return ["P(b) = 0"]
    disc = discriminant(P)
    dfs = delta_factors_of(P, spec["delta"])
    for p, cond in zip(primes, conds):
        if p < margin or not sympy.isprime(p):
            problems.append(f"{p} is not a prime above the margin")
            continue
        if b.denominator % p == 0:
            problems.append(f"b has {p} in its denominator")
        if valuation(Pb, p) != 1:
            problems.append(f"val_{p}(P(b)) = {valuation(Pb, p)}")
        if disc.numerator % p == 0:
            problems.append(f"{p} divides disc(P)")
            continue
        datum = class_datum(P, dfs, p)
        if datum != cond:
            problems.append(f"class datum at {p} is {datum}, condition {cond}")
    if list(rep["valuations"]) != [1] * len(primes):
        problems.append(f"reported valuations {rep['valuations']}")
    return problems


def check_search(code, out, spec) -> list[str]:
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    return check_witness(rep, spec)


def _hankel_seq(g):
    """tau_0..tau_8 of a 5x5 Hankel matrix, or None if it is not Hankel."""
    seq = [g[0][j] for j in range(5)] + [g[i][4] for i in range(1, 5)]
    for i in range(5):
        for j in range(5):
            if g[i][j] != seq[i + j]:
                return None
    return seq


def check_model_payload(rep, spec, problems):
    """Canonical Gram matrices: Hankel trace forms, gram2 the shift of
    gram1, det(gram1 - x gram2) = det(gram1) x^5 P(1/x), and delta the
    requested class modulo every factor."""
    P = spec["P"]
    if poly(rep["P"]) != P:
        problems.append("P differs from the input")
    g1 = [[Fraction(x) for x in row] for row in rep["gram1"]]
    g2 = [[Fraction(x) for x in row] for row in rep["gram2"]]
    s1, s2 = _hankel_seq(g1), _hankel_seq(g2)
    if s1 is None or s2 is None:
        problems.append("gram matrices are not Hankel")
        return None
    if s2[:8] != s1[1:]:
        problems.append("gram2 is not the shift of gram1")
    n = det(g1)
    if n == 0:
        problems.append("gram1 is singular")
    rev = list(reversed(P))
    for x in range(1, 6):
        m = [[g1[i][j] - x * g2[i][j] for j in range(5)] for i in range(5)]
        if det(m) != n * peval(rev, Fraction(x)):
            problems.append("characteristic identity fails")
            break
    d = poly(rep["delta"])
    for f, want in delta_factors_of(P, spec["delta"]):
        if prem(d, f) != prem(want, f):
            problems.append("delta is not the requested class")
            break
    return s1


def check_canon(code, out, spec) -> list[str]:
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is not None:
        check_model_payload(rep, spec, problems)
    return problems


def check_kummer(code, out, spec) -> list[str]:
    """Model checks plus the double-cover form: with tau the trace sequence
    of gram1 and sigma that of gram3, b sigma_k - sigma_(k+1) = P(b) tau_k,
    since (b - theta) weight3 = P(b) weight1."""
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    tau = check_model_payload(rep, spec, problems)
    b = Fraction(rep["b"])
    if b != spec["b"]:
        problems.append(f"b = {b}, asked for {spec['b']}")
    g3 = [[Fraction(x) for x in row] for row in rep["gram3"]]
    sigma = _hankel_seq(g3)
    if sigma is None or tau is None:
        problems.append("gram3 is not Hankel")
        return problems
    Pb = peval(spec["P"], b)
    if any(b * sigma[k] - sigma[k + 1] != Pb * tau[k] for k in range(8)):
        problems.append("gram3 is not the double-cover form at b")
    if len(rep["quadrics"]) != 3 or any(len(q) != 6 for q in rep["quadrics"]):
        problems.append("expected three 6x6 quadrics")
    return problems


def check_simulate(code, out, spec) -> list[str]:
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    dims = spec["dims"]
    expected = spec["systems"] * len(dims)
    du, tw = rep["duality"], rep["twists"]
    if du["checks"] != expected:
        problems.append(f"{du['checks']} duality checks, expected {expected}")
    if tw["checks"] + tw["failures"] != expected:
        problems.append("twist checks do not cover every place")
    if spec.get("negative_control"):
        if du["failures"] == 0:
            problems.append("negative control reported no duality failure")
    elif du["failures"] or tw["failures"]:
        problems.append(f"failures: duality {du['failures']}, twists {tw['failures']}")
    if spec.get("mode"):
        d = rep["descent"]
        if d is None or d["dims"][0] != spec["start_dim"] or d["mode"] != spec["mode"]:
            problems.append(f"descent {d}")
    return problems


def check_lemmas(code, out, spec) -> list[str]:
    problems: list[str] = []
    rep = load_json(out, problems)
    if rep is None:
        return problems
    rows = {r["subgroup"]: (r["order"], r["h1_dim"], r["end_degree"]) for r in rep["rows"]}
    if rows != LEMMA_TABLE:
        problems.append(f"lemma table {rows}")
    if not rep["all_ok"]:
        problems.append("all_ok is false")
    return problems


def check_error_exit(code, out, err) -> list[str]:
    """A malformed input ends in exit 1 with a single `error:` line."""
    problems = []
    if code != 1:
        problems.append(f"exit {code}, expected 1")
    lines = err.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:"):
        problems.append(f"stderr is not one error line: {err.strip()[:120]!r}")
    if out:
        problems.append("output on stdout")
    return problems
