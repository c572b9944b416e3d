"""Power counting for products-of-powers integrals, over exact rationals.

A system is a set T of affine functionals M_i on R^m together with exponent
bounds alpha_i (behavior of the i-th factor near zero) and beta_i (near
infinity).  The integral of prod_i |M_i(u)|~f_i over R^m is finite if

    d0(W)   = r(W) + sum_{i in s_T(W)} alpha_i > 0

for every nonempty span-closed W (only padded subsets when all alpha_i > -1),
and

    d_inf(W) = r(T) - r(W) + sum_{i not in s_T(W)} beta_i < 0

for every proper span-closed W including the empty set (only padded subsets
when all beta_i >= -1).  Ranks and spans use only the linear parts: affine
constants move singularities without changing dimensions.

All linear algebra is over the integers: each functional's coefficients are
scaled once to a primitive integer row, and one fraction-free row reduction
against an integer echelon basis (`_reduce`) gives every rank and span
closure.  Exponent sums are compared as integers scaled by the lcm of their
denominators.  No floating point anywhere in this module.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import DomainError, ResourceError

MAX_FUNCTIONALS = 20


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise DomainError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class AffineFunctional:
    """u -> coeffs . u + const with exact rational coefficients."""

    coeffs: tuple[Fraction, ...]
    const: Fraction = Fraction(0)

    def __init__(self, coeffs, const=0):
        coeffs = tuple(_frac(c) for c in coeffs)
        if all(c == 0 for c in coeffs):
            raise DomainError("functional must have a nonzero linear part")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", _frac(const))


@dataclass(frozen=True)
class FunctionalSystem:
    """Ambient dimension m, functionals T, and exponent lists alpha/beta."""

    m: int
    functionals: tuple[AffineFunctional, ...]
    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]

    def __init__(self, m, functionals, alphas, betas):
        functionals = tuple(functionals)
        alphas = tuple(_frac(a) for a in alphas)
        betas = tuple(_frac(b) for b in betas)
        if not (len(functionals) == len(alphas) == len(betas)):
            raise DomainError("need one alpha and one beta per functional")
        if any(len(f.coeffs) != m for f in functionals):
            raise DomainError("functional arity must match the ambient dimension")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "functionals", functionals)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def size(self) -> int:
        return len(self.functionals)


def _scaled(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, [v * L]) with L the lcm of the denominators: exact integer sums."""
    L = math.lcm(*(v.denominator for v in values))
    return L, [v.numerator * (L // v.denominator) for v in values]


def _primitive(row: Sequence[Fraction]) -> list[int]:
    """The row scaled by the lcm of its denominators, then divided by the
    gcd of the result: the primitive integer row on the same line."""
    _, ints = _scaled(row)
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def _reduce(v: Sequence[int], basis: Sequence[tuple[int, list[int]]]) -> list[int]:
    """Fraction-free reduction of the integer row v against an echelon basis
    of (pivot column, primitive row) pairs, each row zero at the pivots of
    the rows before it.  Returns the primitive remainder, which is zero at
    every pivot and all zero iff v lies in the span of the basis."""
    v = list(v)
    for p, b in basis:
        if v[p]:
            bp, vp = b[p], v[p]
            v = [bp * x - vp * y for x, y in zip(v, b)]
    g = math.gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _extend(basis: list, v: Sequence[int]) -> tuple[list, bool]:
    """(basis of span(basis, v), whether v raised the rank)."""
    w = _reduce(v, basis)
    for p, x in enumerate(w):
        if x:
            return basis + [(p, w)], True
    return basis, False


def _basis(rows: Iterable[Sequence[Fraction]]) -> list:
    basis: list = []
    for row in rows:
        basis, _ = _extend(basis, _primitive(row))
    return basis


def _rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of rational rows, by one `_reduce` per row."""
    return len(_basis(rows))


def _rows(system: FunctionalSystem, idx: Iterable[int]) -> list[tuple[Fraction, ...]]:
    return [system.functionals[i].coeffs for i in idx]


def rank_of(system: FunctionalSystem, W: Iterable[int]) -> int:
    return _rank(_rows(system, W))


def span_closure(system: FunctionalSystem, W: Iterable[int]) -> frozenset[int]:
    """All members of T whose linear part lies in the rational span of W's:
    W is reduced once, then each row outside W once against its basis."""
    W = set(W)
    basis = _basis(_rows(system, sorted(W)))
    return frozenset(
        i for i, fn in enumerate(system.functionals)
        if i in W or not any(_reduce(_primitive(fn.coeffs), basis))
    )


def _require_closed(system, W) -> frozenset[int]:
    Ws = frozenset(W)
    if span_closure(system, Ws) != Ws:
        raise DomainError("subset is not span-closed")
    return Ws


def d0(system: FunctionalSystem, W: Iterable[int]) -> Fraction:
    """r(W) + sum of alphas over s_T(W) = W (W must be span-closed)."""
    Ws = _require_closed(system, W)
    return Fraction(rank_of(system, Ws)) + sum(
        (system.alphas[i] for i in Ws), start=Fraction(0)
    )


def d_infinity(system: FunctionalSystem, W: Iterable[int]) -> Fraction:
    """r(T) - r(W) + sum of betas over T \\ s_T(W) (W must be span-closed)."""
    Ws = _require_closed(system, W)
    full = rank_of(system, range(system.size))
    return Fraction(full - rank_of(system, Ws)) + sum(
        (system.betas[i] for i in range(system.size) if i not in Ws),
        start=Fraction(0),
    )


@dataclass(frozen=True)
class IntegrabilityReport:
    """Verdict of the power counting criteria.

    finite_at_zero is None when some alpha_i equals -1 exactly: that boundary
    is not covered by the theorem, so the checker reports the criterion as
    inconclusive rather than guessing.
    """

    finite_at_zero: Optional[bool]
    finite_at_infinity: bool
    witnesses_zero: tuple[tuple[int, ...], ...]
    witnesses_infinity: tuple[tuple[int, ...], ...]
    d0_full: Fraction
    dinf_empty: Fraction

    def as_dict(self) -> dict:
        fz = "inconclusive" if self.finite_at_zero is None else self.finite_at_zero
        return {
            "finite_at_zero": fz,
            "finite_at_infinity": self.finite_at_infinity,
            "witnesses_zero": [list(w) for w in self.witnesses_zero],
            "witnesses_infinity": [list(w) for w in self.witnesses_infinity],
            "d0_T": str(self.d0_full),
            "dinf_empty": str(self.dinf_empty),
        }


def _rank_table(rows: Sequence[list[int]]) -> list[int]:
    """rank[S] for every subset S of the primitive integer rows, as a bit
    mask, from one depth-first walk: S | 1 << i, with i above every member
    of S, inherits the echelon basis of S and costs one `_reduce`."""
    n = len(rows)
    rank = [0] * (1 << n)
    stack = [(0, 0, [])]  # (S, lowest index that may join S, basis of S)
    while stack:
        S, lo, basis = stack.pop()
        for i in range(lo, n):
            T = S | 1 << i
            grown, raised = _extend(basis, rows[i])
            rank[T] = rank[S] + raised
            if i + 1 < n:
                stack.append((T, i + 1, grown))
    return rank


def check_integrability(system: FunctionalSystem) -> IntegrabilityReport:
    """Evaluate both criteria exactly over the required subsets and return
    the verdict with the failing witnesses, if any.

    Every verdict comes from one table of exact ranks, rank[S] for each
    subset S of T as a bit mask (see `_rank_table`): W is span-closed iff
    adding any i outside W raises the rank, and padded iff removing any i in
    W keeps it.  Exponent sums are compared as integers, scaled by the lcm
    of the exponent denominators.  Witnesses are listed by size, then in
    combinations order.
    """
    n = system.size
    if n > MAX_FUNCTIONALS:
        raise ResourceError(f"|T|={n} exceeds the enumeration cap {MAX_FUNCTIONALS}")
    rank = _rank_table([_primitive(f.coeffs) for f in system.functionals])
    full = (1 << n) - 1
    la, alphas = _scaled(system.alphas)
    lb, betas = _scaled(system.betas)
    beta_total = sum(betas)
    padded_only_zero = all(a > -1 for a in system.alphas)
    padded_only_inf = all(b >= -1 for b in system.betas)
    inconclusive_zero = any(a == -1 for a in system.alphas)

    witnesses_zero: list[tuple[int, ...]] = []
    witnesses_inf: list[tuple[int, ...]] = []
    for size in range(n + 1):
        for W in itertools.combinations(range(n), size):
            S = sum(1 << i for i in W)
            r = rank[S]
            if any(rank[S | 1 << i] == r for i in range(n) if not S >> i & 1):
                continue  # not span-closed
            padded = all(rank[S & ~(1 << i)] == r for i in W)
            if W and not inconclusive_zero and (padded or not padded_only_zero):
                if r * la + sum(alphas[i] for i in W) <= 0:
                    witnesses_zero.append(W)
            if S != full and (padded or not padded_only_inf):
                if (rank[full] - r) * lb + beta_total - sum(betas[i] for i in W) >= 0:
                    witnesses_inf.append(W)

    return IntegrabilityReport(
        finite_at_zero=None if inconclusive_zero else not witnesses_zero,
        finite_at_infinity=not witnesses_inf,
        witnesses_zero=tuple(witnesses_zero),
        witnesses_infinity=tuple(witnesses_inf),
        d0_full=Fraction(rank[full] * la + sum(alphas), la),
        dinf_empty=Fraction(rank[full] * lb + beta_total, lb),
    )


# ---------------------------------------------------------------------------
# JSON system descriptors with optional symbolic exponents in H and gamma
# ---------------------------------------------------------------------------

def _parse_exponent(expr: str, subs: dict[str, Fraction]) -> Fraction:
    """Parse affine rational expressions like "-2/5", "2*H-2", "-gamma",
    "4*H-1" with substitutions for the symbols H and gamma."""
    s = expr.replace(" ", "")
    if not s:
        raise DomainError("empty exponent expression")
    total = Fraction(0)
    # split into signed terms
    terms, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-*/":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    for term in terms:
        sign = Fraction(1)
        body = term
        while body and body[0] in "+-":
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise DomainError(f"malformed exponent term in {expr!r}")
        if "*" in body:
            coef_s, sym = body.split("*", 1)
            coef = Fraction(coef_s)
        elif body[0].isdigit():
            coef, sym = Fraction(body), ""
        else:
            coef, sym = Fraction(1), body
        if sym:
            if sym not in subs:
                raise DomainError(f"unresolved symbol {sym!r}; pass a value for it")
            coef *= subs[sym]
        total += sign * coef
    return total


def system_from_dict(
    data: dict,
    H: Optional[Fraction] = None,
    gamma: Optional[Fraction] = None,
) -> FunctionalSystem:
    """Build a system from the JSON descriptor
    {"m": int, "functionals": [{"coeffs": ["1","-1",...], "const": "0"}, ...],
     "alphas": [...], "betas": [...]}; exponent entries may be rational
    strings or affine expressions in H and gamma."""
    subs = {}
    if H is not None:
        subs["H"] = _frac(H)
    if gamma is not None:
        subs["gamma"] = _frac(gamma)
    fns = [
        AffineFunctional(f["coeffs"], f.get("const", 0))
        for f in data["functionals"]
    ]
    alphas = [_parse_exponent(str(a), subs) for a in data["alphas"]]
    betas = [_parse_exponent(str(b), subs) for b in data["betas"]]
    return FunctionalSystem(int(data["m"]), fns, alphas, betas)


_CYCLE = tuple(AffineFunctional(c) for c in (
    [1, -1, 0, 0],
    [0, 1, -1, 0],
    [0, 0, 1, -1],
    [-1, 0, 0, 1],
))


def cycle_system(q: int, r: int, H: Fraction, gamma: Fraction) -> FunctionalSystem:
    """The four-functional cycle {y1-y2, y2-y3, y3-y4, y4-y1} with the
    contraction exponents near zero and -gamma at infinity; the system behind
    the central-limit checks.  The functionals are built once, at import."""
    H = _frac(H)
    gamma = _frac(gamma)
    if not 1 <= r <= q - 1:
        raise DomainError("need 1 <= r <= q-1")
    a_r = 2 * (H - 1) * r / q
    a_qr = 2 * (H - 1) * (q - r) / q
    alphas = [a_r, a_r, a_qr, a_qr]
    betas = [-gamma] * 4
    return FunctionalSystem(4, _CYCLE, alphas, betas)
