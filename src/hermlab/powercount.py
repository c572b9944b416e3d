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

import ast
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .core import DomainError, ResourceError

MAX_FUNCTIONALS = 20
MAX_LITERAL_EXPONENT = 1000
_ARITHMETIC = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
               ast.Div: operator.truediv, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _frac(x, subs: Optional[dict[str, Fraction]] = None) -> Fraction:
    """x as an exact rational.  A Fraction or int passes as is; a string is
    read through Python's expression grammar as int, decimal and exponent
    literals (exponents up to MAX_LITERAL_EXPONENT), unary +/-, binary
    + - * / and parentheses over the names in `subs`, each literal exactly
    from its own text, never through a float."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if not isinstance(x, str):
        raise DomainError(f"not an exact rational: {x!r}")
    text = x.strip()

    def value(node) -> Fraction:
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            literal = ast.get_source_segment(text, node)
            try:
                # Fraction("1e999999999") would build a billion-digit integer
                if abs(int(literal.lower().partition("e")[2] or 0)) <= MAX_LITERAL_EXPONENT:
                    return Fraction(literal)
            except ValueError:  # a literal Fraction cannot read, such as 0x10
                pass
        elif isinstance(node, ast.Name):
            if not subs or node.id not in subs:
                raise DomainError(f"unresolved symbol {node.id!r} in {x!r}; pass a value for it")
            return subs[node.id]
        elif isinstance(node, ast.UnaryOp) and type(node.op) in _ARITHMETIC:
            return _ARITHMETIC[type(node.op)](value(node.operand))
        elif isinstance(node, ast.BinOp) and type(node.op) in _ARITHMETIC:
            return _ARITHMETIC[type(node.op)](value(node.left), value(node.right))
        raise DomainError(f"not an exact rational expression: {x!r}")

    try:
        return value(ast.parse(text, mode="eval").body)
    except (SyntaxError, RecursionError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {x!r} ({type(exc).__name__})") from None


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
    W keeps it.  One pass over the pairs (S minus its bit i, S) marks both,
    and builds each mask's exponent sums from the mask without its lowest
    bit.  Exponent sums are compared as integers, scaled by the lcm of the
    exponent denominators.  Witnesses are listed by size, then in
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

    closed = [True] * (full + 1)
    padded = [True] * (full + 1)
    alpha_sum = [0] * (full + 1)
    beta_sum = [0] * (full + 1)
    for S in range(1, full + 1):
        low = S & -S
        i = low.bit_length() - 1
        alpha_sum[S] = alpha_sum[S ^ low] + alphas[i]
        beta_sum[S] = beta_sum[S ^ low] + betas[i]
        bits = S
        while bits:
            low = bits & -bits
            bits ^= low
            if rank[S ^ low] == rank[S]:
                closed[S ^ low] = False  # the bit joins S minus it at no rank
            else:
                padded[S] = False  # S needs the bit

    zero: list[int] = []
    inf: list[int] = []
    for S in range(full + 1):
        if not closed[S]:
            continue
        r = rank[S]
        if S and not inconclusive_zero and (padded[S] or not padded_only_zero):
            if r * la + alpha_sum[S] <= 0:
                zero.append(S)
        if S != full and (padded[S] or not padded_only_inf):
            if (rank[full] - r) * lb + beta_total - beta_sum[S] >= 0:
                inf.append(S)

    def listed(masks: list[int]) -> tuple[tuple[int, ...], ...]:
        ws = [tuple(i for i in range(n) if S >> i & 1) for S in masks]
        return tuple(sorted(ws, key=lambda W: (len(W), W)))

    witnesses_zero, witnesses_inf = listed(zero), listed(inf)
    return IntegrabilityReport(
        finite_at_zero=None if inconclusive_zero else not witnesses_zero,
        finite_at_infinity=not witnesses_inf,
        witnesses_zero=witnesses_zero,
        witnesses_infinity=witnesses_inf,
        d0_full=Fraction(rank[full] * la + sum(alphas), la),
        dinf_empty=Fraction(rank[full] * lb + beta_total, lb),
    )


# ---------------------------------------------------------------------------
# JSON system descriptors with optional symbolic exponents in H and gamma
# ---------------------------------------------------------------------------

def system_from_dict(data: dict, H=None, gamma=None) -> FunctionalSystem:
    """Build a system from the JSON descriptor
    {"m": int, "functionals": [{"coeffs": ["1","-1",...], "const": "0"}, ...],
     "alphas": [...], "betas": [...]}; exponents may use H and gamma (see
    `_frac`).  A missing key or a wrong type raises DomainError: functionals,
    coeffs, alphas and betas must be lists (a string is not read as its
    characters) and m an int (a bool or a float is not truncated)."""
    subs = {k: _frac(v) for k, v in (("H", H), ("gamma", gamma)) if v is not None}

    def listed(obj, key):
        value = obj[key]
        if not isinstance(value, list):
            raise TypeError(f"{key!r} must be a list, not {type(value).__name__}")
        return value

    try:
        m = data["m"]
        if isinstance(m, bool) or not isinstance(m, int):
            raise TypeError(f"'m' must be an integer, not {type(m).__name__}")
        fns = [AffineFunctional(listed(f, "coeffs"), f.get("const", 0))
               for f in listed(data, "functionals")]
        alphas = [_frac(str(a), subs) for a in listed(data, "alphas")]
        betas = [_frac(str(b), subs) for b in listed(data, "betas")]
        return FunctionalSystem(m, fns, alphas, betas)
    except (KeyError, TypeError, OverflowError) as exc:
        raise DomainError(f"malformed system descriptor: {type(exc).__name__}: {exc}") from None


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
