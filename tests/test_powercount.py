import itertools
import random
from fractions import Fraction as F

import pytest

from hermlab import powercount
from hermlab.core import DomainError, ResourceError
from hermlab.powercount import (
    AffineFunctional,
    FunctionalSystem,
    check_integrability,
    cycle_system,
    d0,
    d_infinity,
    span_closure,
    system_from_dict,
)


def diag_system(alphas, betas):
    m = len(alphas)
    fns = [AffineFunctional([F(int(i == j)) for j in range(m)]) for i in range(m)]
    return FunctionalSystem(m, fns, alphas, betas)


def ref_rank(rows):
    """Exact rank by Gaussian elimination over the rationals: the reference
    the integer kernel of powercount is checked against."""
    mat = [[F(c) for c in r] for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                for c in range(col, ncols):
                    mat[r][c] -= factor * mat[rank][c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def ref_span_closure(system, W):
    W = sorted(set(W))
    base = [system.functionals[i].coeffs for i in W]
    r = ref_rank(base)
    return frozenset(i for i in range(system.size)
                     if i in W or ref_rank(base + [system.functionals[i].coeffs]) == r)


def ref_rank_of(system, W):
    return ref_rank([system.functionals[i].coeffs for i in W])


def ref_d0(system, W):
    return ref_rank_of(system, W) + sum((system.alphas[i] for i in W), start=F(0))


def ref_d_inf(system, W):
    full = ref_rank_of(system, range(system.size))
    return full - ref_rank_of(system, W) + sum(
        (system.betas[i] for i in range(system.size) if i not in W), start=F(0))


def is_padded(system, W):
    """Span-closed and every member is redundant inside W (vacuous for the
    empty set)."""
    Ws = frozenset(W)
    if ref_span_closure(system, Ws) != Ws:
        return False
    for i in Ws:
        if i not in ref_span_closure(system, Ws - {i}):
            return False
    return True


def reference_check(system):
    """The subset enumeration check_integrability replaced: span closures,
    padding, d0 and d_inf recomputed per subset by Fraction elimination."""
    n = system.size
    closed = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(range(n), k)
              if ref_span_closure(system, c) == frozenset(c)]
    wz = []
    if any(a == -1 for a in system.alphas):
        fz = None
    else:
        for W in closed:
            if W and (not all(a > -1 for a in system.alphas) or is_padded(system, W)):
                if ref_d0(system, W) <= 0:
                    wz.append(tuple(sorted(W)))
        fz = not wz
    wi = [tuple(sorted(W)) for W in closed
          if W != frozenset(range(n))
          and (not all(b >= -1 for b in system.betas) or is_padded(system, W))
          and ref_d_inf(system, W) >= 0]
    return {
        "finite_at_zero": "inconclusive" if fz is None else fz,
        "finite_at_infinity": not wi,
        "witnesses_zero": [list(w) for w in wz],
        "witnesses_infinity": [list(w) for w in wi],
        "d0_T": str(ref_d0(system, range(n))),
        "dinf_empty": str(ref_d_inf(system, [])),
    }


def random_rows(rng):
    """Rational rows with zero rows, rows dependent on earlier ones through
    rational coefficients, and denominators up to 10**9."""
    m, n = rng.randint(1, 5), rng.randint(0, 7)

    def entry():
        den = rng.choice([1, 1, 2, 3, 7, 10**9, rng.randint(1, 10**9)])
        return F(rng.randint(-3, 3) * rng.choice([1, 1, 10**9 - 1]), den)

    rows = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            row = [F(0)] * m
        elif rows and kind < 0.55:
            row = [F(0)] * m
            for r in rng.sample(rows, rng.randint(1, len(rows))):
                c = entry()
                row = [x + c * y for x, y in zip(row, r)]
        else:
            row = [entry() for _ in range(m)]
        rows.append(row)
    return rows


def ou_affine_system():
    t_vals = [F(1, 3), F(1, 7), F(2, 5), F(0)]
    coeff = [
        [1, -1, 0, 0],
        [0, 1, -1, 0],
        [0, 0, 1, -1],
        [-1, 0, 0, 1],
    ]
    consts = [t_vals[0] - t_vals[1], t_vals[1] - t_vals[2], t_vals[2] - t_vals[3], t_vals[3] - t_vals[0]]
    H, q, r = F(3, 5), 2, 1
    a_r = 2 * (H - 1) * r / q
    a_qr = 2 * (H - 1) * (q - r) / q
    fns = [AffineFunctional(c, k) for c, k in zip(coeff, consts)]
    return FunctionalSystem(4, fns, [a_r, a_r, a_qr, a_qr], [-F(4, 5)] * 4)


def random_system(rng):
    """Small integer coefficients, some rows dependent on earlier ones, and
    exponents on a grid that hits -1 and the flip boundaries d0 = 0, dinf = 0."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    rows = []
    while len(rows) < n:
        if rows and rng.random() < 0.4:
            a, b = rng.choice(rows), rng.choice(rows)
            row = [rng.randint(-2, 2) * x + rng.randint(-1, 1) * y for x, y in zip(a, b)]
        else:
            row = [rng.randint(-2, 2) for _ in range(m)]
        if any(row):
            rows.append(row)
    grid = [F(k, 6) for k in range(-12, 4)]
    alphas = [rng.choice(grid) for _ in range(n)]
    betas = [rng.choice(grid) for _ in range(n)]
    consts = [rng.randint(-1, 1) for _ in range(n)]
    return FunctionalSystem(m, [AffineFunctional(r, k) for r, k in zip(rows, consts)], alphas, betas)


FILE_SYSTEMS = [
    cycle_system(2, 1, F(3, 5), F(4, 5)),
    cycle_system(3, 1, F(7, 10), F(9, 10)),
    cycle_system(2, 1, F(1, 5), F(4, 5)),
    cycle_system(2, 1, F(1, 4), F(4, 5)),
    cycle_system(2, 1, F(1, 4) + F(1, 10**9), F(4, 5)),
    cycle_system(2, 1, F(3, 5), F(3, 4)),
    cycle_system(2, 1, F(3, 5), F(3, 4) + F(1, 10**9)),
    ou_affine_system(),
    diag_system([F(-1), F(0)], [F(-2), F(-2)]),
    diag_system([F(-3, 2), F(1, 2), F(0)], [F(-1), F(-2), F(-11, 10)]),
    FunctionalSystem(1, [AffineFunctional([1])], [F(-1, 2)], [F(-2)]),
]


class TestTypes:
    def test_zero_functional_rejected(self):
        with pytest.raises(DomainError):
            AffineFunctional([0, 0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            FunctionalSystem(2, [AffineFunctional([1, 0])], [F(0)], [F(0), F(0)])

    def test_exact_rationals_only(self):
        with pytest.raises(DomainError):
            AffineFunctional([0.5, 1])


class TestSpanClosure:
    def test_full_and_empty(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        assert span_closure(s, range(4)) == frozenset(range(4))
        assert span_closure(s, []) == frozenset()

    def test_cycle_pair_closed(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        assert span_closure(s, {0, 1}) == frozenset({0, 1})

    def test_three_elements_close_to_full(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        assert span_closure(s, {0, 1, 2}) == frozenset(range(4))

    def test_idempotent_and_monotone(self):
        s = cycle_system(3, 1, F(7, 10), F(9, 10))
        subsets = [frozenset(c) for r in range(5) for c in itertools.combinations(range(4), r)]
        for W in subsets:
            cl = span_closure(s, W)
            assert span_closure(s, cl) == cl
        for W1 in subsets:
            for W2 in subsets:
                if W1 <= W2:
                    assert span_closure(s, W1) <= span_closure(s, W2)


class TestIntegerKernel:
    """The fraction-free kernel against the Fraction elimination reference."""

    def test_rank_matches_reference_on_random_rows(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(600):
            rows = random_rows(rng)
            r = ref_rank(rows)
            assert powercount._rank(rows) == r
            if any(not any(row) for row in rows):
                seen.add("zero row")
            if r < sum(1 for row in rows if any(row)):
                seen.add("dependent rows")
            if any(c.denominator > 10**8 for row in rows for c in row):
                seen.add("denominator above 1e8")
        assert seen == {"zero row", "dependent rows", "denominator above 1e8"}

    def test_span_closure_and_exponents_match_reference(self):
        rng = random.Random(21)
        for _ in range(60):
            s = random_system(rng)
            for k in range(s.size + 1):
                for W in itertools.combinations(range(s.size), k):
                    cl = span_closure(s, W)
                    assert cl == ref_span_closure(s, W)
                    assert powercount.rank_of(s, W) == ref_rank_of(s, W)
                    if cl == frozenset(W):
                        assert d0(s, W) == ref_d0(s, W)
                        assert d_infinity(s, W) == ref_d_inf(s, W)


class TestPadded:
    def test_cycle_cases(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        assert is_padded(s, range(4))
        assert not is_padded(s, {0})
        assert is_padded(s, [])


class TestD0Dinf:
    def test_cycle_values(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        assert d0(s, range(4)) == F(7, 5)
        assert d_infinity(s, []) == F(-1, 5)

    def test_requires_closed(self):
        s = cycle_system(2, 1, F(3, 5), F(4, 5))
        with pytest.raises(DomainError):
            d0(s, {0, 1, 2})

    def test_single_functional(self):
        s = FunctionalSystem(1, [AffineFunctional([1])], [F(-1, 2)], [F(-2)])
        assert d0(s, {0}) == F(1, 2)
        assert d_infinity(s, []) == F(-1)


class TestCheck:
    def test_paper_cycle_verdict(self):
        rep = check_integrability(cycle_system(2, 1, F(3, 5), F(4, 5)))
        assert rep.finite_at_zero is True and rep.finite_at_infinity is True
        assert rep.d0_full == F(7, 5) and rep.dinf_empty == F(-1, 5)

    def test_low_H_not_finite_with_witness(self):
        rep = check_integrability(cycle_system(2, 1, F(1, 5), F(4, 5)))
        assert rep.finite_at_zero is False
        assert tuple(sorted(rep.witnesses_zero[0])) == (0, 1, 2, 3)

    def test_exact_flip_points(self):
        eps = F(1, 10**9)
        assert check_integrability(cycle_system(2, 1, F(1, 4), F(4, 5))).finite_at_zero is False
        assert check_integrability(cycle_system(2, 1, F(1, 4) + eps, F(4, 5))).finite_at_zero is True
        assert check_integrability(cycle_system(2, 1, F(3, 5), F(3, 4))).finite_at_infinity is False
        assert check_integrability(cycle_system(2, 1, F(3, 5), F(3, 4) + eps)).finite_at_infinity is True

    def test_ou_affine_system_net_value(self):
        # affine constants move singularities but not ranks
        t_vals = [F(1, 3), F(1, 7), F(2, 5), F(0)]
        coeff = [
            [1, -1, 0, 0],
            [0, 1, -1, 0],
            [0, 0, 1, -1],
            [-1, 0, 0, 1],
        ]
        consts = [t_vals[0] - t_vals[1], t_vals[1] - t_vals[2], t_vals[2] - t_vals[3], t_vals[3] - t_vals[0]]
        H, q, r = F(3, 5), 2, 1
        a_r = 2 * (H - 1) * r / q
        a_qr = 2 * (H - 1) * (q - r) / q
        fns = [AffineFunctional(c, k) for c, k in zip(coeff, consts)]
        s = FunctionalSystem(4, fns, [a_r, a_r, a_qr, a_qr], [-F(4, 5)] * 4)
        rep = check_integrability(s)
        assert rep.d0_full == 4 * H - 1
        assert rep.finite_at_zero is True and rep.finite_at_infinity is True

    def test_alpha_minus_one_inconclusive(self):
        s = diag_system([F(-1), F(0)], [F(-2), F(-2)])
        rep = check_integrability(s)
        assert rep.finite_at_zero is None
        assert rep.as_dict()["finite_at_zero"] == "inconclusive"

    def test_diagonal_systems_match_elementary_criteria(self):
        rng = random.Random(7)
        for _ in range(50):
            m = rng.randint(1, 4)
            alphas = [F(rng.randint(-19, 10), 10) for _ in range(m)]
            while any(a == -1 for a in alphas):
                alphas = [F(rng.randint(-19, 10), 10) for _ in range(m)]
            betas = [F(rng.randint(-30, -11), 10) for _ in range(m)]
            rep = check_integrability(diag_system(alphas, betas))
            assert rep.finite_at_zero == all(a > -1 for a in alphas)
            assert rep.finite_at_infinity == all(b < -1 for b in betas)

    def test_permutation_invariance(self):
        base = cycle_system(2, 1, F(3, 5), F(4, 5))
        for perm in itertools.permutations(range(4)):
            fns = [base.functionals[i] for i in perm]
            alphas = [base.alphas[i] for i in perm]
            betas = [base.betas[i] for i in perm]
            rep = check_integrability(FunctionalSystem(4, fns, alphas, betas))
            assert rep.finite_at_zero is True and rep.finite_at_infinity is True
            assert rep.d0_full == F(7, 5)

    @pytest.mark.parametrize("k", range(len(FILE_SYSTEMS)))
    def test_matches_reference_on_file_systems(self, k):
        s = FILE_SYSTEMS[k]
        assert check_integrability(s).as_dict() == reference_check(s)

    def test_matches_reference_on_random_systems(self):
        rng = random.Random(11)
        seen = set()
        for _ in range(240):
            s = random_system(rng)
            ref = reference_check(s)
            assert check_integrability(s).as_dict() == ref
            seen.add((ref["finite_at_zero"], ref["finite_at_infinity"]))
            seen.update(w for w in ("d0_T", "dinf_empty") if ref[w] == "0")
        # both verdicts of each criterion, the inconclusive one and exact zeros were hit
        assert {"d0_T", "dinf_empty"} <= seen
        assert {v[0] for v in seen if isinstance(v, tuple)} == {True, False, "inconclusive"}
        assert {v[1] for v in seen if isinstance(v, tuple)} == {True, False}

    def test_one_reduce_per_nonempty_subset(self, monkeypatch):
        calls = []
        reduce = powercount._reduce
        monkeypatch.setattr(powercount, "_reduce", lambda v, basis: calls.append(v) or reduce(v, basis))
        for s in FILE_SYSTEMS:
            calls.clear()
            check_integrability(s)
            assert len(calls) == 2**s.size - 1

    def test_size_cap(self):
        m = 21
        fns = [AffineFunctional([F(int(i == j)) for j in range(m)]) for i in range(m)]
        s = FunctionalSystem(m, fns, [F(0)] * m, [F(-2)] * m)
        with pytest.raises(ResourceError):
            check_integrability(s)


class TestJSON:
    def test_symbolic_exponents(self):
        data = {
            "m": 4,
            "functionals": [
                {"coeffs": ["1", "-1", "0", "0"]},
                {"coeffs": ["0", "1", "-1", "0"]},
                {"coeffs": ["0", "0", "1", "-1"]},
                {"coeffs": ["-1", "0", "0", "1"], "const": "1/2"},
            ],
            "alphas": ["H-1", "H-1", "H-1", "H-1"],
            "betas": ["-gamma"] * 4,
        }
        s = system_from_dict(data, H=F(3, 5), gamma=F(4, 5))
        assert d0(s, range(4)) == F(7, 5)

    def test_unresolved_symbol(self):
        data = {
            "m": 1,
            "functionals": [{"coeffs": ["1"]}],
            "alphas": ["H-1"],
            "betas": ["-2"],
        }
        with pytest.raises(DomainError):
            system_from_dict(data)

    def test_plain_rationals(self):
        data = {
            "m": 1,
            "functionals": [{"coeffs": ["1"]}],
            "alphas": ["-2/5"],
            "betas": ["-4/5"],
        }
        s = system_from_dict(data)
        assert s.alphas == (F(-2, 5),)

    @pytest.mark.parametrize("data", [
        {"functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-2"]},
        {"m": 1, "functionals": [{}], "alphas": ["0"], "betas": ["-2"]},
        {"m": 1, "functionals": ["1"], "alphas": ["0"], "betas": ["-2"]},
        {"m": 1, "functionals": [{"coeffs": 1}], "alphas": ["0"], "betas": ["-2"]},
        {"m": None, "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-2"]},
        {"m": float("inf"), "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-2"]},
        [1, 2],
        {"m": 2, "functionals": [{"coeffs": "12"}], "alphas": ["0"], "betas": ["-3"]},
        {"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": "0", "betas": ["-3"]},
        {"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": "-3"},
        {"m": 1, "functionals": {"coeffs": ["1"]}, "alphas": ["0"], "betas": ["-3"]},
        {"m": 1, "functionals": [{"coeffs": ("1",)}], "alphas": ["0"], "betas": ["-3"]},
        {"m": 2.7, "functionals": [{"coeffs": ["1", "1"]}], "alphas": ["0"], "betas": ["-3"]},
        {"m": 1.0, "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-3"]},
        {"m": True, "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-3"]},
        {"m": "1", "functionals": [{"coeffs": ["1"]}], "alphas": ["0"], "betas": ["-3"]},
    ], ids=["no_m", "no_coeffs", "functional_not_a_dict", "coeffs_not_a_list", "m_none",
            "m_inf", "list", "coeffs_string", "alphas_string", "betas_string",
            "functionals_dict", "coeffs_tuple", "m_float", "m_integral_float", "m_bool",
            "m_string"])
    def test_malformed_descriptor(self, data):
        with pytest.raises(DomainError):
            system_from_dict(data)


class TestReader:
    """`_frac` is the one reader from text to an exact rational."""

    SUBS = {"H": F(3, 5), "gamma": F(4, 5)}

    @pytest.mark.parametrize("text,expected", [
        ("2*H-2", F(-4, 5)), ("H-1", F(-2, 5)), ("-gamma", F(-4, 5)), ("4*H-1", F(7, 5)),
        ("-2/5", F(-2, 5)), ("0.5*H", F(3, 10)), ("--1", F(1)), ("3/5", F(3, 5)), (" 7 ", F(7)),
    ])
    def test_affine_exponents_read_as_before(self, text, expected):
        assert powercount._frac(text, self.SUBS) == expected

    def test_exponent_literal_as_a_coefficient(self):
        assert AffineFunctional(["1e-3"]).coeffs == (F(1, 1000),)

    @pytest.mark.parametrize("text,expected", [
        ("H/2", F(3, 10)), ("2*(H-1)", F(-4, 5)), ("(1-H)/2", F(1, 5)), ("1e-3", F(1, 1000)),
    ])
    def test_arithmetic_exponents(self, text, expected):
        data = {"m": 1, "functionals": [{"coeffs": ["1"]}], "alphas": [text], "betas": ["-2"]}
        assert system_from_dict(data, H="3/5").alphas == (expected,)

    def test_literals_read_from_their_text(self):
        # 0.1 is no binary float: the reader never goes through one
        assert powercount._frac("0.1") == F(1, 10)
        assert powercount._frac("1e-30*3") == F(3, 10**30)
        assert powercount._frac("1e1000") == 10**1000

    @pytest.mark.parametrize("text", [
        "1/0", "H*", "2**H", "__import__('os')", "True", "1j", "", "H.real", "0x10",
        "-" * 5000 + "1", "1e1001", "2.5e-999999999",
    ])
    def test_refused(self, text):
        with pytest.raises(DomainError, match="exact rational|unresolved"):
            powercount._frac(text, self.SUBS)

    def test_unknown_name_is_named(self):
        with pytest.raises(DomainError, match="unresolved symbol 'x'"):
            powercount._frac("2*x", self.SUBS)

    def test_fast_paths(self):
        h = F(3, 5)
        assert powercount._frac(h) is h
        assert powercount._frac(4) == F(4)
