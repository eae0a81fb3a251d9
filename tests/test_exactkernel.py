"""Arithmetic substrate: matrices and subspaces over GF(p), and the
test-side capped polynomials (polyoracle) that other tests compare against."""

import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import greenkernel
from greenkernel.exactkernel import (
    ExactKernelError,
    FpMatrix,
    ScopeError,
    _is_p_power,
    fp_matmul,
    memo,
    reduce_mod,
    row_space_basis,
    subspace_contains,
    subspace_eq,
)
from polyoracle import TruncPoly, is_fp_array, subspace_intersect


# -- moduli ------------------------------------------------------------------


@pytest.mark.parametrize("prime,composite", [(7, 49), (3037000493, 3037000493 * 3), (5, 1)])
def test_composite_modulus_rejected_after_a_prime_is_cached(prime, composite):
    # the primality test is memoized; a cached prime must not let a
    # composite through, and a composite stays rejected on the second try
    from greenkernel.borel import BorelAlgebra
    from greenkernel.fgl import HondaParams

    FpMatrix([[1]], prime)
    HondaParams(prime, 1, 8)
    for _ in range(2):
        with pytest.raises(ExactKernelError):
            FpMatrix([[1]], composite)
        with pytest.raises(ExactKernelError):
            BorelAlgebra(composite, ())
        with pytest.raises(ExactKernelError):
            HondaParams(composite, 1, 8)


def test_is_p_power_includes_p_to_the_zero():
    assert [n for n in range(-2, 30) if _is_p_power(n, 3)] == [1, 3, 9, 27]
    assert [n for n in range(-2, 70) if _is_p_power(n, 2)] == [1, 2, 4, 8, 16, 32, 64]


# -- matrices ----------------------------------------------------------------


def test_kernel_identity_is_empty():
    assert FpMatrix(np.eye(3, dtype=np.int64), 2).kernel() == []


def test_kernel_zero_map():
    ker = FpMatrix(np.zeros((2, 2), dtype=np.int64), 3).kernel()
    assert len(ker) == 2


def brute_kernel(M: FpMatrix):
    """Oracle: enumerate all vectors of GF(p)^cols."""
    sols = []
    for vec in product(range(M.p), repeat=M.a.shape[1]):
        v = np.array(vec, dtype=np.int64)
        if not ((M.a @ v) % M.p).any():
            sols.append(v)
    return sols


def test_kernel_example_f3():
    M = FpMatrix([[1, 2, 0], [0, 0, 1]], 3)
    ker = M.kernel()
    # oracle: brute-force over all 27 vectors of GF(3)^3
    sols = brute_kernel(M)
    assert len(sols) == 3  # the line through (1,1,0)
    assert len(ker) == 1
    assert subspace_contains(ker, np.array([1, 1, 0]), 3)


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([2, 3, 5, 7])
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        M = FpMatrix([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)], p)
        assert M.rank() + len(M.kernel()) == cols


def test_kernel_vectors_satisfy_equation_random():
    rng = random.Random(11)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        M = FpMatrix([[rng.randrange(p) for _ in range(6)] for _ in range(4)], p)
        for v in M.kernel():
            assert not ((M.a @ v) % p).any()
        # independence: the kernel basis has full rank
        ker = M.kernel()
        if ker:
            assert FpMatrix(np.array(ker), p).rank() == len(ker)


def test_rref_deterministic_and_solve():
    M = FpMatrix([[2, 1], [4, 3]], 5)
    R, pivots = M.rref()
    assert pivots == [0, 1] and is_fp_array(R, 5)
    x = M.solve(np.array([1, 2]))
    assert np.array_equal((M.a @ x) % 5, np.array([1, 2]))
    I = M.inv()
    assert is_fp_array(I, 5)
    assert np.array_equal((M.a @ I) % 5, np.eye(2, dtype=np.int64))


def _rref_row_loop(a, p):
    """Reference RREF: leftmost pivot column, smallest row, row-by-row
    elimination."""
    m = np.array(a, dtype=np.int64) % p
    nr, nc = m.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        sel = next((i for i in range(r, nr) if m[i, c]), None)
        if sel is None:
            continue
        m[[r, sel]] = m[[sel, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        for i in range(nr):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def test_rref_matches_row_loop_reference():
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for _ in range(20):
            nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
            # sparse entries make zero pivot columns and rank drops likely
            a = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(nc)]
                 for _ in range(nr)]
            R, pivots = FpMatrix(a, p).rref()
            want, want_pivots = _rref_row_loop(a, p)
            assert pivots == want_pivots
            assert is_fp_array(R, p) and np.array_equal(R, want)


def test_fpmatrix_int64_envelope_enforced():
    # cols * (p-1)^2 must stay below 2^63 for a product, (p-1)^2 for rref;
    # at p = 3037000507 the product once wrapped silently to 290948288
    p = 3037000507
    big = np.full((2, 2), p - 1, dtype=np.int64)
    with pytest.raises(ScopeError):
        fp_matmul(big, big, p)
    with pytest.raises(ScopeError):
        fp_matmul(big, np.ones(2, dtype=np.int64), p)
    with pytest.raises(ScopeError):
        FpMatrix(big, p).rref()
    p = 2147483647  # 2 (p-1)^2 < 2^63: exact
    m = np.full((2, 2), p - 1, dtype=np.int64)
    assert fp_matmul(m, m, p).tolist() == [[2, 2], [2, 2]]
    assert FpMatrix(m, p).rank() == 1
    p = 3037000493  # the largest prime with (p-1)^2 < 2^63: rref is in, a 2-column product is out
    m = np.full((2, 2), p - 1, dtype=np.int64)
    assert FpMatrix(m, p).rank() == 1
    assert fp_matmul(m[:1, :1], m[:1, :1], p).tolist() == [[1]]
    with pytest.raises(ScopeError):
        fp_matmul(m, m, p)


# products outside exactkernel that are not over GF(p), each with its reason
NON_GF_P_PRODUCTS = {
    # mixed-radix Kronecker codes of the exponent vectors: integers, no modulus
    ("borel", "BorelAlgebra.__init__", "@"): 1,
    # the object-integer sandwich L~^T M~ L~ of the group law, mod p^N
    ("fgl", "_fgl_residues", ".dot"): 2,
    # the object-integer series coefficients e_k m^k L~, mod p^N
    ("fgl", "_series", ".dot"): 1,
}


def _products(tree: ast.AST, module: str) -> Counter:
    """(module, enclosing def, spelling) of every matrix product in a module:
    the @ operator and any .matmul/.tensordot/.dot/.einsum/.inner/.vdot call."""
    found = Counter()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found[(module, ".".join(scope), "@")] += 1
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("matmul", "tensordot", "dot", "einsum", "inner", "vdot")):
            found[(module, ".".join(scope), "." + node.func.attr)] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def test_fp_matmul_is_the_only_product_over_gf_p():
    # every GF(p) product in the package is exactkernel.fp_matmul, which
    # checks the int64 envelope; elsewhere only the listed non-GF(p) ones
    found = Counter()
    for path in sorted(Path(greenkernel.__file__).parent.glob("*.py")):
        if path.stem != "exactkernel":
            found += _products(ast.parse(path.read_text()), path.stem)
    assert dict(found) == NON_GF_P_PRODUCTS
    # the scan itself sees each spelling
    probe = "def f(a, b):\n    a @= b\n    return np.matmul(a, b) @ np.tensordot(a, b)\n"
    assert _products(ast.parse(probe), "m") == {
        ("m", "f", "@"): 2, ("m", "f", ".matmul"): 1, ("m", "f", ".tensordot"): 1}


def _pairing_reads(tree: ast.AST) -> list[str]:
    """Every attribute read in a module named pairing, dual or
    pairing_matrix, as the names in the order they appear."""
    return [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr in ("pairing", "dual", "pairing_matrix")]


def test_the_value_path_reads_no_pairing():
    # green decides a value's form on the socle and reads ind_one as
    # s / lam(s): it forms no pairing and inverts none (transfers build them
    # inside frobform.gysin)
    tree = ast.parse((Path(greenkernel.__file__).parent / "green.py").read_text())
    assert _pairing_reads(tree) == []
    # the scan itself sees each spelling
    probe = "def f(lam, A):\n    return lam.pairing, lam.dual[:, 0], A.pairing_matrix(lam.vec)\n"
    assert sorted(_pairing_reads(ast.parse(probe))) == ["dual", "pairing", "pairing_matrix"]


def _cache_reads(tree: ast.AST) -> tuple[Counter, set]:
    """(reads of a `_*_cache` name or attribute, by whether each is the first
    argument of a memo call; the modules imported from threading)."""
    reads, imports = Counter(), set()
    memo_firsts = {id(node.args[0]) for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "memo" and node.args}
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else "")
        if (name.startswith("_") and name.endswith("_cache")
                and isinstance(node.ctx, ast.Load)):
            reads[id(node) in memo_firsts] += 1
        if isinstance(node, ast.Import):
            imports |= {a.name for a in node.names if a.name.split(".")[0] == "threading"}
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "threading":
            imports.add(node.module)
    return reads, imports


def test_memo_is_the_only_shared_cache():
    # one lock: threading is imported only by exactkernel, for memo's RLock;
    # every `_*_cache` dict outside fgl (whose entries are replaced under
    # that lock) is read only as the first argument of memo
    lockers, reads = [], Counter()
    for path in sorted(Path(greenkernel.__file__).parent.glob("*.py")):
        found, imports = _cache_reads(ast.parse(path.read_text()))
        lockers += [path.stem] * bool(imports)
        if path.stem != "fgl":
            reads += found
    assert lockers == ["exactkernel"]
    assert reads[False] == 0 and reads[True] == 9  # 5 module dicts, 4 per-object ones
    # the scan itself sees a read outside memo and both spellings of the import
    probe = ("import threading\nfrom threading import Lock\n"
             "def f(self):\n    _a_cache.get(1)\n    return memo(self._b_cache, 1, g)\n")
    assert _cache_reads(ast.parse(probe)) == (Counter({False: 1, True: 1}), {"threading"})


def test_memo_builds_once_and_nests():
    # a miss builds and stores, a hit returns the stored value without a
    # build, and a build may read another memo under the same lock
    outer, inner, builds = {}, {}, []

    def build_inner(x):
        builds.append(("inner", x))
        return x + 1

    def build_outer(x):
        builds.append(("outer", x))
        return memo(inner, x, build_inner, x) * 10

    assert memo(outer, 1, build_outer, 1) == 20
    assert memo(outer, 1, build_outer, 1) == 20 and memo(inner, 1, build_inner, 1) == 2
    assert builds == [("outer", 1), ("inner", 1)]
    assert outer == {1: 20} and inner == {1: 2}


def test_only_value_form_decides_a_form():
    # in green.py, gysin is reached only inside transfer, and canonical_form
    # only inside value_form and transfer's defaults, so the choice of a
    # value's form is one function
    path = Path(greenkernel.__file__).parent / "green.py"
    names = {"gysin", "canonical_form"}
    assert _name_uses(ast.parse(path.read_text()), names) == {
        ("transfer", "gysin"): 1,
        ("transfer", "canonical_form"): 2,
        ("value_form", "canonical_form"): 1,
    }
    # the scan itself sees a call, a bare reference and an attribute
    probe = "def f(x):\n    g = gysin\n    return canonical_form(x), frobform.gysin\n"
    assert _name_uses(ast.parse(probe), names) == {("f", "gysin"): 2, ("f", "canonical_form"): 1}


def _name_uses(tree: ast.AST, names: set) -> Counter:
    """(enclosing def, name) of every read of one of the names, as a bare
    name or an attribute; imports are not reads."""
    found = Counter()

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        used = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if used in names:
            found[(".".join(scope), used)] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(tree, ())
    return found


def _is_from_bytes(node) -> bool:
    """Does the expression call int.from_bytes anywhere inside?"""
    return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "from_bytes" and isinstance(n.func.value, ast.Name)
               and n.func.value.id == "int" for n in ast.walk(node))


def _big_int_products(tree: ast.AST, module: str) -> Counter:
    """(module, enclosing def) of every big-integer Kronecker product: a *
    with an operand that calls int.from_bytes or is a name bound to such a
    call earlier in the same def."""
    found = Counter()

    def walk(node, scope, names):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope, names = scope + (node.name,), set()
        if isinstance(node, ast.Assign) and _is_from_bytes(node.value):
            names.update(n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mult):
            operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            if any(_is_from_bytes(x) or isinstance(x, ast.Name) and x.id in names for x in operands):
                found[(module, ".".join(scope))] += 1
        for child in ast.iter_child_nodes(node):
            walk(child, scope, names)

    walk(tree, (), set())
    return found


def test_one_big_integer_product_in_outer_products():
    # every Borel product is a slice of BorelAlgebra.outer_products, the one
    # place that multiplies Kronecker-packed integers
    found = Counter()
    for path in sorted(Path(greenkernel.__file__).parent.glob("*.py")):
        found += _big_int_products(ast.parse(path.read_text()), path.stem)
    assert dict(found) == {("borel", "BorelAlgebra.outer_products"): 1}
    # the scan itself sees a direct product and one through bound names
    probe = ("def f(x, y):\n    c = int.from_bytes(x, 'little') * int.from_bytes(y, 'little')\n"
             "    a, b = (int.from_bytes(z, 'little') for z in (x, y))\n    a *= 2\n    return a * b\n")
    assert _big_int_products(ast.parse(probe), "m") == {("m", "f"): 3}


@pytest.mark.parametrize("p", [2, 3, 5, 2147483647, 3037000493])
def test_reduce_mod_equals_percent_on_every_int64(p):
    # a - (a // p) p wraps near the int64 ends, and the wrap cancels
    info = np.iinfo(np.int64)
    edges = [info.min, info.min + 1, info.max - 1, info.max, -p, -p - 1, -1, 0, p - 1, p]
    rng = np.random.default_rng(p)
    a = np.concatenate([edges, rng.integers(info.min, info.max, 200, endpoint=True),
                        rng.integers(-3 * p, 3 * p, 200)]).astype(np.int64)
    assert np.array_equal(reduce_mod(a, p), a % p)
    square = a[:400].reshape(20, 20)
    assert np.array_equal(reduce_mod(square, p), square % p)
    assert np.array_equal(FpMatrix(square, p).a, square % p)


def test_singular_inverse_raises():
    with pytest.raises(ExactKernelError):
        FpMatrix([[1, 1], [1, 1]], 2).inv()


# -- subspaces ----------------------------------------------------------------


def test_intersect_full_space_with_itself():
    basis = [np.array([1, 0]), np.array([0, 1])]
    got = subspace_intersect([basis, basis], 2, 2)
    assert len(got) == 2


def test_intersect_complementary_lines_is_zero():
    got = subspace_intersect([[np.array([1, 0])], [np.array([0, 1])]], 2, 2)
    assert got == []


def test_intersect_planes_f5():
    b1 = [np.array([1, 0, 0]), np.array([0, 1, 0])]
    b2 = [np.array([0, 1, 0]), np.array([0, 0, 1])]
    got = subspace_intersect([b1, b2], 3, 5)
    # oracle: brute force membership over GF(5)^3
    members = []
    for vec in product(range(5), repeat=3):
        v = np.array(vec, dtype=np.int64)
        if subspace_contains(b1, v, 5) and subspace_contains(b2, v, 5):
            members.append(v)
    assert len(members) == 5  # the line through (0,1,0)
    assert len(got) == 1
    assert np.array_equal(got[0], np.array([0, 1, 0]))


def test_intersect_matches_enumeration_random():
    rng = random.Random(3)
    for _ in range(25):
        p = rng.choice([2, 3])
        d = rng.randrange(2, 5)
        mk = lambda: [
            np.array([rng.randrange(p) for _ in range(d)]) for _ in range(rng.randrange(1, 3))
        ]
        b1, b2 = mk(), mk()
        got = subspace_intersect([b1, b2], d, p)
        want = [
            np.array(v)
            for v in product(range(p), repeat=d)
            if any(v) and subspace_contains(b1, np.array(v), p)
            and subspace_contains(b2, np.array(v), p)
        ]
        assert subspace_eq(got, want, d, p)


def test_intersect_dimension_mismatch():
    with pytest.raises(ExactKernelError):
        subspace_intersect([[np.array([1, 0])], [np.array([1, 0, 0])]], 2, 2)


def test_row_space_basis_canonical():
    b = row_space_basis([np.array([2, 2]), np.array([1, 1])], 2, 3)
    assert len(b) == 1
    assert np.array_equal(b[0], np.array([1, 1]))


# -- the test-side truncated polynomials ----------------------------------------


def xvar(caps, modulus=2, names=("x",)):
    return TruncPoly.variable(names[0], names, caps, modulus)


def test_poly_cap_relation():
    q = 4
    x = xvar((q,), 2)
    assert (x * x ** (q - 1)).is_zero()


def test_poly_one_is_identity():
    x = xvar((5,), 3)
    f = 1 + 2 * x + x ** 3
    one = TruncPoly.const(("x",), (5,), 1, 3)
    assert one * f == f


def test_poly_square_over_f2_vanishes():
    # (x+y)^2 = x^2 + 2xy + y^2: the squares are capped, the cross term is
    # even, so the hand expansion gives 0
    ring = (("x", "y"), (2, 2))
    x = TruncPoly.variable("x", *ring, modulus=2)
    y = TruncPoly.variable("y", *ring, modulus=2)
    assert ((x + y) * (x + y)).is_zero()


def test_poly_mul_assoc_comm_random():
    rng = random.Random(13)
    ring = (("x", "y"), (3, 4))
    for _ in range(25):
        def rand_poly():
            coeffs = {}
            for _ in range(rng.randrange(1, 5)):
                e = (rng.randrange(3), rng.randrange(4))
                coeffs[e] = rng.randrange(5)
            return TruncPoly(*ring, coeffs, 5)
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_poly_mismatched_rings_rejected():
    a = TruncPoly.variable("x", ("x",), (3,), 2)
    b = TruncPoly.variable("x", ("x",), (4,), 2)
    with pytest.raises(ExactKernelError):
        a * b


def test_poly_rational_reduce_mod():
    f = TruncPoly(("x",), (4,), {(1,): Fraction(3, 2), (2,): Fraction(5)}, None)
    g = f.reduce_mod(3)
    assert g.coeff((1,)) == 0  # 3/2 = 3 * inv(2) = 0 mod 3
    assert g.coeff((2,)) == 2
    bad = TruncPoly(("x",), (4,), {(1,): Fraction(1, 3)}, None)
    with pytest.raises(ExactKernelError):
        bad.reduce_mod(3)


def test_poly_substitute_and_str():
    ring = (("x",), (8,))
    x = TruncPoly.variable("x", *ring, modulus=3)
    f = x + x ** 2
    g = f.substitute({"x": x ** 2})
    assert g == x ** 2 + x ** 4
    assert str(x + 2 * x ** 2) == "x + 2*x^2"


def test_poly_graded_lex_term_order():
    ring = (("x", "y"), (3, 3))
    x = TruncPoly.variable("x", *ring, modulus=5)
    y = TruncPoly.variable("y", *ring, modulus=5)
    f = x * y + x + y + x ** 2
    terms = [e for e, _ in f.sorted_terms()]
    assert terms == [(0, 1), (1, 0), (1, 1), (2, 0)]


def test_solve_inconsistent_returns_none():
    M = FpMatrix([[1, 0], [1, 0]], 3)
    assert M.solve(np.array([1, 2])) is None


def test_truncpoly_validation():
    with pytest.raises(ExactKernelError):
        TruncPoly(("x",), (3, 4), {})  # arity mismatch
    with pytest.raises(ExactKernelError):
        TruncPoly(("x",), (3,), {(-1,): 1})
    with pytest.raises(ExactKernelError):
        TruncPoly(("x",), (0,), {})
