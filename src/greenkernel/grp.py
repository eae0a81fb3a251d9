"""Finite permutation groups at desk scale: closure enumeration, Sylow
subgroups, double cosets, abelian p-group decomposition, and homomorphisms
of abelian p-groups as integer matrices.

Everything is brute force over enumerated elements (budget 1000 by
default), with lexicographic tie-breaking on permutation image tuples so
Sylow subgroups and double-coset representatives are reproducible.

Permutations are tuples of images on 0..degree-1; composition applies the
right factor first: (a * b)(i) = a[b[i]].  The text format for group files
is one generator per line in 1-based cycle notation, e.g. ``(1 2 3)(4 5)``,
with ``#`` comments; the degree is inferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .exactkernel import BudgetError, ExactKernelError, _is_p_power

DEFAULT_GROUP_BUDGET = 1000

Perm = tuple

def perm_mul(a: Perm, b: Perm) -> Perm:
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[x] for x in b)  # 1 index: a scalar


def perm_inv(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
    e = tuple(range(len(a)))
    x, k = a, 1
    while x != e:
        x = perm_mul(x, a)
        k += 1
    return k


def parse_cycles(text: str, degree: int | None = None) -> Perm:
    """Parse 1-based cycle notation like '(1 2 3)(4 5)' or '()' for the
    identity; points may also be comma-separated."""
    s = text.strip()
    if not s:
        raise ExactKernelError("empty permutation")
    cycles = []
    maxpt = 0
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise ExactKernelError("expected '(' in cycle notation: %r" % text)
        j = s.find(")", i)
        if j < 0:
            raise ExactKernelError("unclosed cycle in %r" % text)
        body = s[i + 1 : j].replace(",", " ").split()
        pts = [int(t) for t in body]
        if any(t < 1 for t in pts):
            raise ExactKernelError("points are 1-based in %r" % text)
        if len(set(pts)) != len(pts):
            raise ExactKernelError("repeated point in cycle %r" % text)
        cycles.append(pts)
        maxpt = max([maxpt] + pts)
        i = j + 1
    deg = degree if degree is not None else maxpt
    if deg < maxpt:
        raise ExactKernelError("cycle mentions point %d beyond degree %d" % (maxpt, deg))
    img = list(range(deg))
    for cyc in cycles:
        for k, pt in enumerate(cyc):
            img[pt - 1] = cyc[(k + 1) % len(cyc)] - 1
    return tuple(img)


def perm_to_cycles(a: Perm) -> str:
    seen = [False] * len(a)
    out = []
    for i in range(len(a)):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = a[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = a[j]
        out.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(out) or "()"


class PermGroup:
    """A finite permutation group with its elements fully enumerated."""

    def __init__(self, degree: int, generators, budget: int = DEFAULT_GROUP_BUDGET):
        self.degree = degree
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise ExactKernelError("not a permutation of 0..%d: %r" % (degree - 1, g))
            gens.append(g)
        self.generators = tuple(gens)
        e = tuple(range(degree))
        elems = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = perm_mul(g, x)
                    if y not in elems:
                        if len(elems) >= budget:
                            raise BudgetError(
                                "group closure exceeds budget %d" % budget, required=len(elems) + 1
                            )
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        self._set_elements(frozenset(elems))

    @classmethod
    def _from_elements(cls, degree: int, generators, eset: frozenset) -> "PermGroup":
        """A group whose element set is already known to be the closure of
        the generators: no second closure."""
        H = cls.__new__(cls)
        H.degree = degree
        H.generators = tuple(generators)
        H._set_elements(eset)
        return H

    def _set_elements(self, eset: frozenset) -> None:
        self._eset = eset
        self.elements = sorted(eset)
        self.order = len(self.elements)
        self._conjugates: dict = {}

    # -- basic structure -----------------------------------------------------

    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def __contains__(self, g) -> bool:
        return tuple(g) in self._eset

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other):
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self._eset == other._eset
        )

    def __hash__(self):
        return hash((self.degree, self._eset))

    def __repr__(self):
        return "PermGroup(degree=%d, order=%d)" % (self.degree, self.order)

    def subgroup(self, generators, budget: int = DEFAULT_GROUP_BUDGET) -> "PermGroup":
        H = PermGroup(self.degree, generators, budget)
        if not H._eset <= self._eset:
            raise ExactKernelError("generators do not lie in the group")
        return H

    def trivial_subgroup(self) -> "PermGroup":
        return PermGroup(self.degree, [])

    def is_subgroup_of(self, G: "PermGroup") -> bool:
        return self.degree == G.degree and self._eset <= G._eset

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            perm_mul(a, b) == perm_mul(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
        )

    def conjugate_subgroup(self, H: "PermGroup", g: Perm) -> "PermGroup":
        """gHg^{-1}, generated by the conjugated generators of H.

        The element set is conjugated directly (no closure) and must lie in
        this group.  Memoized per (generators of H, g): the generators fix
        both H and the generators of the result."""
        g = tuple(g)
        if H.degree != self.degree or len(g) != self.degree:
            raise ExactKernelError("conjugation needs one degree")
        key = (H.generators, g)
        out = self._conjugates.get(key)
        if out is None:
            gi = perm_inv(g)
            eset = frozenset(perm_mul(perm_mul(g, h), gi) for h in H._eset)
            if not eset <= self._eset:
                raise ExactKernelError("generators do not lie in the group")
            gens = [perm_mul(perm_mul(g, h), gi) for h in H.generators]
            out = self._conjugates[key] = PermGroup._from_elements(self.degree, gens, eset)
        return out

    def intersection(self, H: "PermGroup") -> "PermGroup":
        """The common elements, which already form a group (no closure)."""
        if H.degree != self.degree:
            raise ExactKernelError("intersection needs one degree")
        common = self._eset & H._eset
        return PermGroup._from_elements(self.degree, sorted(common), common)


def group_from_generators(degree: int, perms, budget: int = DEFAULT_GROUP_BUDGET) -> PermGroup:
    return PermGroup(degree, perms, budget)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    """Product acting on the disjoint union of the two point sets."""
    d = G.degree + H.degree
    gens = [g + tuple(x + G.degree for x in range(H.degree)) for g in G.generators]
    gens += [tuple(range(G.degree)) + tuple(x + G.degree for x in h) for h in H.generators]
    return PermGroup(d, gens)


def cyclic_group(n: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [])
    gen = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [gen])


def symmetric_group(n: int) -> PermGroup:
    if n > 5:
        raise ExactKernelError("symmetric groups only shipped up to S5")
    if n <= 1:
        return PermGroup(max(n, 1), [])
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple((i + 1) % n for i in range(n)))
    return PermGroup(n, gens)


def alternating_group(n: int) -> PermGroup:
    if n not in (3, 4, 5):
        raise ExactKernelError("alternating groups shipped for n in 3..5")
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return PermGroup(3, [three])
    if n == 4:
        return PermGroup(4, [three, (1, 0, 3, 2)])
    return PermGroup(5, [three, (1, 2, 3, 4, 0)])


def klein_four_group() -> PermGroup:
    return PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


def dihedral_group(n: int) -> PermGroup:
    if n < 3:
        raise ExactKernelError("dihedral groups need n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return PermGroup(n, [rot, ref])


def named_group(name: str) -> PermGroup:
    """Resolve names like C6, S3, A4, V4, D4, or products C2xC4."""
    key = name.strip()
    if "x" in key.lower() and not key.lower().startswith("x"):
        parts = key.replace("X", "x").split("x")
        G = named_group(parts[0])
        for part in parts[1:]:
            G = direct_product(G, named_group(part))
        return G
    k = key.upper()
    try:
        if k == "V4":
            return klein_four_group()
        if k.startswith("C"):
            return cyclic_group(int(k[1:]))
        if k.startswith("S"):
            return symmetric_group(int(k[1:]))
        if k.startswith("A"):
            return alternating_group(int(k[1:]))
        if k.startswith("D"):
            return dihedral_group(int(k[1:]))
    except ValueError:
        pass
    raise ExactKernelError("unknown group name %r" % name)


def parse_group_file(text: str, budget: int = DEFAULT_GROUP_BUDGET) -> PermGroup:
    """One generator per line in cycle notation; '#' starts a comment.
    Degree is inferred from the largest point mentioned."""
    raw = []
    degree = 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            g = parse_cycles(body)
        except (ExactKernelError, ValueError) as ex:
            raise ExactKernelError("line %d: %s" % (lineno, ex))
        raw.append(body)
        degree = max(degree, len(g))
    gens = [parse_cycles(body, degree) for body in raw]
    return PermGroup(degree, gens, budget)


# ---------------------------------------------------------------------------
# Sylow subgroups and double cosets
# ---------------------------------------------------------------------------


def sylow(G: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup by greedy extension of p-element closures.

    A proper p-subgroup always extends inside its normalizer within a Sylow
    subgroup, so scanning candidates in the fixed element order terminates
    at full p-part order; the scan order makes the output deterministic.
    """
    target = 1
    o = G.order
    while o % p == 0:
        target *= p
        o //= p
    H = G.trivial_subgroup()
    if target == 1:
        return H
    candidates = [g for g in G.elements if _is_p_power_order(g, p)]
    grown = True
    while H.order < target and grown:
        grown = False
        for g in candidates:
            if g in H:
                continue
            try:
                K = PermGroup(G.degree, list(H.generators) + [g], budget=target + 1)
            except BudgetError:
                continue
            if K.order <= target and _is_p_power(K.order, p) and K.order > H.order:
                H = K
                grown = True
                break
    if H.order != target:
        raise ExactKernelError("internal consistency: Sylow search stalled")
    return H


def _is_p_power_order(g: Perm, p: int) -> bool:
    return _is_p_power(perm_order(g), p)


def double_cosets(G: PermGroup, L: PermGroup, K: PermGroup) -> list[Perm]:
    """Representatives g with G the disjoint union of the L g K; each rep is
    the lexicographically smallest element of its double coset.

    The covered set is a union of left cosets xK, so lgK is formed only
    when lg is not yet covered; right multiplication by g or k is one itemgetter."""
    if not L.is_subgroup_of(G) or not K.is_subgroup_of(G):
        raise ExactKernelError("double cosets need subgroups of G")
    if G.degree < 2:  # the trivial group; itemgetter needs two indices
        return list(G.elements)
    by_k = [itemgetter(*k) for k in K.elements]
    covered: set = set()
    reps = []
    for g in G.elements:  # sorted: the first uncovered element is the least
        if g in covered:
            continue
        reps.append(g)
        by_g = itemgetter(*g)
        for l in L.elements:
            lg = by_g(l)
            if lg not in covered:
                covered.update(by(lg) for by in by_k)
    return reps


# ---------------------------------------------------------------------------
# abelian p-groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbelianPGroup:
    """An abelian group of p-power order with a chosen cyclic basis
    g_1..g_k of orders p^{r_1} >= ... >= p^{r_k}; every element is uniquely
    prod g_i^{a_i} (the bijection is verified on construction)."""

    group: PermGroup
    p: int
    basis: tuple
    exponents: tuple  # (r_1 >= r_2 >= ...)

    @property
    def orders(self) -> tuple:
        return tuple(self.p ** r for r in self.exponents)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def dlog(self, g: Perm) -> tuple:
        return self._dlog_table()[tuple(g)]

    def element(self, exps) -> Perm:
        out = self.group.identity()
        for g, a, o in zip(self.basis, exps, self.orders):
            out = perm_mul(out, _perm_pow(g, int(a) % o))
        return out

    def all_exponents(self):
        def rec(i):
            if i == len(self.basis):
                yield ()
                return
            for rest in rec(i + 1):
                for a in range(self.orders[i]):
                    yield (a,) + rest
        return list(rec(0))

    def _dlog_table(self) -> dict:
        if not hasattr(self, "_dlog_cache"):
            table = {}
            for exps in self.all_exponents():
                table[self.element(exps)] = exps
            if len(table) != self.group.order:
                raise ExactKernelError("internal consistency: cyclic basis is not a basis")
            object.__setattr__(self, "_dlog_cache", table)
        return self._dlog_cache


def _perm_pow(g: Perm, k: int) -> Perm:
    out = tuple(range(len(g)))
    base = g
    while k:
        if k & 1:
            out = perm_mul(out, base)
        k >>= 1
        if k:
            base = perm_mul(base, base)
    return out


def abelian_decompose(A: PermGroup, p: int | None = None) -> AbelianPGroup:
    """Cyclic basis of an abelian p-group by greedy maximal-order extraction,
    recursing on the regular representation of the quotient.

    ``p`` is the caller's prime; when omitted it is read off the order.  The
    trivial group is a p-group for every p, so it takes the caller's p
    (2 when none is given).
    """
    if not A.is_abelian():
        raise ExactKernelError("group is not abelian")
    n = A.order
    if p is None:
        p = next((d for d in range(2, n + 1) if n % d == 0), 2)
    if n == 1:
        return AbelianPGroup(A, p, (), ())
    if not _is_p_power(n, p):
        raise ExactKernelError("group order %d is not a prime power" % n)

    basis = _abelian_basis(A, p)
    exps = []
    for g in basis:
        o = perm_order(g)
        r = 0
        while o > 1:
            o //= p
            r += 1
        exps.append(r)
    out = AbelianPGroup(A, p, tuple(basis), tuple(exps))
    out._dlog_table()  # force the bijection check
    return out


def _abelian_basis(A: PermGroup, p: int) -> list:
    if A.order == 1:
        return []
    order = {g: perm_order(g) for g in A.elements}
    top = max(order.values())
    g1 = min(g for g in A.elements if order[g] == top)
    cyc = {_perm_pow(g1, k) for k in range(top)}
    if len(cyc) == A.order:
        return [g1]
    # quotient A / <g1> via coset representatives and its regular representation
    cosets = {}
    for a in A.elements:
        key = min(perm_mul(a, c) for c in cyc)
        cosets.setdefault(key, []).append(a)
    reps = sorted(cosets)
    idx = {r: i for i, r in enumerate(reps)}

    def coset_of(a: Perm) -> int:
        return idx[min(perm_mul(a, c) for c in cyc)]

    qgens = []
    for g in A.generators:
        qgens.append(tuple(coset_of(perm_mul(g, r)) for r in reps))
    Q = PermGroup(len(reps), qgens)
    qbasis = _abelian_basis(Q, p)
    # lift each quotient basis element to a representative of equal order
    lifted = []
    ident_idx = coset_of(A.identity())
    for qb in qbasis:
        target_coset_idx = qb[ident_idx]
        members = sorted(cosets[reps[target_coset_idx]])
        qorder = perm_order(qb)
        pick = next((m for m in members if order[m] == qorder), None)
        if pick is None:
            raise ExactKernelError("internal consistency: no order-preserving lift")
        lifted.append(pick)
    basis = [g1] + lifted
    basis.sort(key=order.__getitem__, reverse=True)
    return basis


@dataclass(frozen=True)
class AbelianHom:
    """alpha(g_i) = prod_j h_j^{m[j][i]} between abelian p-groups, as an
    integer matrix (rows indexed by target basis)."""

    source: AbelianPGroup
    target: AbelianPGroup
    matrix: tuple  # tuple of rows, shape (target.rank, source.rank)

    def apply_exponents(self, a) -> tuple:
        out = []
        for j in range(self.target.rank):
            out.append(sum(self.matrix[j][i] * int(a[i]) for i in range(self.source.rank))
                       % self.target.orders[j])
        return tuple(out)

    def apply(self, g: Perm) -> Perm:
        return self.target.element(self.apply_exponents(self.source.dlog(g)))

    def compose(self, other: "AbelianHom") -> "AbelianHom":
        """self o other."""
        if other.target != self.source:
            raise ExactKernelError("homs do not compose")
        rows = []
        for j in range(self.target.rank):
            rows.append(tuple(
                sum(self.matrix[j][k] * other.matrix[k][i] for k in range(self.source.rank))
                % self.target.orders[j]
                for i in range(other.source.rank)
            ))
        return AbelianHom(other.source, self.target, tuple(rows))

    def is_mono(self) -> bool:
        hits = 0
        for a in self.source.all_exponents():
            if not any(self.apply_exponents(a)):
                hits += 1
        return hits == 1

    def is_epi(self) -> bool:
        image = {self.apply_exponents(a) for a in self.source.all_exponents()}
        return len(image) == self.target.group.order

    @classmethod
    def identity(cls, A: AbelianPGroup) -> "AbelianHom":
        rows = tuple(
            tuple(1 if i == j else 0 for i in range(A.rank)) for j in range(A.rank)
        )
        return cls(A, A, rows)


def hom_between(source: AbelianPGroup, target: AbelianPGroup, images) -> AbelianHom:
    """The hom with the given basis-generator images (target elements),
    exponents recovered by discrete log; well-definedness is checked by
    powering each image to the source generator order."""
    if len(images) != source.rank:
        raise ExactKernelError("need one image per source basis generator")
    rows = [[0] * source.rank for _ in range(target.rank)]
    for i, img in enumerate(images):
        img = tuple(img)
        if img not in target.group:
            raise ExactKernelError("image lies outside the target group")
        if _perm_pow(img, source.orders[i]) != target.group.identity():
            raise ExactKernelError("image order violates source generator order")
        exps = target.dlog(img)
        for j in range(target.rank):
            rows[j][i] = exps[j]
    return AbelianHom(source, target, tuple(tuple(r) for r in rows))
