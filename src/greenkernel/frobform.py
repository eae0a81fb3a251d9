"""Frobenius forms on local algebras: pairings and dual bases, the unit
parametrization of forms, form modification to prescribed values, Gysin
(wrong-way) maps adjoint to algebra maps, and socle-extension maps.

A linear form lam on a local algebra with one-dimensional socle, spanned by
s, is Frobenius exactly when lam(s) != 0: every nonzero ideal contains s, so
the kernel of u -> lam(u .) is an ideal that misses s, hence zero.  That
test is the one decision; a form's pairing and dual basis are built when
read, and a dual whose inverse fails is an internal error.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .exactkernel import ExactKernelError, FpMatrix, fp_matmul, memo, subspace_contains
from .borel import AlgebraMap, El, _read_only

_DISAGREE = "internal consistency: socle criterion disagrees with pairing rank"


def _nonzero_on_socle(A, vec) -> bool:
    """Is the covector vec nonzero on the socle generator of A?  Refuses an
    algebra whose socle is not one-dimensional (socle_generator)."""
    return bool(fp_matmul(vec, socle_generator(A).vec, A.p))


class FrobeniusForm:
    """A Frobenius form, decided by lam(s) != 0 on the socle generator s; a
    covector that vanishes there raises.  Its pairing and dual basis are
    built on first read.  Its arrays (vec, pairing, dual) are read-only, so
    a form can be shared."""

    def __init__(self, algebra, covector):
        self.algebra = algebra
        vec = np.asarray(covector, dtype=np.int64) % algebra.p
        if vec.shape != (algebra.dim,):
            raise ExactKernelError("covector has wrong length")
        if not _nonzero_on_socle(algebra, vec):
            raise ExactKernelError("covector is not a Frobenius form (zero on the socle)")
        self.vec = _read_only([vec])[0]

    @cached_property
    def pairing(self) -> np.ndarray:
        """G[i, j] = lam(e_i e_j)."""
        return _read_only([self.algebra.pairing_matrix(self.vec)])[0]

    @cached_property
    def dual(self) -> np.ndarray:
        """G^{-1}: column j is the dual basis vector v_j, <e_i|v_j> = [i = j]."""
        try:
            return _read_only([FpMatrix(self.pairing, self.algebra.p).inv()])[0]
        except ExactKernelError:
            raise ExactKernelError(_DISAGREE) from None

    def value(self, el) -> int:
        v = el.vec if isinstance(el, El) else np.asarray(el, dtype=np.int64)
        return int(fp_matmul(self.vec, v, self.algebra.p))

    def __call__(self, el) -> int:
        return self.value(el)

    def pair(self, u, v) -> int:
        """<u|v> = lam(uv)."""
        uv = u.vec if isinstance(u, El) else np.asarray(u, dtype=np.int64)
        vv = v.vec if isinstance(v, El) else np.asarray(v, dtype=np.int64)
        return int(fp_matmul(fp_matmul(uv, self.pairing, self.algebra.p), vv, self.algebra.p))

    def dual_basis(self) -> list[El]:
        return [El(self.algebra, self.dual[:, j]) for j in range(self.algebra.dim)]

    def __eq__(self, other):
        return (
            isinstance(other, FrobeniusForm)
            and self.algebra == other.algebra
            and bool(np.array_equal(self.vec, other.vec))
        )

    def __repr__(self):
        return "FrobeniusForm(%r, %s)" % (self.algebra, self.vec.tolist())


def socle_generator(A) -> El:
    """The deterministic socle generator (requires dim soc = 1).

    For a Borel algebra this is the top monomial; in general it is the
    single RREF basis vector of the socle.
    """
    soc = A.socle_vecs()
    if len(soc) != 1:
        raise ExactKernelError("not Gorenstein: dim soc = %d" % len(soc))
    return El(A, soc[0])


def canonical_form(A) -> FrobeniusForm:
    """The coefficient-of-socle-generator functional (dual of the top
    monomial on a Borel algebra).  Built once per algebra instance and kept
    in its __dict__, so every transfer reuses one form (and the pairing and
    dual basis it builds on first read), which lives and dies with A."""
    return memo(A.__dict__, "_canonical_form", _canonical_form, A)


def _canonical_form(A) -> FrobeniusForm:
    z = socle_generator(A)
    pivot = int(np.nonzero(z.vec)[0][0])
    lam = np.zeros(A.dim, dtype=np.int64)
    lam[pivot] = pow(int(z.vec[pivot]), -1, A.p)
    return FrobeniusForm(A, lam)


def is_frobenius_form(A, covector) -> tuple[FrobeniusForm | None, np.ndarray, int]:
    """(form, pairing, rank) of a covector on A: its FrobeniusForm with its
    pairing and rank dim A, or None with the degenerate pairing and its rank.
    An already-decided FrobeniusForm on A is taken as it is.  A raw covector
    is decided on the socle; a degenerate one is ranked, and full rank there
    is an internal error."""
    if isinstance(covector, FrobeniusForm):
        if covector.algebra != A:
            raise ExactKernelError("the covector is a form on another algebra")
        return covector, covector.pairing, A.dim
    vec = np.asarray(covector, dtype=np.int64) % A.p
    if vec.shape != (A.dim,) or _nonzero_on_socle(A, vec):
        form = FrobeniusForm(A, vec)  # which refuses a wrong length
        return form, form.pairing, A.dim
    G = A.pairing_matrix(vec)
    rank = FpMatrix(G, A.p).rank()
    if rank == A.dim:
        raise ExactKernelError(_DISAGREE)
    return None, G, rank


def modify_form(A, form: FrobeniusForm, basis_els, targets) -> FrobeniusForm:
    """The form lam' with lam'(u_i) = t_i, for a basis u_0..u_{d-1} with u_0
    spanning the socle and t_0 != 0.

    lam' = w . lam in the module structure (lam'(a) = lam(a w)) where w is
    the target combination of the dual basis of (u_i) -- the unit route of
    the parametrization of forms.
    """
    dim = A.dim
    us = [u if isinstance(u, El) else El(A, u) for u in basis_els]
    ts = [int(t) % A.p for t in targets]
    if len(us) != dim or len(ts) != dim:
        raise ExactKernelError("need a full basis and one target per basis vector")
    if ts[0] == 0:
        raise ExactKernelError("t_0 must be nonzero (it is the value on the socle)")
    # dual basis of (u_i) w.r.t. the pairing: columns of (U G)^{-1}, which
    # exists exactly when the u_i are a basis (G is invertible)
    U = np.array([u.vec for u in us])
    try:
        V = FpMatrix(fp_matmul(U, form.pairing, A.p), A.p).inv()
    except ExactKernelError:
        raise ExactKernelError("the u_i are not a basis")
    if not subspace_contains(A.socle_vecs(), us[0].vec, A.p):
        raise ExactKernelError("u_0 must span the socle")
    w = fp_matmul(V, np.array(ts, dtype=np.int64), A.p)
    lam2 = fp_matmul(A.mult_matrix(w).T, form.vec, A.p)
    out = FrobeniusForm(A, lam2)
    for u, t in zip(us, ts):
        if out.value(u) != t:
            raise ExactKernelError("internal consistency: modified form misses a target")
    return out


def form_unit(A, lam: FrobeniusForm, theta) -> El:
    """The unique unit u with theta(a) = lam(a u^{-1}) for all a.  A
    FrobeniusForm theta is already decided (it must live on A); a raw
    covector is decided here by is_frobenius_form."""
    form = is_frobenius_form(A, theta)[0]
    if form is None:
        raise ExactKernelError("theta is not a Frobenius form")
    tvec = form.vec
    # theta(e_i) = lam(e_i w) = (G w)_i with w = u^{-1}, so w = G^{-1} theta
    w = fp_matmul(lam.dual, tvec, A.p)
    winv = El(A, w)
    if not winv.is_unit():
        raise ExactKernelError("internal consistency: solved element is not a unit")
    # theta(e_i) = lam(e_i w) for every i, through multiplication by w
    if not np.array_equal(fp_matmul(A.mult_matrix(w).T, lam.vec, A.p), tvec):
        raise ExactKernelError("internal consistency: form_unit identity fails")
    return winv.inv()


def check_gysin_input(f: AlgebraMap, lam_A: FrobeniusForm, lam_B: FrobeniusForm) -> None:
    """Raise on what gysin refuses: forms that do not live on the endpoints
    of f, or an f not known to be an algebra map."""
    if lam_A.algebra != f.source or lam_B.algebra != f.target:
        raise ExactKernelError("forms do not match the map endpoints")
    if not f.is_algebra_map:
        raise ExactKernelError("gysin needs a (local) algebra map")


def gysin(f: AlgebraMap, lam_A: FrobeniusForm, lam_B: FrobeniusForm) -> AlgebraMap:
    """The wrong-way map alpha: B -> A adjoint to the local algebra map
    f: A -> B, characterized by <alpha(b)|a>_A = <b|f(a)>_B.

    Verified on return: alpha is an A-module map along f and carries soc B
    onto soc A.  Its matrix is read-only, so the map can be shared.
    """
    A, B = f.source, f.target
    check_gysin_input(f, lam_A, lam_B)
    mat = fp_matmul(fp_matmul(lam_A.dual, f.matrix.T, A.p), lam_B.pairing, A.p)
    alpha = AlgebraMap(B, A, mat)
    if not alpha.check_module_map(f):
        raise ExactKernelError("internal consistency: gysin map is not a module map")
    zB = socle_generator(B)
    zA_img = alpha.apply(zB)
    if zA_img.is_zero() or not subspace_contains(A.socle_vecs(), zA_img.vec, A.p):
        raise ExactKernelError("internal consistency: gysin map misses the socle")
    alpha.matrix.flags.writeable = False
    return alpha


def extend_socle_map(f: AlgebraMap, socle_image: El, socle_gen_B: El | None = None) -> AlgebraMap:
    """An A-module map B -> A (along f: A -> B) sending the socle generator
    of B to the prescribed nonzero socle element of A.

    Existence is guaranteed by self-injectivity of A; the linear system is
    the module-map identity on the ideal generators of A plus the socle
    condition, solved deterministically (free coordinates = 0).  Any set
    of generators gives the same solution set, hence the same augmented
    RREF and the same X.
    """
    A, B = f.source, f.target
    if socle_gen_B is None:
        socle_gen_B = socle_generator(B)
    z = socle_gen_B.vec
    img = socle_image.vec if isinstance(socle_image, El) else np.asarray(socle_image)
    if not img.any():
        raise ExactKernelError("socle image must be nonzero")
    if not subspace_contains(A.socle_vecs(), img, A.p):
        raise ExactKernelError("image must lie in soc A")
    p = A.p
    dA, dB = A.dim, B.dim
    IB = np.eye(dB, dtype=np.int64)
    IA = np.eye(dA, dtype=np.int64)
    blocks = []
    rhs = []
    for g, Mg_A in A.ideal_generators:
        Mg_B = B.mult_matrix(fp_matmul(f.matrix, g, p))
        # X * M_B - M_A * X = 0 on vec(X) (row-major)
        blocks.append((np.kron(IA, Mg_B.T) - np.kron(Mg_A, IB)) % p)
        rhs.extend([0] * (dA * dB))
    blocks.append(np.kron(IA, z.reshape(1, -1)) % p)
    rhs.extend(int(v) for v in img)
    sol = FpMatrix(np.vstack(blocks), p).solve(np.array(rhs, dtype=np.int64))
    if sol is None:
        raise ExactKernelError(
            "internal consistency: no module extension exists (contradicts self-injectivity)"
        )
    X = sol.reshape(dA, dB)
    out = AlgebraMap(B, A, X)
    if not out.check_module_map(f):
        raise ExactKernelError("internal consistency: solved extension is not a module map")
    return out


def check_reciprocity(f: AlgebraMap, alpha: AlgebraMap, lam_A: FrobeniusForm) -> bool:
    """Frobenius reciprocity (f(a)|b)_B = (a|alpha(b))_A on all basis pairs,
    where (x|y)_A = lam_A(xy) and (x'|y')_B = (lam_A o alpha)(x'y').

    As matrices over the basis pairs (a, b): f^T . G_B = G_A . alpha, with
    G_B the pairing matrix of lam_A o alpha and G_A that of lam_A."""
    B, p = f.target, f.source.p
    G_B = B.pairing_matrix(fp_matmul(alpha.matrix.T, lam_A.vec, p))
    return bool(np.array_equal(fp_matmul(f.matrix.T, G_B, p),
                               fp_matmul(lam_A.pairing, alpha.matrix, p)))
