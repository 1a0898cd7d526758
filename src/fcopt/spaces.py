"""Finite-dimensional inner-product spaces with explicit gram forms.

A ``SpaceDescriptor`` carries a symmetric positive definite gram matrix G
defining the norm |x| = sqrt(x' G x).  Dual vectors are kept in the same
coordinate system with the pairing <phi, x> = phi' x, so the dual norm is
|phi|_* = sqrt(phi' G^-1 phi) and the Riesz map is an application of G
(or its inverse), never an implicit identification.

``LinearMap`` objects know their domain and codomain descriptors; adjoints
and singular values are always taken in the gram-induced geometry.
"""

import numpy as np

__all__ = [
    "RANK_RTOL",
    "SpaceDescriptor",
    "Element",
    "LinearMap",
    "norm",
    "dual_norm",
    "pairing",
    "apply_map",
    "adjoint",
    "singular_triplets",
    "rank_mask",
]

# numerical rank cutoff: singular values <= RANK_RTOL * sigma_max count as zero
RANK_RTOL = 1e-10

# diagonal block size of the triangular substitution: large enough that the
# off-diagonal updates run as matrix products, small enough that the LU of a
# diagonal block costs little next to them
_TRI_BLOCK = 64
# block size of the blocked Cholesky factorization: its trailing updates are
# matrix products of this inner dimension
_CHOL_BLOCK = 128


def _is_diagonal(m):
    # no nonzero off the diagonal; counts without forming m - diag(m)
    return np.count_nonzero(m) == np.count_nonzero(np.diagonal(m))


def _row_dots(x, y):
    """x . y for two vectors; the dot product of each pair of rows for stacks."""
    if x.ndim == 1:
        return x @ y
    return np.einsum("ij,ij->i", x, y)


def _solve_triangular(t, b, lower):
    """Solve t x = b for a square triangular t by blocked substitution.

    b is a vector or a matrix of right-hand sides.  Each block row first
    subtracts the already solved blocks with one matrix product, then
    solves its own diagonal block with ``np.linalg.solve``.
    """
    n = t.shape[0]
    x = np.array(b, dtype=float)
    starts = range(0, n, _TRI_BLOCK)
    for i in (starts if lower else reversed(starts)):
        j = min(i + _TRI_BLOCK, n)
        if lower and i > 0:
            x[i:j] -= t[i:j, :i] @ x[:i]
        elif not lower and j < n:
            x[i:j] -= t[i:j, j:] @ x[j:]
        x[i:j] = np.linalg.solve(t[i:j, i:j], x[i:j])
    return x


def _cholesky(a):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Blocked right-looking elimination on one copy of a, reading its lower
    triangle: each diagonal block is factored by ``np.linalg.cholesky``,
    the panel below it by ``_solve_triangular``, one block of rows at a
    time, and the trailing lower triangle is updated one column strip at
    a time.  Unlike ``np.linalg.cholesky`` of the whole matrix, which
    copies its input into a work array of the same size, it holds no
    second n x n array and no temporary larger than n x _CHOL_BLOCK.
    Raises np.linalg.LinAlgError when a is not positive definite.
    """
    n = a.shape[0]
    low = np.array(a, dtype=float)
    for k in range(0, n, _CHOL_BLOCK):
        e = min(k + _CHOL_BLOCK, n)
        low[k:e, k:e] = np.linalg.cholesky(low[k:e, k:e])
        low[k:e, e:] = 0.0
        strips = [(j, min(j + _CHOL_BLOCK, n))
                  for j in range(e, n, _CHOL_BLOCK)]
        for j, f in strips:
            low[j:f, k:e] = _solve_triangular(low[k:e, k:e], low[j:f, k:e].T,
                                              lower=True).T
        for j, f in strips:
            low[j:, j:f] -= low[j:, k:e] @ low[j:f, k:e].T
    return low


class SpaceDescriptor:
    """A finite-dimensional space with a gram form.

    A diagonal gram (the identity, a lumped mass h I) is kept as its
    diagonal vector, so such a space costs O(dim) memory and every gram
    product is elementwise; ``gram`` forms the dense matrix only when
    read.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    dim : int
        Dimension, must be positive.
    gram : array_like or None
        dim x dim symmetric positive definite matrix; None means identity.
    """

    def __init__(self, name, dim, gram=None):
        if dim <= 0:
            raise ValueError("space dimension must be positive, got %r" % dim)
        self.name = str(name)
        self.dim = int(dim)
        if gram is None:
            self._gram = np.ones(self.dim)
        else:
            self._gram = self._checked_gram(gram)
        # the diagonal vector (1-D) or the dense symmetric matrix (2-D)
        self.is_diagonal = self._gram.ndim == 1
        if self.is_diagonal:
            # the Cholesky factor of a diagonal gram is the square root of
            # its diagonal, and every solve with it is a division
            if not np.all(self._gram > 0.0):
                raise ValueError(
                    "gram of space %r is not positive definite" % self.name)
            self._chol = np.sqrt(self._gram)
        else:
            try:
                # lower Cholesky factor; existence certifies positive
                # definiteness
                self._chol = np.linalg.cholesky(self._gram)
            except np.linalg.LinAlgError:
                raise ValueError(
                    "gram of space %r is not positive definite" % self.name
                ) from None
        self._gram.flags.writeable = False
        self._chol.flags.writeable = False

    def _checked_gram(self, gram):
        """A private copy of a symmetric gram: its diagonal if it has nothing
        off the diagonal, else its symmetrization."""
        gram = np.asarray(gram, dtype=float)
        if gram.shape != (self.dim, self.dim):
            raise ValueError(
                "gram of space %r must be %d x %d, got %r"
                % (self.name, self.dim, self.dim, gram.shape)
            )
        scale = np.abs(gram).max()
        diagonal = _is_diagonal(gram)
        if scale == 0.0 or (not diagonal and np.abs(gram - gram.T).max()
                            > 1e-12 * max(scale, 1.0)):
            raise ValueError("gram of space %r is not symmetric" % self.name)
        # a diagonal gram is its own symmetrization, so it skips both passes
        # over the transpose
        return np.diagonal(gram).copy() if diagonal else 0.5 * (gram + gram.T)

    @property
    def gram(self):
        """The gram matrix G (formed on each read for a diagonal gram)."""
        return np.diag(self._gram) if self.is_diagonal else self._gram

    def apply_gram(self, coords):
        """Return G x for a coordinate vector or a (dim, k) matrix."""
        coords = np.asarray(coords, dtype=float)
        if not self.is_diagonal:
            return self._gram @ coords
        if coords.ndim == 1:
            return self._gram * coords
        # C order, the layout of the dense product, so that reductions over
        # the result (the row dots of quadratic_form) sum in the same order
        return np.multiply(self._diag_rows(self._gram, coords), coords,
                           order="C")

    def quadratic_form(self, coords):
        """Return x' G x for a coordinate vector, or per row of a (k, dim) stack."""
        coords = np.asarray(coords, dtype=float)
        return _row_dots(coords, self.apply_gram(coords.T).T)

    def apply_gram_inverse(self, coords):
        """Return G^-1 phi for a coordinate array."""
        return self._factor_solve(self._factor_solve(coords), transpose=True)

    @staticmethod
    def _diag_rows(d, coords):
        # a diagonal shaped to scale the rows of coords
        return d.reshape((-1,) + (1,) * (coords.ndim - 1))

    def _factor_solve(self, coords, transpose=False):
        """Solve L y = x (or L' y = x with ``transpose``) for y."""
        coords = np.asarray(coords, dtype=float)
        if self.is_diagonal:
            return coords / self._diag_rows(self._chol, coords)
        if transpose:
            return _solve_triangular(self._chol.T, coords, lower=False)
        return _solve_triangular(self._chol, coords, lower=True)

    def _factor_transpose_apply(self, coords):
        """Return L' x."""
        if self.is_diagonal:
            return coords * self._diag_rows(self._chol, coords)
        return self._chol.T @ coords

    def zero(self):
        """The zero element."""
        return Element(np.zeros(self.dim), self)

    def __repr__(self):
        return "SpaceDescriptor(%r, dim=%d)" % (self.name, self.dim)


class Element:
    """A point of a space (or of its dual, in shared coordinates).

    Parameters
    ----------
    coords : array_like
        Coordinates, length must match ``space.dim``.
    space : SpaceDescriptor
        The space the coordinates refer to.
    """

    def __init__(self, coords, space):
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        if coords.shape != (space.dim,):
            raise ValueError(
                "coords of length %d do not fit space %r of dim %d"
                % (coords.size, space.name, space.dim)
            )
        self.coords = coords
        self.space = space

    def copy(self):
        return Element(self.coords.copy(), self.space)

    def __repr__(self):
        return "Element(%s, space=%r)" % (np.array2string(self.coords), self.space.name)


class LinearMap:
    """A linear operator between two described spaces.

    Parameters
    ----------
    matrix : array_like
        codomain.dim x domain.dim coefficient matrix.
    domain, codomain : SpaceDescriptor
        Source and target spaces.
    compact_flag : bool
        Marker consumed by the diagnostics module (perturbation bookkeeping);
        it does not change any computation here.
    """

    def __init__(self, matrix, domain, codomain, compact_flag=False):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        if matrix.shape != (codomain.dim, domain.dim):
            raise ValueError(
                "matrix shape %r does not map %r (dim %d) into %r (dim %d)"
                % (matrix.shape, domain.name, domain.dim, codomain.name, codomain.dim)
            )
        self.matrix = matrix
        self.domain = domain
        self.codomain = codomain
        self.compact_flag = bool(compact_flag)

    def __call__(self, u):
        return apply_map(self, u)

    def __repr__(self):
        return "LinearMap(%r -> %r, shape=%r)" % (
            self.domain.name,
            self.codomain.name,
            self.matrix.shape,
        )


def _check_space(space, x, what):
    # the same object, or the same dimension and gram (a stored diagonal and
    # a stored dense gram differ in shape): an l2 element passed to an
    # h-weighted L2 space of the same dimension fails here
    if x.space is not space and not np.array_equal(x.space._gram,
                                                   space._gram):
        raise ValueError("%s: element of %r passed where %r expected"
                         % (what, x.space.name, space.name))


def norm(space, x):
    """Gram norm sqrt(x' G x) of an element."""
    _check_space(space, x, "norm")
    val = float(space.quadratic_form(x.coords))
    return np.sqrt(max(val, 0.0))


def dual_norm(space, phi):
    """Dual norm sqrt(phi' G^-1 phi) of a dual vector in shared coordinates.

    Equals sup{ <phi, x> : |x| <= 1 } for the pairing <phi, x> = phi' x.
    """
    _check_space(space, phi, "dual_norm")
    val = float(phi.coords @ space.apply_gram_inverse(phi.coords))
    return np.sqrt(max(val, 0.0))


def pairing(phi, x):
    """Duality pairing <phi, x> = phi' x (shared coordinates)."""
    return float(np.asarray(phi.coords if isinstance(phi, Element) else phi)
                 @ np.asarray(x.coords if isinstance(x, Element) else x))


def apply_map(F, u):
    """Apply a LinearMap to a domain element."""
    _check_space(F.domain, u, "apply_map")
    return Element(F.matrix @ u.coords, F.codomain)


def adjoint(F):
    """Gram-aware adjoint of a LinearMap.

    Returns the map with matrix G_dom^-1 M' G_cod, so that the pairing
    identity <F* phi, u> = <phi, F u> holds with both pairings read as
    plain coordinate dot products against gram-weighted representers;
    equivalently (F* phi, u)_dom = (phi, F u)_cod for the gram inner
    products, for all u and phi.
    """
    m = F.domain.apply_gram_inverse(F.matrix.T @ F.codomain.gram)
    return LinearMap(m, domain=F.codomain, codomain=F.domain,
                     compact_flag=F.compact_flag)


def singular_triplets(F, compute_uv=True):
    """Singular value decomposition in the gram-induced geometry.

    Computes the SVD of C = L_cod' M L_dom'^-1 where G = L L' are the
    Cholesky factorizations of the two grams.  Returns a list of triplets
    (sigma, left, right) sorted by descending sigma with

        F(right) = sigma * left,   |right|_dom = |left|_cod = 1.

    The list has min(domain.dim, codomain.dim) entries.

    With ``compute_uv=False`` (as in ``np.linalg.svd``) only the singular
    values of the same C are computed: the result is their descending
    1-D ndarray of length min(domain.dim, codomain.dim), with no vectors
    formed and none un-whitened.
    """
    # M L_dom'^-1  ==  solve (L_dom X' = M') transposed
    tmp = F.domain._factor_solve(F.matrix.T).T
    c = F.codomain._factor_transpose_apply(tmp)
    if not compute_uv:
        return np.linalg.svd(c, compute_uv=False)
    u, s, wt = np.linalg.svd(c, full_matrices=False)
    lefts = F.codomain._factor_solve(u, transpose=True)
    rights = F.domain._factor_solve(wt.T, transpose=True)
    return [(float(s[i]),
             Element(lefts[:, i], F.codomain),
             Element(rights[:, i], F.domain))
            for i in range(s.size)]


def rank_mask(sigma, tol=RANK_RTOL):
    """Mask of the singular values above the numerical rank cutoff.

    sigma counts as nonzero when sigma > tol * max(sigma); when the largest
    value is 0 (or there is none) the operator is numerically zero and the
    mask is all False.
    """
    s = np.asarray(sigma, dtype=float)
    smax = s.max(initial=0.0)
    if smax > 0.0:
        return s > tol * smax
    return np.zeros(s.shape, dtype=bool)
