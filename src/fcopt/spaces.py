"""Finite-dimensional inner-product spaces with explicit gram forms.

A ``SpaceDescriptor`` carries a positive diagonal gram G = diag(g), stored
as the vector g, defining the norm |x| = sqrt(x' G x).  Dual vectors are
kept in the same coordinate system with the pairing <phi, x> = phi' x, so
the dual norm is |phi|_* = sqrt(phi' G^-1 phi) and the Riesz map is an
application of G (or its inverse), never an implicit identification.

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


def _row_dots(x, y):
    """x . y for two vectors; the dot product of each pair of rows for stacks."""
    if x.ndim == 1:
        return x @ y
    return np.einsum("ij,ij->i", x, y)


class SpaceDescriptor:
    """A finite-dimensional space with a diagonal gram form.

    The gram G = diag(g) (the identity, a lumped mass h I, the L2(0,T)
    weight dt I of a control path) is kept as its diagonal vector g, so a
    space costs O(dim) memory and every gram product is elementwise.

    Parameters
    ----------
    name : str
        Identifier used in reports and error messages.
    dim : int
        Dimension, must be positive.
    gram : array_like or None
        The dim finite, positive diagonal entries g of G; None means the
        identity.  Anything else raises ValueError.

    Attributes
    ----------
    gram : ndarray
        The read-only diagonal g.
    """

    def __init__(self, name, dim, gram=None):
        if dim <= 0:
            raise ValueError("space dimension must be positive, got %r" % dim)
        self.name = str(name)
        self.dim = int(dim)
        g = np.ones(self.dim) if gram is None else np.array(gram, dtype=float)
        if g.shape != (self.dim,):
            raise ValueError("gram of space %r must be a vector of %d "
                             "diagonal entries, got shape %r"
                             % (self.name, self.dim, g.shape))
        if not np.all(np.isfinite(g) & (g > 0.0)):
            raise ValueError("gram of space %r must have finite positive "
                             "entries" % self.name)
        g.flags.writeable = False
        self.gram = g
        # the Cholesky factor of a diagonal gram is the square root of its
        # diagonal, and every solve with it is a division
        self._chol = np.sqrt(g)
        self._chol.flags.writeable = False

    def apply_gram(self, coords):
        """Return G x for a coordinate vector or a (dim, k) matrix."""
        coords = np.asarray(coords, dtype=float)
        # C order, so that reductions over the result (the row dots of
        # quadratic_form) sum in the order of a dense product
        return np.multiply(self._diag_rows(self.gram, coords), coords,
                           order="C")

    def quadratic_form(self, coords):
        """Return x' G x for a coordinate vector, or per row of a (k, dim) stack."""
        coords = np.asarray(coords, dtype=float)
        return _row_dots(coords, self.apply_gram(coords.T).T)

    def apply_gram_inverse(self, coords):
        """Return G^-1 phi for a coordinate array."""
        return self._factor_solve(self._factor_solve(coords))

    @staticmethod
    def _diag_rows(d, coords):
        # a diagonal shaped to scale the rows of coords
        return d.reshape((-1,) + (1,) * (coords.ndim - 1))

    def _factor_solve(self, coords):
        """Solve L y = x for y, L = sqrt(G)."""
        coords = np.asarray(coords, dtype=float)
        return coords / self._diag_rows(self._chol, coords)

    def _factor_apply(self, coords):
        """Return L x, L = sqrt(G)."""
        return coords * self._diag_rows(self._chol, coords)

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
    # the same object, or the same dimension and gram: an l2 element passed
    # to an h-weighted L2 space of the same dimension fails here
    if x.space is not space and not np.array_equal(x.space.gram, space.gram):
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
    m = F.domain.apply_gram_inverse(F.codomain.apply_gram(F.matrix).T)
    return LinearMap(m, domain=F.codomain, codomain=F.domain,
                     compact_flag=F.compact_flag)


def singular_triplets(F, compute_uv=True):
    """Singular value decomposition in the gram-induced geometry.

    Computes the SVD of C = L_cod M L_dom^-1 where L = sqrt(G) are the
    square roots of the two diagonal grams.  Returns a list of triplets
    (sigma, left, right) sorted by descending sigma with

        F(right) = sigma * left,   |right|_dom = |left|_cod = 1.

    The list has min(domain.dim, codomain.dim) entries.

    With ``compute_uv=False`` (as in ``np.linalg.svd``) only the singular
    values of the same C are computed: the result is their descending
    1-D ndarray of length min(domain.dim, codomain.dim), with no vectors
    formed and none un-whitened.
    """
    # the columns of M divided by sqrt(g_dom), then its rows scaled by
    # sqrt(g_cod)
    c = F.codomain._factor_apply(F.matrix / F.domain._chol)
    if not compute_uv:
        return np.linalg.svd(c, compute_uv=False)
    u, s, wt = np.linalg.svd(c, full_matrices=False)
    lefts = F.codomain._factor_solve(u)
    rights = F.domain._factor_solve(wt.T)
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
