"""Generators for the benchmark measure families used in tests and the CLI.

Families:

* ``discrete_k(k)``      -- k columns: mu on (i/(k-1), 0), nu split to (i/(k-1), +-1)
* ``continuous_grid(n)`` -- n-column discretisation of the uniform-on-a-segment pair
* ``mixed_k(k)``         -- discrete_k's mu averaged with a point mass at the center
* ``gaussian_grid(n)``   -- grid-discretised Gaussian dilated by a corner-spread kernel
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter
from .measures import DiscreteMeasure, barycenter

FAMILIES = ("discrete_k", "continuous_grid", "mixed_k", "gaussian_grid")


def _columns(xs: np.ndarray):
    """Equal atoms (t, 0), each split evenly to (t, +-1), for t in xs."""
    k = xs.size
    mu = DiscreteMeasure([[t, 0.0] for t in xs], [1.0 / k] * k)
    nu = DiscreteMeasure([[t, s] for t in xs for s in (1.0, -1.0)], [0.5 / k] * (2 * k))
    return mu, nu


def discrete_k(k: int):
    """mu^k with k atoms of weight 1/k on the segment, nu^k with 2k atoms
    of weight 1/(2k) on the top and bottom edges."""
    if k < 2:
        raise InvalidParameter("discrete_k requires k >= 2")
    return _columns(np.array([i / (k - 1) for i in range(k)]))


def continuous_grid(n: int = 10):
    """Uniform on (0,1) x {0} vs uniform on (0,1) x {-1,1}, discretised
    to n equally weighted columns at the column midpoints."""
    if n < 1:
        raise InvalidParameter("continuous_grid requires n >= 1")
    return _columns(np.array([(i + 0.5) / n for i in range(n)]))


def mixed_k(k: int):
    """(mu^k + delta_center) / 2 against nu^k; the center atom spreads its
    mass across the whole rectangle."""
    mu_k, nu = discrete_k(k)
    pts = np.vstack([mu_k.points, [[0.5, 0.0]]])
    weights = np.concatenate([mu_k.weights / 2.0, [0.5]])
    mu = DiscreteMeasure(pts, weights)  # odd k merges the two center atoms
    return mu, nu


def gaussian_grid(n: int = 5):
    """Standard-Gaussian weights on the n x n unit grid, recentered; nu
    is the image of mu under the corner-spread dilation kernel
    gamma(x, .) = 1/4 sum over (+-1, +-1) of delta_{x + (.,.)},
    which certifies both the convex order and full-dimensional spreading.
    """
    if n < 2 or n % 2 == 0:
        raise InvalidParameter("gaussian_grid requires an odd n >= 3")
    half = n // 2
    axis = np.arange(-half, half + 1.0)
    pts = np.array([[a, b] for a in axis for b in axis])
    w = np.exp(-0.5 * np.sum(pts**2, axis=1))
    w /= w.sum()
    mu = DiscreteMeasure(pts, w)
    center = barycenter(mu)
    mu = DiscreteMeasure(mu.points - center, mu.weights)
    corners = np.array([[s1, s2] for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)])
    nu_pts = (mu.points[:, None, :] + corners[None, :, :]).reshape(-1, 2)
    nu_w = np.repeat(mu.weights / 4.0, 4)
    nu = DiscreteMeasure(nu_pts, nu_w)  # coincident corners merge
    return mu, nu


# each family's builder, the one parameter it reads and that parameter's default
_MAKERS = {
    "discrete_k": (discrete_k, "k", 2),
    "continuous_grid": (continuous_grid, "grid", 10),
    "mixed_k": (mixed_k, "k", 3),
    "gaussian_grid": (gaussian_grid, "grid", 5),
}


def make(name: str, **params):
    """The pair of the family ``name``, sized by the one parameter it
    reads (``k`` or ``grid``, as in ``_MAKERS``).  An unknown family, or
    a parameter the family does not read, raises InvalidParameter."""
    if name not in _MAKERS:
        raise InvalidParameter(f"unknown example family {name!r}; pick from {FAMILIES}")
    build, key, default = _MAKERS[name]
    other = sorted(set(params) - {key})
    if other:
        raise InvalidParameter(f"{name} is sized by {key!r} only, not by {', '.join(other)}")
    return build(int(params.get(key, default)))
