"""Uniform tensor grids with node-centered unknowns and staggered fluxes.

Scalar unknowns live on the interior nodes of a box domain and carry a
homogeneous Dirichlet boundary (the boundary layer is never stored).  Flux
components live on the faces between consecutive nodes along each axis,
including the two half-faces touching the boundary.  With trapezoidal
quadrature weights this makes the discrete divergence the exact negative
adjoint of the discrete gradient,

    inner(divergence(q), v) == -inner_vec(q, gradient(v)),

so `-divergence(gradient(u))` is the standard (2d+1)-point Dirichlet
Laplacian and monotonicity arguments carry over to the grid verbatim.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from pathlib import Path

import numpy as np


class ConvergenceError(RuntimeError):
    """Iteration failed to reach tolerance.  Carries the last iterate.

    `residuals` is the residual-norm history of the failed solve.  When the
    failure happens inside a time step, the march sets the step number
    `step`, its time `t` and the partial `EvolutionTrace` as `trace`;
    otherwise they stay None.
    """

    def __init__(self, message, last=None, *, residuals=None):
        super().__init__(message)
        self.last = last
        self.residuals = list(residuals) if residuals is not None else []
        self.step = self.t = self.trace = None


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box (0, L_1) x ... x (0, L_N) split into uniform cells.

    The derived geometry (spacing, shapes, weights) is computed on first
    use and then kept on the instance; equality, hashing and the grid
    caches keyed on a domain still read the three fields alone.  The hash
    is the generated one, the hash of the field tuple, computed once: the
    grid caches hash their domain on every lookup.
    """

    dim: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(x) for x in self.lengths))
        object.__setattr__(self, "cells", tuple(int(n) for n in self.cells))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if len(self.lengths) != self.dim or len(self.cells) != self.dim:
            raise ValueError("lengths and cells must match dim")
        if any(L <= 0 for L in self.lengths):
            raise ValueError("lengths must be positive")
        if any(n < 2 for n in self.cells):
            raise ValueError("need at least 2 cells per axis")

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.cells))

    @cached_property
    def interior_shape(self) -> tuple[int, ...]:
        return tuple(n - 1 for n in self.cells)

    @cached_property
    def interior_count(self) -> int:
        return int(np.prod(self.interior_shape))

    @cached_property
    def node_weight(self) -> float:
        """Quadrature weight carried by every interior node."""
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def _face_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            self.interior_shape[:a] + (n,) + self.interior_shape[a + 1 :]
            for a, n in enumerate(self.cells)
        )

    def face_shape(self, axis: int) -> tuple[int, ...]:
        return self._face_shapes[axis]

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self.lengths, self.cells))

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=64)
def node_coordinates(domain: BoxDomain) -> tuple[np.ndarray, ...]:
    """Open (broadcastable) meshgrid of interior node positions."""
    axes = [h * np.arange(1, n) for h, n in zip(domain.spacing, domain.cells)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@lru_cache(maxsize=64)
def face_coordinates(domain: BoxDomain, axis: int) -> tuple[np.ndarray, ...]:
    """Open meshgrid of face positions for one flux component.

    Along `axis` the positions are the cell midpoints (k + 1/2) h; along
    every other axis they coincide with the interior nodes.
    """
    axes = []
    for a, (h, n) in enumerate(zip(domain.spacing, domain.cells)):
        if a == axis:
            axes.append(h * (np.arange(n) + 0.5))
        else:
            axes.append(h * np.arange(1, n))
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@dataclass(frozen=True)
class GridFunction:
    """Real field on the interior nodes of a box, zero on the boundary."""

    domain: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.domain.interior_shape:
            raise ValueError(
                f"values shape {vals.shape} does not match interior "
                f"shape {self.domain.interior_shape}"
            )
        object.__setattr__(self, "values", vals)

    def copy(self) -> "GridFunction":
        return GridFunction(self.domain, self.values.copy())

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_domain(self, other)
        return GridFunction(self.domain, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_domain(self, other)
        return GridFunction(self.domain, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.domain, self.values * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.domain, -self.values)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass(frozen=True)
class VectorField:
    """Flux field with one staggered component per axis."""

    domain: BoxDomain
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(np.asarray(c, dtype=float) for c in self.components)
        if len(comps) != self.domain.dim:
            raise ValueError("component count must equal the dimension")
        for a, c in enumerate(comps):
            if c.shape != self.domain.face_shape(a):
                raise ValueError(
                    f"component {a} has shape {c.shape}, expected "
                    f"{self.domain.face_shape(a)}"
                )
        object.__setattr__(self, "components", comps)

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        return VectorField(
            self.domain,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        if self.domain != other.domain:
            raise ValueError("domain mismatch")
        return VectorField(
            self.domain,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __mul__(self, c: float) -> "VectorField":
        return VectorField(self.domain, tuple(v * float(c) for v in self.components))

    __rmul__ = __mul__


def _check_same_domain(u: GridFunction, v: GridFunction) -> None:
    if u.domain is not v.domain and u.domain != v.domain:
        raise ValueError("grid functions live on different domains")


def zeros(domain: BoxDomain) -> GridFunction:
    return GridFunction(domain, np.zeros(domain.interior_shape))


def sample(domain: BoxDomain, fn) -> GridFunction:
    """Sample `fn(coords)` at the interior nodes; coords is a meshgrid tuple."""
    vals = np.broadcast_to(fn(node_coordinates(domain)), domain.interior_shape)
    return GridFunction(domain, np.array(vals, dtype=float))


def _face_differences(domain: BoxDomain, v: np.ndarray) -> tuple[np.ndarray, ...]:
    """The components of `gradient` of the node values v as plain face arrays."""
    comps = []
    for a, h in enumerate(domain.spacing):
        out = np.empty(domain.face_shape(a))
        head = (slice(None),) * a
        first, last = head + (slice(None, 1),), head + (slice(-1, None),)
        np.subtract(v[head + (slice(1, None),)], v[head + (slice(None, -1),)],
                    out=out[head + (slice(1, -1),)])
        out[first] = v[first]
        np.subtract(0.0, v[last], out=out[last])
        out /= h
        comps.append(out)
    return tuple(comps)


def gradient(u: GridFunction) -> VectorField:
    """Staggered first differences with zero boundary ghosts.

    Component a at face k+1/2 is (u_{k+1} - u_k)/h_a, second-order accurate
    at the face midpoint.  The two boundary faces difference against the
    zero ghosts, written as v_0 - 0 and 0 - v_last so that signed zeros
    come out as in a padded difference.
    """
    return VectorField(u.domain, _face_differences(u.domain, u.values))


def divergence(q: VectorField) -> GridFunction:
    """Discrete divergence; exact negative adjoint of `gradient`."""
    return GridFunction(q.domain, _divergence_values(q.domain, q.components))


def _divergence_values(domain: BoxDomain, comps) -> np.ndarray:
    """The node values of `divergence` of the plain face arrays comps."""
    out = np.zeros(domain.interior_shape)
    diff = np.empty_like(out)
    for a, (comp, h) in enumerate(zip(comps, domain.spacing)):
        head = (slice(None),) * a
        np.subtract(comp[head + (slice(1, None),)], comp[head + (slice(None, -1),)],
                    out=diff)
        diff /= h
        out += diff
    return out


def inner(u: GridFunction, v: GridFunction) -> float:
    """Quadrature-weighted L2 pairing of two node fields."""
    _check_same_domain(u, v)
    return u.domain.node_weight * float(np.vdot(u.values, v.values))


def inner_vec(p: VectorField, q: VectorField) -> float:
    """L2 pairing of two flux fields (same face weights as `inner`)."""
    if p.domain is not q.domain and p.domain != q.domain:
        raise ValueError("vector fields live on different domains")
    return p.domain.node_weight * _face_sum(p.components, q.components)


def _face_sum(p: tuple[np.ndarray, ...], q: tuple[np.ndarray, ...]) -> float:
    """sum_a vdot(p_a, q_a), the unweighted pairing of `inner_vec`."""
    return float(sum(np.vdot(a, b) for a, b in zip(p, q)))


def gradient_sq(u: GridFunction) -> float:
    """|grad u|^2, the same number as inner_vec(gradient(u), gradient(u)).

    The same face arrays and dot products, without building the VectorField.
    """
    comps = _face_differences(u.domain, u.values)
    return u.domain.node_weight * _face_sum(comps, comps)


def norm_l2(u: GridFunction) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def norm_h1(u: GridFunction) -> float:
    """H1 seminorm: L2 norm of the staggered gradient."""
    return float(np.sqrt(max(gradient_sq(u), 0.0)))


def laplacian(u: GridFunction) -> GridFunction:
    """Positive Dirichlet Laplacian, -div(grad u)."""
    g = gradient(u)
    return GridFunction(u.domain, -divergence(g).values)


@lru_cache(maxsize=64)
def laplacian_symbol(domain: BoxDomain) -> np.ndarray:
    """Eigenvalues of the discrete Dirichlet Laplacian on the sine basis, read-only."""
    axes = []
    for h, n in zip(domain.spacing, domain.cells):
        k = np.arange(1, n)
        axes.append((4.0 / h**2) * np.sin(k * np.pi / (2 * n)) ** 2)
    sym = reduce(np.add.outer, axes) if len(axes) > 1 else axes[0]
    sym.flags.writeable = False
    return sym


def smallest_eigenvalue_exact(domain: BoxDomain) -> float:
    """Closed-form smallest eigenvalue of the discrete Dirichlet Laplacian."""
    return float(
        sum(
            (4.0 / h**2) * np.sin(np.pi / (2 * n)) ** 2
            for h, n in zip(domain.spacing, domain.cells)
        )
    )


# Longest axis whose sine transform is a dense matmul.  Measured per
# helmholtz_solve call on m x m grids (one BLAS thread), the dense transform
# beats scipy.fft up to m = 127 and loses at m = 255.
_DENSE_SINE_MAX = 127


@lru_cache(maxsize=64)
def _sine_matrix(m: int) -> np.ndarray:
    """Orthonormal DST-I matrix S[j, k] = sqrt(2/(m+1)) sin(pi j k/(m+1)), read-only.

    S is symmetric and its own inverse.  j k is reduced modulo 2 (m+1) in
    integers first, so every sine argument lies in [0, 2 pi) and carries no
    rounding error from a large product.
    """
    k = np.arange(1, m + 1)
    phase = np.outer(k, k) % (2 * (m + 1))
    S = np.sqrt(2.0 / (m + 1)) * np.sin(phase * (np.pi / (m + 1)))
    S.flags.writeable = False
    return S


def _sine_transform(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along every axis of `x`; its own inverse.

    An axis of at most `_DENSE_SINE_MAX` points is transformed by one
    matmul with the cached sine matrix, which at these lengths costs less
    than an FFT call's overhead; a longer axis goes through scipy.fft.
    """
    shape = x.shape
    for a, m in enumerate(shape):
        if m > _DENSE_SINE_MAX:
            import scipy.fft

            x = scipy.fft.dst(x, type=1, axis=a, norm="ortho")
        elif a == len(shape) - 1:
            x = (x.reshape(-1, m) @ _sine_matrix(m)).reshape(shape)
        else:
            before = math.prod(shape[:a])
            x = (_sine_matrix(m) @ x.reshape(before, m, -1)).reshape(shape)
    return x


@lru_cache(maxsize=16)
def _inverse_symbol(domain: BoxDomain, shift: float, scale: float) -> np.ndarray:
    """1 / (shift + scale * laplacian_symbol(domain)), read-only."""
    inv = 1.0 / (shift + scale * laplacian_symbol(domain))
    inv.flags.writeable = False
    return inv


def helmholtz_solve(
    domain: BoxDomain, rhs: np.ndarray, shift: float, scale: float = 1.0
) -> np.ndarray:
    """Solve (shift*I + scale*(-Laplacian)) x = rhs by sine-transform diagonalization.

    The sine basis diagonalizes the Dirichlet Laplacian, so x = S(S(rhs) /
    symbol) with S the orthonormal DST-I along every axis (`_sine_transform`:
    a dense matmul per axis of at most `_DENSE_SINE_MAX` points, scipy.fft
    beyond) and 1/symbol cached per (domain, shift, scale).  Exact up to
    roundoff on the uniform grid; used directly for constant-coefficient
    solves and as the preconditioner everywhere else.

    A 2D grid with both axes dense is one chain, S0 ((S0 rhs S1) / symbol)
    S1 with S0, S1 the sine matrices of the two axes: the four matmuls of
    the per-axis transforms, in their order, so the result is bit for bit
    the same without the per-axis reshapes.
    """
    inv = _inverse_symbol(domain, shift, scale)
    if rhs.ndim == 2 and max(rhs.shape) <= _DENSE_SINE_MAX:
        S0, S1 = _sine_matrix(rhs.shape[0]), _sine_matrix(rhs.shape[1])
        return S0 @ ((S0 @ rhs @ S1) * inv) @ S1
    return _sine_transform(_sine_transform(rhs) * inv)


def poincare_constant(domain: BoxDomain) -> float:
    """Discrete Poincare constant 1/lambda_1 of the Dirichlet Laplacian.

    lambda_1 is the closed-form smallest eigenvalue (the lowest sine mode
    along every axis), so no eigenvalue iteration is needed.
    """
    return 1.0 / smallest_eigenvalue_exact(domain)


_BINARY_MAGIC = b"GFB1"


def save_grid_function(path, u: GridFunction) -> Path:
    """Write a grid function to disk, in the format the path's suffix picks.

    csv (any suffix but .bin and .gfb): a text header (dim, cells, lengths)
    followed by row-major values, one per line.  bin (.bin or .gfb): the
    same header packed as int64/float64 followed by raw little-endian
    float64 values.
    """
    path = Path(path)
    d = u.domain
    if path.suffix not in (".bin", ".gfb"):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"dim,{d.dim}\n")
            f.write("cells," + ",".join(str(n) for n in d.cells) + "\n")
            f.write("lengths," + ",".join(repr(L) for L in d.lengths) + "\n")
            for x in u.values.ravel(order="C"):
                f.write(repr(float(x)) + "\n")
    else:
        with open(path, "wb") as f:
            f.write(_BINARY_MAGIC)
            f.write(struct.pack("<q", d.dim))
            f.write(struct.pack(f"<{d.dim}q", *d.cells))
            f.write(struct.pack(f"<{d.dim}d", *d.lengths))
            f.write(u.values.astype("<f8").tobytes(order="C"))
    return path


def load_grid_function(path) -> GridFunction:
    """Read a grid function written by `save_grid_function`."""
    path = Path(path)
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == _BINARY_MAGIC:
        with open(path, "rb") as f:
            f.read(4)
            (dim,) = struct.unpack("<q", f.read(8))
            cells = struct.unpack(f"<{dim}q", f.read(8 * dim))
            lengths = struct.unpack(f"<{dim}d", f.read(8 * dim))
            domain = BoxDomain(dim, lengths, cells)
            count = domain.interior_count
            vals = np.frombuffer(f.read(8 * count), dtype="<f8", count=count)
        return GridFunction(domain, vals.reshape(domain.interior_shape))
    lines = path.read_text(encoding="utf-8").splitlines()
    header = {}
    for line in lines[:3]:
        key, _, rest = line.partition(",")
        header[key] = rest.split(",")
    dim = int(header["dim"][0])
    cells = tuple(int(x) for x in header["cells"])
    lengths = tuple(float(x) for x in header["lengths"])
    domain = BoxDomain(dim, lengths, cells)
    vals = np.array([float(x) for x in lines[3:] if x.strip()], dtype=float)
    return GridFunction(domain, vals.reshape(domain.interior_shape))
