"""Labeled-basis linear algebra for small optical mode spaces.

States are complex amplitude vectors over an explicitly labeled mode basis
(polarization rails, interferometer paths, or tensor products of those).
Keeping the labels on the objects makes it impossible to silently apply an
element to the wrong rails, which is the main failure mode when composing
interferometer networks by hand.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Union

import numpy as np

Label = Union[str, tuple]

#: default absolute tolerance for algebraic identities (norms, unitarity)
ATOL = 1e-12
#: eigenvalues of a density matrix may dip this far below zero numerically
EIGEN_ATOL = 1e-10


def _as_tuple(label: Label) -> tuple:
    return label if isinstance(label, tuple) else (label,)


def is_isometry(matrix: np.ndarray) -> bool:
    """True when the columns of ``matrix`` are orthonormal to ``ATOL``.

    The test is absolute, ``max|M^H M - I| <= ATOL``; ``np.allclose`` would
    add a relative slack of 1e-5 on the unit diagonal.
    """
    gram = matrix.conj().T @ matrix
    gram.flat[:: len(gram) + 1] -= 1.0  # subtract the identity in place
    return float(np.abs(gram).max()) <= ATOL


@dataclass(frozen=True)
class ModeBasis:
    """Ordered set of distinguishable mode labels.

    ``factors`` remembers the tensor factorization when the basis was built
    as a product, which is what makes partial traces well defined.
    """

    labels: tuple[Label, ...]
    factors: tuple["ModeBasis", ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise ValueError("basis needs at least one mode")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("mode labels must be unique")
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index(self, label: Label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in basis") from None

    def __contains__(self, label: Label) -> bool:
        return label in self.labels


def product_basis(a: ModeBasis, b: ModeBasis) -> ModeBasis:
    """Cartesian-product basis with flat tuple labels.

    Labels of nested products are flattened, so ``(a*b)*c`` and ``a*(b*c)``
    produce identical label orderings.
    """
    tails = [_as_tuple(y) for y in b.labels]
    labels = tuple(head + tail for head in map(_as_tuple, a.labels) for tail in tails)
    factors = (a.factors or (a,)) + (b.factors or (b,))
    return ModeBasis(labels, factors)


@dataclass(frozen=True)
class PureState:
    """Normalized (or explicitly checked) amplitude vector over a ModeBasis."""

    basis: ModeBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"expected {self.basis.dimension} amplitudes, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        n = self.norm()
        if n < 1e-9:
            raise ValueError("cannot normalize a (near) zero vector")
        return PureState(self.basis, self.amplitudes / n)

    def amplitude(self, label: Label) -> complex:
        return complex(self.amplitudes[self.basis.index(label)])

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def probability(self, label: Label) -> float:
        return float(abs(self.amplitudes[self.basis.index(label)]) ** 2)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator over a ModeBasis."""

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        d = self.basis.dimension
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
        # written as "not <=" so that NaN entries fail too
        if not np.abs(m - m.conj().T).max() <= ATOL:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-9:
            raise ValueError(f"trace must be 1, got {np.trace(m).real}")
        if np.min(np.linalg.eigvalsh(m)) < -EIGEN_ATOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; amplitude of (i, j) is a_i * b_j."""
    return PureState(
        product_basis(a.basis, b.basis), np.kron(a.amplitudes, b.amplitudes)
    )


def apply_unitary(
    state: PureState,
    matrix: np.ndarray,
    modes_in: Sequence[Label],
    modes_out: Sequence[Label] | None = None,
) -> PureState:
    """Apply a (sub-space) unitary or isometry to the named modes.

    When ``modes_out`` differs from ``modes_in`` the element changes the
    basis (e.g. injecting a polarization state into a path basis); that is
    only supported when ``modes_in`` spans the whole current basis.

    Args:
        state: input state.
        matrix: len(modes_out) x len(modes_in) isometry (columns orthonormal).
        modes_in: labels the columns act on; must exist in ``state.basis``.
        modes_out: labels of the rows; defaults to ``modes_in``.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    modes_in = tuple(modes_in)
    modes_out = modes_in if modes_out is None else tuple(modes_out)
    if m.shape != (len(modes_out), len(modes_in)):
        raise ValueError(f"matrix shape {m.shape} does not match mode counts")
    if not is_isometry(m):
        raise ValueError("matrix is not an isometry (columns not orthonormal)")
    amps, basis = _apply(state.amplitudes.copy(), state.basis, m, modes_in, modes_out)
    return PureState(basis, amps)


def _apply(
    amps: np.ndarray,
    basis: ModeBasis,
    matrix: np.ndarray,
    modes_in: tuple[Label, ...],
    modes_out: tuple[Label, ...],
) -> tuple[np.ndarray, ModeBasis]:
    """Apply an already checked ``matrix`` to the rows of ``amps`` it names.

    ``amps`` is one amplitude vector or a block of column vectors whose rows
    follow ``basis``; rows are updated in place unless the element changes
    the basis.  Only the routing is checked here.  Returns the new
    amplitudes and their basis.
    """
    if modes_out == modes_in:
        idx = [basis.index(lab) for lab in modes_in]
        amps[idx] = matrix @ amps[idx]
        return amps, basis
    if set(modes_in) != set(basis.labels):
        raise ValueError("basis-changing elements must consume the whole basis")
    order = [basis.index(lab) for lab in modes_in]
    return matrix @ amps[order], ModeBasis(modes_out)


def measure_distribution(
    state: PureState | DensityMatrix,
    groups: Sequence[Sequence[Label]] | None = None,
) -> np.ndarray:
    """Born-rule probabilities for groups of output labels.

    Args:
        state: pure state or density matrix.
        groups: disjoint label groups; default is one group per basis label.

    Returns:
        One probability per group (sums to 1 when the groups cover the basis).
    """
    per_label = (
        state.probabilities()
        if isinstance(state, PureState)
        else np.real(np.diag(state.matrix))
    )
    if groups is None:
        return per_label.copy()
    seen: set[Label] = set()
    out = np.empty(len(groups))
    for k, group in enumerate(groups):
        idx = [state.basis.index(lab) for lab in group]
        if seen.intersection(group):
            raise ValueError("measurement groups must be disjoint")
        seen.update(group)
        out[k] = per_label[idx].sum()
    return out


def pure_density(state: PureState) -> DensityMatrix:
    return DensityMatrix(state.basis, np.outer(state.amplitudes, state.amplitudes.conj()))


def mix(pairs: Iterable[tuple[PureState, float]]) -> DensityMatrix:
    """Classical mixture of pure states with the given weights.

    Weights must be non-negative and sum to 1 within tolerance; all states
    must share one basis.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("mixture needs at least one component")
    basis = pairs[0][0].basis
    weights = np.array([w for _, w in pairs], dtype=float)
    if np.any(weights < -ATOL):
        raise ValueError("mixture weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights must sum to 1, got {weights.sum()}")
    rho = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    for state, w in pairs:
        if state.basis.labels != basis.labels:
            raise ValueError("all mixture components must share one basis")
        rho += w * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(basis, rho)


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced state of one tensor factor of a product-basis density matrix.

    Args:
        rho: state over a basis built with :func:`product_basis`.
        keep: index of the factor to keep (0-based).
    """
    factors = rho.basis.factors
    if factors is None:
        raise ValueError("basis has no tensor factorization; cannot trace")
    if not 0 <= keep < len(factors):
        raise IndexError(f"keep={keep} out of range for {len(factors)} factors")
    dims = [f.dimension for f in factors]
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # contract factors in descending index order so lower indices stay valid
    for k in reversed([i for i in range(n) if i != keep]):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    return DensityMatrix(factors[keep], t)
