"""Labeled-basis linear algebra for small optical mode spaces.

States are complex amplitude vectors over an explicitly labeled mode basis
(polarization rails, interferometer paths, or tensor products of those).
Keeping the labels on the objects makes it impossible to silently apply an
element to the wrong rails, which is the main failure mode when composing
interferometer networks by hand.

States, density matrices and element matrices may carry leading batch axes:
amplitudes of shape ``(..., dim)`` hold one state per setting of a sweep,
and every check runs on the whole batch at once.  Methods that return one
number (``norm``, ``amplitude``, ``purity``, ...) need a single state.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain, product
from typing import NamedTuple, Union

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
    add a relative slack of 1e-5 on the unit diagonal.  A stack of matrices,
    shape ``(..., rows, cols)``, passes only when every one of them does;
    its Gram matrices are one ``vecdot`` over the rows, where a stacked
    ``@`` would make one BLAS call per matrix.  Integer and boolean input is
    taken as float64; floating and complex input is used as it is.
    """
    matrix = np.asarray(matrix)
    if matrix.dtype.kind in "biu":  # the identity is subtracted in place below
        matrix = matrix.astype(np.float64)
    gram = np.vecdot(matrix[..., :, :, None], matrix[..., :, None, :], axis=-3)
    gram -= _identity(gram.shape[-1])
    return float(np.abs(gram).max()) <= ATOL


@cache
def _identity(n: int) -> np.ndarray:
    """The read-only ``n x n`` identity that :func:`is_isometry` subtracts."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _trusted(cls, **fields):
    """An instance of ``cls`` holding ``fields`` as given, each ndarray frozen in place,
    without ``__init__``: nothing is copied or checked again.  Only for the fields its
    constructor would set, of their types, held by nothing else, which a check has just
    passed; each call site names that check."""
    obj = object.__new__(cls)
    for value in fields.values():
        if type(value) is np.ndarray:
            value.setflags(write=False)
    obj.__dict__.update(fields)
    return obj


_FLOAT64 = np.dtype(np.float64)


def as_values(x):
    """``x`` as float64: an array, or a numpy scalar when ``x`` is one number.

    Numpy scalars keep the array interface (``shape``, ``[..., None]``,
    ``any()``) but do arithmetic several times faster than 0-d arrays,
    which is most of the cost of a single-setting call.  A float64 numpy
    scalar or float64 array of at least one axis is already such a value
    and comes back as the same object, after only a type test, so values
    normalized once at a public entry cost nothing to pass on.  Anything
    else (numbers, lists, integer or 0-d arrays) is converted.
    """
    kind = type(x)
    if kind is np.float64 or (kind is np.ndarray and x.dtype is _FLOAT64 and x.ndim):
        return x
    if kind is float:
        return np.float64(x)
    return np.asarray(x, dtype=float)[()]


def broadcast_values(*values) -> list:
    """:func:`as_values` of every argument, broadcast to one shape.

    When every argument is one number, they stay numpy scalars.  Values of
    one shape come back as they are, as from :func:`as_values`.
    """
    xs = list(map(as_values, values))
    shape = xs[0].shape
    for x in xs:
        if x.shape != shape:
            shape = np.broadcast(*xs).shape
            return [x if x.shape == shape else np.broadcast_to(x, shape) for x in xs]
    return xs


def stack_last(parts) -> np.ndarray:
    """Equally shaped arrays stacked along a new last axis (a view).

    Same result as ``np.stack(parts, axis=-1)``, at a fraction of its call
    overhead on the small arrays of a single setting.
    """
    m = np.array(parts)
    return m.transpose(*range(1, m.ndim), 0)


class ByValue:
    """Value semantics for a frozen dataclass that holds arrays (its dataclass
    takes ``eq=False``).

    It compares and hashes by its fields' values, an array by its shape and
    values.  Pickling and copying run through its constructor: restoring
    ``__dict__`` alone would skip ``__post_init__``, its checks and the
    read-only copies of the arrays it holds.
    """

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f.name) for f in fields(self))

    def _values(self) -> tuple:
        return tuple((v.shape, tuple(v.ravel().tolist())) if isinstance(v, np.ndarray) else v
                     for v in self.__reduce__()[1])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class ModeBasis:
    """Ordered set of distinguishable mode labels, immutable.

    ``factors`` remembers the tensor factorization when the basis was built
    as a product, which is what makes partial traces well defined.  A basis
    made by :func:`product_basis` is defined by its factors: ``dimension``,
    :meth:`index` (mixed radix over the factors), ``in`` and ``==`` are
    computed from them, and ``labels`` are built on each read, never
    stored, so an n-photon basis holds no ``4**n`` tuples.  Two bases are
    equal when their labels are, in order.
    """

    def __init__(self, labels: Iterable[Label], factors: tuple | None = None) -> None:
        labels = tuple(labels)
        if len(labels) == 0:
            raise ValueError("basis needs at least one mode")
        if len(set(labels)) != len(labels):
            raise ValueError("mode labels must be unique")
        vars(self).update(_labels=labels, _radix=None, factors=factors, dimension=len(labels))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a ModeBasis")

    @property
    def labels(self) -> tuple[Label, ...]:
        if self._labels is not None:
            return self._labels
        return _product_labels([tuple(lookup) for lookup, _ in self._radix])

    def index(self, label: Label) -> int:
        if self._radix is None:
            try:
                return self._labels.index(label)
            except ValueError:
                raise KeyError(f"label {label!r} not in basis") from None
        i = start = 0
        try:  # each factor's part of the label, a tuple slice, is a key of its lookup
            for lookup, width in self._radix:
                i = i * len(lookup) + lookup[label[start:start + width]]
                start += width
            if start != len(label):
                raise KeyError
        except (KeyError, TypeError):  # TypeError: no sequence, or an unhashable part
            raise KeyError(f"label {label!r} not in basis") from None
        return i

    def __contains__(self, label: Label) -> bool:
        try:
            self.index(label)
        except KeyError:
            return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModeBasis):
            return NotImplemented
        # equal flat factors give equal labels; any other pair compares its labels
        if self is other or (self._radix is not None and self._radix == other._radix):
            return True
        return self.dimension == other.dimension and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        if self._radix is None:
            return f"ModeBasis(labels={self._labels!r}, factors={self.factors!r})"
        return f"ModeBasis(factors={self.factors!r})"


def _product_labels(flats: list) -> tuple:
    """Flat tuple labels of a product, row-major over each factor's flat labels."""
    return tuple(tuple(chain.from_iterable(parts)) for parts in product(*flats))


def product_basis(a: ModeBasis, b: ModeBasis) -> ModeBasis:
    """Cartesian-product basis with flat tuple labels.

    Labels of nested products are flattened, so ``(a*b)*c`` and ``a*(b*c)``
    produce identical label orderings.  When every factor's flat labels are
    unique and of one length, the product's are unique by construction and
    the basis keeps only its factors; otherwise its labels are built and
    checked.
    """
    factors = (a.factors or (a,)) + (b.factors or (b,))
    flats = [[_as_tuple(x) for x in f.labels] for f in factors]
    radix = []
    for flat in flats:
        lookup, widths = dict(zip(flat, range(len(flat)))), {len(x) for x in flat}
        if len(widths) > 1 or len(lookup) < len(flat):  # ragged or colliding flat labels
            return ModeBasis(_product_labels(flats), factors)
        radix.append((lookup, widths.pop()))
    # each factor's flat labels passed the loop above: unique, of one length, so the
    # product's are unique; ``radix`` holds each factor's lookup and width
    dimension = math.prod(len(lookup) for lookup, _ in radix)
    return _trusted(ModeBasis, _labels=None, _radix=tuple(radix), factors=factors,
                    dimension=dimension)


@dataclass(frozen=True, eq=False)
class PureState(ByValue):
    """Amplitude vector over a ModeBasis, or a batch of them, shape ``(..., dim)``.

    States compare and hash by basis and amplitudes (:class:`ByValue`); hashing
    a :func:`product_basis` state builds its basis labels once per call.
    """

    basis: ModeBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=np.complex128, order="C")
        if amps.shape[-1:] != (self.basis.dimension,):
            raise ValueError(
                f"expected {self.basis.dimension} amplitudes, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes, axis=-1))  # raises for a batch

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


@dataclass(frozen=True, eq=False)
class DensityMatrix(ByValue):
    """Hermitian, unit-trace, positive-semidefinite operator over a ModeBasis.

    ``matrix`` is one ``(dim, dim)`` operator or a batch, ``(..., dim, dim)``;
    every check must hold for every member of the batch.  Matrices compare and
    hash by value, as :class:`PureState` does.
    """

    basis: ModeBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        d = self.basis.dimension
        if m.shape[-2:] != (d, d):
            raise ValueError(f"expected {d}x{d} matrix, got {m.shape}")
        # written as "not <=" so that NaN entries fail too
        if not np.abs(m - np.swapaxes(m.conj(), -1, -2)).max() <= ATOL:
            raise ValueError("density matrix must be Hermitian")
        trace = m.trace(axis1=-2, axis2=-1).real
        bad = np.abs(trace - 1.0) > 1e-9
        if bad.any():
            raise ValueError(f"trace must be 1, got {trace[bad][0]}")
        if np.linalg.eigvalsh(m).min() < -EIGEN_ATOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def probabilities(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrix, axis1=-2, axis2=-1)).copy()

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def apply_unitary(
    state: PureState,
    matrix: np.ndarray,
    modes_in: Sequence[Label],
    modes_out: Sequence[Label] | None = None,
) -> PureState:
    """Apply a (sub-space) unitary or isometry to the named modes.

    When ``modes_out`` differs from ``modes_in`` the element changes the
    basis (e.g. injecting a polarization state into a path basis); that is
    only supported when ``modes_in`` spans the whole current basis.  This is
    a one-step :func:`run_steps` plan.

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
    at, replaces, basis = route(state.basis, modes_in, modes_out)
    return PureState(basis, run_steps(state.amplitudes.copy(), (Step(m, at, replaces),)))


class Step(NamedTuple):
    """One already checked matrix, or stack, at fixed positions of the current basis.

    ``at`` selects the positions the matrix reads: a slice when they are
    evenly spaced, else an index array.  A step that ``replaces`` the basis
    maps them onto the next basis; any other step writes back in place.
    """

    matrix: np.ndarray
    at: slice | np.ndarray
    replaces: bool


def route(
    basis: ModeBasis, modes_in: tuple[Label, ...], modes_out: tuple[Label, ...]
) -> tuple[slice | np.ndarray, bool, ModeBasis]:
    """Where an element mapping ``modes_in`` to ``modes_out`` acts in ``basis``.

    Returns :attr:`Step.at`, whether the element replaces the basis, and
    the basis after it.  A chain resolves this once, not on every run.
    Raises ``KeyError`` for a mode missing from ``basis`` and ``ValueError``
    for a basis change that leaves part of ``basis`` behind.
    """
    idx = [basis.index(lab) for lab in modes_in]
    if modes_out == modes_in:
        after = basis
    elif set(modes_in) != set(basis.labels):
        raise ValueError("basis-changing elements must consume the whole basis")
    else:
        after = ModeBasis(modes_out)
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if step > 0 and idx == list(range(idx[0], idx[-1] + 1, step)):
        return slice(idx[0], idx[-1] + 1, step), after is not basis, after
    return np.array(idx), after is not basis, after


def run_steps(amps: np.ndarray, steps: Iterable[Step]) -> np.ndarray:
    """Run ``amps``, shape ``(..., dim)``, through routed and checked steps.

    Each matrix is one matrix or a stack whose leading axes broadcast against
    those of ``amps``.  This is the one propagation route: circuits, transfer
    matrices and :func:`apply_unitary` all run here.  ``amps`` is updated in
    place unless a step replaces the basis or has a larger batch, to which a
    copy of ``amps`` is broadcast once; the result is returned.  A step compares
    only the number of batch axes before it writes back; a write-back that fails
    compares the shapes, so a run whose input has the steps' batch pays nothing
    more for it.
    """
    for matrix, at, replaces in steps:
        out = np.matvec(matrix, amps[..., at])
        if replaces:
            amps = out
            continue
        if out.ndim == amps.ndim:  # numpy would drop extra leading axes of size 1
            try:
                amps[..., at] = out
                continue
            except ValueError:
                if out.shape[:-1] == amps.shape[:-1]:  # not a larger batch than amps
                    raise
        amps = np.broadcast_to(amps, out.shape[:-1] + amps.shape[-1:]).copy()
        amps[..., at] = out
    return amps


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
    per_label = state.probabilities()
    if groups is None:
        return per_label
    seen: set[Label] = set()
    out = np.empty(per_label.shape[:-1] + (len(groups),))
    for k, group in enumerate(groups):
        idx = [state.basis.index(lab) for lab in group]
        if seen.intersection(group):
            raise ValueError("measurement groups must be disjoint")
        seen.update(group)
        out[..., k] = per_label[..., idx].sum(axis=-1)
    return out


def _projector(amps: np.ndarray) -> np.ndarray:
    """``|psi><psi|`` for each amplitude vector along the last axis."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def pure_density(state: PureState) -> DensityMatrix:
    return DensityMatrix(state.basis, _projector(state.amplitudes))


def check_distribution(values, what: str, axis=0) -> np.ndarray:
    """``values`` as float64 (not copied when they are), once they are probability rows.

    The outcome ``axis`` (an int or a tuple of ints) holds each row's
    outcomes; the other axes index the rows, in flat order.  Raises
    ``ValueError``, naming ``what`` and the first bad row, unless there is at
    least one row, every entry lies in [0, 1] to ``ATOL`` and every row sums
    to 1 within 1e-9; NaN fails.  Valid values cost one sum, min and max.
    """
    values = np.asarray(values, dtype=float)
    total = values.sum(axis=axis)
    if not total.size:
        raise ValueError(f"{what} needs at least one row, got shape {values.shape}")
    # written as "<=" so that NaN fails; sums of 1 imply at least one outcome
    if (np.abs(total - 1.0).max() <= 1e-9 and values.min() >= -ATOL
            and values.max() <= 1.0 + ATOL):
        return values
    low = values.min(axis=axis, initial=np.inf)
    high = values.max(axis=axis, initial=-np.inf)
    inside = (low >= -ATOL) & (high <= 1.0 + ATOL)
    k = int(np.argmax(~(inside & (np.abs(total - 1.0) <= 1e-9)).reshape(-1)))
    if not inside.flat[k]:
        value = low.flat[k] if not low.flat[k] >= -ATOL else high.flat[k]
        raise ValueError(f"{what} must lie in [0, 1], got {value} at row {k}")
    raise ValueError(f"{what} must sum to 1, got {total.flat[k]} at row {k}")


def mix(pairs: Iterable[tuple[PureState, float]]) -> DensityMatrix:
    """Classical mixture of pure states with the given weights.

    Weights must be non-negative and sum to 1 within tolerance; all states
    must share one basis.  For batched states the weights are arrays of one
    shape over the batch.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("mixture needs at least one component")
    basis = pairs[0][0].basis
    weights = check_distribution([w for _, w in pairs], "mixture weights")
    rho = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    for (state, _), w in zip(pairs, weights[..., None, None]):
        if state.basis != basis:
            raise ValueError("all mixture components must share one basis")
        rho = rho + w * _projector(state.amplitudes)
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
