"""Finite classical models for commuting observable families.

A pairwise-commuting family shares an eigenbasis; its vectors serve as
the sample points omega.  The state supplies the weight mu(omega), and
each registered operator contributes the vector of its eigenvalues
f_A(omega).  The check_* functions compare the classical probability
rules (distribution, joint distribution, composition, products) against
dense quantum traces computed through independent eigendecompositions.
Both sides of every check assign values to spectral points by the one
_CLUSTER_GAP rule: neighbouring reals within the gap share a point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .errors import VerificationError
from .pauli import LambdaIndex, PauliString, lambda_element
from .states import (
    DenseState,
    GhzSuperposition,
    StateModel,
    expectation,
    pi_vector,
    random_density,
    to_density_matrix,
)

Operator = Union[PauliString, np.ndarray]

DIM_LIMIT = 64
# Largest magnitude of an operator entry.  It keeps _hermitize's m + m^H
# finite, and keeps the trace identity and the diagonal check clear of
# rounding, which breaks them for random operators and states from entries
# of about 1e6 on.  The commutator check needs no such margin: its
# tolerance scales with the entries of the pair it compares.
ENTRY_LIMIT = 1e4

# "almost everywhere" on a finite space: every point of positive weight
SUPPORT_ATOL = 1e-14

ATOL_TRACE = 1e-9
ATOL_DIAGONAL = 1e-8
ATOL_COMMUTATOR = 1e-10
ATOL_PULLBACK = 1e-10
ATOL_HERMITIAN = 1e-10
# slack on the model weights' sum of 1
ATOL_WEIGHT_SUM = 1e-12

# eigenvalues closer than this belong to one spectral point
_CLUSTER_GAP = 1e-6
# a spectral point this close to an integer is snapped to it
_INTEGER_SNAP = 1e-9

_BASIS_SEED = 53


def _as_matrix(operator: Operator) -> np.ndarray:
    if isinstance(operator, PauliString):
        return operator.to_matrix()
    m = np.array(operator, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("operators must be square matrices")
    if not np.isfinite(m).all():
        raise ValueError("operator entries must be finite")
    if (np.abs(m) > ENTRY_LIMIT).any():
        raise ValueError(f"operator entries must not exceed {ENTRY_LIMIT:g} in magnitude")
    return m


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _runs(ordered: np.ndarray) -> list[np.ndarray]:
    """Index runs of ascending reals whose neighbours lie within _CLUSTER_GAP."""
    x = ordered.tolist()
    cuts = [0, *(i for i in range(1, len(x)) if x[i] - x[i - 1] > _CLUSTER_GAP), len(x)]
    return [np.arange(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def _near(x, delta: Iterable[float]) -> np.ndarray | np.bool_:
    """Whether x (elementwise) lies within _CLUSTER_GAP of a point of delta."""
    diffs = np.asarray(x, dtype=float)[..., None] - np.asarray(list(delta), dtype=float)
    return np.any(np.abs(diffs) < _CLUSTER_GAP, axis=-1)


def _cluster(values: np.ndarray) -> np.ndarray:
    """Snap near-equal reals to one representative per spectral point."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)
    ordered = values[order]
    out = np.empty_like(values)
    for run in _runs(ordered):
        rep = float(ordered[run].mean())
        snapped = float(round(rep))
        out[order[run]] = snapped if abs(rep - snapped) < _INTEGER_SNAP else rep
    return out


def _spectral_pairs(matrix: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, projector) pairs from a fresh eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(_hermitize(matrix))
    snapped = _cluster(eigvals)
    return [
        (float(snapped[run[0]]), eigvecs[:, run] @ eigvecs[:, run].conj().T)
        for run in _runs(eigvals)
    ]


def _spectral_sum(matrix: np.ndarray, weight: Callable[[float], float]) -> np.ndarray:
    """The sum of weight(x) P_x over the spectral points x of matrix."""
    out = np.zeros(matrix.shape, dtype=complex)
    for value, proj in _spectral_pairs(matrix):
        out += weight(value) * proj
    return out


def apply_spectrally(operator: Operator, g: Callable[[float], float]) -> np.ndarray:
    """g(A) assembled from A's spectral decomposition; g is called once
    per spectral point and must return a real number."""
    return _hermitize(_spectral_sum(_as_matrix(operator), lambda x: float(g(x))))


def indicator_matrix(operator: Operator, delta: Iterable[float]) -> np.ndarray:
    """The spectral projector onto eigenvalues in delta (an event indicator)."""
    delta = list(delta)
    return _spectral_sum(_as_matrix(operator), lambda x: _near(x, delta))


@dataclass
class FiniteHVModel:
    """Sample points, weights, and per-operator value vectors."""

    basis: np.ndarray
    weights: np.ndarray
    rho: np.ndarray
    value_table: dict[str, np.ndarray] = field(default_factory=dict)
    spectra: dict[str, tuple[float, ...]] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > SUPPORT_ATOL)

    def fresh_name(self, base: str) -> str:
        if base not in self.value_table:
            return base
        for k in itertools.count(2):
            if f"{base}~{k}" not in self.value_table:
                return f"{base}~{k}"
        raise AssertionError("unreachable")

    def register(self, name: str, operator: Operator) -> np.ndarray:
        """Add an operator that is diagonal in the model basis; returns its
        value vector and enforces the trace identity Tr[rho A] = sum mu f_A."""
        if name in self.value_table:
            raise ValueError(f"operator name {name!r} already registered")
        matrix = _as_matrix(operator)
        if matrix.shape != self.rho.shape:
            raise ValueError(f"operator {name!r} has wrong dimension")
        if not np.max(np.abs(matrix - matrix.conj().T)) <= ATOL_HERMITIAN:
            raise ValueError(f"operator {name!r} is not Hermitian")
        in_basis = self.basis.conj().T @ matrix @ self.basis
        off = in_basis - np.diag(np.diag(in_basis))
        residual = float(np.max(np.abs(off)))
        if not residual <= ATOL_DIAGONAL:
            raise VerificationError(
                f"operator {name!r} is not diagonal in the model basis "
                f"(residual {residual:.3e}); degeneracy resolution failed"
            )
        values = _cluster(np.real(np.diag(in_basis)))
        quantum = float(np.real(np.trace(self.rho @ matrix)))
        classical = float(self.weights @ values)
        if not abs(quantum - classical) <= ATOL_TRACE:
            raise VerificationError(
                f"operator {name!r}: trace {quantum!r} differs from the "
                f"weighted value sum {classical!r}"
            )
        self.value_table[name] = values
        self.spectra[name] = tuple(sorted(set(values.tolist())))
        self.matrices[name] = matrix
        return values


def _require_commuting(matrices: Sequence[np.ndarray]) -> None:
    """Raise unless every pair commutes.  The rounding of AB - BA grows with
    max|A| * max|B|, so the tolerance is ATOL_COMMUTATOR times that product
    once it exceeds 1."""
    for (i, a), (j, b) in itertools.combinations(enumerate(matrices), 2):
        scale = max(1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(b))))
        if not np.max(np.abs(a @ b - b @ a)) <= ATOL_COMMUTATOR * scale:
            raise ValueError(f"family members {i} and {j} do not commute")


def _default_names(family: Sequence[Operator]) -> list[str]:
    return [
        op.to_text() if isinstance(op, PauliString) else f"A{i}"
        for i, op in enumerate(family)
    ]


def build_model(
    state: StateModel,
    family: Sequence[Operator],
    names: Sequence[str] | None = None,
) -> FiniteHVModel:
    """Common-eigenbasis model for a pairwise-commuting family.

    The basis comes from one random-coefficient combination of the family
    (fixed seed), with degenerate blocks refined operator by operator; the
    register step then certifies diagonality and the trace identity.
    """
    if not family:
        raise ValueError("family must not be empty")
    matrices = [_as_matrix(op) for op in family]
    dim = matrices[0].shape[0]
    if any(m.shape != (dim, dim) for m in matrices):
        raise ValueError("family members differ in dimension")
    if dim > DIM_LIMIT:
        raise ValueError(f"dimension {dim} exceeds the model limit {DIM_LIMIT}")
    rho = to_density_matrix(state)
    if rho.shape[0] != dim:
        raise ValueError(
            f"state dimension {rho.shape[0]} does not match the family ({dim})"
        )
    _require_commuting(matrices)
    if names is None:
        names = _default_names(family)
    if len(names) != len(family) or len(set(names)) != len(names):
        raise ValueError("names must be distinct, one per family member")

    rng = np.random.default_rng(_BASIS_SEED)
    combo = _hermitize(
        sum(c * m for c, m in zip(rng.standard_normal(len(matrices)), matrices))
    )
    eigvals, basis = np.linalg.eigh(combo)
    blocks = _runs(eigvals)
    for matrix in matrices:
        new_blocks: list[np.ndarray] = []
        for idx in blocks:
            if len(idx) == 1:
                new_blocks.append(idx)
                continue
            sub = basis[:, idx]
            block = _hermitize(sub.conj().T @ matrix @ sub)
            block_vals, rotation = np.linalg.eigh(block)
            basis[:, idx] = sub @ rotation
            new_blocks.extend(idx[piece] for piece in _runs(block_vals))
        blocks = new_blocks

    weights = np.maximum(np.real(np.diag(basis.conj().T @ rho @ basis)), 0.0)
    total = float(weights.sum())
    if not abs(total - 1.0) <= ATOL_WEIGHT_SUM:
        raise VerificationError(f"weights sum to {total!r}, not 1")

    model = FiniteHVModel(basis=basis, weights=weights, rho=rho)
    for name, matrix in zip(names, matrices):
        model.register(name, matrix)
    return model


def check_D(model: FiniteHVModel, a: str, delta: Iterable[float]) -> bool:
    """mu(f_A in delta) against the projector trace."""
    delta = list(delta)
    classical = float(model.weights[_near(model.value_table[a], delta)].sum())
    projector = indicator_matrix(model.matrices[a], delta)
    quantum = float(np.real(np.trace(model.rho @ projector)))
    return abs(classical - quantum) <= ATOL_TRACE


def check_JD(
    model: FiniteHVModel,
    a: str,
    b: str,
    delta_a: Iterable[float],
    delta_b: Iterable[float],
) -> bool:
    """Joint membership measure against the product-projector trace."""
    delta_a, delta_b = list(delta_a), list(delta_b)
    mask = _near(model.value_table[a], delta_a) & _near(model.value_table[b], delta_b)
    classical = float(model.weights[mask].sum())
    quantum = float(
        np.real(
            np.trace(
                model.rho
                @ indicator_matrix(model.matrices[a], delta_a)
                @ indicator_matrix(model.matrices[b], delta_b)
            )
        )
    )
    return abs(classical - quantum) <= ATOL_TRACE


def check_FUNC(model: FiniteHVModel, a: str, g: Callable[[float], float]) -> bool:
    """f_{g(A)} = g(f_A) on every positive-weight point, with g (a callable
    on reals) applied spectrally and g(A) registered like any other
    family member."""
    g_matrix = apply_spectrally(model.matrices[a], g)
    g_values = model.register(model.fresh_name(f"g({a})"), g_matrix)
    expected = np.array([g(v) for v in model.value_table[a]], dtype=float)
    support = model.support
    return bool(np.all(np.abs(g_values[support] - expected[support]) <= ATOL_TRACE))


def check_PROD(model: FiniteHVModel, a: str, b: str) -> bool:
    """f_{AB} = f_A * f_B on every positive-weight point."""
    product = model.matrices[a] @ model.matrices[b]
    values = model.register(model.fresh_name(f"{a}*{b}"), product)
    support = model.support
    direct = model.value_table[a][support] * model.value_table[b][support]
    return bool(np.all(np.abs(values[support] - direct) <= ATOL_TRACE))


def check_measure_lemma(weights, s, s_alt, t, t_alt) -> bool:
    """If the boolean masks s/s_alt and t/t_alt differ only on zero-weight
    points, their intersections carry exactly equal measure.  Both measures
    are correctly rounded sums (math.fsum), which zero terms cannot change."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w < 0):
        raise ValueError("weights must be finite and nonnegative")
    masks = [np.asarray(x) for x in (s, s_alt, t, t_alt)]
    if any(m.dtype != bool or m.shape != w.shape for m in masks):
        raise ValueError("sets must be boolean masks as long as the weights")
    s, s_alt, t, t_alt = masks
    for left, right in ((s, s_alt), (s_alt, s), (t, t_alt), (t_alt, t)):
        if np.any(w[~left & right]):
            raise ValueError("hypothesis failed: the swap sets carry measure")
    return math.fsum(w[s & t]) == math.fsum(w[s_alt & t_alt])


def random_measure_space(rng: np.random.Generator):
    """A finite measure with null points, plus set pairs differing only on
    those null points; input material for check_measure_lemma."""
    size = int(rng.integers(6, 13))
    weights = rng.random(size)
    weights[rng.random(size) < 0.5] = 0.0

    def pair():
        base = rng.random(size) < 0.5
        alt = base.copy()
        flips = (weights == 0.0) & (rng.random(size) < 0.5)
        alt[flips] = ~alt[flips]
        return base, alt

    s, s_alt = pair()
    t, t_alt = pair()
    return weights, s, s_alt, t, t_alt


def check_indicator_pullback(
    operator: Operator,
    g: Callable[[float], float],
    delta: Iterable[float],
    state: StateModel,
) -> bool:
    """Tr[rho chi_delta(g(A))] = Tr[rho chi_{g^{-1}(delta)}(A)] in the given
    state, for a callable g: selecting outcomes of g(A) is the same event
    as selecting their preimages on A."""
    matrix = _as_matrix(operator)
    rho = to_density_matrix(state)
    if rho.shape != matrix.shape:
        raise ValueError("state dimension does not match the operator")
    delta = list(delta)

    direct_proj = indicator_matrix(apply_spectrally(matrix, g), delta)
    direct = float(np.real(np.trace(rho @ direct_proj)))
    pullback_proj = _spectral_sum(matrix, lambda x: _near(g(x), delta))
    pulled = float(np.real(np.trace(rho @ pullback_proj)))
    return abs(direct - pulled) <= ATOL_PULLBACK


def spectrum_subsets(spectrum: Sequence[float]) -> list[tuple[float, ...]]:
    """Every subset of a spectrum of at most 8 points, by size; a longer
    spectrum raises ValueError."""
    values = tuple(spectrum)
    if len(values) > 8:
        raise ValueError(f"spectrum of {len(values)} points; subsets need at most 8")
    return [s for r in range(len(values) + 1) for s in itertools.combinations(values, r)]


def random_commuting_family(
    rng: np.random.Generator, n: int, count: int = 2
) -> list[np.ndarray]:
    """Hermitian matrices with small-integer spectra sharing one random
    eigenbasis, so they commute by construction."""
    sites = DIM_LIMIT.bit_length() - 1  # the largest n with 2^n <= DIM_LIMIT
    if not 1 <= n <= sites:
        raise ValueError(f"family generator covers 1 to {sites} sites")
    dim = 1 << n
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    unitary, upper = np.linalg.qr(ginibre)
    unitary = unitary * (np.diag(upper) / np.abs(np.diag(upper)))
    family = []
    for _ in range(count):
        diagonal = rng.integers(-2, 3, size=dim).astype(float)
        family.append(_hermitize((unitary * diagonal) @ unitary.conj().T))
    return family


def run_fine_suite() -> dict:
    """Fixed battery of model constructions and rule checks, drawn from
    seed 0; the returned counts feed the command-line verifier."""
    rng = np.random.default_rng(0)
    checks = 0
    failures = 0

    def note(ok: bool) -> None:
        nonlocal checks, failures
        checks += 1
        failures += not ok

    models = 0

    pi = pi_vector()
    pi_state = DenseState(np.outer(pi, pi.conj()))
    model = build_model(
        pi_state, [PauliString.from_text("+ZI"), PauliString.from_text("+IZ")]
    )
    models += 1
    note(check_D(model, "+ZI", (1.0,)))
    note(check_JD(model, "+ZI", "+IZ", (1.0,), (-1.0,)))
    note(check_FUNC(model, "+ZI", lambda x: 1.0))
    note(check_PROD(model, "+ZI", "+IZ"))

    ghz = GhzSuperposition(3, 2**-0.5, 2**-0.5)
    family = [lambda_element(LambdaIndex(3, p)) for p in range(8)]
    model = build_model(ghz, family)
    models += 1
    for word in family:
        classical = float(model.weights @ model.value_table[word.to_text()])
        note(abs(classical - expectation(ghz, word).real) <= ATOL_TRACE)
    note(check_PROD(model, family[4].to_text(), family[5].to_text()))

    for _ in range(4):
        n = int(rng.integers(1, 4))
        pair = random_commuting_family(rng, n)
        state = random_density(n, rng)
        model = build_model(state, pair, names=("A", "B"))
        models += 1
        for delta in spectrum_subsets(model.spectra["A"]):
            note(check_D(model, "A", delta))
        for delta_a in ((), model.spectra["A"][:1], model.spectra["A"]):
            for delta_b in ((), model.spectra["B"][:1], model.spectra["B"]):
                note(check_JD(model, "A", "B", delta_a, delta_b))
        note(check_FUNC(model, "A", lambda x: x * x))
        note(check_PROD(model, "A", "B"))
        note(
            check_indicator_pullback(
                pair[0], lambda x: abs(x), model.spectra["A"][:2], state
            )
        )

    for _ in range(100):
        note(check_measure_lemma(*random_measure_space(rng)))

    return {
        "suite": "fine",
        "models": models,
        "checks": checks,
        "failures": failures,
        "ok": failures == 0,
    }
