"""Independent oracles shared by the test modules.

Matrices are composed from rendered text (sign prefix, one letter per
site, the true sigma_y), so none of the package's mask or phase
bookkeeping is reused by ``oracle_matrix``.  Signed parity sums are summed
term by term, the brute-force route that the Walsh-Hadamard spectra
replace.  ``HnObservable`` is the rank-two observable behind F^psi, and
``half_group_term_sum`` sums F^psi of an analytic state over its 2^{n-1}
half-group terms, the route that the closed forms in ``kslab.states``
replace.  ``read_dense_reference`` is the whole-file, entry-by-entry
dense-state parser that the streamed ``read_dense_state`` replaces.
``positive_semidefinite_reference`` is the eigenvalue verdict that the
shifted Cholesky factor of ``DenseState``'s positivity check replaces.
``ingest_correlators_reference`` is the whole-text correlator reader that
builds a ``PauliString`` per row to check its word, which the reader's
``parse_word`` check replaces.
``closure_break_reference`` is the scalar double loop over ``pauli_mul``,
every row of the table, that the single-bit-row scan of ``closure_break``
replaces.  ``bruteforce_reference`` is the code-order block loop, every
code multiplied out, that the per-word-mask check of ``bruteforce_report``
replaces.  ``verify_hvkn_reference`` is the one-piece identity check,
every code in a single array and the sample stream drawn in one call
(``hvkn_reference_codes``), that the blocked ``verify_hvkn`` replaces.
``dense_residual_reference`` is the numpy form of a sum identity's dense
residual that the exact plain-Python ``pauli._dense_residual`` replaces.
``maximally_mixed`` is the dense state I/2^n that several tests evaluate.
``to_bits`` and ``scan_from_csv`` read an assignment's code and a
``scan --format csv`` table back, the inverses of
``Assignment.from_bits`` and ``scan_to_csv``.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass

import numpy as np

from kslab import hv_oracle
from kslab.errors import VerificationError
from kslab.hv_oracle import Assignment, HvknReport
from kslab.inequalities import InequalityReport
from kslab.pauli import (
    DENSE_CHECK_LIMIT,
    DENSE_STATE_LIMIT,
    LambdaIndex,
    PauliString,
    half_zmasks,
    lambda_element,
    pauli_mul,
)
from kslab.states import (
    ATOL_SCALAR,
    DenseState,
    GhzSuperposition,
    ProductState,
    WernerState,
    expectation,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"I": I2, "X": X, "Y": Y, "Z": Z}
SIGN = {"+": 1, "+i": 1j, "-": -1, "-i": -1j}


def oracle_matrix(text: str) -> np.ndarray:
    sign, letters = re.match(r"^([+-]i?)([IXYZ]+)$", text).groups()
    out = np.array([[SIGN[sign]]])
    for letter in letters:
        out = np.kron(out, LETTER[letter])
    return out


def dense(word: PauliString) -> np.ndarray:
    return oracle_matrix(word.to_text())


def dense_residual_reference(n: int, x_part: bool, odd: bool, words: list[PauliString]) -> float:
    """Largest |lhs - rhs| of a projector-sum identity, both sides as
    numpy matrices: the left from Kronecker powers of I +/- Z (of
    X +/- ZX with ``x_part``), the right from each word's letter matrix."""
    a, b = (X, Z @ X) if x_part else (I2, Z)
    branch_a = np.array([[1.0]], dtype=complex)
    branch_b = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        branch_a = np.kron(branch_a, a + b)
        branch_b = np.kron(branch_b, a - b)
    lhs = (branch_a - branch_b) / 2 if odd else (branch_a + branch_b) / 2
    rhs = sum(dense(w) for w in words)
    return float(np.max(np.abs(lhs - rhs)))


def maximally_mixed(n: int) -> DenseState:
    dim = 1 << n
    return DenseState(np.eye(dim, dtype=complex) / dim)


def random_word(rng: np.random.Generator, n: int) -> PauliString:
    return PauliString(
        n,
        int(rng.integers(1 << n)),
        int(rng.integers(1 << n)),
        int(rng.integers(4)),
    )


def to_bits(a: Assignment) -> int:
    """The 2n-bit code of an assignment: set bits mean -1, vx in the low half."""
    bits = 0
    for j, v in enumerate(a.vx + a.vy):
        bits |= (v < 0) << j
    return bits


def scan_from_csv(text: str) -> list[tuple[str, InequalityReport]]:
    """The labelled reports of a ``scan --format csv`` table, each float
    parsed from its printed digits."""
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["state", "kind", "n", "lhs", "bound", "ratio", "violated", "sigma"]
    return [
        (
            label,
            InequalityReport(
                kind=kind,
                n=int(n),
                lhs=float(lhs),
                bound=float(bound),
                ratio=float(ratio),
                violated={"true": True, "false": False}[violated],
                uncertainty=float(sigma) if sigma else None,
            ),
        )
        for label, kind, n, lhs, bound, ratio, violated, sigma in rows
    ]


def parity_dot(masks: np.ndarray, z_masks: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """For each mask m: sum_q signs[q] * (-1)^popcount(m & z_masks[q])."""
    out = np.empty(masks.shape[0], dtype=np.int64)
    step = max(1, (1 << 22) // max(1, z_masks.shape[0]))
    for lo in range(0, masks.shape[0], step):
        block = np.bitwise_count(masks[lo : lo + step, None] & z_masks[None, :])
        values = 1 - 2 * (block & np.uint8(1)).astype(np.int64)
        out[lo : lo + step] = values @ signs
    return out


@dataclass(frozen=True)
class HnObservable:
    """The rank-two observable 2^{n-1}(|+...+><+...+| + |-...-><-...-|)."""

    n: int

    def matrix(self) -> np.ndarray:
        if self.n > DENSE_STATE_LIMIT:
            raise ValueError(f"dense form limited to n <= {DENSE_STATE_LIMIT}")
        dim = 1 << self.n
        out = np.zeros((dim, dim), dtype=complex)
        out[0, 0] = out[dim - 1, dim - 1] = 1 << (self.n - 1)
        return out

    def half_group_sum(self) -> np.ndarray:
        """The same operator assembled word by word (dense-check sizes only)."""
        if self.n > DENSE_CHECK_LIMIT:
            raise ValueError(f"word-sum form limited to n <= {DENSE_CHECK_LIMIT}")
        return sum(
            lambda_element(LambdaIndex(self.n, p)).to_matrix()
            for p in range(1 << (self.n - 1))
        )


def half_group_term_sum(state) -> float:
    """F^psi of an analytic state, summed over the 2^{n-1} half-group terms.

    Each lower-half word is the Z-string of one mask in ``half_zmasks(n)``;
    its expectation is |alpha|^2 +/- |beta|^2 (sign by mask parity) for the
    superposition and the product of r_z over the mask's sites for a
    product state.  Werner sums its two words through ``expectation``.
    """
    n = state.n
    if isinstance(state, WernerState):
        return float(
            sum(
                expectation(state, lambda_element(LambdaIndex(2, p))).real
                for p in range(2)
            )
        )
    z = half_zmasks(n)
    if isinstance(state, GhzSuperposition):
        parity = (np.bitwise_count(z.astype(np.uint64)) & 1).astype(bool)
        a2, b2 = abs(state.alpha) ** 2, abs(state.beta) ** 2
        return float((a2 + np.where(parity, -b2, b2)).sum())
    if isinstance(state, ProductState):
        terms = np.ones(len(z))
        for j, (_, _, rz) in enumerate(state.bloch):
            terms *= np.where(((z >> j) & 1).astype(bool), rz, 1.0)
        return float(terms.sum())
    raise TypeError(f"no term sum for {type(state).__name__}")


def read_dense_reference(path: str) -> DenseState:
    """Load the documented text format: first line n, then 2^n rows of
    2^n whitespace-separated "re,im" pairs."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    lines = [line for line in lines if line]
    if not lines:
        raise ValueError(f"{path}: empty state file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ValueError(f"{path}: first line must be the site count") from None
    if not 1 <= n <= DENSE_STATE_LIMIT:
        raise ValueError(f"{path}: site count {n} outside 1..{DENSE_STATE_LIMIT}")
    dim = 1 << n
    if len(lines) != dim + 1:
        raise ValueError(f"{path}: expected {dim} matrix rows, found {len(lines) - 1}")
    rows = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(lines[1:]):
        pairs = line.split()
        if len(pairs) != dim:
            raise ValueError(f"{path}: row {i} has {len(pairs)} entries, expected {dim}")
        for j, pair in enumerate(pairs):
            re_part, sep, im_part = pair.partition(",")
            if not sep:
                raise ValueError(f"{path}: row {i} entry {j} is not a re,im pair")
            try:
                rows[i, j] = complex(float(re_part), float(im_part))
            except ValueError:
                raise ValueError(f"{path}: row {i} entry {j} is not numeric") from None
    return DenseState(rows)


def ingest_correlators_reference(text: str) -> dict[str, tuple[float, float]]:
    """The ``ingest_correlators`` table of a CSV text, each row's word
    checked by building its ``PauliString``; a bad row raises ValueError
    naming its line."""
    reader = csv.reader(io.StringIO(text))
    table: dict[str, tuple[float, float]] = {}
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty correlator file")
        if [h.strip().lower() for h in header] != ["word", "value", "sigma"]:
            raise ValueError(f"expected header word,value,sigma, got {header!r}")
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            word, value, sigma = (field.strip() for field in row)
            value, sigma = float(value), float(sigma)
            parsed = PauliString.from_text(word)
            if not parsed.is_hermitian:
                raise ValueError(f"word {word!r} is not an observable")
            if not math.isfinite(value):
                raise ValueError(f"non-finite value for {word!r}")
            if sigma < 0 or not math.isfinite(sigma):
                raise ValueError(f"bad standard error for {word!r}: {sigma}")
            if abs(value) > 1 + 3 * sigma:
                raise ValueError(f"value {value} for {word!r} exceeds |1| + 3*sigma")
            if parsed.letters in table:
                raise ValueError(f"duplicate word {word!r}")
            table[parsed.letters] = (-value if parsed.sign_exp else value, sigma)
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"line {max(reader.line_num, 1)}: {exc}") from None
    return table


def positive_semidefinite_reference(rho: np.ndarray) -> bool:
    """No eigenvalue of the Hermitian matrix rho below -ATOL_SCALAR."""
    return bool(np.linalg.eigvalsh(rho).min() >= -ATOL_SCALAR)


def closure_break_reference(elements: list[PauliString]) -> tuple[int, int] | None:
    """First (p, q), in row-major order, with elements[p] * elements[q]
    != elements[p ^ q], one scalar product at a time; None if none."""
    order = len(elements)
    for p in range(order):
        for q in range(order):
            if pauli_mul(elements[p], elements[q]) != elements[p ^ q]:
                return p, q
    return None


REFERENCE_BLOCK = 1 << 16


def bruteforce_reference(n: int, cross_check: bool = True) -> tuple[int, int, int]:
    """(max g, smallest code attaining it, min g) over all 4^n codes, in
    blocks of consecutive codes, each gathered from the two half tables
    (the signed site products of every half code, in code order) and
    compared with ``halfgroup_sums``; raises ``VerificationError`` at the
    first mismatching code.  ``_signed_products`` is looked up on
    ``kslab.hv_oracle`` at call time, so a patched kernel reaches both
    sweeps."""
    low_sites = n // 2
    high_sites = n - low_sites
    low_codes = np.arange(1 << (2 * low_sites), dtype=np.int64)
    high_codes = np.arange(1 << (2 * high_sites), dtype=np.int64)
    a_low, b_low = hv_oracle._signed_products(low_sites, low_codes)
    a_high, b_high = hv_oracle._signed_products(high_sites, high_codes)
    low_mask = (1 << low_sites) - 1
    high_mask = (1 << high_sites) - 1

    total = 1 << (2 * n)
    best_g, best_code, min_g = -(1 << n), 0, 1 << n
    for begin in range(0, total, REFERENCE_BLOCK):
        codes = np.arange(begin, min(begin + REFERENCE_BLOCK, total), dtype=np.int64)
        vy = codes >> n
        low = (codes & low_mask) | ((vy & low_mask) << low_sites)
        high = ((codes >> low_sites) & high_mask) | ((vy >> low_sites) << high_sites)
        g = a_low[low] * a_high[high] - b_low[low] * b_high[high]
        if cross_check:
            sums = hv_oracle.halfgroup_sums(n, codes)
            if not np.array_equal(g, sums):
                code = int(codes[int(np.argmax(g != sums))])
                raise VerificationError(
                    f"word sums differ from the site products first at "
                    f"{Assignment.from_bits(n, code)}"
                )
        top = int(np.argmax(g))
        if g[top] > best_g:
            best_g, best_code = int(g[top]), begin + top
        min_g = min(min_g, int(g.min()))
    return best_g, best_code, min_g


def hvkn_reference_codes(n: int, sample_budget: int = 100_000) -> np.ndarray:
    """The codes ``verify_hvkn`` checks, in order, as one array: all 4^n
    codes, or the whole sample read at once from the seeded stream."""
    total = 1 << (2 * n)
    if total <= sample_budget:
        return np.arange(total, dtype=np.int64)
    words = random.Random(hv_oracle._SAMPLE_SEED).randbytes(8 * sample_budget)
    return np.frombuffer(words, dtype="<i8") & (total - 1)


def verify_hvkn_reference(n: int, sample_budget: int = 100_000) -> HvknReport:
    """``verify_hvkn`` in one piece: every code of ``hvkn_reference_codes``
    checked as a single array.  The kernel and the spectra are looked up
    on ``kslab.hv_oracle`` at call time, so a patched one reaches both
    checks."""
    ints = hvkn_reference_codes(n, sample_budget)
    re_part, im_part = hv_oracle._signed_products(n, ints)
    masks = hv_oracle._word_masks(n, ints)
    word_re = hv_oracle._spectrum(n, False).take(masks)
    word_im = hv_oracle._spectrum(n, True).take(masks)

    bad = (re_part != word_re) | (im_part != word_im)
    failures = int(bad.sum())
    first = None
    if failures:
        first = Assignment.from_bits(n, int(ints[int(np.argmax(bad))]))
    sampled = ints.shape[0] < 1 << (2 * n)
    return HvknReport(
        n=n,
        mode="sampled" if sampled else "exhaustive",
        checked=int(ints.shape[0]),
        failures=failures,
        first_failure=first,
        seed=hv_oracle._SAMPLE_SEED if sampled else None,
    )
