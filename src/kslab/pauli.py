"""Exact Pauli-word algebra over n sites.

A word is stored in symplectic-with-phase form: two n-bit masks plus a
power of i,

    i**phase_exp * (product of sigma_z factors) * (product of sigma_x factors),

with every sigma_z factor standing to the left of every sigma_x factor.
Bit j of ``z_mask`` / ``x_mask`` refers to site j; site 0 is the leftmost
letter in text form and the leftmost factor in tensor products.  A site
carrying both bits is the letter Y up to a phase, sigma_z sigma_x = i sigma_y,
which is why a word's displayed sign differs from ``phase_exp`` by the
number of Y sites.

The sign-group words and their odd-closure companions are indexed by
``LambdaIndex(n, p, odd)``.  One rule, ``index_zmask``, maps an index to
its z-mask, for a single word (``lambda_element``) and for whole tables
(``half_zmasks``); the leading index bit selects the all-X part.

All products and phases are computed in integer arithmetic, by one rule
(``_product``) that ``pauli_mul`` applies to single words and
``closure_break`` to the single-bit rows of an element table.
Importing this module does not import numpy: it enters, by a
function-local import, only in the routes that build arrays: the
dense-matrix oracle ``PauliString.to_matrix``, the dense identity check
and the vectorized z-mask tables (``half_zmasks``, ``walsh_hadamard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math
import re

from .errors import VerificationError

# Dense limits: state-sized objects up to 2^10, operator-identity checks up
# to 2^6 (every identity is also checked symbolically at any n).
DENSE_STATE_LIMIT = 10
DENSE_CHECK_LIMIT = 6
# Largest entry of a dense identity check's residual that counts as zero.
ATOL_DENSE_RESIDUAL = 1e-12
# Largest n for which 2^n is a finite double: the ceiling for closed-form
# F values and classical bounds.
SITE_LIMIT = 1023
# Largest n of a printed group table: 2^n words, whose closure costs
# n 2^n products.
GROUP_LIMIT = 12
# Characters in one record of an input file, line endings included: a
# correlator CSV record (over every line its quoted fields span) or a
# dense state's site-count line.
LINE_LIMIT = 1 << 20

_SIGN_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_EXP = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_WORD_RE = re.compile(r"^([+-]?i?)([IXYZ]+)$")
_Z_BITS = str.maketrans("IXYZ", "0011")
_X_BITS = str.maketrans("IXYZ", "0110")


def parse_word(text: str) -> tuple[int, str]:
    """The text form of a Pauli word, such as ``-YY`` or ``+iXZ``, as
    (exponent of i in its prefix, letters), without building the word:
    ``-YY`` is (2, "YY").  The one parser of Pauli text; surrounding
    whitespace is ignored."""
    match = _WORD_RE.match(text.strip())
    if match is None:
        raise ValueError(f"not a Pauli word: {text!r}")
    prefix, letters = match.groups()
    return _PREFIX_EXP[prefix], letters


@lru_cache(maxsize=None)
def _site_matrix() -> dict[tuple[int, int], np.ndarray]:
    """Single-site factors in the (z, x) encoding; (1, 1) is sigma_z sigma_x."""
    import numpy as np

    return {
        (0, 0): np.array([[1, 0], [0, 1]], dtype=complex),
        (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
        (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
        (1, 1): np.array([[0, 1], [-1, 0]], dtype=complex),
    }


def full_mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True)
class PauliString:
    """An n-site Pauli word i**phase_exp * Z(z_mask) * X(x_mask)."""

    n: int
    z_mask: int
    x_mask: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")
        m = full_mask(self.n)
        if not 0 <= self.z_mask <= m or not 0 <= self.x_mask <= m:
            raise ValueError("mask out of range for site count")
        if not 0 <= self.phase_exp <= 3:
            raise ValueError(f"phase exponent must be in 0..3, got {self.phase_exp}")

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse a word like ``-YY`` or ``+XZIX`` (optionally ``+i``/``-i``)."""
        sign_exp, letters = parse_word(text)
        # site 0 is bit 0, so the binary numeral reads the letters backwards
        z = int(letters[::-1].translate(_Z_BITS), 2)
        x = int(letters[::-1].translate(_X_BITS), 2)
        overlap = (z & x).bit_count()
        return cls(len(letters), z, x, (sign_exp - overlap) % 4)

    @property
    def letters(self) -> str:
        out = []
        for j in range(self.n):
            z = (self.z_mask >> j) & 1
            x = (self.x_mask >> j) & 1
            out.append("IXZY"[x + 2 * z])
        return "".join(out)

    @property
    def sign_exp(self) -> int:
        """Exponent of i in front of the plain letter form."""
        return (self.phase_exp + (self.z_mask & self.x_mask).bit_count()) % 4

    def to_text(self) -> str:
        return _SIGN_PREFIX[self.sign_exp] + self.letters

    def __str__(self) -> str:
        return self.to_text()

    @property
    def is_hermitian(self) -> bool:
        return self.sign_exp % 2 == 0

    @property
    def is_identity_word(self) -> bool:
        return self.z_mask == 0 and self.x_mask == 0

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix; the oracle for everything symbolic."""
        if self.n > DENSE_STATE_LIMIT:
            raise ValueError(f"dense form limited to n <= {DENSE_STATE_LIMIT}")
        import numpy as np

        site = _site_matrix()
        out = np.array([[1j**self.phase_exp]])
        for j in range(self.n):
            z = (self.z_mask >> j) & 1
            x = (self.x_mask >> j) & 1
            out = np.kron(out, site[(z, x)])
        return out


def _product(za, xa, pa, zb, xb, pb):
    """(z, x, phase) of the product of words (za, xa, pa) and (zb, xb, pb).

    Moving b's Z factors through a's X factors picks up (-1) per
    overlapping site; the masks then combine by XOR.
    """
    return za ^ zb, xa ^ xb, (pa + pb + 2 * (xa & zb).bit_count()) % 4


def pauli_mul(a: PauliString, b: PauliString) -> PauliString:
    """Exact product a*b in canonical form."""
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} != {b.n}")
    z, x, phase = _product(a.z_mask, a.x_mask, a.phase_exp, b.z_mask, b.x_mask, b.phase_exp)
    return PauliString(a.n, z, x, phase)


def closure_break(elements: list[PauliString]) -> tuple[int, int] | None:
    """First (p, q), in row-major order, whose product
    ``elements[p] * elements[q]`` is not ``elements[p ^ q]``; None when
    the table closes under that law.

    All words must share one site count and the table's length must be a
    power of two.  Only the single-bit rows p = 2^b are scanned, so a
    table of length 2^k costs at most k 2^k products.

    Proof: the rows that close against every column form an XOR
    subgroup, since the product is associative: when rows p and p' close,
    elements[p ^ p'] * elements[q] = elements[p] * elements[p' ^ q] =
    elements[p ^ p' ^ q].  Row 0 closes exactly when element 0 is the
    identity.  Any other row that is not a power of two is the XOR of its
    top bit and its lower bits, two smaller rows, so the first row that
    breaks is 0 or a power of two.
    """
    order = len(elements)
    if order < 1 or order & (order - 1):
        raise ValueError(f"table length {order} is not a power of two")
    if len({e.n for e in elements}) != 1:
        raise ValueError("words in the table have different site counts")
    words = [(e.z_mask, e.x_mask, e.phase_exp) for e in elements]
    if words[0] != (0, 0, 0):
        return 0, 0
    rows = [1 << b for b in range(order.bit_length() - 1)]
    return next(
        ((p, q) for p in rows for q in range(order) if _product(*words[p], *words[q]) != words[p ^ q]),
        None,
    )


def commutes(a: PauliString, b: PauliString) -> bool:
    """True when the words commute (symplectic product is even)."""
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} != {b.n}")
    anti = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return anti % 2 == 0


def index_zmask(n: int, p: int | np.ndarray, odd: bool = False) -> int | np.ndarray:
    """Z-mask of the word with index p: the one rule for every word table.

    The low n-1 bits of p, read most significant first, set sites 0..n-2;
    site n-1 closes the mask to even weight (odd with ``odd=True``).  p is
    a Python int or an int64 array; the leading index bit does not enter.
    """
    z = p & 0  # zero of p's type, so n = 1 still gives an array
    parity = z | int(odd)
    for j in range(n - 1):
        bit = (p >> (n - 2 - j)) & 1
        z = z | (bit << j)
        parity = parity ^ bit
    return z | (parity << (n - 1))


@dataclass(frozen=True)
class LambdaIndex:
    """Index p of a group element, or with ``odd=True`` of its odd-closure
    companion.  The leading index bit selects the all-X part."""

    n: int
    p: int
    odd: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.p < (1 << self.n):
            raise ValueError(f"index {self.p} out of range for n={self.n}")


def _element(n: int, p: int, odd: bool) -> PauliString:
    x = full_mask(n) if p >> (n - 1) else 0
    return PauliString(n, index_zmask(n, p, odd), x, 0)


def lambda_element(idx: LambdaIndex) -> PauliString:
    """Word for index p.  Every word is Hermitian except the odd-closure
    companions in the upper index half, which are anti-Hermitian."""
    word = _element(idx.n, idx.p, idx.odd)
    anti = idx.odd and idx.p >= 1 << (idx.n - 1)
    if word.is_hermitian == anti:
        raise VerificationError(
            f"element {word.to_text()} at index {idx.p} (odd={idx.odd}) "
            f"should {'not ' if anti else ''}be Hermitian"
        )
    return word


def half_zmasks(n: int, odd: bool = False) -> np.ndarray:
    """Z-masks of the lower index half, p = 0 .. 2^{n-1}-1, of the even
    family or (``odd=True``) of the odd-closure companions.  The upper
    index half reuses the same z-masks.
    """
    import numpy as np

    return index_zmask(n, np.arange(1 << (n - 1), dtype=np.int64), odd)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Fast Walsh-Hadamard transform of a length-2^k vector, in O(k 2^k).

    out[m] = sum_z values[z] * (-1)^popcount(m & z): with values[z] the
    weight of the Z-string with mask z, out[m] is that weighted sum's
    eigenvalue on basis state m.  Integer input stays exact.
    """
    import numpy as np

    out = np.array(values)
    size = out.shape[0]
    if out.ndim != 1 or size < 1 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    half = 1
    while half < size:
        low, high = out.reshape(-1, 2, half).transpose(1, 0, 2)
        out = np.stack((low + high, low - high), axis=1).reshape(-1)
        half *= 2
    return out


@dataclass
class IdentityReport:
    """Outcome of the four sum-identity checks at a given site count."""

    n: int
    mode: str
    ok: bool
    first_mismatch: str | None = None
    max_residual: float | None = None


def _projector_expansion(n: int, x_part: bool, odd: bool) -> dict[tuple[int, int], complex]:
    """Expand half the sum/difference of the two 2^n-term products.

    The z-side products multiply out (I +/- sigma_z) per site; the x-side
    products choose sigma_x or +/- sigma_z sigma_x per site.  Averaging the
    two branch signs keeps exactly the even-subset (or odd-subset) terms
    with unit coefficients.
    """
    x = full_mask(n) if x_part else 0
    keep = 1 if odd else 0
    return {
        (m, x): complex(1)
        for m in range(1 << n)
        if m.bit_count() % 2 == keep
    }


def _family_expansion(words: list[PauliString]) -> dict[tuple[int, int], complex]:
    out: dict[tuple[int, int], complex] = {}
    for w in words:
        key = (w.z_mask, w.x_mask)
        out[key] = out.get(key, 0) + 1j**w.phase_exp
    return out


def _dense_residual(n: int, x_part: bool, odd: bool, words: list[PauliString]) -> float:
    import numpy as np

    site = _site_matrix()
    site_plus = site[(0, 0)] + site[(1, 0)]
    site_minus = site[(0, 0)] - site[(1, 0)]
    if x_part:
        # sigma_x +/- i sigma_y, written without leaving the (z, x) basis
        site_plus = site[(0, 1)] + site[(1, 1)]
        site_minus = site[(0, 1)] - site[(1, 1)]
    branch_a = np.array([[1.0]], dtype=complex)
    branch_b = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        branch_a = np.kron(branch_a, site_plus)
        branch_b = np.kron(branch_b, site_minus)
    lhs = (branch_a - branch_b) / 2 if odd else (branch_a + branch_b) / 2
    rhs = sum(w.to_matrix() for w in words)
    return float(np.max(np.abs(lhs - rhs)))


def verify_sum_identities(n: int) -> IdentityReport:
    """Check the four projector-sum identities at n sites.

    Both sides are always expanded into exact (mask, phase) multisets;
    when n <= DENSE_CHECK_LIMIT they are also compared as 2^n x 2^n
    matrices, and ``max_residual`` reports the largest finite dense
    residual; a residual that is not finite fails and is named only in
    ``first_mismatch``.
    The report's ``mode`` is always ``auto``, the name of that policy.
    """
    if n < 2:
        raise ValueError("identities need n >= 2")
    half = 1 << (n - 1)
    cases = [
        ("z-even", False, False),
        ("z-odd", False, True),
        ("x-even", True, False),
        ("x-odd", True, True),
    ]

    report = IdentityReport(n=n, mode="auto", ok=True)
    for label, x_part, odd in cases:
        start = half if x_part else 0
        words = [lambda_element(LambdaIndex(n, p, odd)) for p in range(start, start + half)]
        lhs = _projector_expansion(n, x_part, odd)
        rhs = _family_expansion(words)
        if lhs != rhs:
            bad = sorted(set(lhs) ^ set(rhs)) or sorted(
                k for k in lhs if lhs[k] != rhs[k]
            )
            z, x = bad[0]
            report.ok = False
            report.first_mismatch = f"{label}: {PauliString(n, z, x, 0).to_text()}"
            return report
        if n <= DENSE_CHECK_LIMIT:
            residual = _dense_residual(n, x_part, odd, words)
            if math.isfinite(residual):
                report.max_residual = max(residual, report.max_residual or 0.0)
            if not residual <= ATOL_DENSE_RESIDUAL:
                report.ok = False
                report.first_mismatch = f"{label}: dense residual {residual:.3e}"
                return report
    return report
