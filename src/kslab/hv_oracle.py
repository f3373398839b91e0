"""Exhaustive search over classical site-value assignments.

An assignment gives each site a pair of signs (vx_j, vy_j), the
pre-assigned outcomes of the two transverse single-site measurements.
Compound-word values are always derived by the product rule, carrying
each word's intrinsic sign.  This module recovers the classical bound by
deciding every assignment in exact integer arithmetic from the site
products of half codes, evaluating g once per word mask and once per
half code, and verifies the assignment identity behind the bound, a
fixed-size block of codes at a time: all 4^n codes when they fit the
budget, otherwise a sample read from ``random.Random(104729)`` as the
low 2n bits of each little-endian 64-bit word, so memory stays flat in
the budget.  Both take their site products from one kernel,
``_signed_products``.

The signed word sums over a family half, sum_q s_q (-1)^popcount(m & z_q),
are read from that half's Walsh-Hadamard spectrum: one O(n 2^n)
transform per n and family, then one lookup per word mask.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .pauli import half_zmasks, walsh_hadamard

# 2^28 assignments, decided from 2^14 word masks and 2 * 4^7 half codes.
# The cap is part of the CLI: it sets which ``bound --bruteforce`` runs
# are accepted.
ENUMERATION_CAP = 14

# Largest n of the identity check and of ``halfgroup_sums``: each family
# spectrum holds 2^n int64 word sums, 8 MB at n = 20.
HVKN_LIMIT = 20

# Codes per block of the identity check; its dozen int64 temporaries take
# 32 KB each, so memory stays flat in the sample budget.
_HVKN_BLOCK = 1 << 12

# Codes the identity check samples when 4^n is larger.
_SAMPLE_BUDGET = 100_000
_SAMPLE_SEED = 104729


@dataclass(frozen=True)
class Assignment:
    """Signs (vx_j, vy_j) in {-1, +1} for each of n sites."""

    n: int
    vx: tuple[int, ...]
    vy: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one site")
        for name, values in (("vx", self.vx), ("vy", self.vy)):
            if len(values) != self.n:
                raise ValueError(f"{name} must hold {self.n} entries")
            if any(v not in (-1, 1) for v in values):
                raise ValueError(f"{name} entries must be -1 or +1, got {values}")

    @classmethod
    def from_bits(cls, n: int, bits: int) -> "Assignment":
        """Decode a 2n-bit integer; set bits mean -1 (vx in the low half)."""
        if not 0 <= bits < 1 << (2 * n):
            raise ValueError(f"bits {bits} out of range for n = {n}")
        return cls(
            n,
            tuple(1 - 2 * ((bits >> j) & 1) for j in range(n)),
            tuple(1 - 2 * ((bits >> (n + j)) & 1) for j in range(n)),
        )


def g_value(a: Assignment) -> int:
    """Re(prod_j (vx_j + i*vy_j)) * prod_j vx_j as an exact integer."""
    re, im = 1, 0
    for vx, vy in zip(a.vx, a.vy):
        re, im = re * vx - im * vy, re * vy + im * vx
    return re * math.prod(a.vx)


@dataclass
class BoundReport:
    """Brute-force bound recovery with its witness; ``cross_check`` is
    always ``"exhaustive"``."""

    n: int
    bound_formula: float
    bound_bruteforce: int
    witness: Assignment
    g_min: int
    elapsed: float
    workers: int
    cross_check: str

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "bound_formula": self.bound_formula,
            "bound_bruteforce": self.bound_bruteforce,
            "witness_assignment": {"vx": list(self.witness.vx), "vy": list(self.witness.vy)},
            "g_min": self.g_min,
            "elapsed": self.elapsed,
            "workers": self.workers,
            "cross_check": self.cross_check,
        }


def _spectrum(n: int, odd: bool) -> np.ndarray:
    """Signed word sums of one non-diagonal family half for every n-bit
    mask m, sum_q s_q (-1)^popcount(m & z_q): the Walsh-Hadamard
    transform of the half's signed z-mask table.  An upper-half word has
    the full X mask and phase 0, so its sign i^popcount(z) counts as
    (-1)^(popcount(z) >> 1) in both families (i^1 and i^3 give +1 and -1
    in the anti-Hermitian odd half)."""
    z = half_zmasks(n, odd)
    table = np.zeros(1 << n, dtype=np.int64)
    table[z] = 1 - 2 * ((np.bitwise_count(z).astype(np.int64) >> 1) & 1)
    return walsh_hadamard(table)


def _word_masks(n: int, ints: np.ndarray) -> np.ndarray:
    """Bit j set where vx_j * vy_j = -1, i.e. where the two code halves differ."""
    masks = ints >> n
    masks ^= ints
    masks &= (1 << n) - 1
    return masks


def halfgroup_sums(n: int, ints: np.ndarray) -> np.ndarray:
    """Half-group sums for the encoded assignments, every diagonal-word
    value derived by the product rule from the non-diagonal half.

    f(O_p) = f(O_{p xor h}) * f(O_h) for p < h, so the all-x factor
    enters squared and drops out, and the sum depends on the assignment
    only through its word mask: one gather from the even spectrum.
    n must lie in 1..HVKN_LIMIT, checked before the spectrum is built.
    """
    if not 1 <= n <= HVKN_LIMIT:
        raise ValueError(f"word sums need 1 <= n <= {HVKN_LIMIT}, got {n}")
    ints = np.asarray(ints, dtype=np.int64)
    if ints.size and (int(ints.min()) < 0 or int(ints.max()) >= 1 << (2 * n)):
        raise ValueError(f"encoded assignments must lie in [0, 4^{n}) for n = {n}")
    return _spectrum(n, False).take(_word_masks(n, ints))


def _signed_products(k: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of prod_j (vx_j + i*vy_j) * prod_j vx_j over k sites for each
    int64 code (vx in the low k bits, vy in the next k), multiplied out site
    by site: the one kernel of the bound sweep and the identity check."""
    re = np.ones(codes.shape[0], dtype=np.int64)
    im = np.zeros(codes.shape[0], dtype=np.int64)
    for j in range(k):
        vx = 1 - 2 * ((codes >> j) & 1)
        vy = 1 - 2 * ((codes >> (k + j)) & 1)
        re, im = re * vx - im * vy, re * vy + im * vx
    x_sign = 1 - 2 * (np.bitwise_count(codes & ((1 << k) - 1)) & 1).astype(np.int64)
    return re * x_sign, im * x_sign


def _place(n: int, k: int, shift: int, codes: np.ndarray) -> np.ndarray:
    """Codes of k sites (vx in the low k bits, vy in the next k) placed at
    site ``shift`` of an n-site code: vx bits from ``shift``, vy bits from
    n + shift."""
    return ((codes & ((1 << k) - 1)) << shift) | ((codes >> k) << (n + shift))


def bruteforce_report(n: int) -> BoundReport:
    """Evaluate g_value on all 4^n encoded assignments, check each value
    against its product-rule word sum, and read the extrema from the
    checked word sums, on one process.

    With the sites split into a low and a high half, g = aL*aH - bL*bH,
    where (a, b) are the ``_signed_products`` of a half's codes (meet in
    the middle), and the word sum at a code is the even spectrum at its
    word mask (high-half mask, low-half mask).  Code m < 2^n (vx = m, vy
    all +1) is the smallest code with word mask m.  Its half codes, high
    m >> floor(n/2) and low m mod 2^floor(n/2), are likewise the smallest
    of their masks, so two outer products of the halves' first 2^k
    entries give g at every such m, compared with the spectrum entry by
    entry.

    That compare decides most other codes too.  A half code whose (a, b)
    equal those of its mask's smallest code changes no g and no word
    mask when it stands in for that code.  So a code built from two such
    half codes has the g and the word sum of the code m of its mask, and
    m is no larger.  Every other half code (none, when the kernel is
    right) has its whole row or column of codes compared with the
    spectrum directly, unless a mismatching code below it is already
    known.  The mismatches are kept as a running minimum, which names
    the smallest mismatching code.

    Once every code has matched, g takes exactly the spectrum's values,
    since every word mask m is hit.  The smallest code with mask m is m
    itself, so the witness, the smallest code attaining the maximum, is
    the spectrum's first argmax.  ``elapsed`` covers the sweep and its
    check.
    """
    if not 2 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration needs 2 <= n <= {ENUMERATION_CAP}, got {n}")
    from .inequalities import multipartite_bound

    started = time.perf_counter()
    spectrum = _spectrum(n, False)
    low_sites = n // 2
    high_sites = n - low_sites
    halves = []
    for k, shift in ((low_sites, 0), (high_sites, low_sites)):
        codes = np.arange(1 << (2 * k), dtype=np.int64)
        a, b = _signed_products(k, codes)
        masks = _word_masks(k, codes)
        unlike = np.flatnonzero((a != a[masks]) | (b != b[masks]))
        halves.append((a, b, _place(n, k, shift, codes), unlike))
    (a_low, b_low, _, _), (a_high, b_high, _, _) = halves
    g = np.multiply.outer(a_high[: 1 << high_sites], a_low[: 1 << low_sites])
    g -= np.multiply.outer(b_high[: 1 << high_sites], b_low[: 1 << low_sites])
    wrong = g.ravel() != spectrum
    total = bad_code = 1 << (2 * n)
    if wrong.any():
        bad_code = int(wrong.argmax())
    for (a, b, code, unlike), (a_other, b_other, code_other, _) in (halves, halves[::-1]):
        for i in unlike:
            if code[i] >= bad_code:
                break
            line = code[i] | code_other  # ascending, as code_other is
            wrong = a[i] * a_other - b[i] * b_other != spectrum.take(_word_masks(n, line))
            if wrong.any():
                bad_code = min(bad_code, int(line[wrong.argmax()]))
    elapsed = time.perf_counter() - started
    if bad_code < total:
        raise VerificationError(
            f"word sums differ from the site products first at "
            f"{Assignment.from_bits(n, bad_code)}"
        )

    best_code = int(spectrum.argmax())
    best_g = int(spectrum[best_code])
    witness = Assignment.from_bits(n, best_code)
    if g_value(witness) != best_g:
        raise VerificationError("witness does not attain the enumerated maximum")
    formula = multipartite_bound(n)
    if float(best_g) != formula:
        raise VerificationError(
            f"enumerated maximum {best_g} differs from the closed form {formula}"
        )
    return BoundReport(
        n=n,
        bound_formula=formula,
        bound_bruteforce=best_g,
        witness=witness,
        g_min=int(spectrum.min()),
        elapsed=elapsed,
        workers=1,
        cross_check="exhaustive",
    )


@dataclass
class HvknReport:
    """Assignment-identity verification across tested assignments."""

    n: int
    mode: str
    checked: int
    failures: int
    first_failure: Assignment | None
    seed: int | None

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        failure = None
        if self.first_failure is not None:
            failure = {
                "vx": list(self.first_failure.vx),
                "vy": list(self.first_failure.vy),
            }
        return {
            "n": self.n,
            "mode": self.mode,
            "checked": self.checked,
            "failures": self.failures,
            "first_failure": failure,
            "seed": self.seed,
        }


def verify_hvkn(n: int) -> HvknReport:
    """Check that ``_signed_products``, the kernel of the bound sweep,
    equals the signed word sums over the non-diagonal family halves.

    Exhaustive when 2^{2n} fits ``_SAMPLE_BUDGET``, otherwise a fixed-seed
    uniform sample of that size: the low 2n bits of each little-endian
    64-bit word of ``random.Random(104729).randbytes`` (4^n is a power of
    two, so those bits are uniform).  Codes are checked in fixed-size
    blocks, so memory stays flat in the budget; the stream fills whole
    32-bit words in order, so the sample does not depend on the block
    size.  The first failure is the first in sample order.  The word sums
    are gathered from the two family spectra.  All arithmetic is exact.
    """
    if not 2 <= n <= HVKN_LIMIT:
        raise ValueError(f"identity check needs n >= 2 and n <= {HVKN_LIMIT}, got {n}")
    total = 1 << (2 * n)
    if total <= _SAMPLE_BUDGET:
        mode, seed, checked = "exhaustive", None, total
    else:
        mode, seed, checked = "sampled", _SAMPLE_SEED, _SAMPLE_BUDGET
        stream = random.Random(seed)
    even, odd = _spectrum(n, False), _spectrum(n, True)

    failures = 0
    first = None
    for begin in range(0, checked, _HVKN_BLOCK):
        end = min(begin + _HVKN_BLOCK, checked)
        if mode == "exhaustive":
            ints = np.arange(begin, end, dtype=np.int64)
        else:
            words = np.frombuffer(stream.randbytes(8 * (end - begin)), dtype="<i8")
            ints = words & (total - 1)
        re, im = _signed_products(n, ints)
        masks = _word_masks(n, ints)
        bad = (re != even.take(masks)) | (im != odd.take(masks))
        block_failures = int(bad.sum())
        if block_failures and first is None:
            first = Assignment.from_bits(n, int(ints[int(np.argmax(bad))]))
        failures += block_failures
    return HvknReport(
        n=n,
        mode=mode,
        checked=checked,
        failures=failures,
        first_failure=first,
        seed=seed,
    )
