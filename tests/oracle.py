"""Independent oracles shared by the test modules.

Matrices are composed from rendered text (sign prefix, one letter per
site, the true sigma_y), so none of the package's mask or phase
bookkeeping is reused here.  Signed parity sums are summed term by term,
the brute-force route that the Walsh-Hadamard spectra replace.
"""

from __future__ import annotations

import re

import numpy as np

from kslab.pauli import PauliString

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


def random_word(rng: np.random.Generator, n: int) -> PauliString:
    return PauliString(
        n,
        int(rng.integers(1 << n)),
        int(rng.integers(1 << n)),
        int(rng.integers(4)),
    )


def parity_dot(masks: np.ndarray, z_masks: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """For each mask m: sum_q signs[q] * (-1)^popcount(m & z_masks[q])."""
    out = np.empty(masks.shape[0], dtype=np.int64)
    step = max(1, (1 << 22) // max(1, z_masks.shape[0]))
    for lo in range(0, masks.shape[0], step):
        block = np.bitwise_count(masks[lo : lo + step, None] & z_masks[None, :])
        values = 1 - 2 * (block & np.uint8(1)).astype(np.int64)
        out[lo : lo + step] = values @ signs
    return out
