"""State models and the expectation engine Tr[psi * word].

Four state families are supported: dense density matrices, product states
given by per-site Bloch vectors, the two-amplitude superposition
alpha|+...+> + beta|-...->, and the two-qubit Werner family
lambda*|pi><pi| + (1-lambda)/4 * I with |pi> = (|+-> + |-+>)/sqrt(2).
|+> and |-> are the sigma_z eigenstates throughout.

The 2^{n-1} lower half-group words are exactly the even-weight Z-strings,
so their expectations sum to F^psi = 2^{n-1}(rho_00 + rho_last,last) for
every state.  The analytic families evaluate this in O(n):
2^{n-1}(|alpha|^2 + |beta|^2) for the superposition,
(prod(1 + r_z) + prod(1 - r_z))/2 for a product state and 1 - lambda for
Werner.  The test suite checks each closed form against the term-by-term
sum and every analytic expectation against the dense path.

numpy is imported inside the functions that build arrays (the dense
state, its reader and writer, and the dense routes of the expectation
engine), so the analytic families run without it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

from .errors import VerificationError, line_fault
from .pauli import (
    DENSE_STATE_LIMIT,
    LINE_LIMIT,
    SITE_LIMIT,
    PauliString,
    half_zmasks,
    walsh_hadamard,
)

ATOL_SCALAR = 1e-10

# Characters per matrix entry of a dense state file: a row of 2^n entries,
# line ending included, holds at most 2^n times this.
DENSE_ENTRY_CHARS = 256

# Slack on a unit norm (Bloch vector, superposition amplitudes), so that
# parameters rounded from exact unit values are accepted.
_NORM_SLACK = 1e-12


# Rows per band of the Hermitian check and columns per panel of the
# positivity factor: 32 rows of a 2^10 matrix are 0.5 MB.
_BAND = 32


def _hermitian_defect(rho: np.ndarray) -> float:
    """max |rho - rho^H|, one band of rows at a time, so no full-size
    temporary is built."""
    import numpy as np

    defect = 0.0
    for s in range(0, rho.shape[0], _BAND):
        band = slice(s, s + _BAND)
        defect = max(defect, float(np.abs(rho[band] - rho[:, band].conj().T).max()))
    return defect


def _shifted_factor_is_finite(rho: np.ndarray) -> bool:
    """True when rho + ATOL_SCALAR*I has a Cholesky factor L whose
    entries are all finite, that is, when no eigenvalue of rho lies below
    -ATOL_SCALAR (up to rounding).

    L is built left-looking, one panel of ``_BAND`` columns at a time:
    the panel's columns of rho (lower triangle only), the shift on its
    diagonal, less one product per earlier panel; its top block is
    factored and the rows below are solved against that factor.  A panel
    starting at row s reads only rows s.. of the earlier panels, so once
    it is done every earlier panel drops the rows that no later panel
    reads: at most (dim - s) * s entries of L are kept, a quarter of the
    matrix at s = dim/2, and rho is not written.  A pivot that is not
    positive raises in the factorization; one that is NaN (an entry that
    overflowed) passes through it and is caught by the finiteness test.
    """
    import numpy as np

    dim = rho.shape[0]
    done: list[np.ndarray] = []  # rows s.. of each earlier panel of L
    for s in range(0, dim, _BAND):
        width = min(_BAND, dim - s)
        panel = rho[s:, s : s + width].copy()
        panel[range(width), range(width)] += ATOL_SCALAR
        for rows in done:
            panel -= rows @ rows[:width].conj().T
        try:
            top = np.linalg.cholesky(panel[:width])
            # L21 L11^H = A21, solved as conj(L11) L21^T = A21^T
            below = np.linalg.solve(top.conj(), panel[width:].T).T
        except np.linalg.LinAlgError:
            return False
        if not (np.isfinite(top).all() and np.isfinite(below).all()):
            return False
        for k, rows in enumerate(done):  # one copy at a time: a panel's worth of slack
            done[k] = rows[width:].copy()
        done.append(below)
    return True


@dataclass(frozen=True, eq=False)
class DenseState:
    """Explicit density matrix on n <= 10 sites.

    The finiteness, Hermitian (checked in bands of rows), trace and
    positivity checks run in that order; the first to fail raises
    ``ValueError``.  Positivity means that rho + ATOL_SCALAR*I has a
    finite Cholesky factor, so an eigenvalue down to -ATOL_SCALAR is
    accepted; the live part of the factor takes at most a quarter of
    the matrix's memory, plus one panel.  The
    state holds its own copy of the matrix, so a caller that later
    changes its array leaves the state unchanged.
    """

    rho: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        rho = np.array(self.rho, dtype=complex)
        _check_density(rho)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def _adopt(cls, rho: np.ndarray) -> "DenseState":
        """Validate and keep ``rho`` itself, without a copy.  Only for a
        complex array that no caller holds, such as a freshly read one."""
        _check_density(rho)
        state = object.__new__(cls)
        object.__setattr__(state, "rho", rho)
        return state

    @property
    def n(self) -> int:
        return int(self.rho.shape[0]).bit_length() - 1


def _check_density(rho: np.ndarray) -> None:
    """The checks of ``DenseState``, on a complex array, which is read
    and never written: entries finite, |rho - rho^H| and |Tr rho - 1| at
    most ATOL_SCALAR, and rho + ATOL_SCALAR*I with a finite Cholesky
    factor (``_shifted_factor_is_finite``)."""
    import numpy as np

    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    dim = rho.shape[0]
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    if dim > 1 << DENSE_STATE_LIMIT:
        raise ValueError(f"dense states limited to n <= {DENSE_STATE_LIMIT}")
    # Huge finite entries overflow to inf in these checks, which then
    # fail them; numpy's overflow warnings would only add noise.
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rho).all():
            raise ValueError("density matrix entries must be finite")
        if not _hermitian_defect(rho) <= ATOL_SCALAR:
            raise ValueError("density matrix is not Hermitian")
        if not abs(np.trace(rho) - 1) <= ATOL_SCALAR:
            raise ValueError("density matrix trace is not 1")
        if not _shifted_factor_is_finite(rho):
            raise ValueError("density matrix is not positive semidefinite")


@dataclass(frozen=True)
class ProductState:
    """Uncorrelated state given by one Bloch vector per site."""

    bloch: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        vecs = tuple(tuple(float(c) for c in r) for r in self.bloch)
        if not vecs:
            raise ValueError("need at least one site")
        for r in vecs:
            if len(r) != 3:
                raise ValueError("each Bloch vector needs three components")
            if not all(map(math.isfinite, r)):
                raise ValueError(f"Bloch vector {r} has a non-finite component")
            if sum(c * c for c in r) > 1 + _NORM_SLACK:
                raise ValueError(f"Bloch vector {r} has norm > 1")
        object.__setattr__(self, "bloch", vecs)

    @classmethod
    def from_pattern(cls, pattern: str) -> "ProductState":
        """Z-aligned product state from a +/- character per site."""
        if not pattern or set(pattern) - {"+", "-"}:
            raise ValueError(f"pattern must be nonempty over +/-, got {pattern!r}")
        return cls(tuple((0.0, 0.0, 1.0 if c == "+" else -1.0) for c in pattern))

    @property
    def n(self) -> int:
        return len(self.bloch)


@dataclass(frozen=True)
class GhzSuperposition:
    """alpha|+...+> + beta|-...-> on n sites."""

    n: int
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one site")
        alpha, beta = complex(self.alpha), complex(self.beta)
        if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
            raise ValueError("amplitudes must be finite")
        # a magnitude above 2 fails the norm anyway, and squaring it may overflow
        if max(abs(alpha), abs(beta)) > 2 or (
            abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1) > _NORM_SLACK
        ):
            raise ValueError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class WernerState:
    """lambda*|pi><pi| + (1-lambda)/4 * I on two sites."""

    lam: float

    def __post_init__(self) -> None:
        if not 0 <= self.lam <= 1:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.lam}")

    @property
    def n(self) -> int:
        return 2


StateModel = Union[DenseState, ProductState, GhzSuperposition, WernerState]


def pi_vector() -> np.ndarray:
    """The Bell state (|+-> + |-+>)/sqrt(2) in the z basis."""
    import numpy as np

    return np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)


def random_density(n: int, rng: np.random.Generator) -> DenseState:
    """Ginibre-sampled density matrix."""
    import numpy as np

    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DenseState(rho / np.trace(rho))


def to_density_matrix(state: StateModel) -> np.ndarray:
    import numpy as np

    if isinstance(state, DenseState):
        return state.rho.copy()
    if state.n > DENSE_STATE_LIMIT:
        raise ValueError(f"dense form limited to n <= {DENSE_STATE_LIMIT}")
    if isinstance(state, ProductState):
        out = np.array([[1.0]], dtype=complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        for rx, ry, rz in state.bloch:
            site = (np.eye(2) + rx * sx + ry * sy + rz * sz) / 2
            out = np.kron(out, site)
        return out
    if isinstance(state, GhzSuperposition):
        dim = 1 << state.n
        vec = np.zeros(dim, dtype=complex)
        vec[0] = state.alpha
        vec[dim - 1] = state.beta
        return np.outer(vec, vec.conj())
    if isinstance(state, WernerState):
        pi = pi_vector()
        return state.lam * np.outer(pi, pi.conj()) + (1 - state.lam) * np.eye(4) / 4
    raise TypeError(f"not a state model: {type(state).__name__}")


# <pi| A tensor B |pi> is nonzero only for matching letters.
_PI_LETTER_TABLE = {"II": 1.0, "XX": 1.0, "YY": 1.0, "ZZ": -1.0}


def expectation(state: StateModel, word: PauliString) -> complex:
    """Tr[psi * word], via the fastest applicable route."""
    if word.n != state.n:
        raise ValueError(f"site counts differ: state {state.n}, word {word.n}")
    phase = 1j**word.phase_exp

    if isinstance(state, DenseState):
        import numpy as np

        return complex(np.einsum("ij,ji->", state.rho, word.to_matrix()))

    if isinstance(state, ProductState):
        value = 1.0
        site_values = {"I": lambda r: 1.0, "X": lambda r: r[0],
                       "Y": lambda r: r[1], "Z": lambda r: r[2]}
        for letter, r in zip(word.letters, state.bloch):
            value *= site_values[letter](r)
        return 1j**word.sign_exp * value

    if isinstance(state, GhzSuperposition):
        a, b = state.alpha, state.beta
        z_sign = -1 if word.z_mask.bit_count() % 2 else 1
        if word.x_mask == 0:
            return phase * (abs(a) ** 2 + z_sign * abs(b) ** 2)
        if word.x_mask == (1 << word.n) - 1:
            return phase * (a.conjugate() * b + z_sign * a * b.conjugate())
        return 0j

    if isinstance(state, WernerState):
        pure = _PI_LETTER_TABLE.get(word.letters, 0.0) * 1j**word.sign_exp
        mixed = phase if word.is_identity_word else 0.0
        return state.lam * pure + (1 - state.lam) * mixed

    raise TypeError(f"not a state model: {type(state).__name__}")


def f_value(state: StateModel) -> float:
    """Sum of the 2^{n-1} lower-half expectations, F^psi.

    The lower half-group words are the even-weight Z-strings, so
    F^psi = 2^{n-1}(rho_00 + rho_last,last).  Analytic states evaluate
    that closed form in O(n).  Dense states report it too, correctly
    rounded, and cross-check it against the sum of every term's diagonal
    sum, read from one Walsh-Hadamard transform of the diagonal.
    """
    n = state.n
    if not 1 <= n <= SITE_LIMIT:
        raise ValueError(f"F^psi defined for 1 <= n <= {SITE_LIMIT}")

    if isinstance(state, GhzSuperposition):
        # rho_00 + rho_last,last = |alpha|^2 + |beta|^2, which the constructor holds at 1
        return 2.0 ** (n - 1)

    if isinstance(state, ProductState):
        up = math.prod(1 + rz for _, _, rz in state.bloch)
        down = math.prod(1 - rz for _, _, rz in state.bloch)
        return (up + down) / 2

    if isinstance(state, WernerState):
        return float(1 - state.lam)

    if isinstance(state, DenseState):
        import numpy as np

        diag = np.diag(state.rho).real
        # one rounded addition, scaled exactly by a power of two
        direct = (1 << (n - 1)) * float(diag[0] + diag[-1])
        term_sum = float(walsh_hadamard(diag)[half_zmasks(n)].sum())
        if not abs(term_sum - direct) <= ATOL_SCALAR * max(1.0, abs(direct)):
            raise VerificationError(
                f"term sum {term_sum!r} disagrees with rank-two route {direct!r}"
            )
        return direct

    raise TypeError(f"not a state model: {type(state).__name__}")


def _pi_overlap(state: StateModel) -> float:
    """<pi|rho|pi> = (rho_01,01 + rho_10,10 + 2 Re rho_01,10)/2, read from
    the matrix entries of a two-site state; numpy only for a dense one."""
    if isinstance(state, WernerState):
        return state.lam + (1 - state.lam) / 4
    if isinstance(state, GhzSuperposition):
        return 0.0  # alpha|00> + beta|11> has no 01 or 10 entry
    if isinstance(state, ProductState):
        # entries of the site matrices (I + r.sigma)/2; rho = a (x) b
        (xa, ya, za), (xb, yb, zb) = state.bloch
        a00, a11, a01 = (1 + za) / 2, (1 - za) / 2, complex(xa, -ya) / 2
        b00, b11, b10 = (1 + zb) / 2, (1 - zb) / 2, complex(xb, yb) / 2
        return (a00 * b11 + a11 * b00 + 2 * (a01 * b10).real) / 2
    pi = pi_vector()
    return float((pi.conj() @ to_density_matrix(state) @ pi).real)


def bell_fidelity(state: StateModel) -> float:
    """Overlap with |pi> from the correlators, cross-checked by ``_pi_overlap``."""
    if state.n != 2:
        raise ValueError("defined for two sites only")
    corr = (
        1.0
        + expectation(state, PauliString.from_text("+XX")).real
        + expectation(state, PauliString.from_text("+YY")).real
        - expectation(state, PauliString.from_text("+ZZ")).real
    ) / 4
    direct = _pi_overlap(state)
    if not abs(corr - direct) <= ATOL_SCALAR:
        raise VerificationError(
            f"correlator route {corr!r} disagrees with overlap route {direct!r}"
        )
    return corr


def parse_state_spec(spec: str) -> StateModel:
    """Parse the CLI mini-language.

    Forms: ``ghz:n=5,alpha=0.6,beta=0.8``, ``product:+++++``,
    ``werner:lambda=0.5``, ``dense:@file``.
    """
    kind, sep, rest = spec.strip().partition(":")
    if not sep:
        raise ValueError(f"state spec needs a kind prefix, got {spec!r}")
    kind = kind.lower()
    if kind == "product":
        return ProductState.from_pattern(rest)
    if kind == "dense":
        if not rest.startswith("@"):
            raise ValueError("dense spec must reference a file: dense:@path")
        return read_dense_state(rest[1:])
    names = {"ghz": ("n", "alpha", "beta"), "werner": ("lambda",)}.get(kind)
    if names is None:
        raise ValueError(f"unknown state kind {kind!r}")
    fields = {}
    for item in rest.split(","):
        key, eq, value = item.partition("=")
        if not eq or not key or not value:
            raise ValueError(f"malformed field {item!r} in state spec {spec!r}")
        key = key.strip()
        if key in fields or key not in names:
            problem = "repeated" if key in fields else "unknown"
            raise ValueError(f"{problem} field {key!r} in state spec {spec!r}")
        fields[key] = value.strip()
    for key in names:
        if key not in fields:
            raise ValueError(f"state spec {spec!r} is missing field {key!r}")
    if kind == "ghz":
        return GhzSuperposition(
            int(fields["n"]), complex(fields["alpha"]), complex(fields["beta"])
        )
    return WernerState(float(fields["lambda"]))


def read_dense_state(path: str) -> DenseState:
    """Load the documented text format: first line n, then 2^n rows of
    2^n whitespace-separated "re,im" pairs; blank lines are skipped.

    The file is read one row at a time into a preallocated buffer, so no
    more than one row of text is held.  A line is read up to its limit,
    ``LINE_LIMIT`` characters before the header and ``DENSE_ENTRY_CHARS``
    per entry after it, and a longer one is an error naming its line.
    Each row is checked as it is read: a malformed row is reported by
    row (and entry) before the row count is compared, and rows past the
    2^n-th are counted but not parsed.  A row as ``write_dense_state``
    writes it is parsed by orjson in one call, and any other row entry by
    entry (``_read_row``); both accept the same rows, with the same bits
    and messages.  The state adopts the filled
    buffer instead of copying it.  The file is read as UTF-8 after an
    optional byte-order mark, and a byte that does not decode is an
    error naming its line.  Each line is judged by ``line_fault`` as it
    is read, so faults are reported in reading order, from a pipe or a
    FIFO as from a regular file.
    """
    import numpy as np

    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        lineno = 0

        def next_line(limit: int) -> str | None:
            """The next non-blank line, stripped; None at the end of the file."""
            nonlocal lineno
            while line := fh.readline(limit + 1):
                lineno += 1
                if fault := line_fault(line, len(line), limit):
                    raise ValueError(f"{path}: line {lineno}: {fault}")
                if text := line.strip():
                    return text
            return None

        header = next_line(LINE_LIMIT)
        if header is None:
            raise ValueError(f"{path}: empty state file")
        try:
            n = int(header)
        except ValueError:
            raise ValueError(f"{path}: first line must be the site count") from None
        if not 1 <= n <= DENSE_STATE_LIMIT:
            raise ValueError(f"{path}: site count {n} outside 1..{DENSE_STATE_LIMIT}")
        dim = 1 << n
        # re and im of each entry side by side: the memory layout of complex
        buf = np.empty((dim, 2 * dim))
        found = 0
        while (line := next_line(dim * DENSE_ENTRY_CHARS)) is not None:
            found += 1
            if found <= dim:
                _read_row(path, found - 1, line, buf[found - 1])
    if found != dim:
        raise ValueError(f"{path}: expected {dim} matrix rows, found {found}")
    return DenseState._adopt(buf.view(complex))


# The bytes of a number in a row that ``_read_row`` hands to orjson:
# deleted from such a row, they leave exactly its separator sequence,
# ", , ... ,", so one ``translate`` checks both the row's layout and that
# no other byte (a letter, a quote, a bracket, "_") reaches JSON.
_NOT_SEPARATORS = b"0123456789+-.eE"


def _read_row(path: str, i: int, line: str, out: np.ndarray) -> None:
    """Parse matrix row i into ``out`` as re, im, re, im, ...

    An ASCII row whose separators are exactly "," and " " in turn, 2^n
    commas in all, and whose other bytes are all in ``_NOT_SEPARATORS``,
    is one ``orjson.loads`` call on the row as a JSON list of its re and
    im parts.  JSON numbers are a subset of what ``float`` accepts, with
    the same bits, with one exception: the integer ``-0`` reads as 0, so
    a row that may hold it is not handed over.  Every other row (tabs or
    repeated spaces, ``inf``, ``1_0``, ``.5``, ``+1`` and ``01`` among
    them), a parse orjson refuses and a parse of the wrong shape take
    ``_read_entries``, which accepts what ``float`` accepts and names the
    first bad entry.
    """
    import orjson

    dim = out.shape[0] // 2
    numbers = line.replace(" ", ",")
    if (
        line.isascii()
        and line.encode().translate(None, _NOT_SEPARATORS) == b", " * (dim - 1) + b","
        and not ("-0," in numbers or numbers.endswith("-0"))
    ):
        try:
            values = orjson.loads("[" + numbers + "]")
        except orjson.JSONDecodeError:
            pass
        else:
            if len(values) == out.shape[0]:
                out[:] = values
                return
    _read_entries(path, i, line, out)


def _read_entries(path: str, i: int, line: str, out: np.ndarray) -> None:
    """Parse matrix row i into ``out`` one entry at a time with ``float``,
    naming the first entry that is not a numeric re,im pair."""
    dim = out.shape[0] // 2
    pairs = line.split()
    if len(pairs) != dim:
        raise ValueError(f"{path}: row {i} has {len(pairs)} entries, expected {dim}")
    for j, pair in enumerate(pairs):
        re_part, sep, im_part = pair.partition(",")
        if not sep:
            raise ValueError(f"{path}: row {i} entry {j} is not a re,im pair")
        try:
            out[2 * j : 2 * j + 2] = float(re_part), float(im_part)
        except ValueError:
            raise ValueError(f"{path}: row {i} entry {j} is not numeric") from None


def write_dense_state(path: str, state: StateModel) -> None:
    rho = to_density_matrix(state)
    n = rho.shape[0].bit_length() - 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for row in rho:
            fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")
