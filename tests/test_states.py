"""State models and expectation engine against the dense oracle."""

from __future__ import annotations

import builtins
import itertools
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    LETTER,
    HnObservable,
    dense,
    half_group_term_sum,
    maximally_mixed,
    oracle_matrix,
    positive_semidefinite_reference,
    random_word,
    read_dense_reference,
)

import kslab.states
from kslab.errors import VerificationError
from kslab.pauli import (
    DENSE_STATE_LIMIT,
    LINE_LIMIT,
    SITE_LIMIT,
    LambdaIndex,
    PauliString,
    half_zmasks,
    lambda_element,
)
from kslab.states import (
    ATOL_SCALAR,
    DENSE_ENTRY_CHARS,
    DenseState,
    GhzSuperposition,
    ProductState,
    WernerState,
    _check_density,
    _pi_overlap,
    bell_fidelity,
    expectation,
    f_value,
    parse_state_spec,
    pi_vector,
    random_density,
    read_dense_state,
    to_density_matrix,
    write_dense_state,
)


def oracle_expectation(state, word: PauliString) -> complex:
    rho = to_density_matrix(state)
    return complex(np.trace(rho @ dense(word)))


def ghz_pair(rng) -> tuple[complex, complex]:
    a = rng.standard_normal() + 1j * rng.standard_normal()
    b = rng.standard_normal() + 1j * rng.standard_normal()
    norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def oracle_pi_vector() -> np.ndarray:
    # (|+-> + |-+>)/sqrt(2) with |+> = z-up: indices 1 and 2, site 0 major
    v = np.zeros(4, dtype=complex)
    v[0b01] = v[0b10] = 1 / np.sqrt(2)
    return v


class TestAnalyticVsDense:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_ghz_on_all_family_words(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(3):
            state = GhzSuperposition(n, *ghz_pair(rng))
            for p in range(1 << n):
                for word in (
                    lambda_element(LambdaIndex(n, p)),
                    lambda_element(LambdaIndex(n, p, True)),
                ):
                    fast = expectation(state, word)
                    slow = oracle_expectation(state, word)
                    assert abs(fast - slow) < 1e-10

    @pytest.mark.parametrize("n", range(2, 7))
    def test_product_on_all_family_words(self, n):
        rng = np.random.default_rng(20 + n)
        vecs = rng.standard_normal((n, 3))
        vecs /= np.maximum(1.0, np.linalg.norm(vecs, axis=1))[:, None]
        state = ProductState(tuple(map(tuple, vecs)))
        for p in range(1 << n):
            for word in (lambda_element(LambdaIndex(n, p)), lambda_element(LambdaIndex(n, p, True))):
                assert abs(expectation(state, word) - oracle_expectation(state, word)) < 1e-10

    def test_random_words_all_models(self):
        rng = np.random.default_rng(31)
        states = [
            GhzSuperposition(3, *ghz_pair(rng)),
            ProductState(((0.3, -0.4, 0.5), (0.0, 0.0, 1.0), (-0.6, 0.0, 0.6))),
        ]
        for state in states:
            for _ in range(120):
                word = random_word(rng, 3)
                assert abs(expectation(state, word) - oracle_expectation(state, word)) < 1e-10
        werner = WernerState(0.7)
        for _ in range(120):
            word = random_word(rng, 2)
            assert abs(expectation(werner, word) - oracle_expectation(werner, word)) < 1e-10

    def test_dense_state_route(self):
        rng = np.random.default_rng(5)
        state = random_density(2, rng)
        for _ in range(60):
            word = random_word(rng, 2)
            assert abs(expectation(state, word) - oracle_expectation(state, word)) < 1e-12


class TestFrozenExpectations:
    def test_werner_half_correlators(self):
        w = WernerState(0.5)
        assert expectation(w, PauliString.from_text("+XX")) == pytest.approx(0.5)
        assert expectation(w, PauliString.from_text("+YY")) == pytest.approx(0.5)
        assert expectation(w, PauliString.from_text("+ZZ")) == pytest.approx(-0.5)

    def test_pi_letter_table_against_oracle(self):
        v = oracle_pi_vector()
        nonzero = {"II": 1.0, "XX": 1.0, "YY": 1.0, "ZZ": -1.0}
        for a, b in itertools.product("IXYZ", repeat=2):
            val = v.conj() @ np.kron(LETTER[a], LETTER[b]) @ v
            assert val == pytest.approx(nonzero.get(a + b, 0.0), abs=1e-12)

    def test_ghz_three_site_all_x(self):
        state = GhzSuperposition(3, 1 / np.sqrt(2), 1 / np.sqrt(2))
        word = lambda_element(LambdaIndex(3, 4))
        assert word.to_text() == "+XXX"
        assert expectation(state, word) == pytest.approx(1.0)

    def test_maximally_mixed_nonidentity_vanishes(self):
        state = maximally_mixed(3)
        rng = np.random.default_rng(9)
        for _ in range(40):
            word = random_word(rng, 3)
            if word.is_identity_word:
                continue
            assert abs(expectation(state, word)) < 1e-12

    def test_mismatched_sites_rejected(self):
        with pytest.raises(ValueError):
            expectation(WernerState(0.5), PauliString.from_text("+XXX"))


class TestFValue:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_ghz_constant(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(10):
            state = GhzSuperposition(n, *ghz_pair(rng))
            assert f_value(state) == pytest.approx(2 ** (n - 1), abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_all_up_product(self, n):
        state = ProductState.from_pattern("+" * n)
        assert f_value(state) == pytest.approx(2 ** (n - 1), abs=1e-9)

    def test_hundred_random_pairs_invariant(self):
        rng = np.random.default_rng(77)
        values = [f_value(GhzSuperposition(5, *ghz_pair(rng))) for _ in range(120)]
        assert max(abs(v - 16.0) for v in values) < 1e-9

    @pytest.mark.parametrize("n", range(2, 6))
    def test_maximally_mixed_is_one(self, n):
        assert f_value(maximally_mixed(n)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_dense_matches_analytic_for_ghz(self, n):
        rng = np.random.default_rng(50 + n)
        state = GhzSuperposition(n, *ghz_pair(rng))
        dense_state = DenseState(to_density_matrix(state))
        assert f_value(dense_state) == pytest.approx(f_value(state), abs=1e-9)

    def test_werner(self):
        for lam in (0.0, 0.3, 1.0):
            state = WernerState(lam)
            assert f_value(state) == pytest.approx(1 - lam, abs=1e-12)
            assert f_value(DenseState(to_density_matrix(state))) == pytest.approx(
                1 - lam, abs=1e-10
            )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_dense_term_sum_matches_per_mask_loop(self, n):
        rng = np.random.default_rng(60 + n)
        probs = rng.random(1 << n)
        state = DenseState(np.diag(probs / probs.sum()))
        diag = np.diag(state.rho).real
        ks = np.arange(1 << n, dtype=np.uint64)
        term_sum = 0.0
        for zp in half_zmasks(n):
            signs = 1 - 2 * (np.bitwise_count(ks & np.uint64(zp)).astype(np.int64) & 1)
            term_sum += float(diag @ signs)
        assert abs(f_value(state) - term_sum) <= 1e-12 * max(1.0, abs(term_sum))

    @pytest.mark.parametrize("n", range(1, 19))
    def test_closed_forms_match_term_sum(self, n):
        rng = np.random.default_rng(100 + n)
        states = [GhzSuperposition(n, *ghz_pair(rng)) for _ in range(3)]
        for _ in range(3):
            vecs = rng.standard_normal((n, 3))
            vecs /= np.maximum(1.0, np.linalg.norm(vecs, axis=1))[:, None]
            assert np.all(vecs[:, :2] != 0)
            states.append(ProductState(tuple(map(tuple, vecs))))
        for state in states:
            ref = half_group_term_sum(state)
            assert f_value(state) == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3, 0.5, 2 / 3, 1.0])
    def test_werner_closed_form_matches_term_sum(self, lam):
        state = WernerState(lam)
        assert f_value(state) == pytest.approx(half_group_term_sum(state), rel=1e-12, abs=0)

    def test_finite_at_site_limit(self):
        ghz = GhzSuperposition(SITE_LIMIT, 2**-0.5, 2**-0.5)
        product = ProductState.from_pattern("+" * SITE_LIMIT)
        assert f_value(ghz) == pytest.approx(2.0 ** (SITE_LIMIT - 1), rel=1e-15)
        assert f_value(product) == 2.0 ** (SITE_LIMIT - 1)

    def test_rejects_beyond_site_limit(self):
        n = SITE_LIMIT + 1
        with pytest.raises(ValueError):
            f_value(GhzSuperposition(n, 2**-0.5, 2**-0.5))
        with pytest.raises(ValueError):
            f_value(ProductState.from_pattern("+" * n))

    def test_random_dense_states_match_observable_route(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            state = random_density(n, rng)
            h = HnObservable(n).matrix()
            via_h = float(np.real(np.trace(state.rho @ h)))
            assert f_value(state) == pytest.approx(via_h, abs=1e-10)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dense_reports_the_correctly_rounded_closed_form(self, n):
        rng = np.random.default_rng(900 + n)
        for _ in range(25):
            state = random_density(n, rng)
            diag = np.diag(state.rho).real
            exact = 2 ** (n - 1) * (Fraction(float(diag[0])) + Fraction(float(diag[-1])))
            assert f_value(state) == float(exact)  # float() of a Fraction rounds correctly

    def test_nan_term_sum_fails_the_cross_check(self, monkeypatch):
        monkeypatch.setattr(
            kslab.states, "walsh_hadamard", lambda values: np.full(len(values), np.nan)
        )
        with pytest.raises(VerificationError, match="disagrees with rank-two route"):
            f_value(maximally_mixed(2))


class TestHnObservable:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_word_sum(self, n):
        h = HnObservable(n)
        np.testing.assert_allclose(h.matrix(), h.half_group_sum(), atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_oracle_word_sum(self, n):
        total = sum(
            dense(lambda_element(LambdaIndex(n, p))) for p in range(1 << (n - 1))
        )
        np.testing.assert_allclose(HnObservable(n).matrix(), total, atol=1e-12)


class TestBellFidelity:
    @pytest.mark.parametrize("lam,expected", [(0.0, 0.25), (0.5, 0.625), (1.0, 1.0)])
    def test_werner_affine(self, lam, expected):
        assert bell_fidelity(WernerState(lam)) == pytest.approx(expected, abs=1e-10)
        dense_w = DenseState(to_density_matrix(WernerState(lam)))
        assert bell_fidelity(dense_w) == pytest.approx(expected, abs=1e-10)

    def test_pure_pi_self_fidelity(self):
        pi = pi_vector()
        state = DenseState(np.outer(pi, pi.conj()))
        assert bell_fidelity(state) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert bell_fidelity(maximally_mixed(2)) == pytest.approx(0.25, abs=1e-12)

    def test_wrong_site_count(self):
        with pytest.raises(ValueError):
            bell_fidelity(maximally_mixed(3))

    @staticmethod
    def matrix_overlap(state) -> float:
        pi = pi_vector()
        return float(np.real(pi.conj() @ to_density_matrix(state) @ pi))

    def test_product_overlap_matches_matrix(self):
        rng = np.random.default_rng(5)
        states = [ProductState.from_pattern(p) for p in ("++", "+-", "-+", "--")]
        for _ in range(200):  # uniform in the ball: a normal direction, radius u^(1/3)
            vecs = rng.standard_normal((2, 3))
            vecs *= (rng.random(2) ** (1 / 3) / np.linalg.norm(vecs, axis=1))[:, None]
            states.append(ProductState(tuple(map(tuple, vecs))))
        for state in states:
            assert _pi_overlap(state) == pytest.approx(self.matrix_overlap(state), abs=1e-12)
            assert bell_fidelity(state) == pytest.approx(_pi_overlap(state), abs=1e-10)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0])
    def test_werner_overlap_matches_matrix(self, lam):
        state = WernerState(lam)
        assert _pi_overlap(state) == pytest.approx(self.matrix_overlap(state), abs=1e-12)

    def test_ghz_overlap_matches_matrix(self):
        rng = np.random.default_rng(6)
        for theta, phi, chi in rng.uniform(0, 2 * np.pi, (50, 3)):
            state = GhzSuperposition(
                2, np.cos(theta) * np.exp(1j * phi), np.sin(theta) * np.exp(1j * chi)
            )
            assert _pi_overlap(state) == pytest.approx(self.matrix_overlap(state), abs=1e-12)
            assert bell_fidelity(state) == pytest.approx(0.0, abs=1e-10)

    def test_numpy_free_route_still_catches_a_wrong_correlator(self, monkeypatch):
        monkeypatch.setattr(
            kslab.states, "_PI_LETTER_TABLE", {"II": 1.0, "XX": 1.0, "YY": 1.0, "ZZ": 1.0}
        )
        with pytest.raises(VerificationError, match="disagrees with overlap route"):
            bell_fidelity(WernerState(0.5))

    def test_nan_overlap_fails_the_cross_check(self, monkeypatch):
        monkeypatch.setattr(kslab.states, "_pi_overlap", lambda state: float("nan"))
        with pytest.raises(VerificationError, match="disagrees with overlap route nan"):
            bell_fidelity(WernerState(0.5))

    def test_pi_vector_matches_oracle(self):
        np.testing.assert_allclose(pi_vector(), oracle_pi_vector(), atol=1e-15)


class TestValidation:
    def test_dense_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            DenseState(np.eye(3) / 3)  # not a power of two
        with pytest.raises(ValueError):
            DenseState(np.eye(4))  # trace 4
        bad = np.eye(4, dtype=complex) / 4
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            DenseState(bad)  # not Hermitian
        flipped = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            DenseState(flipped)  # negative eigenvalue
        with pytest.raises(ValueError, match="must be square"):
            DenseState(np.zeros((2, 3)))
        # never written, so its pages are never touched
        dim = 2 << DENSE_STATE_LIMIT
        with pytest.raises(ValueError, match="dense states limited"):
            _check_density(np.empty((dim, dim), complex))

    def test_dense_state_keeps_its_own_copy(self):
        rho = np.eye(4, dtype=complex) / 4
        state = DenseState(rho)
        rho[0, 0] = 7.0
        rho[1, 2] = 1j
        assert same_bits(state.rho, np.eye(4, dtype=complex) / 4)

    def test_adopting_constructor_validates_and_does_not_copy(self):
        rho = np.eye(4, dtype=complex) / 4
        assert DenseState._adopt(rho).rho is rho
        rho[0, 1] = 0.5
        with pytest.raises(ValueError, match="not Hermitian"):
            DenseState._adopt(rho)

    def test_nan_hermitian_defect_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(kslab.states, "_hermitian_defect", lambda rho: float("nan"))
        with pytest.raises(ValueError, match="not Hermitian"):
            DenseState(np.eye(4) / 4)

    def test_trace_that_sums_to_nan_is_not_one(self):
        # the checks run in order: this matrix is finite and Hermitian,
        # and its trace overflows to inf - inf
        rho = np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308]).astype(complex)
        with pytest.raises(ValueError, match="^density matrix trace is not 1$"):
            DenseState(rho)

    def test_dense_form_of_a_product_is_limited(self):
        state = ProductState.from_pattern("+" * (DENSE_STATE_LIMIT + 1))
        with pytest.raises(ValueError, match="dense form limited"):
            to_density_matrix(state)

    @pytest.mark.parametrize(
        "route",
        [f_value, to_density_matrix, lambda state: expectation(state, PauliString(2, 0, 0))],
        ids=["f_value", "to_density_matrix", "expectation"],
    )
    def test_rejects_what_is_not_a_state_model(self, route):
        with pytest.raises(TypeError, match="not a state model: SimpleNamespace"):
            route(SimpleNamespace(n=2))

    def test_product_rejects_long_bloch(self):
        with pytest.raises(ValueError):
            ProductState(((0.9, 0.9, 0.9),))
        with pytest.raises(ValueError):
            ProductState(())
        with pytest.raises(ValueError):
            ProductState.from_pattern("+0-")
        with pytest.raises(ValueError, match="three components"):
            ProductState(((0.0, 0.0),))

    def test_ghz_normalization(self):
        with pytest.raises(ValueError):
            GhzSuperposition(3, 1.0, 1.0)
        GhzSuperposition(3, 0.6, 0.8j)

    def test_werner_range(self):
        with pytest.raises(ValueError):
            WernerState(-0.1)
        with pytest.raises(ValueError):
            WernerState(1.1)

    def test_rejects_huge_amplitudes_without_overflow(self):
        with pytest.raises(ValueError, match="alpha"):
            GhzSuperposition(3, 1e200, 1.0)
        with pytest.raises(ValueError, match="alpha"):
            GhzSuperposition(3, 1.0, 1e200j)

    @pytest.mark.parametrize("row, col", [(0, 1), (63, 64), (100, 5), (127, 126)])
    def test_hermitian_defect_found_in_every_band(self, row, col):
        rho = np.eye(128, dtype=complex) / 128
        rho[row, col] = 1e-9
        with pytest.raises(ValueError, match="not Hermitian"):
            DenseState(rho)
        rho[row, col] = 1e-11  # within ATOL_SCALAR
        DenseState(rho)

    @pytest.mark.parametrize(
        "rho, message",
        [
            ([[0.5, 1e308], [-1e308, 0.5]], "not Hermitian"),  # 1e308 - (-1e308)
            ([[1e308, 1e308], [1e308, 1e308]], "trace is not 1"),  # sum overflows
        ],
    )
    def test_overflow_rejects_without_warnings(self, rho, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                DenseState(np.array(rho, dtype=complex))

    @pytest.mark.parametrize(
        "n, row, col, value",
        [
            (1, 0, 1, 1.7e308 + 1.7e308j),  # eigenvalues +-2.4e308 overflow
            (1, 0, 1, 1e154),
            (1, 0, 1, 1e200),
            (1, 0, 1, 1.7e308),
            (10, 3, 900, 1.7e308),
        ],
    )
    def test_overflowing_off_diagonal_is_not_positive(self, n, row, col, value):
        # finite, Hermitian and of trace 1, but far from positive
        rho = np.eye(1 << n, dtype=complex) / (1 << n)
        rho[row, col], rho[col, row] = value, np.conj(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not positive semidefinite"):
                DenseState(rho)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_positivity_matches_the_eigenvalue_oracle(self, n):
        # least eigenvalue on both sides of -ATOL_SCALAR, in a random basis
        rng = np.random.default_rng(2000 + n)
        dim = 1 << n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis = np.linalg.qr(g)[0]
        for scale in (0, 0.5, 0.9, 0.99, 1.01, 1.1, 2, 10):
            least = -scale * ATOL_SCALAR
            spectrum = rng.random(dim)
            spectrum *= (1 - least) / spectrum[1:].sum()
            spectrum[0] = least
            rho = (basis * spectrum) @ basis.conj().T
            expected = positive_semidefinite_reference(rho)
            assert expected == (scale < 1)
            try:
                DenseState._adopt(rho)
            except ValueError as exc:
                assert str(exc) == "density matrix is not positive semidefinite"
                assert not expected, scale
            else:
                assert expected, scale

    @pytest.mark.parametrize("n", range(5, 11))
    def test_positivity_near_a_panel_boundary(self, n):
        # the least eigenvector lives on a few rows on both sides of a panel
        # boundary and on the last row, so a row of L that the trimmed
        # factor dropped too early or misaligned changes the verdict
        rng = np.random.default_rng(3000 + n)
        dim = 1 << n
        rows = [dim // 2 - 2, dim // 2 - 1, dim // 2, dim // 2 + 1, dim - 1]
        for scale in (0.9, 1.1):
            g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            basis = np.linalg.qr(g)[0]
            least = -scale * ATOL_SCALAR
            spectrum = rng.random(dim)
            spectrum[rows[0]] = 0
            spectrum *= (1 - least) / spectrum.sum()
            spectrum[rows[0]] = least
            rho = np.diag(spectrum).astype(complex)
            rho[np.ix_(rows, rows)] = (basis * spectrum[rows]) @ basis.conj().T
            expected = positive_semidefinite_reference(rho)
            assert expected == (scale < 1)
            assert kslab.states._shifted_factor_is_finite(rho) == expected, scale

    def test_positivity_factor_keeps_a_quarter_of_the_matrix(self):
        # at most (dim - s) * s entries of L are live, a quarter of rho at
        # s = dim/2, plus a panel and its update
        rng = np.random.default_rng(11)
        dim = 1 << DENSE_STATE_LIMIT
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T / dim
        tracemalloc.start()
        try:
            assert kslab.states._shifted_factor_is_finite(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.375 * rho.nbytes

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError):
            GhzSuperposition(3, bad, 1.0)
        with pytest.raises(ValueError):
            GhzSuperposition(3, 1.0, complex(0.0, bad))
        with pytest.raises(ValueError):
            ProductState(((0.0, 0.0, 1.0), (bad, 0.0, 0.0)))
        with pytest.raises(ValueError):
            WernerState(bad)
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = rho[1, 0] = bad
        with pytest.raises(ValueError):
            DenseState(rho)


class TestStateSpecLanguage:
    def test_ghz_spec(self):
        state = parse_state_spec("ghz:n=5,alpha=0.6,beta=0.8")
        assert state == GhzSuperposition(5, 0.6, 0.8)

    def test_complex_amplitudes(self):
        state = parse_state_spec("ghz:n=2,alpha=0.6,beta=0.8j")
        assert state.beta == 0.8j

    def test_product_spec(self):
        state = parse_state_spec("product:++-")
        assert state == ProductState(((0, 0, 1.0), (0, 0, 1.0), (0, 0, -1.0)))

    def test_werner_spec(self):
        assert parse_state_spec("werner:lambda=0.5") == WernerState(0.5)

    def test_dense_spec_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        state = random_density(2, rng)
        path = tmp_path / "state.txt"
        write_dense_state(str(path), state)
        loaded = parse_state_spec(f"dense:@{path}")
        np.testing.assert_allclose(loaded.rho, state.rho, atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [
            "ghz",
            "ghz:n=3",
            "ghz:n=3,alpha=x,beta=0",
            "product:",
            "werner:lam=0.5",
            "squeezed:r=1",
            "dense:/no/at/prefix",
            "ghz:n=3,alpha=0.6,beta=0.8,gamma=5",
            "werner:lambda=0.5,lambda=0.9",
            "ghz:n=3,alpha=0.6,beta=0.8,n=4",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_state_spec(bad)

    def test_dense_file_errors(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("")
        with pytest.raises(ValueError):
            read_dense_state(str(p))
        p.write_text("x\n")
        with pytest.raises(ValueError):
            read_dense_state(str(p))
        p.write_text("1\n1,0 0,0\n")
        with pytest.raises(ValueError):
            read_dense_state(str(p))  # missing a row
        p.write_text("1\n1,0\n0,0 0,0\n")
        with pytest.raises(ValueError):
            read_dense_state(str(p))  # short row
        p.write_text("1\n0.5,0 0,0\n0,0 0.5,q\n")
        with pytest.raises(ValueError):
            read_dense_state(str(p))  # non-numeric entry


def test_ghz_dense_form_is_projector():
    state = GhzSuperposition(4, 0.6, 0.8j)
    rho = to_density_matrix(state)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
    assert np.trace(rho) == pytest.approx(1.0)


def dense_file(tmp_path, rows: list[str], header: str = "1") -> str:
    path = tmp_path / "state.txt"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_reads_like_reference(path: str) -> None:
    """``read_dense_state`` gives the reference's matrix, bit for bit, or
    its message."""
    try:
        expected = read_dense_reference(path)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_dense_state(path)
        assert str(info.value) == str(exc)
    else:
        assert same_bits(read_dense_state(path).rho, expected.rho)


def exact_decimal(value: Fraction) -> str:
    """The exact decimal expansion of a positive Fraction whose
    denominator is a power of two, in JSON's number syntax."""
    shift = value.denominator.bit_length() - 1
    digits = str(value.numerator * 5**shift).rjust(shift + 1, "0")
    return digits[: len(digits) - shift] + ("." + digits[len(digits) - shift :] if shift else "")


def token_battery(rng: np.random.Generator) -> dict[str, list[str]]:
    """Dense-row entries "re,im", each of at most DENSE_ENTRY_CHARS - 1
    characters, by kind of token; every token but the signed zeros is a
    JSON number."""
    doubles = rng.integers(0, 1 << 64, 6000, dtype=np.uint64).view(np.float64)
    doubles = doubles[np.isfinite(doubles)]
    # adjacent doubles from 2^-60 to 2^300, whose midpoints take at most 115 characters
    lows = np.ldexp(rng.random(1000) + 1, rng.integers(-60, 300, 1000))
    halfway = [
        exact_decimal((Fraction(lo) + Fraction(float(np.nextafter(lo, np.inf)))) / 2)
        for lo in lows.tolist()
    ]
    subnormals = rng.integers(1, 1 << 52, 300, dtype=np.uint64).view(np.float64)
    # with ",0", up to 252 characters an entry
    digits = ["".join(map(str, rng.integers(0, 10, size))) for size in rng.integers(225, 245, 60)]
    integers = [
        str(sign * (base + step))
        for base in (2**53, 2**64, 10**30)
        for step in range(-40, 41)
        for sign in (1, -1)
    ]

    def pairs(tokens: list[str]) -> list[str]:
        return [f"{re},{im}" for re, im in zip(tokens[::2], tokens[1::2])]

    return {
        "repr round trips": pairs([repr(x) for x in doubles.tolist()]),
        "halfway points": pairs(halfway),
        "subnormals": pairs(
            [*map(repr, subnormals.tolist()), "1e-400", "-1e-400", "4.9e-324",
             "2.4703282292062327e-324", "2.4703282292062328e-324", "2.2250738585072011e-308"]
        ),
        "long digit strings": [
            f"{token},0"
            for d in digits
            for token in ("9" + d, "0." + d, "-0." + d + "e-5", "1" + d[:-12] + "E-200")
        ],
        "integers": pairs(integers),
        # four to a row: the second row holds a -0 only before a comma,
        # the third only at its end
        "signed zeros": ["-0,-0", "-0.0,-0", "1e-0,-0.0", "0,-0",
                         "-0e0,-0E+0", "-0,-0.0", "-0.0,1e-0", "0e-0,0",
                         "0,0", "0,0", "-0.0,0", "0,-0"],
    }


class TestDenseReader:
    """The streamed reader against the whole-file reference parser."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_matches_reference_bit_for_bit(self, tmp_path, n):
        state = random_density(n, np.random.default_rng(100 + n))
        path = str(tmp_path / "state.txt")
        write_dense_state(path, state)
        loaded = read_dense_state(path)
        assert same_bits(loaded.rho, read_dense_reference(path).rho)
        assert same_bits(loaded.rho, state.rho)

    def test_reader_adopts_its_parse_buffer(self, tmp_path):
        path = str(tmp_path / "state.txt")
        write_dense_state(path, random_density(3, np.random.default_rng(5)))
        rho = read_dense_state(path).rho
        # a complex view of the (2^n, 2^(n+1)) float buffer, not a copy
        assert rho.base is not None and rho.base.shape == (8, 16)
        assert rho.base.dtype == np.float64

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_blank_lines_and_line_endings(self, tmp_path, newline):
        state = random_density(3, np.random.default_rng(7))
        plain = str(tmp_path / "plain.txt")
        write_dense_state(plain, state)
        with open(plain, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        path = tmp_path / "spaced.txt"
        spaced = ["", lines[0], "  ", *itertools.chain(*((line, "") for line in lines[1:]))]
        path.write_bytes(newline.join(spaced).encode())
        loaded = read_dense_state(str(path))
        assert same_bits(loaded.rho, read_dense_reference(str(path)).rho)
        assert same_bits(loaded.rho, state.rho)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,2,3 4", "row 1 entry 0 is not numeric"),
            (",0 0,0", "row 1 entry 0 is not numeric"),
            ("0,0 1,", "row 1 entry 1 is not numeric"),
            ("1;0 0,0", "row 1 entry 0 is not a re,im pair"),
            ("0,0 0x10,0", "row 1 entry 1 is not numeric"),
            ("0,0 0.5,0 0,0", "row 1 has 3 entries, expected 2"),
            ("0,0 0.5", "row 1 entry 1 is not a re,im pair"),
            ("0,0 0.5,0,", "row 1 entry 1 is not numeric"),
            (", 1,", "row 1 entry 0 is not numeric"),  # parses to one number
        ],
    )
    def test_malformed_row_is_named(self, tmp_path, row, message):
        path = dense_file(tmp_path, ["0.5,0 0,0", row])
        with pytest.raises(ValueError, match=message) as info:
            read_dense_state(path)
        with pytest.raises(ValueError) as reference:
            read_dense_reference(path)
        assert str(info.value) == str(reference.value)

    def test_line_limits(self, tmp_path):
        # line ending included, a row of 2^n entries may hold 2^n *
        # DENSE_ENTRY_CHARS characters and the site-count line LINE_LIMIT
        limit = 2 * DENSE_ENTRY_CHARS
        row = "0.5,0 0,0".ljust(limit - 1)
        state = read_dense_state(dense_file(tmp_path, [row, "0,0 0.5,0"]))
        assert state.rho[0, 0] == 0.5
        with pytest.raises(ValueError, match=f"line 2: longer than {limit} characters"):
            read_dense_state(dense_file(tmp_path, [row + " ", "0,0 0.5,0"]))
        header = "1".ljust(LINE_LIMIT)
        with pytest.raises(ValueError, match=f"line 1: longer than {LINE_LIMIT} characters"):
            read_dense_state(dense_file(tmp_path, ["0.5,0 0,0", "0,0 0.5,0"], header))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        state = random_density(2, np.random.default_rng(9))
        plain = tmp_path / "plain.txt"
        write_dense_state(str(plain), state)
        marked = tmp_path / "marked.txt"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert same_bits(read_dense_state(str(marked)).rho, state.rho)

    @pytest.mark.parametrize(
        "rows, line, byte",
        [
            (["0.5,0 0,0", "0,0 0.5,\xff"], 3, "0xff"),
            (["0.5,0 0,0\r", "", "0,0 \xe20.5,0"], 4, "0xe2"),
            (["0.5,0 0,0", *[""] * 5000, "0,0 0.5,0\xc3"], 5003, "0xc3"),  # past the first buffer
        ],
        ids=["last-row", "crlf-blank", "deep"],
    )
    def test_undecodable_byte_is_named_by_path_and_line(self, tmp_path, rows, line, byte):
        path = tmp_path / "state.txt"
        path.write_bytes("\n".join(["1", *rows]).encode("latin-1") + b"\n")
        with pytest.raises(ValueError) as info:
            read_dense_state(str(path))
        assert str(info.value) == f"{path}: line {line}: byte {byte} is not UTF-8"

    def test_faults_are_reported_in_reading_order(self, tmp_path):
        # the bad row comes first, though the bad byte is in the same decode buffer
        path = tmp_path / "state.txt"
        path.write_bytes(b"1\n0.5,x 0,0\n" + b"\n" * 600 + b"0,0 0.5,\xff\n")
        with pytest.raises(ValueError) as info:
            read_dense_state(str(path))
        assert str(info.value) == f"{path}: row 0 entry 0 is not numeric"

    def test_undecodable_file_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "state.txt"
        path.write_bytes(b"1\n0.5,0 0,0\n0,0 0.5,\xff\n")
        opened = []

        def counting(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", counting)
        with pytest.raises(ValueError, match="line 3: byte 0xff is not UTF-8"):
            read_dense_state(str(path))
        assert opened == [str(path)]

    def test_extra_rows_are_counted(self, tmp_path):
        path = dense_file(tmp_path, ["0.5,0 0,0", "0,0 0.5,0", "junk", "0,0 0,0"])
        with pytest.raises(ValueError, match="expected 2 matrix rows, found 4"):
            read_dense_state(path)

    def test_bad_row_is_reported_before_the_row_count(self, tmp_path):
        # the reference reports the row count first; rows are now checked as read
        path = dense_file(tmp_path, ["0.5,x 0,0"])
        with pytest.raises(ValueError, match="row 0 entry 0 is not numeric"):
            read_dense_state(path)
        with pytest.raises(ValueError, match="expected 2 matrix rows, found 1"):
            read_dense_reference(path)

    @given(
        rows=st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from(
                        ["0.5,0", "0,0", "0,1e-300", "1_0,0", "-0,-0", "1,2,3", ",0", "1,",
                         "0x10,0", "1;0", "inf,0", "1e400,0", "0.5", "a,b", ",", "nan(1),0",
                         "0,\uff11", "#,0", '"1",0', "+inf,0", "0.5,+0"]
                    ),
                    st.sampled_from([" ", "\t", "  ", "\x0c", "\x1c", " \t"]),
                ),
                min_size=1,
                max_size=3,
            ).map(lambda pairs: "".join(sep + entry for entry, sep in pairs)),
            min_size=2,
            max_size=2,
        )
    )
    @settings(deadline=None, max_examples=300)
    def test_generated_rows_match_reference(self, tmp_path_factory, rows):
        # whitespace separators of every kind, and tokens that float and
        # numpy treat differently, against the entry-by-entry reference
        assert_reads_like_reference(dense_file(tmp_path_factory.mktemp("rows"), rows))

    @staticmethod
    def rows_read_by_entry(monkeypatch) -> list[int]:
        """The row numbers that ``_read_entries`` is called on, from now."""
        rows, read_entries = [], kslab.states._read_entries

        def counting(path, i, line, out):
            rows.append(i)
            read_entries(path, i, line, out)

        monkeypatch.setattr(kslab.states, "_read_entries", counting)
        return rows

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_written_rows_are_parsed_by_numpy(self, tmp_path, monkeypatch, n):
        path = str(tmp_path / "state.txt")
        state = random_density(n, np.random.default_rng(300 + n))
        write_dense_state(path, state)
        by_entry = self.rows_read_by_entry(monkeypatch)
        assert same_bits(read_dense_state(path).rho, state.rho)
        assert by_entry == []

    @pytest.mark.parametrize(
        "row, by_entry",
        [
            ("0,0 0.5,0", False),
            ("0,0\t\x0c 0.5,0", True),  # other whitespace
            ("0,0 0.5_0,0", True),  # the underscore is not a number byte
            ("0,0 \uff10.\uff15,0", True),  # not ASCII: full-width digits
            ("0,0,0 0.5", True),  # commas and spaces do not alternate
            ("-0.0,0 0.5,-0.0E+0", False),
            ("0,0 0.5,-0", True),  # JSON reads the integer -0 as +0
            ("-0,0 0.5,0", True),
            ("0,-0 0.5,0", True),
            ("0,0 0.5e-0,0", True),  # "-0," may end a -0 token
            ("0,0 .5,0", True),  # number bytes that JSON refuses
            ("0,0 +0.5,0", True),
            ("0,0 00.5,0", True),
            ("0,0 0.5,1e400", True),
        ],
    )
    def test_which_rows_parse_in_one_call(self, tmp_path, monkeypatch, row, by_entry):
        rows = self.rows_read_by_entry(monkeypatch)
        assert_reads_like_reference(dense_file(tmp_path, ["0.5,0 0,0", row]))
        assert rows == ([1] if by_entry else [])

    @pytest.mark.parametrize(
        "row", ["0,0 true,0", "0,0 null,0", '0,0 "1",0', "0,0 [1],0", "0,0 [1,0]", "0,0 {},0"]
    )
    def test_json_syntax_is_read_by_entry(self, tmp_path, monkeypatch, row):
        rows = self.rows_read_by_entry(monkeypatch)
        path = dense_file(tmp_path, ["0.5,0 0,0", row])
        with pytest.raises(ValueError, match="row 1 entry 1 is not numeric") as info:
            read_dense_state(path)
        with pytest.raises(ValueError) as reference:
            read_dense_reference(path)
        assert str(info.value) == str(reference.value)
        assert rows == [1]

    def test_parse_of_the_wrong_shape_is_read_by_entry(self, tmp_path, monkeypatch):
        path = str(tmp_path / "state.txt")
        state = random_density(2, np.random.default_rng(12))
        write_dense_state(path, state)
        loads = orjson.loads
        monkeypatch.setattr(orjson, "loads", lambda text: loads(text)[1:])
        rows = self.rows_read_by_entry(monkeypatch)
        assert same_bits(read_dense_state(path).rho, state.rho)
        assert rows == [0, 1, 2, 3]

    def test_token_battery_matches_reference(self, tmp_path, monkeypatch):
        # Each token's bits from one orjson call against float's.  The
        # values are no density matrix, so the validation is switched off
        # for both readers.
        monkeypatch.setattr(kslab.states, "_check_density", lambda rho: None)
        by_entry = self.rows_read_by_entry(monkeypatch)
        for name, entries in token_battery(np.random.default_rng(31)).items():
            for start in range(0, len(entries), 16):
                block = entries[start : start + 16]
                block += ["0,0"] * (16 - len(block))
                rows = [" ".join(block[r : r + 4]) for r in range(0, 16, 4)]
                by_entry.clear()
                path = dense_file(tmp_path, rows, header="2")
                assert same_bits(read_dense_state(path).rho, read_dense_reference(path).rho), (
                    name, rows
                )
                if name != "signed zeros":
                    assert by_entry == [], (name, rows)
