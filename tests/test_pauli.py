"""Core word algebra against an independent dense-matrix oracle.

The oracle composes matrices from the rendered text form (sign prefix and
one letter per site, with the true sigma_y), so it shares no phase
bookkeeping with the mask representation under test.
"""

from __future__ import annotations

import itertools
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    Y,
    Z,
    closure_break_reference,
    dense,
    dense_residual_reference,
    oracle_matrix,
    random_word,
)

import kslab.pauli
from kslab.pauli import (
    DENSE_STATE_LIMIT,
    LambdaIndex,
    PauliString,
    closure_break,
    commutes,
    half_zmasks,
    lambda_element,
    pauli_mul,
    verify_sum_identities,
    walsh_hadamard,
)


def test_to_matrix_matches_letter_oracle():
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for _ in range(40):
            w = random_word(rng, n)
            np.testing.assert_allclose(w.to_matrix(), dense(w), atol=1e-15)


class TestWorkedProducts:
    def test_zz_times_xx_is_minus_yy(self):
        a = PauliString.from_text("+ZZ")
        b = PauliString.from_text("+XX")
        prod = pauli_mul(a, b)
        assert prod == PauliString(2, 0b11, 0b11, 0)
        assert prod.to_text() == "-YY"
        np.testing.assert_allclose(
            oracle_matrix("+ZZ") @ oracle_matrix("+XX"),
            -np.kron(Y, Y),
            atol=1e-15,
        )

    def test_xy_times_yx_is_plus_zz(self):
        prod = pauli_mul(PauliString.from_text("+XY"), PauliString.from_text("+YX"))
        assert prod == PauliString(2, 0b11, 0, 0)
        assert prod.to_text() == "+ZZ"
        np.testing.assert_allclose(
            oracle_matrix("+XY") @ oracle_matrix("+YX"), np.kron(Z, Z), atol=1e-15
        )

    def test_mul_agrees_with_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(60):
                a, b = random_word(rng, n), random_word(rng, n)
                np.testing.assert_allclose(
                    dense(pauli_mul(a, b)), dense(a) @ dense(b), atol=1e-13
                )

    def test_hermitian_square_is_identity(self):
        rng = np.random.default_rng(13)
        seen = 0
        while seen < 50:
            w = random_word(rng, 3)
            if not w.is_hermitian:
                continue
            seen += 1
            assert pauli_mul(w, w) == PauliString(3, 0, 0)


class TestTextForm:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("-YY", PauliString(2, 0b11, 0b11, 0)),
            ("+XZIX", PauliString(4, 0b0010, 0b1001, 0)),
            ("+iXY", PauliString(2, 0b10, 0b11, 0)),
            ("Z", PauliString(1, 1, 0, 0)),
            ("-iY", PauliString(1, 1, 1, 2)),
        ],
    )
    def test_parse(self, text, expected):
        assert PauliString.from_text(text) == expected

    @pytest.mark.parametrize("bad", ["", "+-X", "XQ", "i", "+ i X", "x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            PauliString.from_text(bad)

    @given(
        n=st.integers(1, 8),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=200)
    def test_round_trip(self, n, data):
        z = data.draw(st.integers(0, (1 << n) - 1))
        x = data.draw(st.integers(0, (1 << n) - 1))
        phase = data.draw(st.integers(0, 3))
        w = PauliString(n, z, x, phase)
        assert PauliString.from_text(w.to_text()) == w

    def test_hermitian_flag_matches_dense(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            w = random_word(rng, 3)
            m = dense(w)
            assert w.is_hermitian == np.allclose(m, m.conj().T)


@given(n=st.integers(1, 6), data=st.data())
@settings(deadline=None, max_examples=150)
def test_mul_associative(n, data):
    def draw_word():
        return PauliString(
            n,
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, (1 << n) - 1)),
            data.draw(st.integers(0, 3)),
        )

    a, b, c = draw_word(), draw_word(), draw_word()
    assert pauli_mul(pauli_mul(a, b), c) == pauli_mul(a, pauli_mul(b, c))


def test_commutes_matches_dense_commutator():
    rng = np.random.default_rng(29)
    for _ in range(120):
        a, b = random_word(rng, 3), random_word(rng, 3)
        comm = dense(a) @ dense(b) - dense(b) @ dense(a)
        assert commutes(a, b) == (np.max(np.abs(comm)) < 1e-12)


class TestGroupFamily:
    def test_lambda_table_two_sites(self):
        words = [lambda_element(LambdaIndex(2, p)).to_text() for p in range(4)]
        assert words == ["+II", "+ZZ", "+XX", "-YY"]

    def test_lambda_table_three_sites(self):
        words = [lambda_element(LambdaIndex(3, p)).to_text() for p in range(8)]
        assert words == [
            "+III", "+IZZ", "+ZIZ", "+ZZI",
            "+XXX", "-XYY", "-YXY", "-YYX",
        ]

    def test_r_table_two_sites(self):
        words = [lambda_element(LambdaIndex(2, p, True)).to_text() for p in range(4)]
        assert words == ["+IZ", "+ZI", "+iXY", "+iYX"]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_identity_and_all_x_elements(self, n):
        assert lambda_element(LambdaIndex(n, 0)) == PauliString(n, 0, 0)
        top = lambda_element(LambdaIndex(n, 1 << (n - 1)))
        assert top == PauliString(n, 0, (1 << n) - 1, 0)
        assert top.to_text() == "+" + "X" * n

    @pytest.mark.parametrize("n", range(2, 6))
    def test_group_law_all_pairs(self, n):
        table = [lambda_element(LambdaIndex(n, p)) for p in range(1 << n)]
        for p in range(1 << n):
            for q in range(1 << n):
                prod = pauli_mul(table[p], table[q])
                assert prod == table[p ^ q]
                assert prod.phase_exp == 0

    def test_group_law_matches_dense_two_sites(self):
        mats = [dense(lambda_element(LambdaIndex(2, p))) for p in range(4)]
        for p in range(4):
            for q in range(4):
                np.testing.assert_allclose(mats[p] @ mats[q], mats[p ^ q], atol=1e-15)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_index_map_injective(self, n):
        seen = {lambda_element(LambdaIndex(n, p)) for p in range(1 << n)}
        assert len(seen) == 1 << n

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closure_parities(self, n):
        for p in range(1 << n):
            assert lambda_element(LambdaIndex(n, p)).z_mask.bit_count() % 2 == 0
            assert lambda_element(LambdaIndex(n, p, True)).z_mask.bit_count() % 2 == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_r_hermiticity_split(self, n):
        half = 1 << (n - 1)
        for p in range(1 << n):
            word = lambda_element(LambdaIndex(n, p, True))
            assert word.is_hermitian == (p < half)

    def test_nonidentity_words_are_traceless(self):
        for n in (2, 3, 4):
            for p in range(1, 1 << n):
                assert abs(np.trace(dense(lambda_element(LambdaIndex(n, p))))) < 1e-12
                assert abs(np.trace(dense(lambda_element(LambdaIndex(n, p, True))))) < 1e-12


def group_table(n: int) -> list[PauliString]:
    return [lambda_element(LambdaIndex(n, p)) for p in range(1 << n)]


def generated_table(rng: np.random.Generator, n: int) -> list[PauliString]:
    """Table whose element p is the product of the generators at the set
    bits of p: n random Hermitian words that commute, so the table
    closes.  A draw that fails to commute with an earlier generator is
    replaced by a copy of one of them."""
    gens: list[PauliString] = []
    while len(gens) < n:
        w = random_word(rng, n)
        sign = 2 * (w.phase_exp & 1)
        w = PauliString(n, w.z_mask, w.x_mask, (sign + w.phase_exp - w.sign_exp) % 4)
        if not all(commutes(w, g) for g in gens):
            w = gens[int(rng.integers(len(gens)))]
        gens.append(w)
    table = [PauliString(n, 0, 0)]
    for g in gens:
        table += [pauli_mul(w, g) for w in table]
    return table


def linear_table(rng: np.random.Generator, n: int) -> list[PauliString]:
    """Table with XOR-linear masks, from n random basis words, and a random
    phase on every element."""
    basis = [random_word(rng, n) for _ in range(n)]
    table = []
    for p in range(1 << n):
        z = x = 0
        for b, w in enumerate(basis):
            if p >> b & 1:
                z, x = z ^ w.z_mask, x ^ w.x_mask
        table.append(PauliString(n, z, x, int(rng.integers(4))))
    return table


def edited_table(rng: np.random.Generator, n: int) -> list[PauliString]:
    """A generated table with one to three elements changed in one field:
    a mask bit, the phase, or the whole word."""
    table = generated_table(rng, n)
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(len(table)))
        w = table[k]
        field = int(rng.integers(3))
        if field == 0:
            bit = 1 << int(rng.integers(n))
            table[k] = PauliString(n, w.z_mask ^ bit, w.x_mask, w.phase_exp)
        elif field == 1:
            table[k] = PauliString(n, w.z_mask, w.x_mask, (w.phase_exp + 1) % 4)
        else:
            table[k] = random_word(rng, n)
    return table


class TestClosureKernel:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_group_tables_close(self, n):
        table = group_table(n)
        assert closure_break(table) is None
        assert closure_break_reference(table) is None

    def doctored(self, n, k, field):
        table = group_table(n)
        w = table[k]
        if field == "mask":
            table[k] = PauliString(n, w.z_mask ^ 1, w.x_mask, w.phase_exp)
        else:
            table[k] = PauliString(n, w.z_mask, w.x_mask, (w.phase_exp + 1) % 4)
        return table

    @pytest.mark.parametrize("field", ["mask", "phase"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_doctored_tables_break_where_the_oracle_does(self, n, field):
        # the interior index is 45 at n = 6, whose first break is in row 1
        interior = (45 << n) // 64
        for k in sorted({0, 1, interior, (1 << n) // 2, (1 << n) - 1}):
            table = self.doctored(n, k, field)
            found = closure_break(table)
            assert found is not None
            assert found == closure_break_reference(table)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_seeded_battery_matches_the_oracle(self, n):
        rng = np.random.default_rng(n)
        makers = [generated_table, linear_table, edited_table]
        makers += [lambda rng, n: [random_word(rng, n) for _ in range(1 << n)]]
        closing = 0
        for _ in range(100):
            for make in makers:
                table = make(rng, n)
                found = closure_break(table)
                assert found == closure_break_reference(table)
                closing += found is None
        assert closing >= 100

    def test_one_element_table_closes_only_on_the_identity(self):
        # a table of length 1 has no single-bit row; only element 0 decides
        for z, x, phase in itertools.product(range(4), range(4), range(4)):
            table = [PauliString(2, z, x, phase)]
            found = closure_break(table)
            assert found == closure_break_reference(table)
            assert (found is None) == (table[0] == PauliString(2, 0, 0))

    def count_products(self, monkeypatch) -> list[int]:
        calls = [0]
        product = kslab.pauli._product

        def counted(*args):
            calls[0] += 1
            return product(*args)

        monkeypatch.setattr(kslab.pauli, "_product", counted)
        return calls

    def test_closing_table_costs_n_products_per_element(self, monkeypatch):
        calls = self.count_products(monkeypatch)
        assert closure_break(group_table(12)) is None
        assert calls[0] == 12 << 12

    def test_late_break_costs_no_more_than_a_closing_table(self, monkeypatch):
        # the upper half times i first breaks at (2^11, 2^11), past half
        # of a row-major scan of all 4^12 pairs
        table = group_table(12)
        half = len(table) // 2
        for k in range(half, len(table)):
            w = table[k]
            table[k] = PauliString(12, w.z_mask, w.x_mask, (w.phase_exp + 1) % 4)
        calls = self.count_products(monkeypatch)
        assert closure_break(table) == (half, half)
        assert calls[0] <= 12 << 12

    def test_rejects_ragged_tables(self):
        with pytest.raises(ValueError, match="power of two"):
            closure_break(group_table(2)[:3])
        with pytest.raises(ValueError, match="site counts"):
            closure_break([PauliString(1, 0, 0), PauliString(2, 0, 0)])


# Each group-family check is forced to fail under python -O, where a bare
# assert would be stripped; the script prints one flag per check.
_OPTIMIZED_CHECKS = textwrap.dedent(
    """
    import sys
    from kslab import pauli
    from kslab.errors import VerificationError

    def raises(call):
        try:
            call()
        except VerificationError:
            return True
        return False

    pauli._element = lambda n, p, odd: pauli.PauliString(n, 1, 1, 0)
    flags = [
        raises(lambda: pauli.lambda_element(pauli.LambdaIndex(2, 1))),
        raises(lambda: pauli.lambda_element(pauli.LambdaIndex(2, 0, True))),
    ]
    print(sys.flags.optimize, *flags)
    """
)


def test_group_family_checks_survive_optimize(kslab_env):
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=kslab_env, timeout=60, check=True,
    )
    assert result.stdout.split() == ["1", "True", "True"]


class TestWalshHadamard:
    @pytest.mark.parametrize("k", range(7))
    def test_matches_parity_definition(self, k):
        rng = np.random.default_rng(k)
        size = 1 << k
        for values in (rng.integers(-5, 6, size), rng.standard_normal(size)):
            expected = [
                sum(v * (-1) ** (m & z).bit_count() for z, v in enumerate(values))
                for m in range(size)
            ]
            out = walsh_hadamard(values)
            assert out.dtype == values.dtype
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_does_not_modify_input(self):
        values = np.arange(8, dtype=np.int64)
        walsh_hadamard(values)
        assert values.tolist() == list(range(8))

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_rejects_non_power_of_two(self, size):
        with pytest.raises(ValueError, match="power of two"):
            walsh_hadamard(np.ones(size))


class TestSumIdentities:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_symbolic_and_dense(self, n):
        report = verify_sum_identities(n)
        assert report.ok, report.first_mismatch
        assert report.max_residual is not None
        assert report.max_residual < 1e-12

    @pytest.mark.parametrize("n", (7, 8, 10))
    def test_symbolic_only_above_dense_limit(self, n):
        report = verify_sum_identities(n)
        assert report.ok, report.first_mismatch
        assert report.max_residual is None

    def test_rejects_small_n_and_bad_mode(self):
        with pytest.raises(ValueError):
            verify_sum_identities(1)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("x_part, odd", itertools.product((False, True), repeat=2))
    def test_dense_residual_matches_numpy_reference(self, n, x_part, odd):
        half = 1 << (n - 1)
        start = half if x_part else 0
        words = [lambda_element(LambdaIndex(n, p, odd)) for p in range(start, start + half)]
        last = words[-1]
        bumped = PauliString(n, last.z_mask, last.x_mask, (last.phase_exp + 1) % 4)
        cases = {
            "true": (words, 0.0),
            "phase bumped": (words[:-1] + [bumped], abs(1 - 1j)),
            "word dropped": (words[:-1], 1.0),
            "word duplicated": (words + [last], 1.0),
        }
        for name, (case, expected) in cases.items():
            plain = kslab.pauli._dense_residual(n, x_part, odd, case)
            assert type(plain) is float, name
            assert plain == dense_residual_reference(n, x_part, odd, case) == expected, name

    def test_nan_dense_residual_fails(self, monkeypatch):
        monkeypatch.setattr(kslab.pauli, "_dense_residual", lambda *args: float("nan"))
        report = verify_sum_identities(3)
        assert not report.ok
        assert report.first_mismatch == "z-even: dense residual nan"
        assert report.max_residual is None

    def test_coefficient_mismatch_names_the_first_term(self, monkeypatch):
        # both sides hold the same terms; every family coefficient is doubled
        expansion = kslab.pauli._family_expansion
        monkeypatch.setattr(
            kslab.pauli,
            "_family_expansion",
            lambda words: {key: 2 * c for key, c in expansion(words).items()},
        )
        report = verify_sum_identities(2)
        assert not report.ok
        assert report.first_mismatch == "z-even: +II"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_max_residual_keeps_the_largest_finite_one(self, monkeypatch, bad):
        residuals = iter([2e-13, 5e-13, bad])
        monkeypatch.setattr(kslab.pauli, "_dense_residual", lambda *args: next(residuals))
        report = verify_sum_identities(3)
        assert not report.ok
        assert report.first_mismatch == f"x-even: dense residual {bad}"
        assert report.max_residual == 5e-13


@pytest.mark.parametrize("n", range(2, 13))
def test_half_zmasks_match_elements(n):
    half = 1 << (n - 1)
    even = half_zmasks(n)
    odd = half_zmasks(n, odd=True)
    for p in range(half):
        assert int(even[p]) == lambda_element(LambdaIndex(n, p)).z_mask
        assert int(even[p]) == lambda_element(LambdaIndex(n, p + half)).z_mask
        assert int(odd[p]) == lambda_element(LambdaIndex(n, p, True)).z_mask
        assert int(odd[p]) == lambda_element(LambdaIndex(n, p + half, True)).z_mask


def test_constructor_validation():
    with pytest.raises(ValueError):
        PauliString(0, 0, 0, 0)
    with pytest.raises(ValueError):
        PauliString(2, 4, 0, 0)
    with pytest.raises(ValueError):
        PauliString(2, 0, 0, 4)
    with pytest.raises(ValueError):
        pauli_mul(PauliString(2, 0, 0), PauliString(3, 0, 0))
    with pytest.raises(ValueError):
        commutes(PauliString(2, 0, 0), PauliString(3, 0, 0))
    with pytest.raises(ValueError, match="index 4 out of range for n=2"):
        LambdaIndex(2, 4)
    with pytest.raises(ValueError, match="dense form limited"):
        PauliString(DENSE_STATE_LIMIT + 1, 0, 0).to_matrix()
