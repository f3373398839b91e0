"""Finite classical models: construction, probability rules, lemma checks."""

from __future__ import annotations

import numpy as np
import pytest
from oracle import LETTER, dense, maximally_mixed

import kslab.fine_model
from kslab.errors import VerificationError
from kslab.fine_model import (
    DIM_LIMIT,
    ENTRY_LIMIT,
    _cluster,
    _near,
    _require_commuting,
    _spectral_pairs,
    apply_spectrally,
    build_model,
    check_D,
    check_FUNC,
    check_JD,
    check_measure_lemma,
    check_PROD,
    check_indicator_pullback,
    indicator_matrix,
    random_commuting_family,
    random_measure_space,
    run_fine_suite,
    spectrum_subsets,
)
from kslab.pauli import LambdaIndex, PauliString, lambda_element
from kslab.states import (
    DenseState,
    GhzSuperposition,
    pi_vector,
    random_density,
    to_density_matrix,
)


def word(text: str) -> PauliString:
    return PauliString.from_text(text)


def pi_state() -> DenseState:
    v = pi_vector()
    return DenseState(np.outer(v, v.conj()))


def pi_z_model():
    return build_model(pi_state(), [word("+ZI"), word("+IZ")])


class TestBuildModel:
    def test_family_generator_stops_at_the_model_limit(self):
        rng = np.random.default_rng(5)
        assert random_commuting_family(rng, 6, count=1)[0].shape == (DIM_LIMIT, DIM_LIMIT)
        for n in (0, 7):
            with pytest.raises(ValueError, match="^family generator covers 1 to 6 sites$"):
                random_commuting_family(rng, n)

    def test_pi_state_weights_and_joint_values(self):
        model = pi_z_model()
        assert len(model.weights) == 4
        assert sorted(model.weights.tolist()) == pytest.approx([0.0, 0.0, 0.5, 0.5])
        support = model.support
        assert len(support) == 2
        joint = sorted(
            zip(
                model.value_table["+ZI"][support].tolist(),
                model.value_table["+IZ"][support].tolist(),
            )
        )
        assert joint == [(-1.0, 1.0), (1.0, -1.0)]

    def test_identity_family_is_constant_one(self):
        rng = np.random.default_rng(3)
        model = build_model(random_density(2, rng), [word("+II")])
        assert model.value_table["+II"].tolist() == [1.0, 1.0, 1.0, 1.0]
        assert model.spectra["+II"] == (1.0,)

    def test_full_three_site_family_on_ghz(self):
        ghz = GhzSuperposition(3, 2**-0.5, 2**-0.5)
        family = [lambda_element(LambdaIndex(3, p)) for p in range(8)]
        model = build_model(ghz, family)
        rho = to_density_matrix(ghz)
        for member in family:
            name = member.to_text()
            classical = float(model.weights @ model.value_table[name])
            quantum = float(np.real(np.trace(rho @ dense(member))))
            assert classical == pytest.approx(quantum, abs=1e-9)
            assert classical == pytest.approx(1.0, abs=1e-9)

    def test_group_structure_of_value_tables(self):
        # O_p O_q = O_{p xor q} exactly, so eigenvalue columns multiply
        ghz = GhzSuperposition(3, 0.6, 0.8)
        family = [lambda_element(LambdaIndex(3, p)) for p in range(8)]
        model = build_model(ghz, family)
        support = model.support
        tables = [model.value_table[m.to_text()] for m in family]
        for p in range(8):
            for q in range(8):
                left = tables[p][support] * tables[q][support]
                assert left.tolist() == tables[p ^ q][support].tolist()

    def test_trace_identity_for_every_registered_operator(self):
        rng = np.random.default_rng(11)
        for trial in range(5):
            n = int(rng.integers(1, 4))
            family = random_commuting_family(rng, n, count=3)
            state = random_density(n, rng)
            model = build_model(state, family)
            rho = to_density_matrix(state)
            for name, matrix in model.matrices.items():
                classical = float(model.weights @ model.value_table[name])
                quantum = float(np.real(np.trace(rho @ matrix)))
                assert classical == pytest.approx(quantum, abs=1e-9)

    def test_weights_form_a_probability(self):
        rng = np.random.default_rng(12)
        model = build_model(random_density(3, rng), random_commuting_family(rng, 3))
        assert np.all(model.weights >= 0)
        assert float(model.weights.sum()) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_construction(self):
        first = pi_z_model()
        second = pi_z_model()
        assert np.array_equal(first.basis, second.basis)
        assert np.array_equal(first.weights, second.weights)

    def test_rejects_non_commuting_family(self):
        words = [word("+" + w) for w in ("XX", "YY", "ZZ", "XY", "YX")]
        with pytest.raises(ValueError, match="do not commute"):
            build_model(pi_state(), words)

    def test_rejects_non_commuting_dense_pair(self):
        with pytest.raises(ValueError, match="do not commute"):
            build_model(maximally_mixed(1), [LETTER["Z"], LETTER["X"]])

    @pytest.mark.parametrize("random_state", [False, True], ids=["mixed", "random"])
    def test_scaled_commuting_families_build(self, random_state):
        # the rounding of AB - BA grows with max|A| * max|B|; an absolute
        # tolerance called 13 of these 15 families non-commuting
        for seed in range(5):
            for n in (1, 3, 6):
                rng = np.random.default_rng(seed)
                family = [1e3 * m for m in random_commuting_family(rng, n, 2)]
                state = random_density(n, rng) if random_state else maximally_mixed(n)
                assert len(build_model(state, family).value_table) == 2

    def test_rejects_scaled_non_commuting_dense_pair(self):
        with pytest.raises(ValueError, match="do not commute"):
            build_model(maximally_mixed(1), [1e3 * LETTER["X"], 1e3 * LETTER["Z"]])

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            build_model(pi_state(), [])
        with pytest.raises(ValueError, match="dimension"):
            build_model(maximally_mixed(1), [word("+ZZ")])
        with pytest.raises(ValueError, match="differ in dimension"):
            build_model(pi_state(), [word("+ZZ"), LETTER["Z"]])
        with pytest.raises(ValueError, match="exceeds"):
            build_model(maximally_mixed(7), [word("+" + "Z" * 7)])
        with pytest.raises(ValueError, match="names"):
            build_model(pi_state(), [word("+ZI"), word("+IZ")], names=("A",))
        with pytest.raises(ValueError, match="names"):
            build_model(pi_state(), [word("+ZI"), word("+IZ")], names=("A", "A"))
        with pytest.raises(ValueError, match="^operators must be square matrices$"):
            build_model(maximally_mixed(1), [np.zeros((2, 3))])

    def test_rejects_non_finite_entries(self):
        # inf - inf used to pass the Hermitian and commutation checks
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="^operator entries must be finite$"):
                build_model(maximally_mixed(1), [np.diag([bad, 1.0])])

    @pytest.mark.parametrize(
        "huge",
        [np.diag([1e308, 1e308]), np.array([[0, 1e308], [1e308, 0]])],
        ids=["diagonal", "off-diagonal"],
    )
    def test_rejects_huge_entries(self, huge):
        # the diagonal one overflowed in _hermitize, the other failed the
        # absolute diagonal tolerance with a residual of 8e290
        with pytest.raises(ValueError, match="^operator entries must not exceed 10000 in magnitude$"):
            build_model(maximally_mixed(1), [huge])

    def test_entries_at_the_limit_are_accepted(self):
        model = build_model(maximally_mixed(1), [np.diag([ENTRY_LIMIT, -ENTRY_LIMIT])])
        assert model.spectra["A0"] == (-ENTRY_LIMIT, ENTRY_LIMIT)

    def test_nan_commutator_fails_the_check(self):
        nan_matrix = np.full((2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="do not commute"):
            _require_commuting([nan_matrix, np.eye(2, dtype=complex)])

    def test_nan_weight_sum_fails_the_check(self, monkeypatch):
        nan_rho = np.full((2, 2), np.nan, dtype=complex)
        monkeypatch.setattr(kslab.fine_model, "to_density_matrix", lambda state: nan_rho)
        with pytest.raises(VerificationError, match="^weights sum to nan, not 1$"):
            build_model(maximally_mixed(1), [LETTER["Z"]])


class TestRegister:
    def test_rejects_duplicate_name(self):
        model = pi_z_model()
        with pytest.raises(ValueError, match="already registered"):
            model.register("+ZI", word("+ZI"))

    def test_rejects_non_hermitian(self):
        model = pi_z_model()
        lower = np.tril(np.ones((4, 4), dtype=complex), k=-1)
        with pytest.raises(ValueError, match="Hermitian"):
            model.register("bad", lower)

    def test_rejects_wrong_dimension(self):
        model = pi_z_model()
        with pytest.raises(ValueError, match="dimension"):
            model.register("bad", LETTER["Z"])

    def test_rejects_operator_outside_the_family_algebra(self):
        model = pi_z_model()
        with pytest.raises(VerificationError, match="not diagonal"):
            model.register("+XI", word("+XI"))

    def test_nan_operator_is_not_hermitian(self, monkeypatch):
        model = pi_z_model()
        monkeypatch.setattr(
            kslab.fine_model, "_as_matrix", lambda op: np.asarray(op, dtype=complex)
        )
        with pytest.raises(ValueError, match="is not Hermitian"):
            model.register("bad", np.diag([np.nan, 1.0, 1.0, 1.0]))

    def test_nan_basis_is_not_diagonal(self):
        model = pi_z_model()
        model.basis = model.basis.copy()
        model.basis[0, 0] = np.nan
        with pytest.raises(VerificationError, match="not diagonal"):
            model.register("+ZI~2", word("+ZI"))

    def test_nan_weight_fails_the_trace_identity(self):
        model = pi_z_model()
        model.weights = model.weights.copy()
        model.weights[0] = np.nan
        with pytest.raises(VerificationError, match="differs from the weighted value sum"):
            model.register("+ZI~2", word("+ZI"))

    def test_fresh_names_extend(self):
        model = pi_z_model()
        assert model.fresh_name("+ZI") == "+ZI~2"
        assert model.fresh_name("new") == "new"


class TestDistributionRules:
    def test_single_site_halves_on_pi(self):
        model = pi_z_model()
        assert check_D(model, "+ZI", (1.0,))
        assert check_D(model, "+ZI", (-1.0,))
        assert check_D(model, "+ZI", (1.0, -1.0))
        assert check_D(model, "+ZI", ())

    def test_outside_spectrum_values_are_allowed(self):
        model = pi_z_model()
        assert check_D(model, "+ZI", (3.0,))  # both sides zero

    def test_joint_halves_on_pi(self):
        model = pi_z_model()
        assert check_JD(model, "+ZI", "+IZ", (1.0,), (-1.0,))
        assert check_JD(model, "+ZI", "+IZ", (1.0,), (1.0,))  # both sides zero
        assert check_JD(model, "+ZI", "+IZ", (1.0, -1.0), (1.0, -1.0))

    def test_jd_with_identity_reduces_to_d(self):
        model = build_model(pi_state(), [word("+ZI"), word("+II")])
        assert check_JD(model, "+ZI", "+II", (1.0,), (1.0,))

    @pytest.mark.parametrize("seed", range(8))
    def test_full_subset_sweep_on_random_pairs(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 4))
        family = random_commuting_family(rng, n)
        model = build_model(random_density(n, rng), family, names=("A", "B"))
        subsets_a = spectrum_subsets(model.spectra["A"])
        subsets_b = spectrum_subsets(model.spectra["B"])
        assert all(check_D(model, "A", delta) for delta in subsets_a)
        assert all(check_D(model, "B", delta) for delta in subsets_b)
        for delta_a in subsets_a[:8]:
            for delta_b in subsets_b[:8]:
                assert check_JD(model, "A", "B", delta_a, delta_b)


class TestFunctionAndProductRules:
    def test_square_of_sign_word_is_one_on_support(self):
        model = pi_z_model()
        assert check_FUNC(model, "+ZI", lambda x: x * x)
        squared = model.value_table["g(+ZI)"]
        assert set(squared[model.support].tolist()) == {1.0}

    def test_affine_functions_on_random_operators(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            family = random_commuting_family(rng, n)
            model = build_model(random_density(n, rng), family, names=("A", "B"))
            slope, shift = rng.standard_normal(2)
            assert check_FUNC(model, "A", lambda x: slope * x + shift)

    def test_repeated_func_checks_get_fresh_names(self):
        model = pi_z_model()
        assert check_FUNC(model, "+ZI", lambda x: x)
        assert check_FUNC(model, "+ZI", lambda x: x)
        assert "g(+ZI)~2" in model.value_table

    def test_product_of_the_z_pair(self):
        model = pi_z_model()
        assert check_PROD(model, "+ZI", "+IZ")
        product = model.value_table["+ZI*+IZ"]
        assert set(product[model.support].tolist()) == {-1.0}

    def test_product_with_identity(self):
        model = build_model(pi_state(), [word("+ZI"), word("+II")])
        assert check_PROD(model, "+ZI", "+II")

    def test_products_on_random_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            model = build_model(
                random_density(n, rng), random_commuting_family(rng, n), names=("A", "B")
            )
            assert check_PROD(model, "A", "B")


class TestIndicators:
    def test_indicator_values_are_bits(self):
        rng = np.random.default_rng(31)
        family = random_commuting_family(rng, 2)
        model = build_model(random_density(2, rng), family, names=("A", "B"))
        for cut in range(len(model.spectra["A"]) + 1):
            delta = model.spectra["A"][:cut]
            values = model.register(
                model.fresh_name("chi"), indicator_matrix(family[0], delta)
            )
            assert set(values.tolist()) <= {0.0, 1.0}

    def test_indicator_matrix_of_full_spectrum_is_identity(self):
        z = LETTER["Z"]
        assert np.allclose(indicator_matrix(z, (1.0, -1.0)), np.eye(2), atol=1e-12)
        assert np.allclose(indicator_matrix(z, ()), np.zeros((2, 2)), atol=1e-12)

    def test_pullback_identity_function(self):
        assert check_indicator_pullback(word("+Z"), lambda x: x, (1.0,), maximally_mixed(1))

    def test_pullback_square_on_z(self):
        # g(x) = x^2 maps both outcomes to 1, so both traces are 1
        assert check_indicator_pullback(
            word("+Z"), lambda x: x * x, (1.0,), maximally_mixed(1)
        )

    def test_pullback_random_sweeps(self):
        rng = np.random.default_rng(32)
        for _ in range(6):
            n = int(rng.integers(1, 4))
            matrix = random_commuting_family(rng, n, count=1)[0]
            state = random_density(n, rng)
            values = sorted({float(v) for v in _spectrum_of(matrix)})
            for delta in ((), (values[0] ** 2,), tuple(v * v for v in values)):
                assert check_indicator_pullback(matrix, lambda x: x * x, delta, state)

    def test_pullback_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            check_indicator_pullback(word("+ZZ"), lambda x: x, (1.0,), maximally_mixed(1))


def _spectrum_of(matrix: np.ndarray) -> np.ndarray:
    return np.unique(np.round(np.linalg.eigvalsh(matrix)))


class TestApplySpectrally:
    def test_identity_function_reproduces_operator(self):
        rng = np.random.default_rng(41)
        matrix = random_commuting_family(rng, 2, count=1)[0]
        assert np.allclose(apply_spectrally(matrix, lambda x: x), matrix, atol=1e-10)

    def test_square_of_sign_operator(self):
        assert np.allclose(
            apply_spectrally(word("+Z"), lambda x: x * x), np.eye(2), atol=1e-12
        )


class TestMeasureLemma:
    def test_equal_sets_trivially_pass(self):
        weights = np.array([0.2, 0.3, 0.0, 0.5])
        s = np.array([True, False, True, False])
        t = np.array([True, True, False, False])
        assert check_measure_lemma(weights, s, s, t, t)

    def test_zero_weight_point_extension(self):
        weights = np.array([0.5, 0.5, 0.0])
        s = np.array([True, False, False])
        s_alt = np.array([True, False, True])  # differs on the null point
        t = np.array([True, True, False])
        assert check_measure_lemma(weights, s, s_alt, t, t)

    def test_violated_hypothesis_is_an_error(self):
        weights = np.array([0.5, 0.5])
        s = np.array([True, False])
        s_alt = np.array([True, True])  # swap point carries weight
        t = np.array([True, True])
        with pytest.raises(ValueError, match="hypothesis"):
            check_measure_lemma(weights, s, s_alt, t, t)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_measure_lemma([-0.1, 1.1], [0], [0], [1], [1])

    def test_rejects_bad_masks(self):
        good = [True, False]
        with pytest.raises(ValueError, match="boolean masks"):
            check_measure_lemma([1.0, 0.0], [True], good, good, good)
        with pytest.raises(ValueError, match="boolean masks"):
            check_measure_lemma([1.0, 0.0], [0], good, good, good)

    def test_hundred_random_constructions_pass_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            assert check_measure_lemma(*random_measure_space(rng))

    def test_zero_terms_do_not_change_the_measure(self):
        # numpy's unrolled sums of these two sets round apart
        rng = np.random.default_rng(101)
        for _ in range(3882):
            random_measure_space(rng)
        weights, s, s_alt, t, t_alt = random_measure_space(rng)
        assert float(weights[s & t].sum()) != float(weights[s_alt & t_alt].sum())
        assert check_measure_lemma(weights, s, s_alt, t, t_alt)

    def test_seeded_battery_of_larger_spaces(self):
        rng = np.random.default_rng(9)
        for size in np.repeat(np.arange(9, 40), 20):
            weights = rng.random(size)
            weights[rng.random(size) < 0.5] = 0.0
            null = weights == 0.0
            sets = []
            for _ in range(2):
                base = rng.random(size) < 0.5
                sets += [base, base ^ (null & (rng.random(size) < 0.5))]
            assert check_measure_lemma(weights, *sets)

    def test_random_spaces_satisfy_hypotheses_by_construction(self):
        rng = np.random.default_rng(52)
        for _ in range(25):
            weights, s, s_alt, t, t_alt = random_measure_space(rng)
            for left, right in ((s, s_alt), (s_alt, s), (t, t_alt), (t_alt, t)):
                assert float(weights[~left & right].sum()) == 0.0


class TestSubsetEnumeration:
    def test_small_spectrum_full_powerset(self):
        subsets = spectrum_subsets((1.0, 2.0, 3.0))
        assert len(subsets) == 8
        assert () in subsets and (1.0, 2.0, 3.0) in subsets

    def test_large_spectrum_capped(self):
        assert len(spectrum_subsets(tuple(float(v) for v in range(8)))) == 2**8
        with pytest.raises(ValueError, match="at most 8"):
            spectrum_subsets(tuple(float(v) for v in range(9)))


class TestSuite:
    def test_fixed_battery_passes(self):
        report = run_fine_suite()
        assert report["ok"]
        assert report["failures"] == 0
        assert report["models"] >= 6
        assert report["checks"] >= 200

    def test_fixed_battery_counts_are_exact(self):
        assert run_fine_suite() == {
            "suite": "fine", "models": 6, "checks": 225, "failures": 0, "ok": True
        }


class TestNearDegenerateSpectrum:
    """Eigenvalues closer than the cluster gap form one spectral point, and
    the classical and quantum sides of a check select the same points."""

    def test_split_inside_the_gap_is_one_point(self):
        eigenvalues = np.array([1.0, 1.0 + 5e-7, 2.0, 3.0])
        a = np.diag(eigenvalues).astype(complex)
        pairs = _spectral_pairs(a)
        assert len(pairs) == 3
        assert [round(float(np.real(np.trace(p)))) for _, p in pairs] == [2, 1, 1]
        np.testing.assert_allclose(
            indicator_matrix(a, (1.0,)), np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12
        )
        mask = _near(_cluster(eigenvalues), (1.0,))
        assert mask.tolist() == [True, True, False, False]

    @pytest.mark.parametrize("delta", [(1.0,), (1.0 + 5e-7,)])
    def test_model_on_a_near_degenerate_operator(self, delta):
        a = np.diag([1.0, 1.0 + 1e-10, 2.0, 3.0]).astype(complex)
        model = build_model(random_density(2, np.random.default_rng(5)), [a])
        assert check_D(model, "A0", delta)
