"""Assignment enumeration: bound recovery, certificates, identity check."""

from __future__ import annotations

import inspect
import random

import numpy as np
import pytest
from golden_corpus import edit_products
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    bruteforce_reference,
    hvkn_reference_codes,
    oracle_matrix,
    parity_dot,
    scan_range,
    to_bits,
    verify_hvkn_reference,
)

import kslab.hv_oracle
from kslab.certificates import ghz_certificate, peres_mermin_certificate
from kslab.errors import VerificationError
from kslab.hv_oracle import (
    ENUMERATION_CAP,
    HVKN_LIMIT,
    Assignment,
    BoundReport,
    _spectrum,
    bruteforce_report,
    g_value,
    halfgroup_sums,
    verify_hvkn,
)
from kslab.inequalities import multipartite_bound
from kslab.pauli import LambdaIndex, lambda_element


def all_assignments(n: int):
    return (Assignment.from_bits(n, k) for k in range(1 << (2 * n)))


def family_half(n: int, odd: bool) -> tuple[np.ndarray, np.ndarray]:
    """(z-masks, real signs) of the upper index half of one family."""
    half = 1 << (n - 1)
    z_masks, signs = [], []
    for p in range(half, 2 * half):
        word = lambda_element(LambdaIndex(n, p, odd))
        z_masks.append(word.z_mask)
        # the odd half is anti-Hermitian: sign i^1 counts +1, i^3 counts -1
        signs.append({0: 1, 2: -1}[word.sign_exp - odd])
    return np.array(z_masks, dtype=np.int64), np.array(signs, dtype=np.int64)


def oracle_halfgroup_sums(n: int, ints: np.ndarray) -> np.ndarray:
    """Brute-force parity sums over the even half, word masks built site by site."""
    masks = np.zeros_like(ints)
    for j in range(n):
        vx = 1 - 2 * ((ints >> j) & 1)
        vy = 1 - 2 * ((ints >> (n + j)) & 1)
        masks |= (vx * vy < 0).astype(np.int64) << j
    return parity_dot(masks, *family_half(n, odd=False))


def edit_signed_products(monkeypatch, edits) -> None:
    """Apply ``edit_products`` with ``edits`` to every product
    ``_signed_products`` returns from now on."""
    original = kslab.hv_oracle._signed_products
    monkeypatch.setattr(kslab.hv_oracle, "_signed_products", edit_products(original, edits))


def doctor_signed_products(monkeypatch, entries) -> None:
    """Add 1 to the real part at each (sites, code) of ``entries`` in
    every product ``_signed_products`` returns from now on."""
    edit_signed_products(monkeypatch, [(sites, code, 0, 1) for sites, code in entries])


def random_edits(n: int, rng: random.Random) -> list[tuple[int, int, int, int]]:
    """One to four edits of half codes of either half, each the smallest
    code of its word mask (code < 2^k) or not, in either part."""
    edits = []
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((n // 2, n - n // 2))
        smallest = rng.random() < 0.5
        code = rng.randrange(1 << k) if smallest else rng.randrange(1 << k, 1 << (2 * k))
        edits.append((k, code, rng.randrange(2), rng.choice((-2, -1, 1, 2))))
    return edits


def outcome(check, n: int) -> str | None:
    """The message of the ``VerificationError`` check(n) raises, or None."""
    try:
        check(n)
    except VerificationError as exc:
        return str(exc)
    return None


class TestAssignment:
    def test_round_trip_small(self):
        for n in (1, 2, 3):
            for k in range(1 << (2 * n)):
                assert to_bits(Assignment.from_bits(n, k)) == k

    @given(n=st.integers(1, 12), data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_round_trip_random(self, n, data):
        bits = data.draw(st.integers(0, (1 << (2 * n)) - 1))
        a = Assignment.from_bits(n, bits)
        assert a.n == n
        assert to_bits(a) == bits

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError, match="-1 or \\+1"):
            Assignment(2, (1, 0), (1, 1))
        with pytest.raises(ValueError, match="entries"):
            Assignment(2, (1,), (1, 1))
        with pytest.raises(ValueError, match="site"):
            Assignment(0, (), ())

    def test_rejects_bits_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Assignment.from_bits(2, 16)


class TestGValue:
    def test_worked_examples(self):
        assert g_value(Assignment(2, (1, 1), (1, 1))) == 0
        assert g_value(Assignment(2, (1, 1), (1, -1))) == 2

    def test_value_sets_exhaustive(self):
        # a negative real product at n=2 forces a negative x-product,
        # so the composite never reaches -2
        assert {g_value(a) for a in all_assignments(2)} == {0, 2}
        assert {g_value(a) for a in all_assignments(3)} == {-2, 2}
        assert {g_value(a) for a in all_assignments(4)} == {-4, 0, 4}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_never_exceeds_bound(self, n):
        bound = multipartite_bound(n)
        assert all(abs(g_value(a)) <= bound for a in all_assignments(n))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_global_sign_flip_invariance(self, n):
        for a in all_assignments(n):
            flipped = Assignment(
                n, tuple(-v for v in a.vx), tuple(-v for v in a.vy)
            )
            assert g_value(flipped) == g_value(a)


class TestBruteforceBound:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_closed_form_exactly(self, n):
        assert bruteforce_report(n).bound_bruteforce == multipartite_bound(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_witness_attains_the_bound(self, n):
        report = bruteforce_report(n)
        assert g_value(report.witness) == report.bound_bruteforce
        assert report.bound_bruteforce == int(report.bound_formula)
        assert report.cross_check == "exhaustive"

    def test_minimum_reported(self):
        assert bruteforce_report(2).g_min == 0
        for n in range(3, 9):
            assert bruteforce_report(n).g_min == -int(multipartite_bound(n))

    def test_thread_cap_env(self, monkeypatch):
        # the sweep runs on one process; a leftover KS_LAB_THREADS, even
        # one the pool used to reject, changes nothing
        for value in ("1", "zero?"):
            monkeypatch.setenv("KS_LAB_THREADS", value)
            assert bruteforce_report(8).workers == 1

    def test_small_ranges_collapse_to_one_worker(self):
        assert bruteforce_report(4).workers == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_gray_scan(self, n):
        best_g, counter, min_g = scan_range(n, 0, 1 << (2 * n))
        report = bruteforce_report(n)
        assert report.bound_bruteforce == best_g
        assert report.g_min == min_g
        assert report.witness == Assignment.from_bits(n, counter ^ (counter >> 1))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_witness_is_smallest_maximizing_code(self, n):
        values = [g_value(a) for a in all_assignments(n)]
        report = bruteforce_report(n)
        assert to_bits(report.witness) == values.index(max(values))

    def test_elementwise_cross_check_catches_one_bad_word_sum(self, monkeypatch):
        spectrum = np.array(_spectrum(4, False))
        assert spectrum.argmax() == 3
        # the smallest code with word mask 0b0101 flips vx on sites 0 and 2;
        # mask 0b0011 holds the maximum, and raising it must fail the
        # check, never come back as a larger bound
        for mask, vx in ((5, "-1, 1, -1, 1"), (3, "-1, -1, 1, 1")):
            doctored = spectrum.copy()
            doctored[mask] += 2
            monkeypatch.setattr(kslab.hv_oracle, "_spectrum", lambda n, odd: doctored)
            with pytest.raises(VerificationError, match=rf"vx=\({vx}\), vy=\(1, 1, 1, 1\)"):
                bruteforce_report(4)

    @pytest.mark.parametrize(
        "n, entries",
        [
            # one code of the five sites both halves have at n = 10
            (10, ((5, 995),)),
            # a low-half code that is not the smallest of its mask
            # (vy_0 = -1), whose column holds only larger codes, and a
            # high-half code that is (vx_10 = -1), whose mismatch the
            # compare per word mask finds first
            (13, ((6, 1 << 6), (7, 16))),
        ],
    )
    def test_mismatch_names_the_same_code_as_the_reference(self, monkeypatch, n, entries):
        doctor_signed_products(monkeypatch, entries)
        with pytest.raises(VerificationError, match="first at Assignment") as reference:
            bruteforce_reference(n)
        with pytest.raises(VerificationError) as grid:
            bruteforce_report(n)
        assert str(grid.value) == str(reference.value)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_doctored_kernels_fail_as_the_reference_does(self, monkeypatch, n):
        # 32 seeded kernels per n, 352 in all
        rng = random.Random(7000 + n)
        kinds = set()
        for _ in range(32):
            edits = random_edits(n, rng)
            kinds |= {(k, code < 1 << k, part) for k, code, part, _ in edits}
            with monkeypatch.context() as patch:
                edit_signed_products(patch, edits)
                assert outcome(bruteforce_report, n) == outcome(bruteforce_reference, n), edits
        # both halves (told apart at odd n), smallest codes of their mask
        # and others, real and imaginary parts
        assert kinds == {
            (k, smallest, part)
            for k in (n // 2, n - n // 2)
            for smallest in (True, False)
            for part in (0, 1)
        }

    @pytest.mark.parametrize("keep_smallest", [False, True])
    def test_wholly_wrong_kernel_fails_as_the_reference_does(self, monkeypatch, keep_smallest):
        # seeded random products at every half code, or at every half code
        # but the smallest of each word mask, so that only rows and columns
        # can find the mismatches
        original = kslab.hv_oracle._signed_products

        def scrambled(k: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            rng = np.random.default_rng(k)
            parts = original(k, codes)
            kept = codes < (1 << k) if keep_smallest else np.zeros(codes.shape, dtype=bool)
            for part in parts:
                part[~kept] = rng.integers(-3, 4, size=int((~kept).sum()))
            return parts

        monkeypatch.setattr(kslab.hv_oracle, "_signed_products", scrambled)
        message = outcome(bruteforce_reference, 12)
        assert message is not None
        assert outcome(bruteforce_report, 12) == message

    def test_right_kernel_evaluates_no_row_or_column(self, monkeypatch):
        n = ENUMERATION_CAP
        sizes = []
        masks_calls = []
        kernel, word_masks = kslab.hv_oracle._signed_products, kslab.hv_oracle._word_masks

        def counted_kernel(k, codes):
            sizes.append(codes.size)
            return kernel(k, codes)

        def counted_masks(k, codes):
            masks_calls.append(k)
            return word_masks(k, codes)

        monkeypatch.setattr(kslab.hv_oracle, "_signed_products", counted_kernel)
        monkeypatch.setattr(kslab.hv_oracle, "_word_masks", counted_masks)
        assert bruteforce_report(n).bound_bruteforce == multipartite_bound(n)
        # one kernel call and one mask table per half; a row or a column
        # would read the masks of its n-site codes
        assert sizes == [4 ** (n // 2), 4 ** (n - n // 2)]
        assert masks_calls == [n // 2, n - n // 2]

        # the count sees a row: one half code that is not the smallest of
        # its mask, edited, costs one more mask read
        masks_calls.clear()
        edit_signed_products(monkeypatch, [(n // 2, 1 << (n // 2), 0, 1)])
        with pytest.raises(VerificationError):
            bruteforce_report(n)
        assert n in masks_calls

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_code_order_reference(self, n):
        best_g, best_code, min_g = bruteforce_reference(n, cross_check=False)
        report = bruteforce_report(n)
        assert report.bound_bruteforce == best_g
        assert report.g_min == min_g
        assert to_bits(report.witness) == best_code

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="2 <= n"):
            bruteforce_report(ENUMERATION_CAP + 1)
        with pytest.raises(ValueError, match="2 <= n"):
            bruteforce_report(1)

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_cross_check_exhaustive_beyond_ten(self, n):
        report = bruteforce_report(n)
        assert report.cross_check == "exhaustive"
        assert report.bound_bruteforce == int(multipartite_bound(n))

    def test_takes_only_the_site_count(self):
        # no parameter can skip the cross-check
        assert list(inspect.signature(bruteforce_report).parameters) == ["n"]

    def test_report_serialization(self):
        data = bruteforce_report(3).to_dict()
        assert data["n"] == 3
        assert data["bound_formula"] == 2.0
        assert data["bound_bruteforce"] == 2
        assert set(data["witness_assignment"]) == {"vx", "vy"}
        assert data["workers"] == 1
        assert data["elapsed"] >= 0.0


class TestHalfgroupSums:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_equals_direct_product_exhaustively(self, n):
        ints = np.arange(1 << (2 * n), dtype=np.int64)
        sums = halfgroup_sums(n, ints)
        direct = [g_value(Assignment.from_bits(n, int(k))) for k in ints]
        assert sums.tolist() == direct

    @pytest.mark.parametrize("n", [9, 11, 12])
    def test_equals_direct_product_sampled(self, n):
        rng = np.random.default_rng(900 + n)
        ints = rng.integers(0, 1 << (2 * n), size=64, dtype=np.int64)
        sums = halfgroup_sums(n, ints)
        for value, bits in zip(sums, ints):
            assert int(value) == g_value(Assignment.from_bits(n, int(bits)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_parity_oracle_exhaustively(self, n):
        ints = np.arange(1 << (2 * n), dtype=np.int64)
        np.testing.assert_array_equal(halfgroup_sums(n, ints), oracle_halfgroup_sums(n, ints))

    @pytest.mark.parametrize("n", range(11, 15))
    def test_equals_parity_oracle_sampled(self, n):
        rng = np.random.default_rng(1100 + n)
        ints = rng.integers(0, 1 << (2 * n), size=4096, dtype=np.int64)
        np.testing.assert_array_equal(halfgroup_sums(n, ints), oracle_halfgroup_sums(n, ints))

    @pytest.mark.parametrize("bad", [-1, 1 << 8])
    def test_rejects_codes_out_of_range(self, bad):
        with pytest.raises(ValueError, match="encoded assignments"):
            halfgroup_sums(4, np.array([0, bad], dtype=np.int64))

    @pytest.mark.parametrize("n", [HVKN_LIMIT + 1, 31, 32])
    def test_rejects_sizes_beyond_limit_before_building_arrays(self, n, monkeypatch):
        def refuse(k: int, odd: bool) -> np.ndarray:
            raise AssertionError(f"spectrum built at n = {k}")

        monkeypatch.setattr(kslab.hv_oracle, "_spectrum", refuse)
        with pytest.raises(ValueError, match=rf"1 <= n <= {HVKN_LIMIT}, got {n}"):
            halfgroup_sums(n, np.array([0], dtype=np.int64))


class TestSpectrum:
    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("odd", [False, True])
    def test_equals_parity_oracle_for_every_mask(self, n, odd):
        masks = np.arange(1 << n, dtype=np.int64)
        expected = parity_dot(masks, *family_half(n, odd))
        spectrum = _spectrum(n, odd)
        assert spectrum.dtype == np.int64
        np.testing.assert_array_equal(spectrum, expected)

    def test_cached_spectrum_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _spectrum(3, False)[0] = 0


class TestCertificates:
    def test_peres_mermin_is_unsatisfiable(self):
        cert = peres_mermin_certificate()
        assert cert.scenario == "peres-mermin"
        assert cert.satisfying_count == 0
        assert cert.total_count == 32
        assert cert.constraints == (
            (("XX", "YY", "ZZ"), -1),
            (("XY", "YX", "ZZ"), 1),
        )

    def test_ghz_is_unsatisfiable(self):
        cert = ghz_certificate()
        assert cert.scenario == "ghz"
        assert cert.satisfying_count == 0
        assert cert.total_count == 64
        assert cert.constraints == ((("XYY", "YXY", "YYX", "XXX"), -1),)

    def test_forced_values_match_dense_products(self):
        for cert in (peres_mermin_certificate(), ghz_certificate()):
            for words, forced in cert.constraints:
                product = oracle_matrix("+" + words[0])
                for word in words[1:]:
                    product = product @ oracle_matrix("+" + word)
                identity = np.eye(product.shape[0])
                assert np.allclose(product, forced * identity, atol=1e-12)

    def test_dropping_any_constraint_makes_it_satisfiable(self):
        for idx in range(2):
            relaxed = peres_mermin_certificate(drop=idx)
            assert relaxed.dropped == idx
            assert relaxed.satisfying_count == 16
        assert ghz_certificate(drop=0).satisfying_count == 64

    def test_drop_index_validated(self):
        with pytest.raises(ValueError, match="drop index"):
            peres_mermin_certificate(drop=2)
        with pytest.raises(ValueError, match="drop index"):
            ghz_certificate(drop=1)

    def test_ghz_factorized_product_is_identically_one(self):
        # telescoping: every site value appears exactly twice
        words = ("XYY", "YXY", "YYX", "XXX")
        for bits in range(64):
            x = [1 - 2 * ((bits >> j) & 1) for j in range(3)]
            y = [1 - 2 * ((bits >> (3 + j)) & 1) for j in range(3)]
            product = 1
            for word in words:
                for j, c in enumerate(word):
                    product *= x[j] if c == "X" else y[j]
            assert product == 1

    def test_serialized_forms(self):
        cert = peres_mermin_certificate()
        data = cert.to_dict()
        assert data["constraints"][0] == {"words": ["XX", "YY", "ZZ"], "forced": -1}
        assert data["satisfying_count"] == 0


# Word masks whose family spectrum entry ``doctor_spectra`` spoils, at
# n sites: (even, odd).
DOCTORED_MASKS = {8: (0b0110_1001, 0b1000_0001), 10: (0b11_0000_0101, 0b01_1111_0000)}


def doctor_spectra(monkeypatch, n: int) -> None:
    """Make one even-family and one odd-family word sum at n sites wrong by
    2, so every code with either word mask fails the identity check."""
    real = kslab.hv_oracle._spectrum

    def doctored(k: int, odd: bool) -> np.ndarray:
        spectrum = real(k, odd)
        if k != n:
            return spectrum
        spectrum = spectrum.copy()
        spectrum[DOCTORED_MASKS[n][odd]] += 2
        return spectrum

    monkeypatch.setattr(kslab.hv_oracle, "_spectrum", doctored)


class TestVerifyHvkn:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_small_sites(self, n):
        report = verify_hvkn(n)
        assert report.mode == "exhaustive"
        assert report.checked == 1 << (2 * n)
        assert report.failures == 0
        assert report.first_failure is None
        assert report.seed is None
        assert report.ok

    @pytest.mark.parametrize("n", [9, 10, 12])
    def test_sampled_large_sites(self, n):
        report = verify_hvkn(n, sample_budget=20_000)
        assert report.mode == "sampled"
        assert report.checked == 20_000
        assert report.failures == 0
        assert report.seed is not None

    def test_sampling_is_deterministic(self):
        first = verify_hvkn(9, sample_budget=500)
        second = verify_hvkn(9, sample_budget=500)
        assert first.to_dict() == second.to_dict()

    def test_budget_smaller_than_space_forces_sampling(self):
        assert verify_hvkn(2, sample_budget=10).mode == "sampled"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n >= 2"):
            verify_hvkn(1)
        with pytest.raises(ValueError, match="budget"):
            verify_hvkn(4, sample_budget=0)

    def test_report_serialization(self):
        data = verify_hvkn(3).to_dict()
        assert data == {
            "n": 3,
            "mode": "exhaustive",
            "checked": 64,
            "failures": 0,
            "first_failure": None,
            "seed": None,
        }

    @pytest.mark.parametrize(("n", "budget"), [(3, 10), (4, 100_000), (8, 100_000),
                                               (9, 500), (10, 100_000), (12, 100_000)])
    def test_blocked_check_matches_one_piece_reference(self, n, budget):
        report = verify_hvkn(n, sample_budget=budget)
        assert report == verify_hvkn_reference(n, sample_budget=budget)
        assert report.ok

    def test_sample_is_the_low_bits_of_the_seeded_stream(self):
        codes = hvkn_reference_codes(10, sample_budget=5)
        words = random.Random(104729).randbytes(40)
        assert codes.tolist() == [
            int.from_bytes(words[8 * i : 8 * i + 8], "little") % 4**10 for i in range(5)
        ]

    @pytest.mark.parametrize("n", [8, 10])
    def test_failures_across_blocks_match_reference(self, n, monkeypatch):
        doctor_spectra(monkeypatch, n)
        codes = hvkn_reference_codes(n)
        masks = (codes ^ (codes >> n)) & ((1 << n) - 1)
        hit = np.flatnonzero(np.isin(masks, DOCTORED_MASKS[n]))
        assert len(set(hit // kslab.hv_oracle._HVKN_BLOCK)) > 2

        report = verify_hvkn(n)
        reference = verify_hvkn_reference(n)
        assert report.mode == ("exhaustive" if n == 8 else "sampled")
        assert report.failures == reference.failures == hit.size
        assert report.first_failure == reference.first_failure
        assert report.first_failure == Assignment.from_bits(n, int(codes[hit[0]]))

    @pytest.mark.parametrize("block", [1 << 8, 3000])
    @pytest.mark.parametrize("n", [8, 10])
    def test_block_size_does_not_change_report(self, n, block, monkeypatch):
        doctor_spectra(monkeypatch, n)
        default = verify_hvkn(n)
        monkeypatch.setattr(kslab.hv_oracle, "_HVKN_BLOCK", block)
        assert default.failures > 0
        assert verify_hvkn(n) == default

    @pytest.mark.parametrize("n", [HVKN_LIMIT + 1, 31, 32, 40])
    def test_rejects_sizes_beyond_limit_before_building_arrays(self, n, monkeypatch):
        def refuse(k: int, odd: bool) -> np.ndarray:
            raise AssertionError(f"spectrum built at n = {k}")

        monkeypatch.setattr(kslab.hv_oracle, "_spectrum", refuse)
        for budget in (10, 100_000):
            with pytest.raises(ValueError, match=rf"n >= 2 and n <= {HVKN_LIMIT}, got {n}"):
                verify_hvkn(n, sample_budget=budget)

    def test_largest_size_runs(self):
        report = verify_hvkn(HVKN_LIMIT, sample_budget=5_000)
        assert report == verify_hvkn_reference(HVKN_LIMIT, sample_budget=5_000)
        assert report.ok
