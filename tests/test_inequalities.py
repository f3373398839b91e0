"""Inequality reports, classical bounds, and scan serialization."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from oracle import maximally_mixed, oracle_matrix, scan_from_csv

from kslab.pauli import SITE_LIMIT
from kslab.inequalities import (
    GUARD_BAND,
    SIGNIFICANCE_K,
    InequalityReport,
    decide_violation,
    multipartite_bound,
    multipartite_report,
    scan,
    scan_to_csv,
    scan_to_json,
    two_partite_report,
)
from kslab.states import (
    DenseState,
    GhzSuperposition,
    ProductState,
    WernerState,
    pi_vector,
    random_density,
    to_density_matrix,
)


def oracle_two_partite_lhs(state) -> float:
    rho = to_density_matrix(state)
    comb = (
        oracle_matrix("+II")
        + oracle_matrix("+XX")
        + oracle_matrix("+YY")
        - oracle_matrix("+ZZ")
    )
    return float(np.trace(rho @ comb).real)


class TestDecideViolation:
    def test_guard_band_without_uncertainty(self):
        assert not decide_violation(2.0, 2.0)
        assert not decide_violation(2.0 + GUARD_BAND / 10, 2.0)
        assert decide_violation(2.0 + 1e-6, 2.0)

    def test_k_sigma_rule(self):
        assert decide_violation(2.5, 2.0, uncertainty=0.1, k=3.0)
        assert not decide_violation(2.5, 2.0, uncertainty=0.2, k=3.0)
        # boundary is strict
        assert not decide_violation(2.3, 2.0, uncertainty=0.1, k=3.0)

    @pytest.mark.parametrize("k", [-5.0, -1e-300, float("nan"), float("inf")])
    @pytest.mark.parametrize("uncertainty", [None, 0.1])
    def test_threshold_must_be_finite_and_non_negative(self, k, uncertainty):
        with pytest.raises(ValueError, match="k must be finite"):
            decide_violation(1.95, 2.0, uncertainty, k)

    def test_zero_threshold_is_allowed(self):
        assert decide_violation(2.0 + 1e-6, 2.0, uncertainty=0.1, k=0.0)

    def test_zero_uncertainty_falls_back_to_guard_band(self):
        assert decide_violation(2.0 + 1e-6, 2.0, uncertainty=0.0)
        assert not decide_violation(2.0 + 1e-12, 2.0, uncertainty=0.0)


class TestTwoPartite:
    def test_werner_half_frozen(self):
        report = two_partite_report(WernerState(0.5))
        assert report.kind == "two-partite"
        assert report.n == 2
        assert report.lhs == pytest.approx(2.5, abs=1e-12)
        assert report.bound == 2.0
        assert report.ratio == pytest.approx(1.25, abs=1e-12)
        assert report.fidelity == pytest.approx(0.625, abs=1e-12)
        assert report.violated
        assert report.uncertainty is None

    def test_dict_carries_the_fidelity_last(self):
        data = two_partite_report(WernerState(0.5)).to_dict()
        assert data["fidelity"] == 0.625
        assert list(data)[-1] == "fidelity"

    def test_werner_third_sits_on_the_bound(self):
        report = two_partite_report(WernerState(1 / 3))
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert not report.violated

    def test_pure_pi_state_reaches_four(self):
        v = pi_vector()
        report = two_partite_report(DenseState(np.outer(v, v.conj())))
        assert report.lhs == pytest.approx(4.0, abs=1e-10)
        assert report.ratio == pytest.approx(2.0, abs=1e-10)
        assert report.fidelity == pytest.approx(1.0, abs=1e-10)
        assert report.violated

    def test_maximally_mixed_gives_one(self):
        report = two_partite_report(maximally_mixed(2))
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert report.fidelity == pytest.approx(0.25, abs=1e-12)
        assert not report.violated

    def test_lhs_is_four_times_fidelity_on_random_states(self):
        rng = np.random.default_rng(71)
        for _ in range(1000):
            report = two_partite_report(random_density(2, rng))
            assert report.fidelity == pytest.approx(report.lhs / 4, abs=1e-12)
            assert 0.0 - 1e-12 <= report.lhs <= 4.0 + 1e-12

    def test_matches_oracle_combination(self):
        rng = np.random.default_rng(72)
        for state in (
            WernerState(0.8),
            ProductState(((0.2, -0.3, 0.4), (0.0, 0.5, -0.5))),
            random_density(2, rng),
        ):
            report = two_partite_report(state)
            assert report.lhs == pytest.approx(oracle_two_partite_lhs(state), abs=1e-10)

    def test_rejects_wrong_site_count(self):
        with pytest.raises(ValueError, match="n = 2"):
            two_partite_report(GhzSuperposition(3, 2**-0.5, 2**-0.5))


class TestMultipartiteBound:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 2.0), (3, 2.0), (4, 4.0), (5, 4.0), (10, 32.0), (11, 32.0), (20, 1024.0)],
    )
    def test_frozen_values(self, n, expected):
        assert multipartite_bound(n) == expected

    @pytest.mark.parametrize("n", range(2, 41))
    def test_exact_power_of_two(self, n):
        assert math.log2(multipartite_bound(n)) == n // 2

    def test_doubles_every_second_step(self):
        for n in range(2, 40):
            ratio = multipartite_bound(n + 2) / multipartite_bound(n)
            assert ratio == 2.0

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            multipartite_bound(n)

    def test_site_limit(self):
        assert multipartite_bound(SITE_LIMIT) == 2.0 ** (SITE_LIMIT // 2)
        with pytest.raises(ValueError):
            multipartite_bound(SITE_LIMIT + 1)


class TestMultipartiteReport:
    @pytest.mark.parametrize(
        "n,ratio,violated",
        [(2, 1.0, False), (3, 2.0, True), (4, 2.0, True), (5, 4.0, True)],
    )
    def test_even_ghz_frozen(self, n, ratio, violated):
        report = multipartite_report(GhzSuperposition(n, 2**-0.5, 2**-0.5))
        assert report.kind == "multipartite"
        assert report.lhs == pytest.approx(float(1 << (n - 1)), abs=1e-10)
        assert report.ratio == pytest.approx(ratio, abs=1e-10)
        assert report.violated == violated

    def test_ghz_ten_sites(self):
        report = multipartite_report(GhzSuperposition(10, 2**-0.5, 2**-0.5))
        assert report.lhs == pytest.approx(512.0, abs=1e-9)
        assert report.bound == 32.0
        assert report.ratio == pytest.approx(16.0, abs=1e-10)

    def test_amplitudes_do_not_move_the_value(self):
        skewed = multipartite_report(GhzSuperposition(4, 0.6, 0.8j))
        even = multipartite_report(GhzSuperposition(4, 2**-0.5, 2**-0.5))
        assert skewed.lhs == pytest.approx(even.lhs, abs=1e-10)

    def test_all_up_product_matches_ghz_value(self):
        # the violation needs no entanglement, only weight on the end levels
        for n in range(2, 7):
            report = multipartite_report(ProductState.from_pattern("+" * n))
            assert report.lhs == pytest.approx(float(1 << (n - 1)), abs=1e-10)

    def test_maximally_mixed_keeps_only_identity_term(self):
        report = multipartite_report(maximally_mixed(3))
        assert report.lhs == pytest.approx(1.0, abs=1e-12)
        assert not report.violated

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
    @pytest.mark.parametrize(
        "n,rz", [(64, 0.42961333839196997), (100, 0.42405019559707174)]
    )
    def test_verdict_near_the_bound_matches_exact_arithmetic(self, n, rz):
        # F = ((1 + rz)^n + (1 - rz)^n) / 2, exactly, from the same float rz
        exact = ((1 + Fraction(rz)) ** n + (1 - Fraction(rz)) ** n) / 2
        report = multipartite_report(ProductState(((0.0, 0.0, rz),) * n))
        assert report.violated == (exact - Fraction(multipartite_bound(n)) > GUARD_BAND)


class TestScored:
    def test_matches_the_hand_built_report(self):
        rng = np.random.default_rng(2404)
        for _ in range(2000):
            two = bool(rng.integers(2))
            n = 2 if two else int(rng.integers(2, SITE_LIMIT + 1))
            bound = 2.0 if two else float(2 ** (n // 2))
            # near the bound, so both verdicts occur under every rule
            lhs = bound + bound * float(rng.normal(0, 0.5)) * float(rng.choice([1e-12, 1e-3, 1]))
            uncertainty = [None, 0.0, bound * float(rng.exponential(0.1))][int(rng.integers(3))]
            k = float(rng.choice([0.0, 1.0, SIGNIFICANCE_K, 7.5]))
            margin = k * uncertainty if uncertainty else GUARD_BAND
            kind = "two-partite" if two else "multipartite"
            expected = InequalityReport(
                kind, n, lhs, bound, lhs / bound, lhs - bound > margin, uncertainty
            )
            assert InequalityReport.scored(kind, n, lhs, uncertainty, k) == expected
            if k == SIGNIFICANCE_K:
                assert InequalityReport.scored(kind, n, lhs, uncertainty) == expected

    def test_bound_comes_before_the_threshold(self):
        with pytest.raises(ValueError, match="bound defined for"):
            InequalityReport.scored("multipartite", 1, 1.0, k=float("nan"))
        with pytest.raises(ValueError, match="k must be finite"):
            InequalityReport.scored("multipartite", 2, 1.0, k=float("nan"))


class TestScan:
    def test_rows_and_labels(self):
        rows = scan(2, 5)
        assert [label for label, _ in rows] == ["ghz", "product"] * 4
        assert [report.n for _, report in rows] == [2, 2, 3, 3, 4, 4, 5, 5]
        assert all(report.kind == "multipartite" for _, report in rows)

    def test_ratio_column_frozen(self):
        ghz_ratios = [r.ratio for label, r in scan(2, 5) if label == "ghz"]
        assert ghz_ratios == pytest.approx([1.0, 2.0, 2.0, 4.0], abs=1e-10)

    @pytest.mark.parametrize("bad", [(1, 4), (5, 3), (0, 0)])
    def test_rejects_bad_range(self, bad):
        with pytest.raises(ValueError):
            scan(*bad)

    def test_csv_round_trip_is_exact(self):
        rows = scan(2, 6)
        text = scan_to_csv(rows)
        assert text.splitlines()[0] == "state,kind,n,lhs,bound,ratio,violated,sigma"
        assert scan_from_csv(text) == rows

    @pytest.mark.parametrize(
        "sigma, cells",
        [(0.125, "2.5,2.0,1.25,true,0.125"), (0.25, "2.5,2.0,1.25,false,0.25")],
    )
    def test_csv_row_of_a_two_partite_report(self, sigma, cells):
        report = InequalityReport(
            "two-partite", 2, 2.5, 2.0, 1.25, decide_violation(2.5, 2.0, sigma), sigma, 0.625
        )
        assert scan_to_csv([("w", report)]).splitlines()[1] == f"w,two-partite,2,{cells}"

    def test_json_shape(self):
        data = json.loads(scan_to_json(scan(2, 3)))
        assert len(data) == 4
        assert data[0]["state"] == "ghz"
        assert set(data[0]) == {
            "state", "kind", "n", "lhs", "bound", "ratio", "violated", "sigma",
        }
        assert data[0]["sigma"] is None

    def test_json_rejects_nan(self):
        report = InequalityReport(
            kind="multipartite", n=2, lhs=float("nan"), bound=2.0,
            ratio=float("nan"), violated=False,
        )
        with pytest.raises(ValueError):
            scan_to_json([("ghz", report)])


class TestReportSerialization:
    def test_uncertainty_travels_as_sigma(self):
        report = InequalityReport(
            kind="multipartite", n=4, lhs=8.0, bound=4.0, ratio=2.0,
            violated=True, uncertainty=0.125,
        )
        data = report.to_dict()
        assert data["sigma"] == 0.125
        assert "uncertainty" not in data
