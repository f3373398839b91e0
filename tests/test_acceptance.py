"""End-to-end acceptance battery.

Each test covers one headline guarantee and prints a single PASS/FAIL
line with its runtime, visible even under pytest's capture.
"""

from __future__ import annotations

import json
import time
from functools import reduce

import numpy as np
import pytest
from golden_corpus import run
from oracle import oracle_matrix

from kslab.certificates import ghz_certificate, peres_mermin_certificate
from kslab.experiment import required_words
from kslab.fine_model import (
    build_model,
    check_D,
    check_FUNC,
    check_JD,
    check_measure_lemma,
    check_PROD,
    indicator_matrix,
    random_commuting_family,
    random_measure_space,
    spectrum_subsets,
)
from kslab.hv_oracle import ENUMERATION_CAP, bruteforce_report, verify_hvkn
from kslab.inequalities import (
    multipartite_bound,
    multipartite_report,
    two_partite_report,
)
from kslab.pauli import LambdaIndex, lambda_element, pauli_mul, verify_sum_identities
from kslab.states import (
    GhzSuperposition,
    ProductState,
    WernerState,
    f_value,
    random_density,
    to_density_matrix,
)


# The battery's summary labels, in test order; README's printout shows
# the same ten.
LABELS = (
    "01 group law n=2..8",
    "02 sum identities n=2..8",
    "03 Werner lambda=1/2",
    "04 GHZ and product states n=2..20",
    f"05 brute force bound n=2..{ENUMERATION_CAP}",
    "06 contradiction certificates",
    "07 assignment identities n=2..12",
    "08 finite models, 50 families",
    "09 measure lemma, 100 spaces",
    "10 CLI contract",
)


@pytest.fixture
def announce(capsys):
    info = {"label": "?", "ok": False}
    start = time.perf_counter()
    yield info
    elapsed = time.perf_counter() - start
    status = "PASS" if info["ok"] else "FAIL"
    with capsys.disabled():
        print(f"acceptance {info['label']}: {status} ({elapsed:.2f}s)")


def test_01_group_law(announce):
    announce["label"] = LABELS[0]
    start = time.perf_counter()
    for n in range(2, 9):
        elements = [lambda_element(LambdaIndex(n, p)) for p in range(1 << n)]
        for p, left in enumerate(elements):
            for q, right in enumerate(elements):
                assert pauli_mul(left, right) == elements[p ^ q]
    assert time.perf_counter() - start < 10.0
    announce["ok"] = True


def test_02_sum_identities(announce):
    announce["label"] = LABELS[1]
    for n in range(2, 9):
        report = verify_sum_identities(n)
        assert report.ok, report.first_mismatch
        if n <= 6:
            assert report.max_residual is not None
            assert report.max_residual < 1e-12
    announce["ok"] = True


def test_03_werner_point(announce):
    announce["label"] = LABELS[2]
    report = two_partite_report(WernerState(0.5))
    assert report.lhs == pytest.approx(2.5, abs=1e-10)
    assert report.fidelity == pytest.approx(0.625, abs=1e-10)
    assert report.violated
    announce["ok"] = True


def test_04_ghz_and_product_violation(announce):
    announce["label"] = LABELS[3]
    rng = np.random.default_rng(417)
    for n in range(2, 21):
        target = float(1 << (n - 1))
        for _ in range(100):
            theta = rng.uniform(0, np.pi / 2)
            alpha = np.cos(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            beta = np.sin(theta) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert f_value(GhzSuperposition(n, alpha, beta)) == pytest.approx(
                target, abs=1e-9
            )
        assert f_value(GhzSuperposition(n, 1.0, 0.0)) == pytest.approx(target, abs=1e-9)
        assert f_value(ProductState.from_pattern("+" * n)) == pytest.approx(
            target, abs=1e-9
        )
        report = multipartite_report(GhzSuperposition(n, 2**-0.5, 2**-0.5))
        expected_ratio = 2 ** ((n - 2) / 2) if n % 2 == 0 else 2 ** ((n - 1) / 2)
        assert report.ratio == pytest.approx(expected_ratio, rel=1e-9)
    row = multipartite_report(GhzSuperposition(3, 2**-0.5, 2**-0.5))
    assert row.bound == 2.0
    assert row.lhs == pytest.approx(4.0, abs=1e-9)
    assert row.ratio == pytest.approx(2.0, abs=1e-9)
    announce["ok"] = True


def test_05_bruteforce_recovers_bound(announce):
    announce["label"] = LABELS[4]
    for n in range(2, ENUMERATION_CAP):
        assert bruteforce_report(n).bound_bruteforce == multipartite_bound(n)
    start = time.perf_counter()
    assert bruteforce_report(ENUMERATION_CAP).bound_bruteforce == multipartite_bound(ENUMERATION_CAP)
    assert time.perf_counter() - start < 60.0
    announce["ok"] = True


def test_06_contradiction_certificates(announce):
    announce["label"] = LABELS[5]
    for certificate in (peres_mermin_certificate(), ghz_certificate()):
        assert certificate.satisfying_count == 0
        assert certificate.total_count > 0
        for words, forced in certificate.constraints:
            product = reduce(np.matmul, [oracle_matrix("+" + w) for w in words])
            assert np.allclose(
                product, forced * np.eye(product.shape[0]), atol=1e-12
            )
    announce["ok"] = True


def test_07_hvkn_identity(announce):
    announce["label"] = LABELS[6]
    for n in range(2, 9):
        report = verify_hvkn(n)
        assert report.mode == "exhaustive"
        assert report.checked == 4**n
        assert report.failures == 0
    for n in range(9, 13):
        report = verify_hvkn(n)
        assert report.mode == "sampled"
        assert report.checked >= 100_000
        assert report.failures == 0
    announce["ok"] = True


def test_08_fine_model_suite(announce):
    announce["label"] = LABELS[7]
    rng = np.random.default_rng(8150)
    pools = {
        n: [random_density(n, rng) for _ in range(count)]
        for n, count in ((1, 6), (2, 7), (3, 7))
    }
    assert sum(len(pool) for pool in pools.values()) == 20
    for trial in range(50):
        n = int(rng.integers(1, 4))
        state = pools[n][trial % len(pools[n])]
        family = random_commuting_family(rng, n)
        model = build_model(state, family, names=("A", "B"))
        subsets_a = spectrum_subsets(model.spectra["A"])
        subsets_b = spectrum_subsets(model.spectra["B"])
        assert all(check_D(model, "A", delta) for delta in subsets_a[:6])
        assert all(check_D(model, "B", delta) for delta in subsets_b[:6])
        for delta_a in subsets_a[:3]:
            for delta_b in subsets_b[:3]:
                assert check_JD(model, "A", "B", delta_a, delta_b)
        assert check_FUNC(model, "A", lambda x: x * x)
        slope, shift = rng.standard_normal(2)
        assert check_FUNC(model, "B", lambda x: slope * x + shift)
        assert check_PROD(model, "A", "B")
        half = model.spectra["A"][: 1 + len(model.spectra["A"]) // 2]
        bits = model.register("chi", indicator_matrix(family[0], half))
        assert set(bits.tolist()) <= {0.0, 1.0}
        rho = to_density_matrix(state)
        for name, matrix in model.matrices.items():
            classical = float(model.weights @ model.value_table[name])
            quantum = float(np.real(np.trace(rho @ matrix)))
            assert abs(classical - quantum) <= 1e-9
    announce["ok"] = True


def test_09_measure_lemma(announce):
    announce["label"] = LABELS[8]
    rng = np.random.default_rng(915)
    for _ in range(100):
        assert check_measure_lemma(*random_measure_space(rng))
    announce["ok"] = True


def test_10_cli_contract(announce, tmp_path):
    announce["label"] = LABELS[9]
    record = run(["violate", "--state", "werner:lambda=0.5", "--kind", "two"])
    assert record["exit"] == 0
    assert json.loads(record["stdout"])["violated"] is True

    ghz = GhzSuperposition(3, 2**-0.5, 2**-0.5)
    rho = to_density_matrix(ghz)
    lines = ["word,value,sigma"]
    for letters in required_words("multipartite", 3):
        value = float(np.real(np.trace(rho @ oracle_matrix("+" + letters))))
        clipped = min(1.0, max(-1.0, value))
        lines.append(f"{letters},{clipped!r},0")
    path = tmp_path / "ghz.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    record = run(["check", "--file", str(path), "--kind", "multi"])
    assert record["exit"] == 0
    payload = json.loads(record["stdout"])
    analytic = multipartite_report(ghz)
    assert payload["lhs"] == pytest.approx(analytic.lhs, abs=1e-10)
    assert payload["bound"] == analytic.bound
    assert payload["violated"] is True
    announce["ok"] = True
