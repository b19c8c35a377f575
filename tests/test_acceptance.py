"""Acceptance suite.

Each test prints one `acceptance NN: PASS/FAIL` line for its criterion.
The random corpus (100 generator specs covering key dimensions 2-3, two and
three parties, and per-party shield dimensions 2-3) is built once and shared
by the criteria that grade it.
"""

import itertools
import time

import numpy as np
import pytest

import privdistill as pd
from privdistill.serialize import dumps, report_to_json

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
BELL_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)

CORPUS_SIZE = 100
CORPUS_BUDGET_S = 300.0
CERT_BUDGET_S = 60.0


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {detail}"


def _two_qubit_shield_spec(shield, u1):
    dm = pd.validate_state(
        shield, pd.layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")])
    )
    return pd.PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(pd.UnitaryOp(np.eye(4, dtype=complex)), pd.UnitaryOp(u1)),
        shield=dm,
    )


def _corpus_configs():
    combos = []
    for d in (2, 3):
        for parties in (2, 3):
            for dims in itertools.product((2, 3), repeat=parties):
                combos.append((d, parties, dims))
    return combos


@pytest.fixture(scope="module")
def corpus():
    """(spec, bound report) for 100 random generator specs, plus wall time."""
    combos = _corpus_configs()
    entries = []
    t0 = time.time()
    for idx in range(CORPUS_SIZE):
        d, parties, dims = combos[idx % len(combos)]
        spec = pd.random_spec(d, parties, dims, seed=1000 + idx)
        report = pd.ed_lower_bound(spec, seed=idx)
        entries.append((spec, report))
    return entries, time.time() - t0


def test_01_swap_shield_exact_values():
    spec = _two_qubit_shield_spec(np.eye(4) / 4, SWAP)
    res = pd.optimize_pair(spec, 0, 1, seed=0)
    outcome = pd.apply_filter(
        pd.build_private_state(spec), pd.build_filters(spec, 0, 1, res)
    )
    report = pd.ed_lower_bound(spec, seed=0)
    plus = pd.bell_vector(+1, 0, 1, 2, 2)
    ok = (
        abs(res.eta - 0.25) < 1e-9
        and abs(res.a1 - 0.25) < 1e-9
        and abs(res.a2 - 0.25) < 1e-9
        and abs(outcome.success - 0.25) < 1e-9
        and abs(outcome.p - 1.0) < 1e-9
        and np.abs(outcome.state.matrix - np.outer(plus, plus.conj())).max() < 1e-9
        and abs(report.best_verified_rate - 0.25) < 1e-9
    )
    _verdict(1, ok, "swap-shield pipeline: eta=a1=a2=1/4, success=1/4, "
                    "pure + Bell output, rate 1/4")


def test_02_bell_shield_rate_half():
    spec = _two_qubit_shield_spec(
        np.outer(BELL_PLUS, BELL_PLUS.conj()), np.kron(SZ, np.eye(2))
    )
    res = pd.optimize_pair(spec, 0, 1, seed=0)
    report = pd.ed_lower_bound(spec, seed=0)
    ok = (
        abs(res.eta - 0.5) < 1e-9
        and abs(res.a1 - 0.5) < 1e-9
        and abs(res.a2 - 0.5) < 1e-9
        and abs(report.best_verified_rate - 0.5) < 1e-9
        and abs(report.best_paper_rate - 0.5) < 1e-9
    )
    _verdict(2, ok, "entangled-shield pipeline: eta=1/2 and rate 1/2")


def test_03_random_corpus_has_positive_rates(corpus):
    entries, elapsed = corpus
    floor = min(rep.best_verified_rate for _, rep in entries)
    ok = len(entries) == CORPUS_SIZE and floor > 1e-6 and elapsed < CORPUS_BUDGET_S
    _verdict(3, ok, f"{CORPUS_SIZE} random specs: min verified rate "
                    f"{floor:.3e} > 1e-6 in {elapsed:.1f}s")


def test_04_simulation_matches_closed_form(corpus):
    entries, _ = corpus
    worst_resid = worst_succ = worst_p = 0.0
    for _, rep in entries:
        for b in rep.pairs:
            worst_resid = max(worst_resid, b.structure_residual)
            worst_succ = max(worst_succ, abs(b.success_sim - b.success_pred))
            worst_p = max(worst_p, abs(b.p_sim - b.p_pred))
    ok = worst_resid <= 1e-9 and worst_succ <= 1e-9 and worst_p <= 1e-9
    _verdict(4, ok, f"post-filter structure residual <= {worst_resid:.2e}, "
                    f"success gap <= {worst_succ:.2e}, p gap <= {worst_p:.2e}")


def test_05_overlap_bounds_hold(corpus):
    entries, _ = corpus
    ok = True
    worst_cs = worst_floor = 0.0
    for spec, rep in entries:
        for b in rep.pairs:
            cs_excess = b.eta - np.sqrt(b.a1 * b.a2)
            floor_gap = np.abs(pd.cross_operator(spec, b.i, b.j)).max() - b.eta
            worst_cs = max(worst_cs, cs_excess)
            worst_floor = max(worst_floor, floor_gap)
    ok = worst_cs <= 1e-9 and worst_floor <= 1e-9
    _verdict(5, ok, f"eta <= sqrt(a1 a2) (excess {worst_cs:.2e}) and eta >= "
                    f"largest |X| entry (gap {worst_floor:.2e}) on every pair")


def test_06_independent_route_agrees():
    configs = [
        (2, 2, (2, 2)), (2, 2, (2, 3)), (2, 2, (3, 3)), (2, 2, (4, 4)),
        (3, 2, (2, 3)), (2, 3, (2, 2, 3)), (2, 3, (3, 3, 2)), (2, 2, (6, 6)),
        (3, 2, (3, 3)), (2, 3, (2, 2, 2)),
    ]
    worst = 0.0
    count = 0
    for idx in range(50):
        d, parties, dims = configs[idx % len(configs)]
        spec = pd.random_spec(d, parties, dims, seed=5000 + idx)
        x = pd.cross_operator(spec, 0, 1)
        fast = pd.eta_optimize(x, dims, seed=idx).eta
        slow = pd.brute_force_eta(x, dims, samples=64, seed=9000 + idx)
        worst = max(worst, abs(fast - slow))
        count += 1
    ok = count == 50 and worst <= 1e-6
    _verdict(6, ok, f"50 cross operators (dim <= 36): optimizer vs plain "
                    f"multi-start gap <= {worst:.2e}")


def test_07_formation_certificates():
    t0 = time.time()
    worst_margin = np.inf
    worst_resid = 0.0
    all_passed = True
    for d, seed in ((2, 70), (3, 71), (4, 72)):
        spec = pd.random_spec(d, 2, (2, 2), seed=seed)
        cert = pd.ef_certificate(spec, samples=200, seed=seed)
        all_passed = all_passed and cert.passed
        worst_margin = min(worst_margin, cert.min_margin)
        worst_resid = max(worst_resid, cert.max_identity_residual)
    elapsed = time.time() - t0
    ok = all_passed and worst_margin >= -1e-9 and elapsed < CERT_BUDGET_S
    _verdict(7, ok, f"range-sample certificates for d=2,3,4 (200 samples "
                    f"each): min margin {worst_margin:.3e}, identity residual "
                    f"<= {worst_resid:.2e}, {elapsed:.1f}s")


def test_08_tensor_power_doubles_the_key():
    worst = 0.0
    for seed in (0, 1):
        spec = pd.random_spec(2, 2, (2, 2), seed=seed)
        state = pd.build_private_state(spec)
        power_spec, perm = pd.tensor_power_spec(spec, 2)
        built = pd.build_private_state(power_spec).rho.matrix
        plain = np.kron(state.rho.matrix, state.rho.matrix)
        worst = max(worst, float(np.abs(built - plain[np.ix_(perm, perm)]).max()))
    rate = pd.key_rate(power_spec)
    ok = worst <= 1e-12 and rate >= 2.0
    _verdict(8, ok, f"two-copy regrouping entrywise exact (<= {worst:.2e}) "
                    f"and key rate {rate} >= 2 bits")


def test_09_hashing_rate_consistent_with_entropy(corpus):
    entries, _ = corpus
    worst = 0.0
    for spec, rep in entries[:10]:
        b = rep.pairs[0]
        res = pd.optimize_pair(spec, b.i, b.j, seed=123)
        outcome = pd.apply_filter(
            pd.build_private_state(spec), pd.build_filters(spec, b.i, b.j, res)
        )
        rate = pd.hashing_rate(outcome.p)
        entropy_rate = 1.0 - pd.von_neumann_entropy(outcome.state.matrix)
        worst = max(worst, abs(rate - entropy_rate))
    ok = worst <= 1e-9
    _verdict(9, ok, f"1 - H(p) equals 1 - S(post-filter state) within "
                    f"{worst:.2e} on 10 specs")


def test_10_reports_are_deterministic(tmp_path):
    spec = pd.random_spec(2, 2, (2, 3), seed=77)
    bound_a = dumps(report_to_json(pd.ed_lower_bound(spec, seed=5)))
    bound_b = dumps(report_to_json(pd.ed_lower_bound(spec, seed=5)))
    cert_a = dumps(report_to_json(pd.ef_certificate(spec, samples=30, seed=5)))
    cert_b = dumps(report_to_json(pd.ef_certificate(spec, samples=30, seed=5)))

    from privdistill.cli import main

    spec_file = tmp_path / "spec.json"
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["gen", "--seed", "42", "--out", str(spec_file)]) == 0
    args = ["bound", "--spec", str(spec_file), "--restarts", "8", "--seed", "3"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0

    ok = (
        bound_a.encode() == bound_b.encode()
        and cert_a.encode() == cert_b.encode()
        and f1.read_bytes() == f2.read_bytes()
    )
    _verdict(10, ok, "bound and certificate reports are byte-identical "
                     "across repeated runs with a fixed seed")
