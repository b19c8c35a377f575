import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import BITWISE_BLAS
from privdistill.bounds import (
    CERT_BLOCK,
    CERT_FLOOR,
    CERT_TOL,
    binary_entropy,
    ed_lower_bound,
    ef_certificate,
    hashing_rate,
    key_rate,
    pair_bounds,
)
from privdistill.filtering import filter_outcomes
from privdistill.linalg import kron_all, layout, partial_trace, von_neumann_entropy
from privdistill.overlap import cross_operator, optimize_pair, optimize_pairs
from privdistill.private_states import (
    PrivateStateSpec,
    build_private_state,
    depolarized_spec,
    eigenvectors_of_pdit,
    random_spec,
)
from privdistill.states import UnitaryOp, validate_state

# -p log2 p - (1-p) log2 (1-p) at p = 1/4, frozen to full precision
H_QUARTER = 0.8112781244591328
# 1 - H(0.9)
RATE_AT_09 = 0.5310044064107188
LOG2_3 = 1.584962500721156

SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)


def swap_shield_spec():
    shield = validate_state(
        np.eye(4) / 4, layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")])
    )
    return PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(UnitaryOp(np.eye(4, dtype=complex)), UnitaryOp(SWAP)),
        shield=shield,
    )


def trivial_shield_spec(d=2):
    """One-dimensional shields: the state is a perfect maximally entangled
    key and the filtering protocol succeeds with certainty."""
    shield = validate_state(
        np.eye(1, dtype=complex), layout([("S0", 1, 0, "shield"), ("S1", 1, 1, "shield")])
    )
    ones = tuple(UnitaryOp(np.eye(1, dtype=complex)) for _ in range(d))
    return PrivateStateSpec(d=d, parties=2, shield_dims=(1, 1),
                            unitaries=ones, shield=shield)


def test_binary_entropy_oracles():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - H_QUARTER) < 1e-15
    assert abs(binary_entropy(0.25) - binary_entropy(0.75)) < 1e-15


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    # values a rounding error outside [0, 1] are accepted
    assert binary_entropy(1.0 + 1e-15) == 0.0


def test_hashing_rate_oracles():
    assert hashing_rate(1.0) == 1.0
    assert hashing_rate(0.5) == 0.0
    assert abs(hashing_rate(0.9) - RATE_AT_09) < 1e-15
    with pytest.raises(ValueError):
        hashing_rate(0.4)
    assert hashing_rate(0.5 - 1e-14) == 0.0


def test_key_rate_is_log_d():
    assert key_rate(random_spec(2, 2, (2, 2), seed=0)) == 1.0
    assert abs(key_rate(random_spec(3, 2, (2, 2), seed=0)) - LOG2_3) < 1e-15
    assert key_rate(random_spec(4, 2, (2, 2), seed=0)) == 2.0


def test_ed_lower_bound_swap_shield():
    spec = swap_shield_spec()
    report = ed_lower_bound(spec, seed=0)
    assert report.best_pair == (0, 1)
    assert abs(report.best_verified_rate - 0.25) < 1e-9
    assert abs(report.best_paper_rate - 0.25) < 1e-9
    assert report.key_rate == 1.0
    assert report.all_converged
    (pair,) = report.pairs
    assert abs(pair.success_sim - 2 / spec.d * min(pair.a1, pair.a2)) < 1e-12
    assert abs(pair.p_sim - (0.5 + pair.eta / (2 * np.sqrt(pair.a1 * pair.a2)))) < 1e-12
    (outcome,) = filter_outcomes(spec, optimize_pairs(spec, [(0, 1)], seed=0))
    assert outcome.residual < 1e-12


def test_ed_lower_bound_trivial_shield_is_perfect():
    report = ed_lower_bound(trivial_shield_spec(), seed=1)
    assert abs(report.best_verified_rate - 1.0) < 1e-9
    assert abs(report.best_paper_rate - 1.0) < 1e-9


@pytest.mark.parametrize("restarts", [0, 3])
def test_ed_lower_bound_of_a_one_entry_cross_operator(restarts):
    """Shield |00><00| with U_0 = U_1 = I: the one cross operator is
    |00><00|, with a single nonzero entry, so three of its four basis
    starts sit at zero entries. The best one is the optimum: eta = a1 =
    a2 = 1, and the filter distills a perfect key bit."""
    shield = validate_state(
        np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
        layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")]),
    )
    identity = UnitaryOp(np.eye(4, dtype=complex))
    spec = PrivateStateSpec(d=2, parties=2, shield_dims=(2, 2),
                            unitaries=(identity, identity), shield=shield)
    report = ed_lower_bound(spec, restarts=restarts, seed=0)
    (pair,) = report.pairs
    assert pair.converged
    for value in (pair.eta, pair.a1, pair.a2, report.best_verified_rate):
        assert abs(value - 1.0) <= 1e-12


def test_ed_lower_bound_enumerates_all_pairs():
    spec = random_spec(3, 2, (2, 2), seed=3)
    report = ed_lower_bound(spec, restarts=8, seed=3)
    assert [(b.i, b.j) for b in report.pairs] == [(0, 1), (0, 2), (1, 2)]
    assert report.best_pair in [(0, 1), (0, 2), (1, 2)]
    assert 0.0 < report.best_verified_rate <= 1.0
    assert report.best_verified_rate <= report.key_rate
    for b in report.pairs:
        assert b.eta <= np.sqrt(b.a1 * b.a2) + 1e-12
        assert b.variant in ("V", "W")
        assert b.verified_rate <= b.success_sim + 1e-12


def test_paper_rate_overstates_verified_rate_by_closed_factor():
    """paper_rate = max(a1, a2) (1 - H(p)), but the filter only succeeds
    with probability (2/d) min(a1, a2): the two rates differ by exactly
    d max(a1, a2) / (2 min(a1, a2)), which is above 1 whenever d > 2."""
    checked = 0
    for d, dims, seed in [(2, (2, 2), 1), (3, (2, 2), 2), (3, (2, 3), 5), (4, (2, 2), 7)]:
        report = ed_lower_bound(random_spec(d, 2, dims, seed=seed), restarts=8, seed=seed)
        for b in report.pairs:
            if b.verified_rate < 1e-3:
                continue
            factor = d * max(b.a1, b.a2) / (2 * min(b.a1, b.a2))
            assert abs(b.paper_rate / b.verified_rate - factor) <= 1e-10 * factor
            if d > 2:
                assert b.paper_rate > b.verified_rate
            checked += 1
    assert checked >= 8


def test_ed_lower_bound_determinism():
    spec = random_spec(2, 2, (2, 3), seed=8)
    a = ed_lower_bound(spec, restarts=8, seed=5)
    b = ed_lower_bound(spec, restarts=8, seed=5)
    assert a == b


def test_slow_pair_converges_within_the_default_sweeps():
    """The one pair of this depolarized spec converges slowly: plain ascent
    needed about 1000 sweeps, so it did not converge within the default
    200. Its filter achieves about 0.125545 (plain ascent run to 5000
    sweeps). A pair that has not converged still reports its rate (0.128
    after 5 sweeps), so only the flags show that the ascent converged."""
    report = ed_lower_bound(depolarized_spec(random_spec(2, 2, (2, 4), seed=0), 0.9), seed=0)
    assert report.pairs[0].converged and report.all_converged
    assert report.best_pair == (0, 1)
    assert report.best_verified_rate >= 0.1255


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    restarts=st.integers(0, 4),
    max_iters=st.sampled_from([0, 1, 2, 200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_best_pair_and_rates_are_taken_over_all_pairs(d, dims, restarts, max_iters, seed):
    """Every pair's filter is a real one, converged or not: the best rates
    are the largest over all pairs, and `best_pair` names the first record
    of the largest verified rate. With `max_iters` 0 no pair converges."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    report = ed_lower_bound(spec, restarts=restarts, max_iters=max_iters, seed=seed)
    rates = [b.verified_rate for b in report.pairs]
    best = report.pairs[rates.index(max(rates))]
    assert report.best_pair == (best.i, best.j)
    assert report.best_verified_rate == best.verified_rate
    assert report.best_paper_rate == max(b.paper_rate for b in report.pairs)
    assert report.all_converged == all(b.converged for b in report.pairs)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    restarts=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
# The best start of pair (2, 3) has no accepted sweep, so its first ket factor
# is turned by the overlap's phase; one row alone must get the bits it gets
# among six.
@example(d=4, dims=[1, 1], restarts=1, seed=0)
def test_every_pair_of_the_bound_is_its_one_pair_record(d, dims, restarts, seed):
    """Each PairBound of `ed_lower_bound` is the record `pair_bounds` builds
    for that pair alone from `optimize_pair` with the same seed: equal on
    a BLAS where that was checked (`BITWISE_BLAS`), and otherwise with
    equal key values, variant and flag, `eta` to 1e-13 and every other
    number to 1e-12."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    report = ed_lower_bound(spec, restarts=restarts, seed=seed)
    for bound in report.pairs:
        pair = (bound.i, bound.j)
        alone = optimize_pair(spec, *pair, restarts=restarts, seed=seed)
        (record,) = pair_bounds(spec, [alone])
        if BITWISE_BLAS:
            assert bound == record
        got, want = dataclasses.asdict(bound), dataclasses.asdict(record)
        for name in ("i", "j", "variant", "converged"):
            assert got.pop(name) == want.pop(name)
        assert abs(got.pop("eta") - want.pop("eta")) <= 1e-13
        for name, value in got.items():
            assert abs(value - want[name]) <= 1e-12, name


def test_pair_bounds_labels_reversed_results_by_their_own_pairs():
    """Results asked for in reverse order keep their pairs' labels: pair
    (0, 1) has eta 0.63429 and (1, 2) has 0.65068, which labels taken from
    a pair list in the other order would swap."""
    spec = random_spec(3, 2, (2, 2), seed=1)
    records = pair_bounds(spec, optimize_pairs(spec, [(1, 2), (0, 2), (0, 1)], restarts=0))
    assert [(b.i, b.j, round(b.eta, 5)) for b in records] == [
        (1, 2, 0.65068), (0, 2, 0.66928), (0, 1, 0.63429)
    ]


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(2, 4),
    dims=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_pair_bounds_labels_each_record_with_its_results_pair(d, dims, seed, data):
    """Whatever the order of the key pairs given to `optimize_pairs`, each
    record of `pair_bounds` names the pair its result was asked for, and its
    eta is |f^dagger X g| of that result's product vectors f, g and the
    cross operator X of the pair the record names."""
    spec = random_spec(d, len(dims), tuple(dims), seed=seed)
    pairs = data.draw(st.permutations([(i, j) for i in range(d) for j in range(d) if i != j]))
    results = optimize_pairs(spec, pairs, restarts=1, seed=seed)
    for pair, result, b in zip(pairs, results, pair_bounds(spec, results), strict=True):
        assert (b.i, b.j) == (result.i, result.j) == pair
        f, g = kron_all(result.bra_vectors), kron_all(result.ket_vectors)
        assert abs(b.eta - abs(f.conj() @ cross_operator(spec, b.i, b.j) @ g)) <= 1e-12


def test_no_pairs_give_no_outcomes_and_no_records():
    spec = random_spec(3, 2, (2, 2), seed=1)
    assert optimize_pairs(spec, []) == []
    assert filter_outcomes(spec, []) == []
    assert pair_bounds(spec, []) == []


def test_ed_lower_bound_state_keyword_is_checked_not_read():
    """`state=` is kept for call compatibility: the state of this spec is
    accepted and changes nothing, a state of another spec is refused."""
    spec = random_spec(2, 2, (2, 2), seed=4)
    plain = ed_lower_bound(spec, restarts=4, seed=1)
    assert ed_lower_bound(spec, restarts=4, seed=1, state=build_private_state(spec)) == plain
    twin = random_spec(2, 2, (2, 2), seed=4)  # the same data in another object
    with pytest.raises(ValueError, match="another spec"):
        ed_lower_bound(spec, restarts=4, seed=1, state=build_private_state(twin))


def test_ef_certificate_swap_shield():
    cert = ef_certificate(swap_shield_spec(), samples=50, seed=0)
    assert cert.passed
    assert cert.witness is None
    assert cert.lower_bound == 1.0
    assert cert.min_entropy >= 1.0 - 1e-9
    assert cert.min_margin >= -1e-9
    assert cert.mean_entropy >= cert.min_entropy
    assert cert.max_identity_residual < 1e-9
    assert cert.samples == 50


def test_ef_certificate_random_qutrit():
    spec = random_spec(3, 2, (2, 2), seed=6)
    cert = ef_certificate(spec, samples=40, seed=2)
    assert cert.passed
    assert abs(cert.lower_bound - LOG2_3) < 1e-15
    assert cert.min_entropy >= LOG2_3 - 1e-9


def test_ef_certificate_low_rank_shield():
    spec = random_spec(2, 2, (2, 2), seed=4, shield_rank=1)
    cert = ef_certificate(spec, samples=30, seed=1)
    assert cert.passed


def test_ef_certificate_rejects_multipartite():
    spec = random_spec(2, 3, (2, 2, 2), seed=0)
    with pytest.raises(ValueError):
        ef_certificate(spec)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
def test_ef_certificate_refuses_a_non_finite_tol(tol):
    """A NaN or infinite tol would pass (or fail) every state unchecked."""
    with pytest.raises(ValueError, match="tol must be finite"):
        ef_certificate(random_spec(2, 2, (2, 2), seed=0), samples=2, tol=tol)


def test_ef_certificate_refuses_a_negative_tol():
    """A negative tol describes no check: it fails every state, however
    well it passes. tol = 0 still runs the certificate."""
    spec = random_spec(2, 2, (2, 2), seed=0)
    with pytest.raises(ValueError, match=r"^tol must be finite and >= 0, got -1\.0$"):
        ef_certificate(spec, samples=2, tol=-1.0)
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        ef_certificate(spec, samples=2, tol=-1e-300)
    assert ef_certificate(spec, samples=2, tol=0.0).samples == 2


@pytest.mark.parametrize("d, dims, rank, seed", [
    (2, (6, 6), None, 3), (2, (2, 2), 1, 0), (3, (1, 2), None, 1), (2, (32, 2), 1, 1),
    (4, (3, 3), 2, 2),
])
def test_ef_certificate_passes_valid_states_at_tol_0(d, dims, rank, seed):
    """tol = 0 checks to rounding (`CERT_FLOOR` units of eps log2(d s_a)),
    so valid states pass, within a quarter of that floor: also a party-0
    shield factor of 1, whose branch entropies are 0, so that every margin
    is 0 up to rounding, and a factor of 32 under a rank-1 shield, whose
    many zero eigenvalues round worst."""
    spec = random_spec(d, 2, dims, seed=seed, shield_rank=rank)
    cert = ef_certificate(spec, samples=100, seed=seed, tol=0.0)
    assert cert.passed, (cert.min_margin, cert.max_identity_residual)
    floor = CERT_FLOOR * np.finfo(float).eps * np.log2(d * dims[0])
    assert cert.max_identity_residual <= floor / 4 and cert.min_margin >= -floor / 4


def zero_entropy(monkeypatch):
    """Make the certificate's entropies read 0 for every state, so every
    sample misses both the bound and the block identity: a witness."""
    monkeypatch.setattr(
        "privdistill.bounds.von_neumann_entropy", lambda rho: np.zeros(rho.shape[:-2])
    )


def test_ef_certificate_determinism():
    spec = random_spec(2, 2, (2, 2), seed=12)
    a = ef_certificate(spec, samples=20, seed=9)
    b = ef_certificate(spec, samples=20, seed=9)
    assert a == b


def test_ef_certificate_failure_path_produces_witness(monkeypatch):
    """Entropies that miss the bound make every sample a witness; the report
    records the first one and flips to failed."""
    spec = random_spec(2, 2, (2, 2), seed=3)
    zero_entropy(monkeypatch)
    for tol in (CERT_TOL, 0.0):
        cert = ef_certificate(spec, samples=10, seed=0, tol=tol)
        assert not cert.passed
        assert cert.witness is not None
        assert cert.witness["sample"] == 0
        assert len(cert.witness["coefficients"]) == 4


def loop_certificate(spec, samples, seed, tol):
    """The certificate one sample at a time, with a dense partial trace:
    (min entropy, mean entropy, max identity residual, first witness)."""
    basis = np.array([psi for _, psi in eigenvectors_of_pdit(spec)])
    d, (s_a, s_b) = spec.d, spec.shield_dims
    bound = float(np.log2(d))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    entropies, residuals, witness = [], [], None
    for idx in range(samples):
        coeff = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        coeff /= np.linalg.norm(coeff)
        psi = coeff @ basis
        rho_a = partial_trace(np.outer(psi, psi.conj()), spec.state_layout(), ["K0", "S0"])
        direct = von_neumann_entropy(rho_a)
        blocks = psi.reshape(d, d, s_a, s_b)
        branch = 0.0
        for j in range(d):
            chi = np.sqrt(d) * blocks[j, j]
            branch += von_neumann_entropy(chi @ chi.conj().T)
        entropies.append(direct)
        residuals.append(abs(direct - (bound + branch / d)))
        if witness is None and (direct - bound < -tol or residuals[-1] > tol):
            witness = (idx, [[float(c.real), float(c.imag)] for c in coeff])
    return min(entropies), float(np.mean(entropies)), max(residuals), witness


@pytest.mark.parametrize(
    "d, dims, rank, samples",
    [(2, (2, 2), None, 1), (2, (3, 2), 2, CERT_BLOCK + 1), (3, (2, 3), None, 130),
     (4, (2, 2), None, 2 * CERT_BLOCK)],
)
def test_ef_certificate_matches_per_sample_loop(d, dims, rank, samples):
    """Batched blocks (including a partial last one) give the loop's fields."""
    spec = random_spec(d, 2, dims, seed=d + samples, shield_rank=rank)
    cert = ef_certificate(spec, samples=samples, seed=5)
    low, mean, worst, witness = loop_certificate(spec, samples, 5, 1e-9)
    assert cert.passed and witness is None
    assert abs(cert.min_entropy - low) <= 1e-12
    assert abs(cert.mean_entropy - mean) <= 1e-12
    assert abs(cert.max_identity_residual - worst) <= 1e-12
    assert cert.min_margin == cert.min_entropy - cert.lower_bound


def test_ef_certificate_witness_matches_per_sample_loop(monkeypatch):
    """Same sample index and bit-identical coefficients on the failure path
    (every sample a witness: zero entropies here, tol = -1 in the loop)."""
    spec = random_spec(3, 2, (2, 2), seed=8)
    zero_entropy(monkeypatch)
    cert = ef_certificate(spec, samples=CERT_BLOCK + 3, seed=4)
    _, _, _, (index, coefficients) = loop_certificate(spec, CERT_BLOCK + 3, 4, -1.0)
    assert not cert.passed
    assert cert.witness["sample"] == index
    got = np.array(cert.witness["coefficients"])
    assert np.array_equal(got.view(np.int64), np.array(coefficients).view(np.int64))


def test_ef_certificate_needs_a_sample():
    with pytest.raises(ValueError):
        ef_certificate(swap_shield_spec(), samples=0)
