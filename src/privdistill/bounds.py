"""Distillation-rate lower bounds and entanglement-of-formation certificates.

Two quantities are produced for a private state:

* a distillable-entanglement lower bound from the filtering protocol: each
  key pair (i, j) is filtered down to a two-Bell-state mixture whose hashing
  rate 1 - H(p) survives with the filter's success probability;
* a certificate that the entanglement of formation is at least log2(d),
  checked by sampling states from the range of the density matrix and
  verifying their entanglement entropy across the natural bipartite cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtering import _gram_outcomes
from .linalg import CONV_TOL, MAX_ITERS, RESTARTS, von_neumann_entropy
from .overlap import PairOverlap, optimize_pairs
from .private_states import PrivateState, PrivateStateSpec, eigenvectors_of_pdit

P_TOL = 1e-12
CERT_TOL = 1e-9
CERT_FLOOR = 256  # the certificate's least tolerance, in units of eps log2(d s_a)
CERT_SAMPLES = 200
CERT_BLOCK = 64  # certificate samples processed together; bounds memory


def binary_entropy(p: float) -> float:
    """H(p) in bits, with H(0) = H(1) = 0."""
    if not -P_TOL <= p <= 1.0 + P_TOL:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    p = min(max(p, 0.0), 1.0)
    out = 0.0
    if p > 0.0:
        out -= p * np.log2(p)
    if p < 1.0:
        out -= (1 - p) * np.log2(1 - p)
    return float(out)


def hashing_rate(p: float) -> float:
    """1 - H(p) for a mixture of the two Bell states with weights (p, 1-p).

    Only defined for p >= 1/2: the + Bell state must dominate.
    """
    if p < 0.5 - P_TOL:
        raise ValueError(f"Bell-state weight p={p} is below 1/2")
    return 1.0 - binary_entropy(max(p, 0.5))


def key_rate(spec: PrivateStateSpec) -> float:
    """Distillable key of an exact private state: log2(d) bits per copy."""
    return float(np.log2(spec.d))


@dataclass(frozen=True)
class PairBound:
    """Filtering outcome and rates of one key pair i < j.

    `success_sim` and `p_sim` are the success probability and + Bell weight
    of the simulated filter, formed from the pair's Gram block
    (`filtering._gram_outcomes`); acceptance test 04 holds them to the dense
    `filtering.apply_filter` and to the closed forms (2/d) min(a1, a2) and
    1/2 + eta / (2 sqrt(a1 a2)). `verified_rate` = success_sim (1 - H(p_sim))
    is the rate the simulated filter achieves. Any product vectors give a
    local filter, so it is an achievable bound whether or not the ascent
    converged; `converged` only says whether the ascent that chose the
    vectors reached its fixed point. `paper_rate` = max(a1, a2) (1 - H(p_sim))
    is uncertified: it exceeds `verified_rate` by the factor
    d max(a1, a2) / (2 min(a1, a2)), because the filter succeeds with
    probability (2/d) min(a1, a2).

    `a1`, `a2` and both rates carry only about 7 significant digits: the
    ascent stops at |delta eta| <= conv_tol (1e-12), which fixes the product
    vectors, and so the branch weights, only to about 1e-6.
    """

    i: int
    j: int
    eta: float
    a1: float
    a2: float
    variant: str
    success_sim: float
    p_sim: float
    paper_rate: float
    verified_rate: float
    converged: bool


def pair_bounds(spec: PrivateStateSpec, results: list[PairOverlap]) -> list[PairBound]:
    """The record of each result's own key pair (i, j): the simulated
    outcome of its filters, one stack formed from the Gram blocks of
    `results` alone (`filtering._gram_outcomes`), and the two rates."""
    _, success, p, _ = _gram_outcomes(spec, results)
    bounds = []
    for result, success_sim, p_sim in zip(results, success.tolist(), p.tolist()):
        rate = hashing_rate(p_sim)
        bounds.append(PairBound(
            i=result.i, j=result.j, eta=result.eta, a1=result.a1, a2=result.a2,
            variant=result.variant, success_sim=success_sim, p_sim=p_sim,
            paper_rate=max(result.a1, result.a2) * rate, verified_rate=success_sim * rate,
            converged=result.converged,
        ))
    return bounds


@dataclass(frozen=True)
class BoundReport:
    d: int
    parties: int
    shield_dims: tuple[int, ...]
    key_rate: float
    pairs: tuple[PairBound, ...]
    best_pair: tuple[int, int]
    best_paper_rate: float
    best_verified_rate: float
    all_converged: bool


def ed_lower_bound(
    spec: PrivateStateSpec,
    restarts: int = RESTARTS,
    max_iters: int = MAX_ITERS,
    conv_tol: float = CONV_TOL,
    seed: int = 0,
    state: PrivateState | None = None,
) -> BoundReport:
    """Filtering-protocol lower bound on distillable entanglement.

    One stacked pass over all key pairs i < j: one ascent runs the starts
    of every pair and forms its block G = Y rho Y^dagger (`optimize_pairs`),
    and one stack simulates every pair's filters from G alone (`pair_bounds`,
    with no dense state, no filter bank and no second pull-back). Each pair
    records its verified and paper rates (see PairBound). Every pair's
    filter is a real one, so `best_pair` is the pair of the largest
    `verified_rate` over all pairs (the first on a tie), and
    `best_verified_rate` and `best_paper_rate` are the largest of each
    rate over all pairs; `converged` and `all_converged` are quality flags
    only.

    `state` is kept for call compatibility and is not read; if given, it
    must be the state of this very spec object.
    """
    if state is not None and state.spec is not spec:
        raise ValueError("state was built from another spec")
    results = optimize_pairs(
        spec, [(i, j) for i in range(spec.d) for j in range(i + 1, spec.d)],
        restarts=restarts, max_iters=max_iters, conv_tol=conv_tol, seed=seed,
    )
    bounds = pair_bounds(spec, results)

    best = max(bounds, key=lambda b: b.verified_rate)
    return BoundReport(
        d=spec.d,
        parties=spec.parties,
        shield_dims=tuple(spec.shield_dims),
        key_rate=key_rate(spec),
        pairs=tuple(bounds),
        best_pair=(best.i, best.j),
        best_paper_rate=max(b.paper_rate for b in bounds),
        best_verified_rate=best.verified_rate,
        all_converged=all(b.converged for b in bounds),
    )


@dataclass(frozen=True)
class EfCertificate:
    d: int
    parties: int
    samples: int
    lower_bound: float  # log2(d)
    min_entropy: float
    mean_entropy: float
    min_margin: float
    max_identity_residual: float
    passed: bool
    witness: dict | None


def ef_certificate(
    spec: PrivateStateSpec,
    samples: int = CERT_SAMPLES,
    seed: int = 0,
    tol: float = CERT_TOL,
) -> EfCertificate:
    """Sample-based certificate that E_F >= log2(d) for a bipartite spec.

    Every state in the range of the density matrix has the form
    (1/sqrt d) sum_j |jj> (x) U_j phi, whose reduced state on party 0 is
    block diagonal with uniform key weights, so its entanglement entropy is

        log2(d) + (1/d) sum_j S(Xi_j)  >=  log2(d),

    where Xi_j is the party-0 reduction of the j-th shield branch. Each
    sample checks both the entropy margin and the identity between the
    directly computed entropy and the block formula to within `tol`, which
    must be finite and >= 0; the first violation is returned as a witness.

    A `tol` below rounding is raised to CERT_FLOOR eps log2(d s_a): each
    entropy, at most log2(d s_a), is computed to a few units of eps
    log2(d s_a), more where exact zero eigenvalues come out near eps. Valid
    states stayed within 22 units (d = 2-8, s_a up to 64, shield ranks from
    1), so `tol=0` passes them, and the floor is below 1e-12 up to d s_a = 2^14.

    Samples are drawn and checked CERT_BLOCK at a time. With psi reshaped
    to M of shape (d s_a, d s_b), rows (K0, S0) and columns (K1, S1), the
    party-0 reduction is M M^dagger; each branch reduction is chi chi^dagger
    with chi = sqrt(d) psi[j, j] of shape (s_a, s_b).
    """
    if spec.parties != 2:
        raise ValueError("the formation certificate applies to two parties")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not 0.0 <= tol < np.inf:  # NaN or inf passes any state, tol < 0 fails any
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    pairs = eigenvectors_of_pdit(spec)
    if not pairs:
        raise ValueError("state has numerically empty range")
    basis = np.array([psi for _, psi in pairs])  # rank x total_dim
    rank = len(pairs)

    d = spec.d
    s_a, s_b = spec.shield_dims
    bound = float(np.log2(d))
    diag = np.arange(d)
    tol = max(tol, CERT_FLOOR * np.finfo(float).eps * np.log2(d * s_a))

    lowest, total, worst = np.inf, 0.0, 0.0
    witness: dict | None = None
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for start in range(0, samples, CERT_BLOCK):
        # one draw per block continues the stream a per-sample loop would use
        raw = rng.normal(size=(min(CERT_BLOCK, samples - start), 2, rank))
        coeff = raw[:, 0] + 1j * raw[:, 1]
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        blocks = (coeff @ basis).reshape(-1, d, d, s_a, s_b)

        m = blocks.transpose(0, 1, 3, 2, 4).reshape(-1, d * s_a, d * s_b)
        s_direct = von_neumann_entropy(m @ m.conj().transpose(0, 2, 1))

        chi = np.sqrt(d) * blocks[:, diag, diag]  # (block, d, s_a, s_b)
        branch = von_neumann_entropy(chi @ chi.conj().transpose(0, 1, 3, 2))
        residual = np.abs(s_direct - (bound + branch.sum(axis=1) / d))

        lowest = min(lowest, float(s_direct.min()))
        total += float(s_direct.sum())
        worst = max(worst, float(residual.max()))
        bad = (s_direct - bound < -tol) | (residual > tol)
        if witness is None and bad.any():
            k = int(np.argmax(bad))
            # the coefficients exactly as a one-sample draw normalizes them
            c = raw[k, 0] + 1j * raw[k, 1]
            c /= np.linalg.norm(c)
            witness = {
                "sample": start + k,
                "entropy": float(s_direct[k]),
                "margin": float(s_direct[k]) - bound,
                "identity_residual": float(residual[k]),
                "coefficients": c.view(float).reshape(-1, 2).tolist(),
            }

    return EfCertificate(
        d=d,
        parties=spec.parties,
        samples=samples,
        lower_bound=bound,
        min_entropy=lowest,
        mean_entropy=total / samples,
        min_margin=lowest - bound,
        max_identity_residual=worst,
        passed=witness is None,
        witness=witness,
    )
