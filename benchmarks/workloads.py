"""The benchmark's three workloads: inputs, one operation, and its checks.

A workload turns a seed into a list of rows. One operation (`op`) processes
one row, and a pass runs every row once. `warm_up` makes the smallest call
of each entry point the operation uses, so lazy imports and first-call
costs are paid during set-up. The first result of each row is
checked in full (`check`); every later result of the same row must have the
same `key`, so every operation in a run is checked. The checks recompute
what they compare against from first principles (kron products, reshaped
partial traces, the binary entropy) rather than from a stored copy of an
earlier output. `quality` turns the keys of one pass into the run's
`mean_verified_rate`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import privdistill as pd
from privdistill import cli

TOL = 1e-9


class CheckError(AssertionError):
    """An operation returned a wrong result."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _h2(p: float) -> float:
    p = min(max(p, 0.5), 1.0)
    if p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _two_qubit_spec(shield: np.ndarray, u1: np.ndarray) -> pd.PrivateStateSpec:
    lay = pd.layout([("S0", 2, 0, "shield"), ("S1", 2, 1, "shield")])
    return pd.PrivateStateSpec(
        d=2, parties=2, shield_dims=(2, 2),
        unitaries=(pd.UnitaryOp(np.eye(4, dtype=complex)), pd.UnitaryOp(u1)),
        shield=pd.validate_state(shield, lay),
    )


def swap_shield_spec() -> pd.PrivateStateSpec:
    """Maximally mixed shield flipped by SWAP: eta = a1 = a2 = 1/4, rate 1/4."""
    return _two_qubit_spec(np.eye(4) / 4, np.eye(4)[[0, 2, 1, 3]].astype(complex))


def bell_shield_spec() -> pd.PrivateStateSpec:
    """Bell shield twisted by Z on party 0: eta = 1/2, rate 1/2."""
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    z = np.diag([1.0, -1.0]).astype(complex)
    return _two_qubit_spec(np.outer(bell, bell.conj()), np.kron(z, np.eye(2)))


def check_bound(spec: pd.PrivateStateSpec, report: pd.BoundReport) -> None:
    """Per-pair identities of the filtering protocol, recomputed here."""
    rates = []
    for b in report.pairs:
        ui = spec.unitaries[b.i].matrix
        uj = spec.unitaries[b.j].matrix
        x = ui @ spec.shield.matrix @ uj.conj().T
        pair = f"pair ({b.i},{b.j})"
        _require(np.abs(x).max() <= b.eta + TOL, f"{pair}: eta below max |X_ij|")
        _require(b.eta <= np.sqrt(b.a1 * b.a2) + TOL, f"{pair}: eta above sqrt(a1 a2)")
        success = 2.0 / spec.d * min(b.a1, b.a2)
        _require(abs(b.success_sim - success) <= TOL,
                 f"{pair}: simulated success {b.success_sim} != (2/d) min(a1,a2) {success}")
        p = 0.5 + b.eta / (2.0 * np.sqrt(b.a1 * b.a2))
        _require(abs(b.p_sim - p) <= TOL, f"{pair}: simulated p {b.p_sim} != {p}")
        rate = b.success_sim * (1.0 - _h2(b.p_sim))
        _require(abs(b.verified_rate - rate) <= 1e-12,
                 f"{pair}: verified rate {b.verified_rate} != success (1 - H(p)) {rate}")
        if b.converged:
            rates.append(rate)
    best = max(rates, default=0.0)
    _require(abs(report.best_verified_rate - best) <= 1e-12,
             f"best verified rate {report.best_verified_rate} != {best}")


@dataclass(frozen=True)
class BoundRow:
    """Specs bounded by one operation, and the closed-form answers known for some."""

    specs: tuple[pd.PrivateStateSpec, ...]
    seeds: tuple[int, ...]
    exact: tuple[float | None, ...]  # eta = a1 = a2 = rate where known


class CorpusBound:
    """`ed_lower_bound` with default optimizer settings over a seeded corpus.

    One row holds one spec of each shape class, so every operation does the
    same mix of work and operation latencies are comparable. The first two
    rows put the closed-form SWAP and Bell shields in the d=2, (2,2) slot.
    The shapes are those of the acceptance corpus (d in {2,3}, 2-3 parties,
    shields of 2-3 per party) except the three-party d=3 ones, each of which
    alone costs more than a whole row.
    """

    name = "corpus_bound"
    rows = 12
    shapes = (
        (2, (2, 2)), (2, (2, 3)), (2, (3, 3)), (3, (2, 2)),
        (3, (2, 3)), (3, (3, 3)), (2, (2, 2, 2)), (2, (2, 2, 3)),
    )

    def make_inputs(self, seed: int, workdir: str) -> list[BoundRow]:
        closed = {0: (swap_shield_spec(), 0.25), 1: (bell_shield_spec(), 0.5)}
        out = []
        for r in range(self.rows):
            specs, seeds, exact = [], [], []
            for k, (d, dims) in enumerate(self.shapes):
                if k == 0 and r in closed:
                    spec, known = closed[r]
                else:
                    spec, known = pd.random_spec(d, len(dims), dims, seed=_seed(seed, r, k)), None
                specs.append(spec)
                seeds.append(_seed(seed, r, k, 1) % 2**31)
                exact.append(known)
            out.append(BoundRow(tuple(specs), tuple(seeds), tuple(exact)))
        return out

    def warm_up(self, rows: list[BoundRow]) -> None:
        pd.ed_lower_bound(rows[0].specs[0], seed=rows[0].seeds[0])

    def op(self, row: BoundRow):
        return [pd.ed_lower_bound(spec, seed=s) for spec, s in zip(row.specs, row.seeds)]

    def check(self, row: BoundRow, reports) -> None:
        for spec, known, report in zip(row.specs, row.exact, reports):
            check_bound(spec, report)
            if known is not None:
                b = report.pairs[0]
                got = (b.eta, b.a1, b.a2, report.best_verified_rate)
                _require(all(abs(v - known) <= TOL for v in got),
                         f"closed-form shield: eta, a1, a2, rate = {got}, want {known}")

    def key(self, row: BoundRow, reports):
        return tuple(r.best_verified_rate for r in reports)

    def quality(self, keys) -> float:
        return float(np.mean([rate for key in keys for rate in key]))


@dataclass(frozen=True)
class PowerRow:
    spec: pd.PrivateStateSpec
    seed: int


class PowerDistill:
    """Two-copy rates: `tensor_power_spec(m=2)`, then `ed_lower_bound` on it.

    d=3 with shields (2,2) regroups to key dimension 9, shields (4,4),
    D = 1296 and 36 key pairs, so dense assembly, validation and filtering
    do most of the work. `restarts=4` is what a user sweeping multi-copy
    rates would pass as `--restarts`.
    """

    name = "power_distill"
    rows = 16
    d, dims, power, restarts = 3, (2, 2), 2, 4

    def make_inputs(self, seed: int, workdir: str) -> list[PowerRow]:
        return [
            PowerRow(pd.random_spec(self.d, len(self.dims), self.dims, seed=_seed(seed, r)),
                     _seed(seed, r, 1) % 2**31)
            for r in range(self.rows)
        ]

    def warm_up(self, rows: list[PowerRow]) -> None:
        pd.tensor_power_spec(rows[0].spec, self.power)
        pd.ed_lower_bound(rows[0].spec, restarts=self.restarts, seed=rows[0].seed)

    def op(self, row: PowerRow):
        power_spec, perm = pd.tensor_power_spec(row.spec, self.power)
        state = pd.build_private_state(power_spec)
        report = pd.ed_lower_bound(power_spec, restarts=self.restarts, seed=row.seed, state=state)
        return power_spec, perm, state, report

    def check(self, row: PowerRow, out) -> None:
        power_spec, perm, state, report = out
        rho = pd.build_private_state(row.spec).rho.matrix
        big = state.rho.matrix
        # Compare against the plain kron square one block of rows at a time,
        # so the check does not set the run's peak memory: kron row
        # a*n + b holds rho[a] (x) rho[b], and the power state's row r is
        # kron row perm[r], with its columns taken in perm order too.
        n = rho.shape[0]
        rows_of = np.argsort(perm)
        worst = 0.0
        for a in range(n):
            block = np.kron(rho[a : a + 1], rho)[:, perm]
            worst = max(worst, float(np.abs(big[rows_of[a * n : (a + 1) * n]] - block).max()))
        _require(worst <= 1e-12, f"regrouped power state differs from kron square by {worst:.3e}")
        check_bound(power_spec, report)

    def key(self, row: PowerRow, out):
        return out[3].best_verified_rate

    def quality(self, keys) -> float:
        return float(np.mean(keys))


@dataclass(frozen=True)
class CliRow:
    spec_path: str
    cert_path: str
    state_path: str
    d: int
    shield_dims: tuple[int, int]
    seed: int


def _read_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class CliCertify:
    """In-process `privdistill.cli.main`: `certify --samples 200`, then `build`.

    Spec files are written by `gen` at set-up. All shapes have D = 144, so
    operations are comparable; there is no overlap ascent anywhere, and the
    read side (spec parsing, validation) sits beside the write side (the
    dense state as JSON).
    """

    name = "cli_certify"
    shapes = ((2, (6, 6)), (3, (4, 4)), (4, (3, 3)))
    copies = 4
    samples = 200
    range_samples = 4

    def make_inputs(self, seed: int, workdir: str) -> list[CliRow]:
        rows = []
        for c in range(self.copies):
            for k, (d, dims) in enumerate(self.shapes):
                stem = os.path.join(workdir, f"cli-{c}-{k}")
                row = CliRow(stem + ".spec.json", stem + ".cert.json", stem + ".state.json",
                             d, dims, _seed(seed, c, k) % 2**31)
                code = cli.main(["gen", "--d", str(d), "--parties", "2",
                                 "--shield-dims", f"{dims[0]},{dims[1]}",
                                 "--seed", str(row.seed), "--out", row.spec_path])
                _require(code == 0, f"gen exited {code}")
                rows.append(row)
        return rows

    def _certify(self, row: CliRow, out: str) -> int:
        return cli.main(["certify", "--spec", row.spec_path, "--samples", str(self.samples),
                         "--seed", str(row.seed), "--out", out])

    def warm_up(self, rows: list[CliRow]) -> None:
        self.op(rows[0])

    def op(self, row: CliRow):
        certified = self._certify(row, row.cert_path)
        return certified, cli.main(["build", "--spec", row.spec_path, "--out", row.state_path])

    def check(self, row: CliRow, codes) -> None:
        _require(codes == (0, 0), f"certify and build exited {codes}")
        cert_bytes = _read_bytes(row.cert_path)
        cert = json.loads(cert_bytes)
        _require(cert["passed"] is True, f"certificate failed: {cert['witness']}")

        spec = pd.spec_from_json(pd.read_json(row.spec_path))
        rho = _read_matrix(row.state_path)
        _require(np.array_equal(rho, pd.build_private_state(spec).rho.matrix),
                 "state JSON does not read back to build_private_state's matrix")

        # Entropy of a few range vectors across the party cut, by reshaping:
        # factors are [K0, K1, S0, S1]; party 0 holds (K0, S0).
        d, (sa, sb) = row.d, row.shield_dims
        vals, vecs = np.linalg.eigh(rho)
        span = vecs[:, vals > 1e-12]
        rng = np.random.default_rng(row.seed)
        for _ in range(self.range_samples):
            c = rng.normal(size=span.shape[1]) + 1j * rng.normal(size=span.shape[1])
            psi = span @ (c / np.linalg.norm(c))
            m = psi.reshape(d, d, sa, sb).transpose(0, 2, 1, 3).reshape(d * sa, d * sb)
            lam = np.linalg.eigvalsh(m @ m.conj().T)
            lam = lam[lam > 1e-15]
            entropy = float(-np.sum(lam * np.log2(lam)))
            _require(entropy >= np.log2(d) - TOL,
                     f"range sample entropy {entropy} < log2 d = {np.log2(d)}")

        again = row.cert_path + ".again"
        _require(self._certify(row, again) == 0, "second certify failed")
        _require(_read_bytes(again) == cert_bytes, "same-seed certify reports differ")
        os.remove(again)

    def key(self, row: CliRow, codes):
        return codes, _read_bytes(row.cert_path), _read_bytes(row.state_path)

    def quality(self, keys) -> float:
        """Mean certified E_F lower bound: log2 d bits per passed certificate."""
        return float(np.mean([json.loads(cert)["lower_bound"] for _, cert, _ in keys]))


WORKLOADS = {w.name: w for w in (CorpusBound(), PowerDistill(), CliCertify())}
