import json
import sys

import numpy as np
import pytest

from conftest import BITWISE_BLAS
from privdistill import cli
from privdistill.cli import main
from privdistill.filtering import filter_outcomes
from privdistill.overlap import eta_optimize, optimize_pair
from privdistill.private_states import (
    build_private_state, random_spec, tensor_power_spec, with_shield,
)
from privdistill.serialize import (
    dumps, matrix_from_json, read_json, spec_from_json, spec_to_json, state_to_json, write_spec,
)


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    assert main(["gen", "--d", "2", "--parties", "2", "--shield-dims", "2,2",
                 "--seed", "11", "--out", str(path)]) == 0
    return str(path)


def test_gen_writes_loadable_spec(spec_path):
    obj = read_json(spec_path)
    assert obj["d"] == 2
    assert obj["shield_dims"] == [2, 2]
    assert len(obj["unitaries"]) == 2


def test_gen_to_stdout(capsys):
    assert main(["gen", "--seed", "1"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["parties"] == 2


@pytest.mark.parametrize("d,dims,rank,seed", [
    (2, (6, 6), None, 3),
    (2, (2, 2, 3), None, 4),
    (3, (2, 3), 2, 7),
])
def test_gen_files_are_the_indent_encoders_bytes(tmp_path, capsys, d, dims, rank, seed):
    args = ["gen", "--d", str(d), "--parties", str(len(dims)),
            "--shield-dims", ",".join(map(str, dims)), "--seed", str(seed)]
    if rank is not None:
        args += ["--shield-rank", str(rank)]
    expected = dumps(spec_to_json(random_spec(d, len(dims), dims, seed, shield_rank=rank)))
    out = tmp_path / "spec.json"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    assert main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out == expected


def test_build_command(spec_path, tmp_path):
    out = tmp_path / "state.json"
    assert main(["build", "--spec", spec_path, "--out", str(out)]) == 0
    obj = read_json(str(out))
    assert obj["rows"] == 16
    assert [f["label"] for f in obj["layout"]] == ["K0", "K1", "S0", "S1"]


def test_build_tensor_power(spec_path, tmp_path):
    out = tmp_path / "state2.json"
    assert main(["build", "--spec", spec_path, "--power", "2", "--out", str(out)]) == 0
    assert read_json(str(out))["rows"] == 256


def test_build_power_of_a_shield_with_trace_error_within_tolerance(tmp_path):
    """A shield of trace 1 + 7e-11 is accepted (TRACE_TOL 1e-10). Its
    square has trace 1 + 1.4e-10, yet it is a state: `build --power 2`
    must write it, not refuse it with `unit trace violated`."""
    spec = random_spec(2, 2, (2, 2), seed=11)
    spec = with_shield(spec, spec.shield.matrix * (1 + 7e-11))
    path = tmp_path / "spec.json"
    write_spec(spec, str(path))
    assert spec_from_json(read_json(str(path))).shield.matrix.trace().real > 1 + 6e-11
    out = tmp_path / "state2.json"
    assert main(["build", "--spec", str(path), "--power", "2", "--out", str(out)]) == 0
    assert read_json(str(out))["rows"] == 256
    power_spec, _ = tensor_power_spec(spec, 2)
    assert abs(power_spec.shield.matrix.trace().real - (1 + 1.4e-10)) < 1e-12


def test_dense_state_files_are_the_indent_encoders_bytes(spec_path, tmp_path):
    """`build`, `build --power 2` and `distill --post-out` write exactly
    `dumps(state_to_json(...))` of the state they compute."""
    spec = spec_from_json(read_json(spec_path))
    power_spec, _ = tensor_power_spec(spec, 2)
    result = optimize_pair(spec, 0, 1, restarts=6, seed=3)
    post = filter_outcomes(spec, [result])[0].state
    runs = [
        (["build", "--spec", spec_path, "--out"], build_private_state(spec).rho),
        (["build", "--spec", spec_path, "--power", "2", "--out"],
         build_private_state(power_spec).rho),
        (["distill", "--spec", spec_path, "--i", "0", "--j", "1", "--restarts", "6",
          "--seed", "3", "--out", str(tmp_path / "report.json"), "--post-out"], post),
    ]
    for k, (args, state) in enumerate(runs):
        out = tmp_path / f"state{k}.json"
        assert main(args + [str(out)]) == 0
        assert out.read_bytes() == dumps(state_to_json(state)).encode()


def test_build_power_above_the_dense_cap_is_refused(tmp_path, capsys, monkeypatch):
    """d=3, shields (2,2): D = 36, so the third power has D = 46656. It is
    refused before the power's generating data are made, whose size grows
    as (d s^2)^m."""
    spec = tmp_path / "qutrit.json"
    assert main(["gen", "--d", "3", "--shield-dims", "2,2", "--seed", "5",
                 "--out", str(spec)]) == 0

    def refuse(spec, m):
        raise AssertionError("tensor power made before the cap was checked")

    monkeypatch.setattr(cli, "tensor_power_spec", refuse)
    out = tmp_path / "state.json"
    rc = main(["build", "--spec", str(spec), "--power", "3", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: dense state dimension 46656 exceeds cap 4096\n"
    assert not out.exists()


def test_huge_build_power_is_refused_by_the_cap(spec_path, tmp_path, capsys, monkeypatch):
    """16^100000 has far more digits than Python will format; the cap is
    checked without forming it."""
    monkeypatch.setattr(cli, "tensor_power_spec", None)
    out = tmp_path / "state.json"
    assert main(["build", "--spec", spec_path, "--power", "100000", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: dense state dimension 16^100000 exceeds cap 4096\n"
    assert not out.exists()


def test_bound_and_distill_build_no_dense_state(spec_path, tmp_path, monkeypatch):
    """`ed_lower_bound`, `bound` and `distill --post-out` never call
    `build_private_state`, wherever the package holds it."""
    def refuse(spec):
        raise AssertionError("a dense state was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "privdistill" and hasattr(module, "build_private_state"):
            monkeypatch.setattr(module, "build_private_state", refuse)
    from privdistill.bounds import ed_lower_bound

    assert ed_lower_bound(spec_from_json(read_json(spec_path)), restarts=2).pairs
    assert main(["bound", "--spec", spec_path, "--restarts", "2",
                 "--out", str(tmp_path / "bound.json")]) == 0
    post = tmp_path / "post.json"
    assert main(["distill", "--spec", spec_path, "--i", "0", "--j", "1", "--restarts", "2",
                 "--out", str(tmp_path / "report.json"), "--post-out", str(post)]) == 0
    assert read_json(str(post))["rows"] == 4  # the 2^N post-filter state only
    with pytest.raises(AssertionError):
        main(["build", "--spec", spec_path])


def test_bound_and_distill_build_no_filter_outcome(spec_path, tmp_path, monkeypatch):
    """`ed_lower_bound` and `distill` without `--post-out` read the pairs'
    outcomes as arrays and never construct a `FilterOutcome`, wherever the
    package holds it; `distill --post-out` does, for the state it writes."""
    def refuse(*args, **kwargs):
        raise AssertionError("a FilterOutcome was built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "privdistill" and hasattr(module, "FilterOutcome"):
            monkeypatch.setattr(module, "FilterOutcome", refuse)
    from privdistill.bounds import ed_lower_bound

    assert ed_lower_bound(spec_from_json(read_json(spec_path)), restarts=2).pairs
    args = ["distill", "--spec", spec_path, "--i", "0", "--j", "1", "--restarts", "2",
            "--out", str(tmp_path / "report.json")]
    assert main(args) == 0
    with pytest.raises(AssertionError):
        main(args + ["--post-out", str(tmp_path / "post.json")])


def test_eta_command_report(spec_path, tmp_path):
    out = tmp_path / "eta.json"
    rc = main(["eta", "--spec", spec_path, "--i", "0", "--j", "1",
               "--restarts", "6", "--seed", "3", "--out", str(out)])
    assert rc == 0
    obj = read_json(str(out))
    assert 0 < obj["eta"] <= 1
    assert obj["config"]["restarts"] == 6
    assert obj["converged"] is True
    assert obj["a1"] > 0 and obj["a2"] > 0


def test_distill_command(spec_path, tmp_path):
    out = tmp_path / "distill.json"
    post = tmp_path / "post.json"
    rc = main(["distill", "--spec", spec_path, "--i", "0", "--j", "1",
               "--restarts", "6", "--seed", "3",
               "--out", str(out), "--post-out", str(post)])
    assert rc == 0
    obj = read_json(str(out))
    assert obj["variant"] in ("V", "W")
    assert not {"success_pred", "p_pred", "structure_residual"} & obj.keys()
    a1, a2 = obj["a1"], obj["a2"]
    assert abs(obj["success_sim"] - min(a1, a2)) < 1e-9
    assert abs(obj["p_sim"] - (0.5 + obj["eta"] / (2 * np.sqrt(a1 * a2)))) < 1e-9
    post_obj = read_json(str(post))
    assert post_obj["rows"] == 4
    rho, _ = matrix_from_json(post_obj)
    plus, minus = np.array([[1, 0, 0, 1], [1, 0, 0, -1]]) / np.sqrt(2)
    mixture = obj["p_sim"] * np.outer(plus, plus) + (1 - obj["p_sim"]) * np.outer(minus, minus)
    assert np.abs(rho - mixture).max() < 1e-9


def test_distill_reports_the_pair_as_bound_does(tmp_path):
    """With the same seed and settings, the `distill` report of a pair, less
    its `config`, is that pair's entry of the `bound` report: equal on a
    BLAS where that was checked (`BITWISE_BLAS`), and otherwise with equal
    key values, variant and flag and every number to 1e-12."""
    spec = str(tmp_path / "spec.json")
    assert main(["gen", "--d", "3", "--shield-dims", "2,2", "--seed", "5", "--out", spec]) == 0
    settings = ["--spec", spec, "--restarts", "4", "--seed", "7"]
    assert main(["bound", *settings, "--out", str(tmp_path / "bound.json")]) == 0
    bound = read_json(str(tmp_path / "bound.json"))
    for entry in bound["pairs"]:
        out = tmp_path / f"distill{entry['i']}{entry['j']}.json"
        assert main(["distill", *settings, "--i", str(entry["i"]), "--j", str(entry["j"]),
                     "--out", str(out)]) == 0
        report = read_json(str(out))
        assert report.pop("config") == bound["config"]
        assert report.keys() == entry.keys()
        if BITWISE_BLAS:
            assert report == entry
        for name, value in entry.items():
            if isinstance(value, float):
                assert abs(report[name] - value) <= 1e-12, name
            else:
                assert report[name] == value, name


def test_bound_command(spec_path, tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "--spec", spec_path, "--restarts", "6",
                 "--seed", "1", "--out", str(out)]) == 0
    obj = read_json(str(out))
    assert obj["best_pair"] == [0, 1]
    assert obj["best_verified_rate"] > 0
    assert obj["key_rate"] == 1.0
    assert obj["config"]["seed"] == 1


def test_bound_names_a_best_pair_that_has_not_converged(tmp_path):
    """After 3 sweeps no pair of the d = 3 seed-5 spec has converged; the
    report still names the best pair, (1, 2), with its own verified rate.
    A sweep row at `--max-iters 0` is its report's best pair, not a filler."""
    spec = str(tmp_path / "spec.json")
    assert main(["gen", "--d", "3", "--shield-dims", "2,2", "--seed", "5", "--out", spec]) == 0
    out = str(tmp_path / "bound.json")
    assert main(["bound", "--spec", spec, "--max-iters", "3", "--restarts", "4",
                 "--out", out]) == 0
    obj = read_json(out)
    assert obj["best_pair"] == [1, 2] and obj["all_converged"] is False
    (best,) = [p for p in obj["pairs"] if [p["i"], p["j"]] == [1, 2]]
    assert obj["best_verified_rate"] == best["verified_rate"]
    assert round(best["verified_rate"], 4) == 0.4041

    settings = ["--seed", "5", "--max-iters", "0", "--restarts", "4"]
    assert main(["bound", "--spec", spec, *settings, "--out", out]) == 0
    obj = read_json(out)
    (best,) = [p for p in obj["pairs"] if [p["i"], p["j"]] == obj["best_pair"]]
    assert main(["sweep", "--d", "3", "--shield-dims", "2,2", "--knob", "depolarize",
                 "--values", "0", *settings, "--out", str(tmp_path / "sweep.csv")]) == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    names = ("eta", "p_sim", "paper_rate", "verified_rate")
    assert [float(x) for x in row[1:]] == [best[name] for name in names]


def test_certify_command(spec_path, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["certify", "--spec", spec_path, "--samples", "20",
                 "--seed", "2", "--out", str(out)]) == 0
    obj = read_json(str(out))
    assert obj["passed"] is True
    assert obj["min_margin"] > -1e-9


def test_certify_failure_exit_code(spec_path, tmp_path, capsys, monkeypatch):
    """Entropies that read 0 for every state miss the bound: exit code 2."""
    monkeypatch.setattr(
        "privdistill.bounds.von_neumann_entropy", lambda rho: np.zeros(rho.shape[:-2])
    )
    out = tmp_path / "cert.json"
    rc = main(["certify", "--spec", spec_path, "--samples", "5",
               "--seed", "2", "--out", str(out)])
    assert rc == 2
    assert read_json(str(out))["passed"] is False
    assert "FAILED" in capsys.readouterr().err


def test_certify_refuses_a_negative_tol(spec_path, tmp_path, capsys):
    """`--tol -1` exits 1 with one `error:` line and writes no report;
    `--tol 0` checks to rounding, so the valid state passes, and the report
    keeps the tolerance as given."""
    out = tmp_path / "cert.json"
    rc = main(["certify", "--spec", spec_path, "--samples", "5", "--tol", "-1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: tol must be finite and >= 0, got -1.0\n"
    assert not out.exists()
    rc = main(["certify", "--spec", spec_path, "--samples", "5", "--tol", "0",
               "--out", str(out)])
    assert rc == 0
    obj = read_json(str(out))
    assert obj["passed"] is True and obj["config"]["tol"] == 0.0
    assert obj["samples"] == 5


def test_sweep_depolarize_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--d", "2", "--parties", "2", "--shield-dims", "2,2",
               "--knob", "depolarize", "--values", "0,0.5",
               "--restarts", "6", "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "knob,eta,p,paper_rate,verified_rate"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[1]) > float(lines[2].split(",")[1])  # noise lowers eta


def test_sweep_shield_rank(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--knob", "shield-rank", "--values", "1,4",
               "--restarts", "6", "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].startswith("1,")
    assert lines[2].startswith("4,")


def test_sweep_rejects_bad_rank(capsys):
    rc = main(["sweep", "--knob", "shield-rank", "--values", "9", "--seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert err == "error: rank must be in [1, 4], got 9\n"


def test_missing_spec_file_is_reported(capsys, tmp_path):
    rc = main(["bound", "--spec", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_env_overrides_defaults(spec_path, tmp_path, monkeypatch):
    monkeypatch.setenv("PRIVDISTILL_RESTARTS", "5")
    monkeypatch.setenv("PRIVDISTILL_SEED", "17")
    out = tmp_path / "eta.json"
    assert main(["eta", "--spec", spec_path, "--i", "0", "--j", "1",
                 "--out", str(out)]) == 0
    cfg = read_json(str(out))["config"]
    assert cfg["restarts"] == 5
    assert cfg["seed"] == 17
    # an explicit flag still wins
    assert main(["eta", "--spec", spec_path, "--i", "0", "--j", "1",
                 "--seed", "3", "--out", str(out)]) == 0
    assert read_json(str(out))["config"]["seed"] == 3


def test_malformed_env_default_gives_one_line_error(spec_path, monkeypatch, capsys):
    monkeypatch.setenv("PRIVDISTILL_RESTARTS", "abc")
    assert main(["eta", "--spec", spec_path, "--i", "0", "--j", "1"]) == 1
    assert capsys.readouterr().err == "error: bad value for PRIVDISTILL_RESTARTS: 'abc'\n"


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_out_of_memory_gives_one_line_error(tmp_path, monkeypatch, capsys, message):
    """A spec too large to allocate (`gen --shield-dims 1000,1000` asks for
    7.28 TiB) exits 1 with one `error:` line, also for a MemoryError with
    no message, and writes no file. The failing allocation is stood in for,
    not made."""
    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "random_spec", too_large)
    out = tmp_path / "spec.json"
    assert main(["gen", "--shield-dims", "1000,1000", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and len(err[0]) > len("error: ")
    assert not out.exists()


def test_malformed_env_value_fails_only_a_command_that_reads_it(spec_path, tmp_path, monkeypatch):
    """PRIVDISTILL_RESTARTS is read only by a command with `--restarts`,
    and only when that flag is not given."""
    monkeypatch.setenv("PRIVDISTILL_RESTARTS", "abc")
    assert main(["gen", "--out", str(tmp_path / "spec.json")]) == 0
    assert main(["certify", "--spec", spec_path, "--samples", "2",
                 "--out", str(tmp_path / "cert.json")]) == 0
    assert main(["eta", "--spec", spec_path, "--i", "0", "--j", "1", "--restarts", "2",
                 "--out", str(tmp_path / "eta.json")]) == 0
    assert main(["eta", "--spec", spec_path, "--i", "0", "--j", "1"]) == 1


def test_parser_defaults_follow_the_environment_between_calls(spec_path, tmp_path, monkeypatch):
    """The environment is read after parsing, on every call, so each
    in-process call embeds the seed of the environment it ran in."""
    out = tmp_path / "cert.json"
    for seed in ("4", "9", None, "4"):
        if seed is None:
            monkeypatch.delenv("PRIVDISTILL_SEED")
        else:
            monkeypatch.setenv("PRIVDISTILL_SEED", seed)
        assert main(["certify", "--spec", spec_path, "--samples", "3", "--out", str(out)]) == 0
        assert read_json(str(out))["config"]["seed"] == int(seed or 0)


def test_malformed_env_value_after_a_good_call_gives_one_line_error(
    spec_path, tmp_path, monkeypatch, capsys
):
    args = ["certify", "--spec", spec_path, "--out", str(tmp_path / "cert.json")]
    monkeypatch.setenv("PRIVDISTILL_SAMPLES", "3")
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setenv("PRIVDISTILL_SAMPLES", "3x")
    for _ in range(2):  # each call reads the environment anew
        assert main(args) == 1
        assert capsys.readouterr().err == "error: bad value for PRIVDISTILL_SAMPLES: '3x'\n"


def test_reports_are_byte_identical_across_runs(spec_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["bound", "--spec", spec_path, "--restarts", "6", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_shield_dims_argument(capsys):
    """A usage error exits 1 with one line, not 2, the failed-certificate
    code, with argparse's usage text."""
    assert main(["gen", "--shield-dims", "2,x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--shield-dims" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["gen", "--d", "-1"],
    ["gen", "--d", "-2"],
    ["sweep", "--d", "-1", "--knob", "depolarize", "--values", "0"],
])
def test_key_dimension_below_two_gives_one_line_naming_d(tmp_path, capsys, args):
    """`random_spec` refuses d < 2 before it spawns d + 1 seeds, where a
    negative d would raise IndexError or OverflowError instead."""
    out = tmp_path / "out.json"
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: key dimension d must be >= 2, got {args[2]}\n"
    assert not out.exists()


def test_distill_has_no_variant_flag(spec_path, capsys):
    """The filter follows one rule, with the weight below 1 on the heavier
    branch: the other weighting is no local operation, so no flag selects it."""
    assert main(["distill", "--spec", spec_path, "--i", "0", "--j", "1", "--variant", "W"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--variant" in err
    assert err.count("\n") == 1


def _null_entry(obj):
    obj["shield"]["data"][1] = None


def _scalar_entry(obj):
    obj["unitaries"][0]["data"][0] = 1.0


def _string_entry(obj):
    obj["unitaries"][1]["data"][2] = ["0.5", "0"]


def _scalar_shield_dims(obj):
    obj["shield_dims"] = 4


def _null_unitaries(obj):
    obj["unitaries"] = None


def _infinite_shield_dim(obj):
    obj["shield_dims"][0] = float("inf")


def _string_shield_dims(obj):
    obj["shield_dims"] = "22"


def _float_d(obj):
    obj["d"] = 2.9


def _float_rows(obj):
    obj["shield"]["rows"] = 4.7


def _bool_shield_dim(obj):
    obj["shield_dims"] = [True, 4]  # would be read as (1, 4), which fits the shield


MALFORMED = {
    "null data entry": _null_entry,
    "scalar data entry": _scalar_entry,
    "string data entry": _string_entry,
    "scalar shield_dims": _scalar_shield_dims,
    "null unitaries": _null_unitaries,
    "infinite shield dim": _infinite_shield_dim,
    "string shield_dims": _string_shield_dims,
    "float d": _float_d,
    "float rows": _float_rows,
    "bool shield dim": _bool_shield_dim,
    "top-level list": None,
}
SPEC_COMMANDS = {
    "build": [],
    "eta": ["--i", "0", "--j", "1", "--restarts", "2"],
    "distill": ["--i", "0", "--j", "1", "--restarts", "2"],
    "bound": ["--restarts", "2"],
    "certify": ["--samples", "2"],
}


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_spec_gives_one_line_error(spec_path, tmp_path, capsys, command, case):
    obj = read_json(spec_path)
    if MALFORMED[case] is None:
        obj = [obj]
    else:
        MALFORMED[case](obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    rc = main([command, "--spec", str(bad), "--out", str(out)] + SPEC_COMMANDS[command])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
def test_deeply_nested_spec_gives_one_line_error(tmp_path, capsys, command):
    """The json scanner raises RecursionError here, not a ValueError."""
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100000 + "]" * 100000)
    out = tmp_path / "out.json"
    rc = main([command, "--spec", str(bad), "--out", str(out)] + SPEC_COMMANDS[command])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "nested too deeply" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_shield_dims_whose_product_wraps_in_int64_are_refused(tmp_path, capsys):
    """Shield dims (3, 6148914691236517206) multiply to 2^64 + 2, which
    int64 arithmetic wraps to 2, the dim of a 2 x 2 shield. Products of
    dims are exact, so `build`, `bound` and `certify` each refuse such a
    spec with exit code 1, one `error:` line naming the exact product and
    no output file, and `eta_optimize` refuses the dims for a 2 x 2
    operator."""
    dims = [3, 6148914691236517206]
    path = tmp_path / "spec21.json"
    write_spec(random_spec(2, 2, (2, 1), seed=1), str(path))
    obj = read_json(str(path))
    obj["shield_dims"] = dims
    bad = tmp_path / "wraps.json"
    bad.write_text(json.dumps(obj))
    for command in ("build", "bound", "certify"):
        out = tmp_path / f"{command}.json"
        rc = main([command, "--spec", str(bad), "--out", str(out)] + SPEC_COMMANDS[command])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(3 * dims[1]) in err
        assert not out.exists()
    with pytest.raises(ValueError, match="does not match dims"):
        eta_optimize(np.eye(2), dims)


@pytest.mark.parametrize("key", ["shield", "shield_dims", "parties", "rows"])
def test_spec_missing_a_key_gives_one_line_naming_it(spec_path, tmp_path, capsys, key):
    obj = read_json(spec_path)
    del (obj["shield"] if key == "rows" else obj)[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp_path / "out.json"
    rc = main(["bound", "--spec", str(bad), "--out", str(out), "--restarts", "2"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: malformed spec: missing key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["eta", "--i", "0", "--j", "1", "--restarts", "-2"],
    ["eta", "--i", "0", "--j", "1", "--max-iters", "-5"],
    ["eta", "--i", "0", "--j", "1", "--conv-tol", "-0.5"],
    ["eta", "--i", "0", "--j", "1", "--conv-tol", "nan"],
    ["bound", "--restarts", "-1"],
    ["build", "--power", "0"],
    ["build", "--power", "-2"],
    ["eta", "--i", "0", "--j", "1", "--restarts", "abc"],
    ["bound", "--conv-tol", "-1e-12"],
    ["eta", "--i", "0", "--j", "1", "--conv-tol", "inf"],
    ["bound", "--conv-tol", "nan"],
    ["certify", "--tol", "nan"],
    ["certify", "--tol", "inf"],
    ["certify", "--tol", "-inf"],
])
def test_bad_optimizer_or_power_flag_gives_one_line_error(spec_path, tmp_path, capsys, args):
    out = tmp_path / "out.json"
    rc = main(args[:1] + ["--spec", spec_path, "--out", str(out)] + args[1:])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["eta", "distill"])
@pytest.mark.parametrize("i, j", [(1, 0), (1, 1)])
def test_pair_commands_refuse_a_pair_not_named_i_below_j(spec_path, tmp_path, capsys,
                                                          command, i, j):
    """`bound` names each key pair (i, j) with i < j, and a pair's starts are
    seeded by (i, j) in that order, so `--i 1 --j 0` would report a record
    that `bound` never lists: it gives exit code 1 and one `error:` line."""
    out = tmp_path / "out.json"
    rc = main([command, "--spec", spec_path, "--i", str(i), "--j", str(j),
               "--restarts", "2", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: key pair must be named with --i < --j, got --i {i} --j {j}\n"
    )
    assert not out.exists()


OPTIMIZER = {"seed": None, "restarts": None, "max_iters": None, "conv_tol": None}
SHAPE = {"d": 2, "parties": 2, "shield_dims": (2, 2)}
PAIR = {"spec": "s.json", "i": 0, "j": 1}
PARSED = [
    (["gen"], {**SHAPE, "seed": None, "shield_rank": None}),
    (["build", "--spec", "s.json"], {"spec": "s.json", "power": 1}),
    (["eta", "--spec", "s.json", "--i", "0", "--j", "1"], {**PAIR, **OPTIMIZER}),
    (["distill", "--spec", "s.json", "--i", "0", "--j", "1"],
     {**PAIR, **OPTIMIZER, "post_out": None}),
    (["bound", "--spec", "s.json"], {"spec": "s.json", **OPTIMIZER}),
    (["certify", "--spec", "s.json"],
     {"spec": "s.json", "seed": None, "samples": None, "tol": 1e-9}),
    (["sweep", "--knob", "depolarize", "--values", "0"],
     {**SHAPE, **OPTIMIZER, "knob": "depolarize", "values": "0"}),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[argv[0] for argv, _ in PARSED])
def test_each_command_parses_a_minimal_argv_to_its_defaults(argv, expected):
    """Every key and default of each command's namespace before the
    environment fills the settings, so a shared flag group cannot drop a
    flag from a command, add one to it or change its default."""
    args = vars(cli.build_parser().parse_args(argv))
    assert args.pop("func") is getattr(cli, f"cmd_{argv[0]}")
    assert args == {"command": argv[0], "out": None, **expected}
