import argparse
import inspect
import json

import pytest

from gaussbell import cli
from gaussbell.cli import run
from gaussbell.estimates import rows_to_csv, sweep_report
from gaussbell.report import VerificationReport
from gaussbell.verify import SuiteConfig


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_verify_bellman_happy_path(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify-bellman", "--q", "2", "--samples", "1000",
                "--seed", "7", "--aux-grid-n", "10", "--out", str(out)])
    assert code == 0
    report = _load(out)
    assert report["tool_version"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["size[Q=2]"]["count"] == 1000
    assert by_name["size[Q=2]"]["failures"] == 0
    assert report["config_echo"]["seed"] == 7
    # lossless round trip
    rep = VerificationReport.loads(out.read_text())
    assert rep.to_dict() == report


def test_verify_bellman_defaults_are_suite_config():
    cfg = cli._resolve(cli.build_parser().parse_args(["verify-bellman"]))
    assert cfg["q"] == "1,2,10,100"
    assert cli._suite_config(cfg) == SuiteConfig()


def test_verify_bellman_rejects_q_below_one(tmp_path):
    out = tmp_path / "nope.json"
    code = run(["verify-bellman", "--q", "0.5", "--samples", "10",
                "--out", str(out)])
    assert code == 2
    assert not out.exists()       # usage errors never write partial output


def test_mollifier_runs_at_any_eta_dim(tmp_path):
    """The mollifier probes the radial profile, so its check and gap are the
    same at eta_dim 3 as at eta_dim 1."""
    reports = []
    for eta_dim in ("1", "3"):
        out = tmp_path / f"m{eta_dim}.json"
        assert run(["verify-bellman", "--eta-dim", eta_dim, "--mollify-eps", "0.01",
                    "--mc-samples", "10", "--samples", "200", "--aux-grid-n", "20",
                    "--out", str(out)]) == 0
        report = _load(out)
        reports.append(([c for c in report["checks"] if c["name"].startswith("mollify")],
                        [m for m in report["measurements"] if m["name"].startswith("mollify")]))
    assert reports[0] == reports[1]
    assert len(reports[0][0]) == 4 and len(reports[0][1]) == 3


def test_determinism_modulo_timestamp(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ["verify-bellman", "--q", "1,2", "--samples", "100", "--seed",
            "11", "--aux-grid-n", "8"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    da, db = _load(a), _load(b)
    da.pop("timestamp")
    db.pop("timestamp")
    assert da == db


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50, "seed": 3}))
    out = tmp_path / "r.json"
    # flag overrides file, file overrides default
    code = run(["verify-bellman", "--q", "2", "--config", str(cfg),
                "--seed", "4", "--aux-grid-n", "8", "--out", str(out)])
    assert code == 0
    echo = _load(out)["config_echo"]
    assert echo["samples"] == 50          # from file
    assert echo["seed"] == 4              # flag wins


def test_config_file_unknown_keys_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sample": 50}))
    code = run(["verify-bellman", "--q", "2", "--config", str(cfg)])
    assert code == 2
    # the subordination node count is no setting: every flow converges at 512
    cfg.write_text(json.dumps({"gl_order": 512}))
    out = tmp_path / "q.json"
    assert run(["a2", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_a2_reports_q2_lower(tmp_path):
    out = tmp_path / "q.json"
    code = run(["a2", "--weight", "exp:a=1", "--out", str(out)])
    assert code == 0
    report = _load(out)
    q2 = next(m for m in report["measurements"] if m["name"] == "q2_lower")
    assert q2["value"] >= 2.718281828459045 - 1e-6
    prod = next(c for c in report["checks"]
                if c["name"] == "flow_product_ge_1")
    assert prod["failures"] == 0


def test_a2_rejects_bad_weight():
    assert run(["a2", "--weight", "exp:a=9"]) == 2
    assert run(["a2", "--weight", "gauss:s=1"]) == 2


def test_riesz_norm_subcommand(tmp_path):
    out = tmp_path / "n.json"
    code = run(["riesz-norm", "--weight", "const:c=1", "--n", "16", "--out", str(out)])
    assert code == 0
    report = _load(out)
    norm = next(m for m in report["measurements"]
                if m["name"] == "weighted_norm")
    assert abs(norm["value"] - 1.0) < 1e-10


def test_embedding_subcommand(tmp_path):
    out = tmp_path / "e.json"
    code = run(["embedding", "--f", "h1+h3", "--g", "h2",
                "--weight", "exp:a=0.5", "--out", str(out)])
    assert code == 0
    report = _load(out)
    assert next(c for c in report["checks"]
                if c["name"] == "embedding_bound")["failures"] == 0


def test_embedding_rejects_bad_hermite_sum():
    assert run(["embedding", "--f", "x1", "--g", "h0"]) == 2


def test_repr_check_subcommand(tmp_path):
    out = tmp_path / "rc.json"
    assert run(["repr-check", "--n", "1,2,4,9", "--out", str(out)]) == 0
    report = _load(out)
    assert all(c["failures"] == 0 for c in report["checks"])
    assert len(report["checks"]) == 4


def test_sweep_csv(tmp_path):
    out = tmp_path / "s.csv"
    code = run(["sweep", "--family", "exp", "--params", "0,1", "--n", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "param,q2_lower,weighted_norm,bound_ratio,trunc_n,q2_trunc"
    assert len(lines) == 11               # 2 params x 5 ladder levels


def test_csv_rejected_outside_sweep():
    assert run(["a2", "--weight", "const:c=1", "--format", "csv"]) == 2


def test_sweep_json_is_the_common_report(tmp_path):
    out = tmp_path / "s.json"
    assert run(["sweep", "--params", "0,1", "--n", "4", "--format", "json",
                "--out", str(out)]) == 0
    report = VerificationReport.loads(out.read_text())
    check = next(c for c in report.checks if c.name == "sweep_properties")
    assert check.count == 10 and check.failures == 0      # 2 params x 5 levels
    # one measurement per CSV row; --format csv renders these locations
    csv_rows = rows_to_csv([m.location for m in report.measurements]).splitlines()[1:]
    assert len(report.measurements) == len(csv_rows) == check.count
    assert report.measurements[0].name == "q2_trunc[param=0,n=2]"


def test_parser_flags_come_from_defaults():
    assert "strict" not in inspect.signature(sweep_report).parameters
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli.DEFAULTS)
    for cmd, sub in subparsers.choices.items():
        flags = {a.option_strings[0]: a.type for a in sub._actions
                 if a.option_strings and a.dest not in ("help", "config", "out", "format")}
        assert flags == {"--" + k.replace("_", "-"): type(v)
                         for k, v in cli.DEFAULTS[cmd].items()}, cmd


@pytest.mark.parametrize("argv", [
    ["sweep", "--params", "1,0"],
    ["sweep", "--n", "1"],
    ["sweep", "--family", "gauss"],
    ["aux-bounds", "--grid-n", "0"],
    ["verify-bellman", "--aux-grid-n", "0"],
    ["verify-bellman", "--directions", "-1"],
    ["verify-bellman", "--mc-samples", "-3", "--mollify-eps", "0.01"],
    ["verify-bellman", "--mollify-eps", "0.01"],
    ["verify-bellman", "--pi-exclusion", "inf"],
    ["verify-bellman", "--pi-exclusion", "1"],
    ["verify-bellman", "--fd-step", "inf"],
    ["verify-bellman", "--samples", "50", "--aux-grid-n", "4", "--mollify-eps", "inf",
     "--mc-samples", "10"],
    ["verify-bellman", "--q", ""],
    ["aux-bounds", "--q", ""],
    ["repr-check", "--n", ""],
    ["sweep", "--params", ""],
    ["a2", "--x-step", "0"],
    ["a2", "--x-step", "1e-300"],
    ["a2", "--t-max", "nan"],
    ["a2", "--t-nodes", "-1"],
    ["a2", "--x-max", "nan"],
    ["a2", "--gl-order", "512"],
    ["aux-bounds", "--fd-step", "0"],
    ["aux-bounds", "--fd-step", "-1"],
    ["aux-bounds", "--fd-step", "nan"],
    ["riesz-norm", "--n", "80"],
    ["riesz-norm", "--weight", "exp:a=0.75", "--n", "159"],
    ["riesz-norm", "--weight", "exp:a=0.75", "--n", "81"],
], ids=" ".join)
def test_bad_input_exits_2_and_writes_nothing(tmp_path, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("cmd, body", [
    ("verify-bellman", {"samples": "abc"}),
    ("verify-bellman", {"samples": True}),
    ("riesz-norm", {"n": "abc"}),
    ("verify-bellman", {"seed": 1.5}),
    ("a2", {"x_max": 10**400}),             # an int no float can hold
    ("verify-bellman", ["samples"]),
], ids=str)
def test_config_value_of_another_type_exits_2(tmp_path, cmd, body):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert run([cmd, "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_config_int_for_float_setting_is_converted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"x_max": 4}))
    out = tmp_path / "q.json"
    assert run(["a2", "--config", str(cfg), "--weight", "const:c=1", "--t-nodes", "3",
                "--out", str(out)]) == 0
    x_max = _load(out)["config_echo"]["x_max"]
    assert x_max == 4.0 and type(x_max) is float
