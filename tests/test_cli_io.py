import json
import subprocess
import sys

import numpy as np
import pytest

from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import reporting as RP
from lawbound.cli import main

GRID = F.Grid(2, 16)


def rand_field(seed, m=2, grid=GRID):
    rng = np.random.default_rng(seed)
    return F.GridField(grid, rng.standard_normal((m,) + grid.shape))


# -------------------------------------------------------------------- LBF1

def test_lbf_round_trip(tmp_path):
    f = rand_field(0)
    path = tmp_path / "f.lbf"
    RP.write_lbf(path, f)
    back = RP.read_lbf(path)
    assert back.grid == f.grid and back.m == f.m
    assert np.array_equal(back.values, f.values)


def test_lbf_rejects_bad_magic_and_version(tmp_path):
    f = rand_field(1, m=1, grid=F.Grid(1, 16))
    path = tmp_path / "f.lbf"
    RP.write_lbf(path, f)
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.lbf"
    bad.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="magic"):
        RP.read_lbf(bad)
    raw2 = bytearray(path.read_bytes())
    raw2[4] = 9  # version field
    bad2 = tmp_path / "bad2.lbf"
    bad2.write_bytes(bytes(raw2))
    with pytest.raises(ValueError, match="version"):
        RP.read_lbf(bad2)


def test_lbf_header_layout(tmp_path):
    f = rand_field(2, m=1, grid=F.Grid(2, 16))
    path = tmp_path / "f.lbf"
    RP.write_lbf(path, f)
    raw = path.read_bytes()
    assert raw[:4] == b"LBF1"
    assert int.from_bytes(raw[4:8], "little") == 1
    assert raw[8] == 2 and raw[9] == 1            # d, m
    assert int.from_bytes(raw[10:12], "little") == 0
    assert int.from_bytes(raw[12:16], "little") == 16
    assert int.from_bytes(raw[16:20], "little") == 16
    assert len(raw) == 20 + 16 * 16 * 8


# --------------------------------------------------------------- manifests

def test_ensemble_manifest_round_trip(tmp_path):
    e = E.Ensemble(GRID, np.random.default_rng(3).standard_normal((4, 2) + GRID.shape))
    manifest = RP.write_ensemble(tmp_path / "ens", e, time=0.25)
    back, t = RP.read_ensemble(manifest)
    assert t == 0.25
    assert np.array_equal(back.values, e.values)


def test_lawcurve_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    curve = E.LawCurve(
        [0.0, 0.5],
        [E.Ensemble(GRID, rng.standard_normal((2, 2) + GRID.shape))
         for _ in range(2)],
    )
    manifest = RP.write_lawcurve(tmp_path / "curve", curve)
    back = RP.read_lawcurve(manifest)
    assert np.array_equal(back.times, curve.times)
    for e1, e2 in zip(back.ensembles, curve.ensembles):
        assert np.array_equal(e1.values, e2.values)


# ----------------------------------------------------------------- reports

def test_report_round_trip_and_hash_stability(tmp_path):
    rep = RP.Report("metrics", {"b": 2, "a": 1})
    rep.add("x", 1.0, 2.0, True, 1e-9)
    rep.write(tmp_path / "r.json")
    doc = RP.read_report(tmp_path / "r.json")
    assert doc["command"] == "metrics"
    assert doc["checks"][0]["satisfied"] is True
    # hash independent of key order
    assert RP.config_hash({"a": 1, "b": 2}) == RP.config_hash({"b": 2, "a": 1})
    assert RP.config_hash({"a": 1}) != RP.config_hash({"a": 2})


def test_strip_timing_removes_only_wall_time(tmp_path):
    rep = RP.Report("x", {}, wall_time_s=1.23)
    rep.add("c", 0.0, 1.0, True, 0.0)
    text = RP.canonical_json(rep.as_dict())
    stripped = RP.strip_timing(text)
    assert "wall_time_s" not in stripped
    assert "checks" in stripped


def test_validate_config_rejects_unknown_and_missing():
    with pytest.raises(ValueError, match="unknown"):
        RP.validate_config({"zz": 1}, {"a": (int, 0)}, "cmd")
    with pytest.raises(ValueError, match="missing"):
        RP.validate_config({}, {"a": (int, None)}, "cmd")
    with pytest.raises(ValueError, match="schema_version"):
        RP.validate_config({"schema_version": 99}, {"a": (int, 0)}, "cmd")
    out = RP.validate_config({"a": 3}, {"a": (int, 0), "b": (float, 1.5)}, "cmd")
    assert out == {"a": 3, "b": 1.5}


# --------------------------------------------------------------------- CLI

def test_cli_unknown_flag_exit_1(tmp_path, capsys):
    assert main(["metrics", "--nope"]) == 1


def test_cli_unknown_command_exit_1():
    assert main(["frobnicate", "--out", "x"]) == 1


def test_cli_gen_metrics_pipeline(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 4, "k_max": 4}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "a"),
                 "--config", str(cfg)]) == 0
    assert main(["gen", "--seed", "2", "--out", str(tmp_path / "b"),
                 "--config", str(cfg)]) == 0
    mcfg = tmp_path / "m.json"
    mcfg.write_text(json.dumps({"K_list": [2, 4]}))
    assert main(["metrics", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "met"), "--config", str(mcfg)]) == 0
    sweep = (tmp_path / "met" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "K,tail_a,train,bound,w2"
    assert len(sweep) == 3


def test_cli_metrics_grid_mismatch_exit_1(tmp_path, capsys):
    for name, n in (("a", 16), ("b", 32)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"n": n, "members": 2, "k_max": 4}))
        assert main(["gen", "--seed", "1", "--out", str(tmp_path / name),
                     "--config", str(cfg)]) == 0
    assert main(["metrics", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "met")]) == 1


def test_cli_rejects_unknown_config_field(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 2, "bogus": 1}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "a"),
                 "--config", str(cfg)]) == 1


def test_cli_gen_deterministic(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 3, "k_max": 4}))
    for out in ("r1", "r2"):
        assert main(["gen", "--seed", "7", "--out", str(tmp_path / out),
                     "--config", str(cfg)]) == 0
    b1 = (tmp_path / "r1" / "member_0000.lbf").read_bytes()
    b2 = (tmp_path / "r2" / "member_0000.lbf").read_bytes()
    assert b1 == b2
    r1 = RP.strip_timing((tmp_path / "r1" / "report.json").read_text())
    r2 = RP.strip_timing((tmp_path / "r2" / "report.json").read_text())
    assert r1 == r2


def test_cli_seed_required(tmp_path):
    assert main(["gen", "--out", str(tmp_path / "x")]) == 1


def test_cli_sample_store_paths(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 2, "k_max": 4}))
    assert main(["gen", "--seed", "3", "--out", str(tmp_path / "e"),
                 "--config", str(cfg)]) == 0
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({
        "n_steps": 2, "store_paths": True, "reference_dt": 0.0125,
        "kernel": {"kind": "rectified-flow", "internal_steps": 4},
    }))
    assert main(["sample", "--seed", "4", "--out", str(tmp_path / "s"),
                 "--ensemble", str(tmp_path / "e" / "ensemble.json"),
                 "--config", str(scfg)]) == 0
    index = json.loads((tmp_path / "s" / "paths" / "index.json").read_text())
    assert len(index["members"]) == 2
    assert len(index["times"]) == 2 * 4 + 1
    first = RP.read_lbf(tmp_path / "s" / "paths" / index["members"][0][0])
    assert first.grid.n == 16
    curve = RP.read_lawcurve(tmp_path / "s" / "curve" / "lawcurve.json")
    assert len(curve.times) == 3


def test_cli_sample_gaussian_init_endpoints(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 2, "k_max": 4}))
    assert main(["gen", "--seed", "3", "--out", str(tmp_path / "e"),
                 "--config", str(cfg)]) == 0
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({
        "n_steps": 2, "reference_dt": 0.0125,
        "kernel": {"kind": "pf-ode", "noise_scale": 0.1, "init": "gaussian",
                   "internal_steps": 4},
    }))
    assert main(["sample", "--seed", "4", "--out", str(tmp_path / "sg"),
                 "--ensemble", str(tmp_path / "e" / "ensemble.json"),
                 "--config", str(scfg)]) == 0
    curve = RP.read_lawcurve(tmp_path / "sg" / "curve" / "lawcurve.json")
    assert len(curve.times) == 3


def test_cli_transport_between_lawcurves(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n": 16, "members": 3, "k_max": 4}))
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.025, "dt": 0.0125,
                                   "checkpoints": 2}))
    for name, seed in (("a", 1), ("b", 2)):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / name),
                     "--config", str(gen_cfg)]) == 0
        assert main(["evolve", "--ensemble",
                     str(tmp_path / name / "ensemble.json"),
                     "--out", str(tmp_path / f"evo_{name}"),
                     "--config", str(evo_cfg)]) == 0
    assert main(["transport",
                 "--a", str(tmp_path / "evo_a" / "curve" / "lawcurve.json"),
                 "--b", str(tmp_path / "evo_b" / "curve" / "lawcurve.json"),
                 "--out", str(tmp_path / "tr")]) == 0
    doc = json.loads((tmp_path / "tr" / "report.json").read_text())
    assert doc["extra"]["d_T"] > 0
    assert doc["checks"][0]["satisfied"] is True


@pytest.mark.parametrize("via_flag, value", [(True, 0), (False, 0), (True, -2)])
def test_cli_evolve_nonpositive_checkpoints_exit_1(tmp_path, capsys, via_flag,
                                                   value):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n": 16, "members": 2, "k_max": 4}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "a"),
                 "--config", str(gen_cfg)]) == 0
    evo_cfg = tmp_path / "e.json"
    evo = {"horizon": 0.025, "dt": 0.0125}
    if not via_flag:
        evo["checkpoints"] = value
    evo_cfg.write_text(json.dumps(evo))
    capsys.readouterr()
    argv = ["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
            "--out", str(tmp_path / "evo"), "--config", str(evo_cfg)]
    if via_flag:
        argv += ["--checkpoints", str(value)]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "checkpoints" in err


def test_cli_evolve_divergence_column_matches_member_loop(tmp_path):
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps({"n": 16, "members": 4, "k_max": 4}))
    assert main(["gen", "--seed", "3", "--out", str(tmp_path / "a"),
                 "--config", str(gen_cfg)]) == 0
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.05, "dt": 0.0125,
                                   "checkpoints": 2}))
    assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 0
    curve = RP.read_lawcurve(tmp_path / "evo" / "curve" / "lawcurve.json")
    lines = (tmp_path / "evo" / "conservation.csv").read_text().splitlines()
    assert lines[0] == "t,energy,enstrophy,divergence"
    column = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(column) == len(curve.ensembles) == 3
    for value, ens in zip(column, curve.ensembles):
        loop = max(F.divergence_norm(F.forward(ens.member(i)))
                   for i in range(ens.size))
        assert abs(value - loop) <= 1e-15


def test_cli_transport_sinkhorn_exit_0(tmp_path):
    # Sinkhorn's stopping rule and the plan's marginal check share one
    # tolerance, so an entropic plan the solver returns is never rejected
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 16, "k_max": 4}))
    for name, seed in (("a", 1), ("b", 2)):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / name),
                     "--config", str(cfg)]) == 0
    tcfg = tmp_path / "t.json"
    tcfg.write_text(json.dumps({"epsilon": 0.05}))
    assert main(["transport", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "tr"), "--config", str(tcfg)]) == 0
    doc = json.loads((tmp_path / "tr" / "report.json").read_text())
    assert doc["extra"]["sinkhorn"] >= doc["extra"]["w2"] - 1e-9


@pytest.mark.parametrize("K_list", [[], [True], ["x"], [0], [4, 4], [4, 4.0]])
def test_cli_metrics_rejects_bad_K_list(tmp_path, capsys, K_list):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 2, "k_max": 4}))
    for name, seed in (("a", 1), ("b", 2)):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / name),
                     "--config", str(cfg)]) == 0
    mcfg = tmp_path / "m.json"
    mcfg.write_text(json.dumps({"K_list": K_list}))
    capsys.readouterr()
    assert main(["metrics", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "met"), "--config", str(mcfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "K_list" in err


@pytest.mark.parametrize("members", [0, -3])
def test_cli_gen_nonpositive_members_exit_1(tmp_path, capsys, members):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": members}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "a"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "members" in err


@pytest.mark.parametrize("command", ["gen", "verify-all"])
def test_cli_negative_seed_rejected_by_parser(tmp_path, capsys, command):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "x")]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: argument --seed:")
    assert not (tmp_path / "x").exists()


def _gen_pair(tmp_path, members=2, n=16):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": n, "members": members, "k_max": 4}))
    for name, seed in (("a", 1), ("b", 2)):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / name),
                     "--config", str(cfg)]) == 0


@pytest.mark.parametrize("damage", ["trailing", "truncated"])
def test_cli_transport_rejects_bad_lbf_length(tmp_path, capsys, damage):
    _gen_pair(tmp_path)
    member = tmp_path / "a" / "member_0001.lbf"
    data = member.read_bytes()
    member.write_bytes(data + b"\0" * 8 if damage == "trailing" else data[:-8])
    capsys.readouterr()
    assert main(["transport", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "tr")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(member) in err


def _curve_pair(tmp_path):
    _gen_pair(tmp_path)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.025, "dt": 0.0125,
                                   "checkpoints": 2}))
    for name in ("a", "b"):
        assert main(["evolve", "--ensemble",
                     str(tmp_path / name / "ensemble.json"),
                     "--out", str(tmp_path / f"evo_{name}"),
                     "--config", str(evo_cfg)]) == 0
    return [str(tmp_path / f"evo_{name}" / "curve" / "lawcurve.json")
            for name in ("a", "b")]


@pytest.mark.parametrize("field, value", [
    ("location", [1]), ("location", [1, 2, 3]), ("location", [True, 1]),
    ("location", ["x", 1]), ("location", 1.0), ("component", 2),
    ("component", -1), ("component", True)])
def test_cli_scores_rejects_bad_observable(tmp_path, capsys, field, value):
    ca, cb = _curve_pair(tmp_path)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"observable": {field: value}}))
    capsys.readouterr()
    assert main(["scores", "--a", ca, "--b", cb, "--out", str(tmp_path / "sc"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and field in err


def test_cli_scores_accepts_valid_observable(tmp_path):
    ca, cb = _curve_pair(tmp_path)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"observable": {"location": [1, 2.5],
                                              "component": 1}}))
    assert main(["scores", "--a", ca, "--b", cb, "--out", str(tmp_path / "sc"),
                 "--config", str(cfg)]) == 0


def test_cli_evolve_identical_across_worker_counts(tmp_path, threads):
    # 17 members at n=64 march as two blocks of the chunked solver
    _gen_pair(tmp_path, members=17, n=64)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.025, "checkpoints": 2}))
    outs = []
    for count in (1, 4):
        threads(count)
        out = tmp_path / f"evo{count}"
        assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                     "--out", str(out), "--config", str(evo_cfg)]) == 0
        outs.append(out)
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                   if p.is_file())
    assert sum(p.suffix == ".lbf" for p in files) == 3 * 17
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                           if p.is_file())
    for rel in files:
        one, four = (o / rel for o in outs)
        if rel.name == "report.json":
            assert RP.strip_timing(one.read_text()) == RP.strip_timing(four.read_text())
        else:
            assert one.read_bytes() == four.read_bytes(), rel
