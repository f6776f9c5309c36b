import json
import subprocess
import sys

import numpy as np
import pytest

from lawbound import ensemble as E
from lawbound import fields as F
from lawbound import reporting as RP
from lawbound import sampler as SA
from lawbound.acceptance import crit11_pf_ode
from lawbound.cli import main

GRID = F.Grid(2, 16)


def rand_field(seed, m=2, grid=GRID):
    rng = np.random.default_rng(seed)
    return F.GridField(grid, rng.standard_normal((m,) + grid.shape))


def write_ensemble_v1(directory, e, time=0.0, prefix="member"):
    """The version-1 layout: one LBF1 file per member plus a manifest
    listing them (the writer `write_ensemble` used before version 2)."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i in range(e.size):
        name = f"{prefix}_{i:04d}.lbf"
        RP.write_lbf(directory / name, e.member(i))
        names.append(name)
    manifest = {
        "schema_version": RP.SCHEMA_VERSION,
        "kind": "ensemble",
        "grid": {"d": e.grid.d, "n": e.grid.n},
        "m": e.m,
        "time": time,
        "members": names,
    }
    path = directory / "ensemble.json"
    path.write_text(RP.canonical_json(manifest) + "\n")
    return path


# --------------------------------------------------------------------- LBF

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


def test_lbf_v2_ensemble_file_layout(tmp_path):
    e = E.Ensemble(GRID, np.random.default_rng(5).standard_normal(
        (3, 2) + GRID.shape))
    RP.write_ensemble(tmp_path, e)
    raw = (tmp_path / "ensemble.lbf").read_bytes()
    assert raw[:4] == b"LBF1"
    assert int.from_bytes(raw[4:8], "little") == 2
    assert raw[8] == 2 and raw[9] == 2            # d, m
    assert int.from_bytes(raw[10:12], "little") == 0
    assert int.from_bytes(raw[12:16], "little") == 16
    assert int.from_bytes(raw[16:20], "little") == 16
    assert int.from_bytes(raw[20:24], "little") == 3   # member count
    assert raw[24:] == e.values.astype("<f8").tobytes()
    doc = json.loads((tmp_path / "ensemble.json").read_text())
    assert doc["members"] == "ensemble.lbf" and doc["size"] == 3
    with pytest.raises(ValueError, match="not one field"):
        RP.read_lbf(tmp_path / "ensemble.lbf")


# --------------------------------------------------------------- manifests

def test_ensemble_manifest_round_trip(tmp_path):
    e = E.Ensemble(GRID, np.random.default_rng(3).standard_normal((4, 2) + GRID.shape))
    manifest = RP.write_ensemble(tmp_path / "ens", e, time=0.25)
    back, t = RP.read_ensemble(manifest)
    assert t == 0.25
    assert np.array_equal(back.values, e.values)


def test_v1_member_directory_reads_equal_to_its_v2_rewrite(tmp_path):
    e = E.Ensemble(GRID, np.random.default_rng(6).standard_normal(
        (5, 2) + GRID.shape))
    old, t_old = RP.read_ensemble(write_ensemble_v1(tmp_path / "v1", e, 0.5))
    new, t_new = RP.read_ensemble(RP.write_ensemble(tmp_path / "v2", old,
                                                    t_old))
    assert t_old == t_new == 0.5
    assert old.values.tobytes() == new.values.tobytes() == e.values.tobytes()
    assert sorted(p.name for p in (tmp_path / "v2").iterdir()) == [
        "ensemble.json", "ensemble.lbf"]


@pytest.mark.parametrize("field, value", [
    ("size", 4), ("size", 2), ("m", 1), ("grid", {"d": 2, "n": 8}),
    ("grid", {"d": 1, "n": 16})])
def test_read_ensemble_rejects_v2_file_that_disagrees(tmp_path, field, value):
    e = E.Ensemble(GRID, np.random.default_rng(7).standard_normal(
        (3, 2) + GRID.shape))
    manifest = RP.write_ensemble(tmp_path, e)
    doc = json.loads(manifest.read_text())
    doc[field] = value
    manifest.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="disagree") as info:
        RP.read_ensemble(manifest)
    assert str(info.value).startswith(str(manifest) + ":")
    assert str(tmp_path / "ensemble.lbf") in str(info.value)


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


@pytest.mark.parametrize("spec, value, message", [
    ((float, 1.0, RP.Range(0)), -1.0, "must be non-negative, got -1.0"),
    ((float, 1.0, RP.Range(0, strict=True)), 0, "must be positive, got 0.0"),
    ((int, 2, RP.Range(2)), 1, "must be at least 2, got 1"),
    ((int, 1, RP.Range(1, hi=3)), 4, "must be in [1, 3], got 4"),
    ((float, 1.0, RP.Range(0, strict=True, hi=1)), 0.0,
     "must be in (0, 1], got 0.0"),
    ((str, "a", ("a", "b")), "c", "must be one of ['a', 'b'], got 'c'"),
    ((list, [1], RP.Range(1)), [2, 0.5], "must be a non-empty list of "
     "finite numbers each at least 1, got [2, 0.5]"),
    ((list, [1], RP.Range(1)), [2, 10**400], "must be a non-empty list"),
    ((list, [1], RP.Range(1)), [], "must be a non-empty list"),
])
def test_validate_config_names_each_kind_of_range(spec, value, message):
    with pytest.raises(ValueError) as exc:
        RP.validate_config({"a": value}, {"a": spec}, "cmd")
    assert str(exc.value).startswith(f"cmd: field a {message}")


def test_validate_config_keeps_list_entries_as_given():
    # K_list entries are not coerced: the report's K names stay "K4"
    out = RP.validate_config({"a": [4, 8.5]}, {"a": (list, [1], RP.Range(1))},
                             "cmd")
    assert out == {"a": [4, 8.5]} and type(out["a"][0]) is int


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


@pytest.mark.parametrize("command", ["sample", "rollout", "scores"])
def test_cli_non_object_config_is_named_on_one_line(tmp_path, capsys,
                                                    command):
    # the commands with a nested table check that the config is an object
    # before they take the nested field out of it
    cfg = tmp_path / "c.json"
    cfg.write_text("[1]")
    argv = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
    flags = {"sample": ["--seed", "1", "--ensemble", "e.json"],
             "rollout": ["--seed", "1", "--a", "a.json", "--b", "b.json"],
             "scores": ["--a", "a.json", "--b", "b.json"]}
    assert main(argv + flags[command]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {command}: config must be a JSON object"]


def test_cli_gen_deterministic(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 3, "k_max": 4}))
    for out in ("r1", "r2"):
        assert main(["gen", "--seed", "7", "--out", str(tmp_path / out),
                     "--config", str(cfg)]) == 0
    b1 = (tmp_path / "r1" / "ensemble.lbf").read_bytes()
    b2 = (tmp_path / "r2" / "ensemble.lbf").read_bytes()
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
    paths = RP.read_lawcurve(tmp_path / "s" / "paths" / "lawcurve.json")
    assert all(e.size == 2 for e in paths.ensembles)
    assert len(paths.times) == 2 * 4 + 1
    assert paths.grid.n == 16
    curve = RP.read_lawcurve(tmp_path / "s" / "curve" / "lawcurve.json")
    assert len(curve.times) == 3


def test_cli_sample_store_paths_is_one_law_curve(tmp_path):
    # one ensemble file per checkpoint, whatever the member count, holding
    # the states of rollout_paths bit for bit
    from lawbound import euler as EU

    kernel = {"kind": "rectified-flow", "internal_steps": 4,
              "perturbation": 0.3}
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({"n_steps": 2, "store_paths": True,
                                "reference_dt": 0.0125, "kernel": kernel}))
    counts = []
    for members in (2, 5):
        run = tmp_path / f"N{members}"
        run.mkdir()
        _gen_pair(run, members=members)
        assert main(["sample", "--seed", "4", "--out", str(run / "s"),
                     "--ensemble", str(run / "a" / "ensemble.json"),
                     "--config", str(scfg)]) == 0
        files = (run / "s" / "paths").rglob("*")
        counts.append(sum(p.is_file() for p in files))
        stored = RP.read_lawcurve(run / "s" / "paths" / "lawcurve.json")
        e, _ = RP.read_ensemble(run / "a" / "ensemble.json")
        ref = EU.reference_step_map(EU.EulerConfig(e.grid, dt=0.0125), 0.05)
        bundle, _ = SA.rollout_paths(e, SA.KernelSpec(**kernel), ref, 0.05,
                                     2, 4)
        assert np.array_equal(stored.times, bundle.times)
        assert np.array_equal(np.stack([x.values for x in stored.ensembles],
                                       axis=1), bundle.states)
    assert counts[0] == counts[1] == 1 + 2 * (2 * 4 + 1)


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


@pytest.mark.parametrize("text", ['{"horizon": Infinity}', '{"horizon": NaN}',
                                  '{"horizon": -1.0}', '{"horizon": 0}',
                                  '{"dt": -Infinity}'])
def test_cli_evolve_rejects_bad_values_naming_the_field(tmp_path, capsys,
                                                        text):
    _gen_pair(tmp_path)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(text)
    capsys.readouterr()
    assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert f"evolve: field {next(iter(json.loads(text)))}" in err


def test_cli_evolve_cfl_trip_exit_3(tmp_path, capsys):
    _gen_pair(tmp_path)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"dt": 4.0, "horizon": 4.0,
                                   "checkpoints": 1}))
    capsys.readouterr()
    assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "CFL violation" in err


def test_cli_evolve_long_horizon_cfl_trip_exit_3(tmp_path, capsys):
    # 2.5e11 steps: the guard must trip at the first step, with no
    # per-step storage allocated before the march
    _gen_pair(tmp_path)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"dt": 4.0, "horizon": 1e12,
                                   "checkpoints": 1}))
    capsys.readouterr()
    assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "CFL violation" in err


def test_cli_evolve_mean_flow_exit_1(tmp_path, capsys):
    # the vorticity solver rebuilds u by Biot-Savart and would drop the
    # mean of u_x; that is a solver limit, not a failed energy check
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 32, "members": 4, "k_max": 6}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "g"),
                 "--config", str(cfg)]) == 0
    e, _ = RP.read_ensemble(tmp_path / "g" / "ensemble.json")
    values = e.values.copy()
    values[:, 0] += 0.5
    RP.write_ensemble(tmp_path / "m", E.Ensemble(e.grid, values))
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.05, "dt": 0.00625}))
    capsys.readouterr()
    assert main(["evolve", "--ensemble", str(tmp_path / "m" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "mean velocity" in err
    assert not (tmp_path / "evo" / "report.json").exists()


def test_cli_sample_builds_paths_only_when_stored(tmp_path, monkeypatch):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "members": 3, "k_max": 4}))
    assert main(["gen", "--seed", "3", "--out", str(tmp_path / "e"),
                 "--config", str(cfg)]) == 0
    curves = {}
    for store in (True, False):
        if not store:
            def refuse(*args, **kwargs):
                raise AssertionError("rollout_paths called")
            monkeypatch.setattr(SA, "rollout_paths", refuse)
        scfg = tmp_path / f"s{store}.json"
        scfg.write_text(json.dumps({
            "n_steps": 2, "store_paths": store, "reference_dt": 0.0125,
            "kernel": {"kind": "rectified-flow", "internal_steps": 4,
                       "perturbation": 0.3}}))
        out = tmp_path / f"s{store}"
        assert main(["sample", "--seed", "4", "--out", str(out),
                     "--ensemble", str(tmp_path / "e" / "ensemble.json"),
                     "--config", str(scfg)]) == 0
        assert (out / "paths").exists() == store
        curves[store] = [p.read_bytes() for p in
                         sorted((out / "curve").rglob("*.lbf"))]
    assert len(curves[True]) == 3 and curves[True] == curves[False]


def test_cli_sample_pf_ode_default_init_exit_0(tmp_path):
    # pf-ode starts from target + sigma * xi whatever `init` says, so it
    # takes the stepwise route even with the default init "delta"
    _gen_pair(tmp_path)
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({
        "n_steps": 2, "reference_dt": 0.0125,
        "kernel": {"kind": "pf-ode", "noise_scale": 0.1, "internal_steps": 4},
    }))
    assert main(["sample", "--seed", "4", "--out", str(tmp_path / "s"),
                 "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--config", str(scfg)]) == 0
    curve = RP.read_lawcurve(tmp_path / "s" / "curve" / "lawcurve.json")
    assert len(curve.times) == 3


@pytest.mark.parametrize("kernel", [
    {"kind": "pf-ode", "noise_scale": 0.1},
    {"kind": "rectified-flow", "noise_scale": 0.1, "init": "gaussian"},
])
def test_cli_sample_store_paths_needs_paths_from_the_input(tmp_path, capsys,
                                                           kernel):
    _gen_pair(tmp_path)
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({"n_steps": 1, "store_paths": True,
                                "kernel": kernel}))
    capsys.readouterr()
    assert main(["sample", "--seed", "4", "--out", str(tmp_path / "s"),
                 "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--config", str(scfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and "store_paths" in err
    assert not (tmp_path / "s").exists()


def test_cli_transport_failed_certificate_exit_3(tmp_path, capsys,
                                                 monkeypatch):
    from lawbound import transport as T

    _gen_pair(tmp_path)
    certify = T._certify_duals

    def shifted(cost, perm, u, v, tol=1e-8):
        # duals raised by one are infeasible, so the real certificate fails
        certify(cost, perm, u + 1.0, v, tol)

    monkeypatch.setattr(T, "_certify_duals", shifted)
    capsys.readouterr()
    assert main(["transport", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "tr")]) == 3
    err = capsys.readouterr().err.strip()
    assert err == "error: assignment dual infeasible: solver bug"


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


def _scaled_pair_verdicts(root, c):
    """Exit code and (name, satisfied) rows of `metrics` (K 4, 8, 16),
    `transport`, and `transport` and `scores` on two law curves, for a
    4-member n=16 pair scaled to max|u| = c."""
    g = F.Grid(2, 16)
    pair = []
    for name, seeds in (("a", range(46, 50)), ("b", range(56, 60))):
        v = F.random_divfree_batch(g, 0.0, 4, seeds)
        pair.append(E.Ensemble(g, v / np.abs(v).max() * c))
        RP.write_ensemble(root / name, pair[-1])
    for name, slices in (("ca", pair), ("cb", pair[::-1])):
        RP.write_lawcurve(root / name, E.LawCurve(np.array([0.0, 1.0]), slices))
    (root / "m.json").write_text(json.dumps({"K_list": [4, 8, 16]}))
    runs = {"metrics": ["metrics", "--config", str(root / "m.json")],
            "transport": ["transport"], "curves": ["transport"],
            "scores": ["scores"]}
    verdicts = []
    for out, argv in runs.items():
        a, b = ((root / "ca" / "lawcurve.json", root / "cb" / "lawcurve.json")
                if out in ("curves", "scores")
                else (root / "a" / "ensemble.json",
                      root / "b" / "ensemble.json"))
        code = main(argv + ["--a", str(a), "--b", str(b),
                            "--out", str(root / out)])
        doc = json.loads((root / out / "report.json").read_text())
        verdicts.append((code, [(x["name"], x["satisfied"])
                                for x in doc["checks"]]))
    return verdicts


def test_cli_capacity_verdict_holds_at_large_scale(tmp_path):
    # W2 and its bound agree to roundoff at every K for this pair; at
    # max|u| = 1e152 an additive 1e-9 slack is below their last bit
    verdicts = _scaled_pair_verdicts(tmp_path, 1e152)
    assert verdicts[0][0] == 0, verdicts[0]


def test_cli_data_verdicts_do_not_depend_on_the_scale(tmp_path):
    # every verdict of `metrics`, `transport` and `scores` compares with a
    # relative slack, so scaling both inputs by c leaves it as it is
    want = _scaled_pair_verdicts(tmp_path / "c1", 1.0)
    assert all(code == 0 for code, _ in want), want
    for c in (1e-150, 1e150):
        assert _scaled_pair_verdicts(tmp_path / f"c{c:g}", c) == want, c


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


def test_cli_gen_spectral_exponent_below_white_noise_exit_1(tmp_path, capsys):
    # below -2 the synthesis amplitudes grow with |k| and can overflow, so
    # the table rejects it, naming the field
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": 16, "structure_exponent": -1e300}))
    assert main(["gen", "--seed", "1", "--out", str(tmp_path / "a"),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: gen: field structure_exponent must be at least -2, "
        "got -1e+300"]


@pytest.mark.parametrize("command", ["gen", "verify-all"])
def test_cli_negative_seed_rejected_by_parser(tmp_path, capsys, command):
    assert main([command, "--seed", "-1", "--out", str(tmp_path / "x")]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error: argument --seed:")
    assert not (tmp_path / "x").exists()


_CERTIFY_SMALL = {"n": 32, "members": 2, "n_steps": 4}


@pytest.mark.parametrize("field, value", [
    ("n_steps", 0), ("n_steps", -4), ("K", 0.5), ("K", 12.0), ("K", 15.0),
    ("k_test", 0), ("k_test", 40), ("rel_tol", -1.0)])
def test_cli_certify_rejects_bad_field_naming_it(tmp_path, capsys, field,
                                                 value):
    # K above n/3 is not alias-free for the resolved drift, k_test is a
    # band limit in [1, n/2-1], and a negative rel_tol could never hold
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CERTIFY_SMALL | {field: value}))
    capsys.readouterr()
    assert main(["certify", "--seed", "1", "--out", str(tmp_path / "c"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{field} must" in err


@pytest.mark.parametrize("fields", [{"K": 8.0, "k_test": 4},
                                    {"K": 32 / 3.0, "k_test": 15},
                                    {"K": 1.0, "k_test": 1, "rel_tol": 0.0}])
def test_cli_certify_accepts_edge_values(tmp_path, fields):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_CERTIFY_SMALL | fields))
    assert main(["certify", "--seed", "1", "--out", str(tmp_path / "c"),
                 "--config", str(cfg)]) in (0, 2)


def test_cli_certify_overflow_exit_3_one_line(tmp_path):
    # the march overflows within its first step; the warnings numpy would
    # print on the way stay silent and the NaN guard's message is the only
    # line (a child interpreter, so stderr is what a user sees)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"members": 2, "k": 2, "epsilon": 1e300}))
    proc = subprocess.run(
        [sys.executable, "-m", "lawbound.cli", "certify", "--seed", "1",
         "--out", str(tmp_path / "c"), "--config", str(cfg)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == ["error: NaN in drift-driven curve"]


def test_cli_pfode_non_finite_check_exit_3_one_line(tmp_path):
    # a report value that overflows is an internal failure named by its
    # check, not numpy warnings followed by a JSON error (exit 1)
    for name, config in (("c", {"mc_size": 64, "c": 1e200}),
                         ("s", {"mc_size": 64, "sigma0": 1e300})):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        proc = subprocess.run(
            [sys.executable, "-m", "lawbound.cli", "pfode", "--seed", "1",
             "--out", str(tmp_path / name), "--config", str(cfg)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: pfode: check pfode.identity is not finite: value=nan "
            "bound=1e-10"]
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("seed", [0, 7])
def test_cli_pfode_default_report_is_criterion_11(tmp_path, seed):
    # the command and the battery share one route: at the table's defaults
    # the command's checks are crit11's rows, bit for bit
    out = tmp_path / "pf"
    assert main(["pfode", "--seed", str(seed), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["checks"] == [c.as_dict() for c in crit11_pf_ode(False, seed)]


def _gen_pair(tmp_path, members=2, n=16):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"n": n, "members": members, "k_max": 4}))
    for name, seed in (("a", 1), ("b", 2)):
        assert main(["gen", "--seed", str(seed), "--out", str(tmp_path / name),
                     "--config", str(cfg)]) == 0


@pytest.mark.parametrize("damage", ["trailing", "truncated"])
def test_cli_transport_rejects_bad_lbf_length(tmp_path, capsys, damage):
    _gen_pair(tmp_path)
    member = tmp_path / "a" / "ensemble.lbf"
    data = member.read_bytes()
    member.write_bytes(data + b"\0" * 8 if damage == "trailing" else data[:-8])
    capsys.readouterr()
    assert main(["transport", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "tr")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(member) in err


@pytest.mark.parametrize("command, field, value", [
    ("stability", "checkpoints", 0), ("stability", "checkpoints", -1),
    ("stability", "horizon", 0.0), ("rollout", "n_steps", 0),
    ("rollout", "checkpoints_per_window", 0), ("rollout", "dt_phys", 0.0)])
def test_cli_flow_commands_reject_empty_marches_naming_the_field(
        tmp_path, capsys, command, field, value):
    # no step or no checkpoint leaves nothing to check: a usage error, not a
    # PASS on nothing marched and not a traceback
    _gen_pair(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({field: value}))
    capsys.readouterr()
    argv = [command, "--a", str(tmp_path / "a" / "ensemble.json"),
            "--b", str(tmp_path / "b" / "ensemble.json"),
            "--out", str(tmp_path / "out"), "--config", str(cfg)]
    assert main(argv + (["--seed", "1"] if command == "rollout" else [])) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{field} must" in err


def test_cli_rollout_overflowing_model_law_exit_3(tmp_path, capsys):
    # a kernel whose output overflows the distances is an internal failure,
    # not a usage error
    _gen_pair(tmp_path)
    cfg = tmp_path / "r.json"
    cfg.write_text(json.dumps({"n_steps": 1, "dt_phys": 0.025, "dt": 0.0125,
                               "checkpoints_per_window": 2,
                               "kernel": {"noise_scale": 1e300}}))
    capsys.readouterr()
    assert main(["rollout", "--seed", "1", "--a",
                 str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "r"), "--config", str(cfg)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: rollout window 0: transport costs overflow the float range"]


@pytest.mark.parametrize("command, config, field", [
    ("stability", {"tol": -1.0}, "tol"),
    ("rollout", {"slack": -1.0, "n_steps": 1}, "slack")])
def test_cli_negative_tolerance_is_a_usage_error(tmp_path, capsys, command,
                                                 config, field):
    # a negative tolerance is a usage error, not a falsification (exit 2)
    _gen_pair(tmp_path, members=4)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    argv = [command, "--a", str(tmp_path / "a" / "ensemble.json"),
            "--b", str(tmp_path / "b" / "ensemble.json"),
            "--out", str(tmp_path / "out"), "--config", str(cfg)]
    assert main(argv + (["--seed", "1"] if command == "rollout" else [])) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: {command}: field {field} must be non-negative, "
                   f"got -1.0"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config, field", [
    ({"epsilon": 0.05, "max_iter": 0}, "max_iter"),
    ({"max_iter": -3}, "max_iter"), ({"epsilon": -1.0}, "epsilon")])
def test_cli_transport_rejects_bad_sinkhorn_fields(tmp_path, capsys, config,
                                                  field):
    # a usage error, not an internal failure (exit 3) and not a Sinkhorn
    # cost silently dropped
    _gen_pair(tmp_path)
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["transport", "--a", str(tmp_path / "a" / "ensemble.json"),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "tr"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{field} must" in err


@pytest.mark.parametrize("config, field", [
    ({"n_steps": 0}, "n_steps"), ({"dt_phys": -0.05}, "dt_phys"),
    ({"kernel": {"noise_k_max": 100}}, "noise_k_max"),
    ({"kernel": {"noise_exponent": -1e300}}, "noise_exponent")])
def test_cli_sample_rejects_bad_field_naming_it(tmp_path, capsys, config,
                                                field):
    # each names its own field, not a law-curve rule or a field the config
    # does not have
    _gen_pair(tmp_path)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"n_steps": 1} | config))
    capsys.readouterr()
    assert main(["sample", "--seed", "1", "--out", str(tmp_path / "s"),
                 "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    table = "kernel" if "kernel" in config else "sample"
    assert len(err) == 1 and f"{table}: field {field} must be" in err[0]


@pytest.mark.parametrize("field, value", [
    ("mc_size", 1), ("mc_size", 0), ("dim", 0), ("dim", -2),
    ("tau_nodes", 1), ("tau_nodes", 0)])
def test_cli_pfode_rejects_bad_field_naming_it(tmp_path, capsys, field, value):
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps({"mc_size": 64, field: value}))
    capsys.readouterr()
    assert main(["pfode", "--seed", "1", "--out", str(tmp_path / "p"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and f"{field} must" in err


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
    ("component", -1), ("component", True), ("width", 1e-300)])
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


def test_cli_scores_wide_observable_exit_0(tmp_path):
    # a width whose square overflows is a flat observable, not a traceback
    ca, cb = _curve_pair(tmp_path)
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({"observable": {"width": 1e300}}))
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
    # one data file per checkpoint
    assert sum(p.suffix == ".lbf" for p in files) == 3
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*")
                           if p.is_file())
    for rel in files:
        one, four = (o / rel for o in outs)
        if rel.name == "report.json":
            assert RP.strip_timing(one.read_text()) == RP.strip_timing(four.read_text())
        else:
            assert one.read_bytes() == four.read_bytes(), rel


def test_cli_evolve_enstrophy_column_matches_physical_route(tmp_path):
    from lawbound import euler as EU

    _gen_pair(tmp_path, members=4, n=32)
    evo_cfg = tmp_path / "e.json"
    evo_cfg.write_text(json.dumps({"horizon": 0.025, "dt": 0.0125,
                                   "checkpoints": 2}))
    assert main(["evolve", "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--out", str(tmp_path / "evo"),
                 "--config", str(evo_cfg)]) == 0
    curve = RP.read_lawcurve(tmp_path / "evo" / "curve" / "lawcurve.json")
    lines = (tmp_path / "evo" / "conservation.csv").read_text().splitlines()
    column = [float(line.split(",")[2]) for line in lines[1:]]
    for value, ens in zip(column, curve.ensembles):
        # the physical-space route the Parseval sum replaced
        w = np.fft.irfft2(EU.vorticity_hat(ens), s=ens.grid.shape,
                          norm="forward")
        oracle = np.mean(ens.grid.cell_volume * (w**2).sum(axis=(-2, -1)))
        assert abs(value - oracle) <= 1e-13 * oracle
        assert np.allclose(EU.enstrophy(ens), ens.grid.cell_volume
                           * (w**2).sum(axis=(-2, -1)), rtol=1e-13, atol=0)


# ------------------------------------------------------ malformed manifests

@pytest.mark.parametrize("field, value", [
    ("members", 5), ("members", None), ("members", []), ("members", [3]),
    ("grid", [2, 64]), ("grid", {"d": 2}), ("grid", None), ("m", "2"),
    ("m", True), ("time", "0"), ("time", None), ("kind", "lawcurve")])
def test_cli_metrics_rejects_malformed_ensemble_manifest(tmp_path, capsys,
                                                         field, value):
    _gen_pair(tmp_path)
    manifest = tmp_path / "a" / "ensemble.json"
    doc = json.loads(manifest.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["metrics", "--a", str(manifest),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert str(manifest) in err and f"field {field}" in err


@pytest.mark.parametrize("text", ["[1, 2]", "{", "null"])
def test_cli_transport_rejects_non_object_manifest(tmp_path, capsys, text):
    _gen_pair(tmp_path)
    manifest = tmp_path / "a" / "ensemble.json"
    manifest.write_text(text)
    capsys.readouterr()
    assert main(["transport", "--a", str(manifest),
                 "--b", str(tmp_path / "b" / "ensemble.json"),
                 "--out", str(tmp_path / "t")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(manifest) in err


def test_read_ensemble_names_the_member_that_disagrees(tmp_path):
    e = E.Ensemble(GRID, np.random.default_rng(8).standard_normal(
        (2, 2) + GRID.shape))
    write_ensemble_v1(tmp_path / "a", e)
    member = tmp_path / "a" / "member_0001.lbf"
    RP.write_lbf(member, rand_field(5, m=1))
    with pytest.raises(ValueError, match="disagree") as info:
        RP.read_ensemble(tmp_path / "a" / "ensemble.json")
    assert str(member) in str(info.value)


@pytest.mark.parametrize("entries", [
    None, [], 7, [{"time": 0.0}], [{"time": "0", "ensemble": "x"}],
    [{"time": 0.0, "ensemble": 3}]])
def test_cli_scores_rejects_malformed_lawcurve_manifest(tmp_path, capsys,
                                                        entries):
    ca, cb = _curve_pair(tmp_path)
    doc = json.loads(open(ca).read())
    if entries is None:
        del doc["entries"]
    else:
        doc["entries"] = entries
    with open(ca, "w") as fh:
        json.dump(doc, fh)
    capsys.readouterr()
    assert main(["scores", "--a", ca, "--b", cb,
                 "--out", str(tmp_path / "sc")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert ca in err and "field entries" in err


def test_lawcurve_manifest_rejects_bad_time_order(tmp_path):
    ca, _ = _curve_pair(tmp_path)
    doc = json.loads(open(ca).read())
    doc["entries"] = doc["entries"][::-1]
    with open(ca, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="field entries"):
        RP.read_lawcurve(ca)


# ------------------------------------------------------------ reader fuzz

import contextlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def lbf_bytes(draw, ensemble=False):
    """A valid LBF file, then maybe cut, extended or with bytes replaced.

    Returns (file bytes, manifest text): a version-1 field file and no
    manifest, or with `ensemble` a version-2 file of 1-3 members and the
    ensemble manifest written with it."""
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3)) if ensemble else 1
    count = size * m * 8**d
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=count, max_size=count))
    grid = F.Grid(d, 8)
    values = np.array(values).reshape((size, m) + grid.shape)
    with tempfile.TemporaryDirectory() as tmp:
        if ensemble:
            manifest = RP.write_ensemble(Path(tmp), E.Ensemble(grid, values))
            path, text = Path(tmp) / "ensemble.lbf", manifest.read_text()
        else:
            path, text = Path(tmp) / "f.lbf", None
            RP.write_lbf(path, F.GridField(grid, values[0]))
        data = bytearray(path.read_bytes())
    edit = draw(st.sampled_from(["none", "cut", "extend", "replace"]))
    if edit == "cut":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif edit == "extend":
        data += draw(st.binary(min_size=1, max_size=16))
    elif edit == "replace":
        at = draw(st.integers(0, len(data) - 1))
        patch = draw(st.binary(min_size=1, max_size=8))
        data[at:at + len(patch)] = patch
    return bytes(data), text


@FUZZ
@given(lbf_bytes())
def test_fuzz_lbf_reader_round_trips_or_names_the_file(drawn):
    data, _ = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.lbf"
        path.write_bytes(data)
        try:
            f = RP.read_lbf(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        again = Path(tmp) / "g.lbf"
        RP.write_lbf(again, f)
        assert again.read_bytes() == data


@FUZZ
@given(lbf_bytes(ensemble=True))
def test_fuzz_lbf_ensemble_file_round_trips_or_names_the_file(drawn):
    data, text = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ensemble.lbf"
        path.write_bytes(data)
        (Path(tmp) / "ensemble.json").write_text(text)
        try:
            e, t = RP.read_ensemble(Path(tmp) / "ensemble.json")
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        RP.write_ensemble(Path(tmp) / "again", e, t)
        assert (Path(tmp) / "again" / "ensemble.lbf").read_bytes() == data


_FUZZ_DIR = tempfile.TemporaryDirectory()


def _fuzz_curve():
    """A written two-entry law curve, made once for the manifest fuzz.

    Its first entry is rewritten in the version-1 layout; the directory
    keeps the version-2 file and its manifest as `v2.json`, so a member
    list may name files of both layouts."""
    root = Path(_FUZZ_DIR.name)
    manifest = root / "curve" / "lawcurve.json"
    if not manifest.exists():
        rng = np.random.default_rng(40)
        curve = E.LawCurve([0.0, 0.5], [E.Ensemble(F.Grid(2, 8),
                                                   rng.standard_normal(
                                                       (2, 2, 8, 8)))
                                        for _ in range(2)])
        RP.write_lawcurve(root / "curve", curve)
        first = root / "curve" / "t_0000"
        (first / "ensemble.json").rename(first / "v2.json")
        write_ensemble_v1(first, curve.ensembles[0])
    return manifest


def _mutate(draw, doc, keys):
    key = draw(st.sampled_from(keys + ["extra"]))
    if draw(st.booleans()):
        doc.pop(key, None)
    else:
        doc[key] = draw(json_values)
    return doc


_FUZZ_NAMES = ["member_0000.lbf", "member_0001.lbf", "ensemble.lbf",
               "missing.lbf", "", "."]


@FUZZ
@given(st.data())
def test_fuzz_ensemble_manifest_reads_or_names_the_field(data):
    base = _fuzz_curve().parent / "t_0000"
    layout = data.draw(st.sampled_from(["ensemble.json", "v2.json"]))
    doc = _mutate(data.draw, json.loads((base / layout).read_text()),
                  ["schema_version", "kind", "grid", "m", "time", "members",
                   "size"])
    members = data.draw(st.sampled_from(["keep", "list", "name"]))
    if members == "list":
        doc["members"] = data.draw(st.lists(st.sampled_from(_FUZZ_NAMES),
                                            max_size=3))
    elif members == "name":
        doc["members"] = data.draw(st.sampled_from(_FUZZ_NAMES))
    path = base / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        e, t = RP.read_ensemble(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path) + ":")
        return
    assert t == doc["time"]
    # what each file holds: member i in the version-1 files, both in one
    # version-2 file
    first = RP.read_ensemble(base / "v2.json")[0].values
    held = {"member_0000.lbf": first[:1], "member_0001.lbf": first[1:],
            "ensemble.lbf": first}
    names = [doc["members"]] if isinstance(doc["members"], str) \
        else doc["members"]
    assert np.array_equal(e.values, np.concatenate([held[n] for n in names]))


@FUZZ
@given(st.data())
def test_fuzz_lawcurve_manifest_reads_or_names_the_field(data):
    base = _fuzz_curve()
    doc = json.loads(base.read_text())
    if data.draw(st.booleans()):
        doc = _mutate(data.draw, doc, ["schema_version", "kind", "entries"])
    else:
        entry = data.draw(st.sampled_from(doc["entries"]))
        _mutate(data.draw, entry, ["time", "ensemble"])
    path = base.parent / "fuzz.json"
    path.write_text(json.dumps(doc))
    try:
        curve = RP.read_lawcurve(path)
    except ValueError as exc:
        # the curve manifest, or the ensemble manifest an entry points at
        entries = doc.get("entries")
        named = [str(path)] + [str(path.parent / entry["ensemble"])
                               for entry in (entries if isinstance(
                                   entries, list) else [])
                               if isinstance(entry, dict)
                               and isinstance(entry.get("ensemble"), str)]
        assert any(str(exc).startswith(name + ":") for name in named)
        return
    assert curve.times.tolist() == [entry["time"] for entry in doc["entries"]]


# ------------------------------------------------------------ config fuzz

@pytest.mark.parametrize("version", ["\x1e0", "2\n3", 7])
def test_unsupported_schema_version_is_named_on_one_line(version):
    # a record separator or newline in the value must not split the error
    with pytest.raises(ValueError) as exc:
        RP.validate_config({"schema_version": version}, {}, "cmd")
    msg = str(exc.value)
    assert msg.startswith("cmd: unsupported schema_version")
    assert len(msg.splitlines()) == 1


_CONFIG_FIELDS = {"i": (int, 1), "f": (float, 0.5), "b": (bool, False),
                  "s": (str, "x"), "l": (list, []), "r": (float, None)}


@FUZZ
@given(st.dictionaries(st.sampled_from(sorted(_CONFIG_FIELDS) + [
    "schema_version", "zz"]), json_values, max_size=4))
def test_fuzz_validate_config_returns_typed_values_or_names_the_field(config):
    try:
        out = RP.validate_config(config, _CONFIG_FIELDS, "cmd")
    except ValueError as exc:
        msg = str(exc)
        assert msg.startswith("cmd: ") and len(msg.splitlines()) == 1
        assert any(key in msg for key in config) or "field r" in msg
        return
    for key, (types, _) in _CONFIG_FIELDS.items():
        assert isinstance(out[key], types)
        assert types is bool or not isinstance(out[key], bool)
        if types is float:
            assert math.isfinite(out[key])


import argparse  # noqa: E402

from lawbound import cli  # noqa: E402
from lawbound import euler as EU  # noqa: E402


def _config_commands():
    """Each subcommand that takes --config, with its parser."""
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: parser for name, parser in sub.choices.items()
            if any("--config" in a.option_strings for a in parser._actions)}


_CONFIG_COMMANDS = _config_commands()


# Small valid configs the walker starts from (n=16 and 2 members)
_WALK_BASES = {
    "gen": {"n": 16, "members": 2},
    "evolve": {"horizon": 0.025, "dt": 0.0125, "checkpoints": 2},
    "sample": {"n_steps": 1, "dt_phys": 0.025, "reference_dt": 0.0125},
    "metrics": {"K_list": [4]},
    "stability": {"horizon": 0.0625, "checkpoints": 2},
    "rollout": {"n_steps": 1, "dt_phys": 0.025, "dt": 0.0125,
                "checkpoints_per_window": 2},
    "certify": {"n": 16, "K": 4, "n_steps": 4, "members": 2},
    "pfode": {"mc_size": 64, "tau_nodes": 5},
}
# Fields never given a large value (a count or size: memory or run time
# grows with it; a horizon or a physical step: so does the step count) or a
# tiny one (a time step: a default horizon would take about 1e299 steps)
_NO_LARGE = {"n", "members", "n_steps", "checkpoints",
             "checkpoints_per_window", "mc_size", "tau_nodes", "dim",
             "internal_steps", "max_iter", "horizon", "dt_phys"}
_NO_TINY = {"dt", "reference_dt"}
# The fields whose range depends on another field (`cli.DEPENDENT`, or an
# input's grid): a value in the table's range may still be a usage error
_COUPLED = {("gen", "k_max"), ("kernel", "noise_k_max"), ("kernel", "kind"),
            ("certify", "n"), ("certify", "K"), ("certify", "k_test"),
            ("observable", "component"), ("observable", "location"),
            ("observable", "width"), ("pfode", "sigma_slope"),
            ("sample", "dt_phys"), ("sample", "reference_dt"),
            ("rollout", "dt"), ("rollout", "dt_phys"), ("evolve", "dt"),
            ("evolve", "horizon"), ("stability", "dt"),
            ("stability", "horizon")}


def _walk_values(table, key):
    """Values at and just beyond the field's bounds, 0, -1, +-1e300,
    1e-300 and values of the wrong type."""
    types, _, *limit = cli.TABLES[table][key]
    if types is bool:
        return [True, False, 1, "true", None]
    if types is str:
        return [*(limit[0] if limit else ["x"]), "bogus", 1, None]
    whole = types is int
    big = 10**300 if whole else 1e300
    numbers = [0, -1, -big] + [big] * (key not in _NO_LARGE)
    numbers += [1e-300] * (not whole and key not in _NO_TINY)
    for r in limit:
        for bound, out in ((r.lo, -1), (r.hi, 1)):
            if bound < math.inf:
                numbers += [bound, bound + out if whole
                            else math.nextafter(bound, out * math.inf)]
    if types is list:
        return [[x] for x in numbers] + [[], 1.0, "x", [True], ["x"], None]
    return numbers + ([1.5, "1", True, None] if whole
                      else ["1", True, None, [1.0]])


def _walk_cases():
    """(command, table, field, value) over every table, nested ones
    through the command that holds them."""
    cases = []
    for command in sorted(_CONFIG_COMMANDS):
        for table in (command, cli.NESTED.get(command)):
            for key in cli.TABLES.get(table, {}):
                # one case per distinct JSON text
                values = {json.dumps(v): v for v in _walk_values(table, key)}
                cases += [(command, table, key, v) for v in values.values()]
    return cases


def _walk_inputs():
    """Two written 2-member n=16 ensembles and their evolved law curves."""
    root = Path(_FUZZ_DIR.name) / "walk"
    if not root.exists():
        for name, seed in (("a", 0), ("b", 2)):
            e = E.Ensemble.from_fields(
                [F.random_divfree(GRID, 3.0, 4, seed=seed + i)
                 for i in range(2)])
            RP.write_ensemble(root / name, e)
            times, states = EU.evolve(e, EU.EulerConfig(GRID, dt=0.0125),
                                      0.025, checkpoints=2)
            RP.write_lawcurve(root / f"curve_{name}",
                              E.LawCurve(times, states))
    return root


_WALK_CASES = _walk_cases()


# as many examples as cases: hypothesis draws each novel case once
@settings(max_examples=len(_WALK_CASES), deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(_WALK_CASES))
def test_walk_every_config_table_at_and_beyond_its_ranges(case):
    # one field at a time from a small valid config: a value outside its
    # table's range is a usage error naming the table and the field, with
    # nothing written; a value inside it runs (exit 0, 2 or 3), or, for a
    # field with a dependent range, may be a usage error naming the table
    # and a field, in words that name this one, with nothing written
    missing = set(_CONFIG_COMMANDS) - set(cli.TABLES)
    assert not missing, f"commands without a config table: {missing}"
    command, table, key, value = case
    root = _walk_inputs()
    config = dict(_WALK_BASES.get(command, {}))
    if table == command:
        config[key] = value
    else:
        config[table] = {key: value}
    spec = cli.TABLES[table][key]
    try:
        RP.validate_config({key: value}, {key: spec}, table)
        in_range = True
    except ValueError:
        in_range = False
    curves = command == "scores"
    files = {"seed": "1", "ensemble": str(root / "a" / "ensemble.json")}
    for side in ("a", "b"):
        files[side] = str(root / (f"curve_{side}/lawcurve.json" if curves
                                  else f"{side}/ensemble.json"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        (Path(tmp) / "c.json").write_text(json.dumps(config))
        argv = [command, "--out", str(out), "--config",
                str(Path(tmp) / "c.json")]
        for action in _CONFIG_COMMANDS[command]._actions:
            if action.required and action.dest != "out":
                argv += [action.option_strings[0], files[action.dest]]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        written = out.exists()
    lines = err.getvalue().splitlines()
    if not in_range or code == 1:
        assert code == 1 and len(lines) == 1, (code, lines)
        if in_range:
            assert (table, key) in _COUPLED, lines
            assert f"{table}: field " in lines[0], lines
            assert re.search(rf"\b{key}\b", lines[0]), lines
        else:
            assert f"{table}: field {key} " in lines[0], lines
        assert not written
        return
    assert code in (0, 2, 3), (code, lines)
    assert len(lines) <= 1 and (code in (0, 2) or len(lines) == 1), lines


@pytest.mark.parametrize("command, config, named", [
    ("sample", {"n_steps": 1, "kernel": {"noise_k_max": 100}},
     ["kernel: field noise_k_max "]),
    ("sample", {"n_steps": 1, "dt_phys": 1e-300},
     ["sample: field dt_phys ", "reference_dt"]),
    ("pfode", {"sigma_slope": -1}, ["pfode: field sigma_slope ", "sigma0"]),
    ("gen", {"n": 12}, ["gen: field n "]),
    ("certify", {"n": 12}, ["certify: field n "]),
    ("evolve", {"horizon": 0.025, "dt": 0.00625, "checkpoints": 3},
     ["evolve: field checkpoints ", "horizon/dt"]),
    ("stability", {"horizon": 0.0625, "checkpoints": 3},
     ["stability: field checkpoints ", "horizon/dt"]),
    ("rollout", {"n_steps": 1, "dt_phys": 0.025, "dt": 0.0125,
                 "checkpoints_per_window": 3},
     ["rollout: field checkpoints_per_window ", "dt_phys/dt"]),
])
def test_dependent_range_error_names_the_field_and_writes_nothing(
        tmp_path, capsys, command, config, named):
    # the ranges that depend on another field (or on the input's grid) are
    # checked before the command writes anything
    _gen_pair(tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--out", str(out), "--config", str(cfg)]
    files = {"seed": "1", "ensemble": str(tmp_path / "a" / "ensemble.json"),
             "a": str(tmp_path / "a" / "ensemble.json"),
             "b": str(tmp_path / "b" / "ensemble.json")}
    for action in _CONFIG_COMMANDS[command]._actions:
        if action.required and action.dest != "out":
            argv += [action.option_strings[0], files[action.dest]]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1, err
    assert all(part in err for part in named), err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "rollout"])
def test_config_hash_reads_the_validated_kernel(tmp_path, command):
    # the kernel's defaults written out hash like the kernel left out
    _gen_pair(tmp_path)
    docs = []
    for k, kernel in enumerate(({}, {"kind": "perturbed-reference",
                                     "internal_steps": 8})):
        cfg = tmp_path / f"c{k}.json"
        cfg.write_text(json.dumps(dict(_WALK_BASES[command], kernel=kernel)))
        out = tmp_path / f"out{k}"
        a, b = (str(tmp_path / side / "ensemble.json") for side in "ab")
        inputs = (["--ensemble", a] if command == "sample"
                  else ["--a", a, "--b", b])
        assert main([command, "--seed", "3", "--out", str(out), "--config",
                     str(cfg), *inputs]) in (0, 2)
        docs.append(RP.strip_timing((out / "report.json").read_text()))
    assert docs[0] == docs[1]


# ------------------------------------------------ law curves slice by slice

import tracemalloc  # noqa: E402

from lawbound import scores as SC  # noqa: E402
from lawbound import transport as T  # noqa: E402


def _count_payload_reads(monkeypatch):
    reads = []
    read = RP._read_payload

    def counted(fh, path, out):
        reads.append(Path(path))
        return read(fh, path, out)

    monkeypatch.setattr(RP, "_read_payload", counted)
    return reads


def _random_curve(times, members=4, grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    return E.LawCurve(times, [E.Ensemble(grid, rng.standard_normal(
        (members, 2) + grid.shape)) for _ in times])


def test_read_lawcurve_reads_payloads_on_access_only(tmp_path, monkeypatch):
    curve = _random_curve([0.0, 0.2, 0.5])
    manifest = RP.write_lawcurve(tmp_path / "c", curve)
    reads = _count_payload_reads(monkeypatch)
    back = RP.read_lawcurve(manifest)
    # the grid and the component count come from the headers
    assert (back.grid, back.m, len(back.ensembles)) == (GRID, 2, 3)
    assert reads == []
    assert np.array_equal(back.ensembles[1].values, curve.ensembles[1].values)
    assert reads == [tmp_path / "c" / "t_0001" / "ensemble.lbf"]
    # nothing is cached: a second access reads the file again
    back.ensembles[1]
    assert len(reads) == 2
    assert [e.size for e in back.ensembles[1:]] == [4, 4]
    assert len(reads) == 4


def test_write_lawcurve_slices_matches_write_lawcurve_bytes(tmp_path):
    curve = _random_curve([0.0, 0.1, 0.3, 0.6])
    RP.write_lawcurve(tmp_path / "whole", curve)
    RP.write_lawcurve_slices(tmp_path / "sliced", curve.times,
                             (e for e in curve.ensembles))
    whole = sorted(p.relative_to(tmp_path / "whole")
                   for p in (tmp_path / "whole").rglob("*") if p.is_file())
    sliced = sorted(p.relative_to(tmp_path / "sliced")
                    for p in (tmp_path / "sliced").rglob("*") if p.is_file())
    assert whole == sliced and len(whole) == 1 + 2 * 4
    for rel in whole:
        assert ((tmp_path / "whole" / rel).read_bytes()
                == (tmp_path / "sliced" / rel).read_bytes())


@pytest.mark.parametrize("times, count, message", [
    ([0.0], 1, "at least 2 entries"), ([0.1, 0.2], 2, "start at t=0"),
    ([0.0, 0.0], 2, "strictly increasing"), ([0.0, 0.5], 1, "at least 2"),
    ([0.0, 0.5], 3, "more law curve ensembles")])
def test_write_lawcurve_slices_checks_the_time_grid(tmp_path, times, count,
                                                     message):
    e = _random_curve([0.0, 1.0]).ensembles[0]
    with pytest.raises(ValueError, match=message):
        RP.write_lawcurve_slices(tmp_path / "c", times, [e] * count)
    assert not (tmp_path / "c" / "lawcurve.json").exists()


def test_cli_sample_stepwise_curve_is_the_chained_endpoints(tmp_path):
    from lawbound import euler as EU

    _gen_pair(tmp_path, members=3)
    kernel = {"kind": "perturbed-reference", "internal_steps": 4,
              "noise_scale": 0.1}
    scfg = tmp_path / "s.json"
    scfg.write_text(json.dumps({"n_steps": 3, "reference_dt": 0.0125,
                                "kernel": kernel}))
    assert main(["sample", "--seed", "9", "--out", str(tmp_path / "s"),
                 "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                 "--config", str(scfg)]) == 0
    e, _ = RP.read_ensemble(tmp_path / "a" / "ensemble.json")
    ref = EU.reference_step_map(EU.EulerConfig(e.grid, dt=0.0125), 0.05)
    ensembles = [e]
    for n in range(3):
        ensembles.append(SA._step_endpoints(ensembles[-1],
                                            SA.KernelSpec(**kernel), ref, 9, n))
    RP.write_lawcurve(tmp_path / "oracle",
                      E.LawCurve(np.arange(4) * 0.05, ensembles))
    oracle = sorted(p.relative_to(tmp_path / "oracle")
                    for p in (tmp_path / "oracle").rglob("*"))
    for rel in oracle:
        if (tmp_path / "oracle" / rel).is_file():
            assert ((tmp_path / "s" / "curve" / rel).read_bytes()
                    == (tmp_path / "oracle" / rel).read_bytes())


def test_cli_sample_stepwise_memory_does_not_grow_with_steps(tmp_path):
    _gen_pair(tmp_path, members=16, n=32)
    e, _ = RP.read_ensemble(tmp_path / "a" / "ensemble.json")
    peaks = {}
    for n_steps in (2, 2, 8):  # the first run warms the caches
        scfg = tmp_path / f"s{n_steps}.json"
        scfg.write_text(json.dumps({
            "n_steps": n_steps, "reference_dt": 0.0125,
            "kernel": {"kind": "rectified-flow", "internal_steps": 4}}))
        tracemalloc.start()
        assert main(["sample", "--seed", "4",
                     "--out", str(tmp_path / f"s{n_steps}"),
                     "--ensemble", str(tmp_path / "a" / "ensemble.json"),
                     "--config", str(scfg)]) == 0
        peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert abs(peaks[8] - peaks[2]) < e.values.nbytes


def test_cli_evolve_from_lawcurve_reads_only_the_final_slice(tmp_path,
                                                             monkeypatch):
    ca, _ = _curve_pair(tmp_path)
    reads = _count_payload_reads(monkeypatch)
    assert main(["evolve", "--ensemble", ca, "--out", str(tmp_path / "ev"),
                 "--config", str(tmp_path / "e.json")]) == 0
    assert reads == [Path(ca).parent / "t_0002" / "ensemble.lbf"]


def _damage_last_slice(curve_manifest, damage):
    lbf = Path(curve_manifest).parent / "t_0002" / "ensemble.lbf"
    data = bytearray(lbf.read_bytes())
    if damage == "non-finite":
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    else:
        del data[-8:]
    lbf.write_bytes(bytes(data))
    return lbf


@pytest.mark.parametrize("damage", ["non-finite", "truncated"])
@pytest.mark.parametrize("command", ["scores", "transport"])
def test_cli_curve_commands_name_a_damaged_last_slice(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      damage):
    ca, cb = _curve_pair(tmp_path)
    lbf = _damage_last_slice(ca, damage)
    solves = []
    solve = T.solve_assignment

    def counted(cost):
        solves.append(len(cost))
        return solve(cost)

    monkeypatch.setattr(T, "solve_assignment", counted)
    capsys.readouterr()
    assert main([command, "--a", ca, "--b", cb,
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and str(lbf) in err
    # a bad file length is found with the headers, before any solve; a bad
    # value only when its slice is read, after the earlier slices' solves
    assert solves == ([] if damage == "truncated" else [2, 2])
    assert not (tmp_path / "out" / "report.json").exists()


def _curve_peak(fn, slices, tmp_path):
    grid = F.Grid(2, 32)
    times = np.linspace(0.0, 1.0, slices)
    paths = [RP.write_lawcurve(tmp_path / f"{name}{slices}",
                               _random_curve(times, 16, grid, seed))
             for name, seed in (("a", 1), ("b", 2))]
    fn(*map(RP.read_lawcurve, paths))  # warm the caches
    tracemalloc.start()
    fn(*map(RP.read_lawcurve, paths))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, 2 * 16 * 2 * grid.n**2 * 8


@pytest.mark.parametrize("check", ["crps_dT_check", "time_integrated_w1"])
def test_file_backed_curve_memory_does_not_grow_with_length(tmp_path, check):
    psi = F.random_divfree(F.Grid(2, 32), 3.0, 4, seed=4)
    fn = {"crps_dT_check": lambda a, b: SC.crps_dT_check(
        a, b, SC.inner_product_observable(psi)),
          "time_integrated_w1": T.time_integrated_w1}[check]
    short, pair_bytes = _curve_peak(fn, 3, tmp_path)
    long, _ = _curve_peak(fn, 9, tmp_path)
    assert abs(long - short) < pair_bytes


def test_crps_dT_check_reads_each_slice_once(tmp_path, monkeypatch):
    ca, cb = _curve_pair(tmp_path)
    a, b = RP.read_lawcurve(ca), RP.read_lawcurve(cb)
    reads = _count_payload_reads(monkeypatch)
    rep = SC.crps_dT_check(a, b, SC.inner_product_observable(
        F.random_divfree(GRID, 3.0, 4, seed=4)))
    assert len(reads) == len(set(reads)) == 2 * len(a.times)
    d_t, w1s = T.time_integrated_w1(a, b)
    assert rep["d_T"] == d_t
    assert [r["w1_field"] for r in rep["rows"]] == w1s.tolist()
