"""The benchmark's workloads, built from a seed.

Each workload is a fixed list of operations. An operation calls the
package's public entry points on inputs generated from the seed and
returns ``(payload, outcome)``: the payload is what its digest covers,
and the outcome is ``"ok"``, ``"check"`` (a check the package reports
came out unsatisfied, or CLI exit 2) or ``"error"`` (CLI exit 1).
Escaped exceptions are caught by the runner.

Grids, member counts and time steps follow the acceptance battery per
operation; repetition counts (pairs, windows, steps, tail members,
ensemble size of the CLI chain) are cut so that one pass takes a few
seconds and a run holds several passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lawbound import cli
from lawbound import ensemble as E
from lawbound import euler as EU
from lawbound import fields as F
from lawbound import rollout as R
from lawbound import sampler as SA
from lawbound.reporting import strip_timing

# Per-workload sizes. Tests pass smaller ones through `build(sizes=...)`.
SIZES = {
    "flow-coupling": {
        # crit05: N=16, n=64, dt=1/64, t=0.25, 8 checkpoints
        "strain_pairs": 2, "strain_members": 16, "strain_n": 64,
        "strain_dt": 1.0 / 64, "strain_t": 0.25, "strain_checkpoints": 8,
        # crit07 full config, fewer windows
        "rollout_members": 16, "rollout_n": 64, "rollout_windows": 2,
        # crit08 full config, fewer physical steps
        "paths_members": 16, "paths_n": 32, "paths_steps": 2,
    },
    "cli-pipeline": {
        "members": 64, "n": 64, "epsilon": 0.05,
        "evolve_horizon": 0.05, "evolve_checkpoints": 8,
        # crit10's k=2 certification at its 512 steps, 2 members
        "certify_members": 2, "certify_k": 2,
        # crit03 synthesis at n=512, fewer members. It runs here, in the
        # single-threaded process, because its large transients make the
        # peak RSS of the pool-using flow-coupling process vary by 25 %.
        "tails_n": 512, "tails_members": 16,
    },
}


@dataclass
class Op:
    name: str
    run: object


@dataclass
class Workload:
    name: str
    ops: list
    before_pass: object = None
    inputs: dict = field(default_factory=dict)


# ---------------------------------------------------------------- digests

def _encode(obj):
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {"shape": list(arr.shape), "dtype": str(arr.dtype),
                "sha256": hashlib.sha256(arr.data).hexdigest()}
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(payload) -> str:
    """sha256 of the payload's canonical JSON (arrays by their own sha256)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_encode)
    return hashlib.sha256(text.encode()).hexdigest()


class Ledger:
    """Counts attempted and failed operations and checks digests.

    The first digest of an operation is its reference. `wrong` counts the
    failures that are wrong answers (an unsatisfied check or a changed
    digest); operations that could not finish count in `failed` only.
    """

    def __init__(self):
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons = {}

    def record(self, op, outcome, op_digest):
        self.attempted += 1
        ref = self.reference.setdefault(op, op_digest)
        if outcome == "ok" and ref != op_digest:
            outcome = "digest"
        if outcome != "ok":
            self.failed += 1
            self.reasons[op] = outcome
            if outcome in ("check", "digest"):
                self.wrong += 1

    def result_digest(self) -> str:
        return digest(sorted(self.reference.items()))


# ----------------------------------------------------------------- inputs

def _unit_ensemble(grid, members, k_max, seq):
    fields = []
    for child in seq.spawn(members):
        u = F.random_divfree(grid, 4.0, k_max, seed=np.random.default_rng(child))
        fields.append(F.GridField(grid, u.values / F.l2_norm(u)))
    return E.Ensemble.from_fields(fields)


def _perturbed_pair(grid, members, k_max, scale, seq):
    base, pert = seq.spawn(2)
    a = _unit_ensemble(grid, members, k_max, base)
    p = _unit_ensemble(grid, members, k_max, pert)
    return a, E.Ensemble(grid, a.values + scale * p.values)


# -------------------------------------------------------------- workloads

def _flow_coupling(seed, workdir, s):
    seqs = np.random.SeedSequence(int(seed)).spawn(s["strain_pairs"] + 3)
    g = F.Grid(2, s["strain_n"])
    cfg = EU.EulerConfig(g, dt=s["strain_dt"])
    pairs = [_perturbed_pair(g, s["strain_members"], 10, 0.05, seqs[p])
             for p in range(s["strain_pairs"])]
    g7 = F.Grid(2, s["rollout_n"])
    cfg7 = EU.EulerConfig(g7, dt=0.00625)
    ra, rb = _perturbed_pair(g7, s["rollout_members"], 8, 0.02, seqs[-3])
    spec7 = SA.KernelSpec("perturbed-reference", internal_steps=4,
                          noise_scale=2e-3)
    master = int(seqs[-2].generate_state(1)[0])
    g8 = F.Grid(2, s["paths_n"])
    cfg8 = EU.EulerConfig(g8, dt=0.00625)
    pe = _unit_ensemble(g8, s["paths_members"], 8, seqs[-1])
    spec8 = SA.KernelSpec("rectified-flow", internal_steps=16, perturbation=0.3)

    def strain_op(a, b):
        def run():
            rep = EU.w2_strain_bound_check(a, b, cfg, t=s["strain_t"],
                                           checkpoints=s["strain_checkpoints"],
                                           tol=1e-3)
            ok = rep["w2_ok"] and rep["moment_ok"] and rep["avg_below_sup"]
            return rep, "ok" if ok else "check"
        return run

    def rollout_op():
        _, rep = R.run_rollout_experiment(
            ra, rb, cfg7, spec7, n_steps=s["rollout_windows"], dt_phys=0.05,
            master_seed=master)
        # a guard trip truncates the horizon, which must not read as a pass
        ok = rep["satisfied"] and not rep["guard_events"]
        return rep, "ok" if ok else "check"

    def paths_op():
        ref = EU.reference_step_map(cfg8, 0.05)
        bundle, _ = SA.rollout_paths(pe, spec8, ref, 0.05,
                                         s["paths_steps"], master_seed=master)
        ok = bool(np.all(np.isfinite(bundle.states)))
        return {"times": bundle.times, "states": bundle.states}, \
            "ok" if ok else "check"

    ops = [Op(f"w2_strain_bound_check[{p}]", strain_op(a, b))
           for p, (a, b) in enumerate(pairs)]
    ops.append(Op("run_rollout_experiment", rollout_op))
    ops.append(Op("rollout_paths", paths_op))
    inputs = {"pairs": [(a.values, b.values) for a, b in pairs],
              "rollout": (ra.values, rb.values), "paths": pe.values,
              "master_seed": master}
    return Workload("flow-coupling", ops, inputs=inputs)


def _cli_pipeline(seed, workdir, s):
    workdir = Path(workdir)
    cfg_dir = workdir / "config"
    out = workdir / "out"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    configs = {
        "gen": {"n": s["n"], "members": s["members"]},
        "metrics": {"K_list": [4, 8, 16]},
        "sinkhorn": {"epsilon": s["epsilon"]},
        "evolve": {"horizon": s["evolve_horizon"],
                   "checkpoints": s["evolve_checkpoints"]},
        "certify": {"members": s["certify_members"], "k": s["certify_k"]},
    }
    for name, cfg in configs.items():
        (cfg_dir / f"{name}.json").write_text(json.dumps(cfg))
    seq = np.random.SeedSequence(int(seed))
    seed_a, seed_b, seed_c = (int(x) for x in seq.generate_state(3))
    tail_seeds = seq.spawn(1)[0].spawn(s["tails_members"])
    gt = F.Grid(2, s["tails_n"])
    target = 0.5
    p_tails = F.spectrum_exponent_for_structure(target)
    Ks = np.array([4.0, 8.0, 16.0, 32.0])
    a, b = out / "a" / "ensemble.json", out / "b" / "ensemble.json"
    ca = out / "evolve_a" / "curve" / "lawcurve.json"
    cb = out / "evolve_b" / "curve" / "lawcurve.json"

    def conf(name):
        return ["--config", str(cfg_dir / f"{name}.json")]

    chain = [
        ("gen a", ["gen", "--seed", str(seed_a), "--out", str(out / "a")]
         + conf("gen")),
        ("gen b", ["gen", "--seed", str(seed_b), "--out", str(out / "b")]
         + conf("gen")),
        ("metrics", ["metrics", "--a", str(a), "--b", str(b),
                     "--out", str(out / "metrics")] + conf("metrics")),
        ("transport exact", ["transport", "--a", str(a), "--b", str(b),
                             "--out", str(out / "transport")]),
        ("transport sinkhorn", ["transport", "--a", str(a), "--b", str(b),
                                "--out", str(out / "sinkhorn")]
         + conf("sinkhorn")),
        ("evolve a", ["evolve", "--ensemble", str(a),
                      "--out", str(out / "evolve_a")] + conf("evolve")),
        ("evolve b", ["evolve", "--ensemble", str(b),
                      "--out", str(out / "evolve_b")] + conf("evolve")),
        ("scores", ["scores", "--a", str(ca), "--b", str(cb),
                    "--out", str(out / "scores")]),
        ("transport curves", ["transport", "--a", str(ca), "--b", str(cb),
                              "--out", str(out / "transport_curves")]),
        ("certify", ["certify", "--seed", str(seed_c),
                     "--out", str(out / "certify")] + conf("certify")),
    ]

    def cli_op(argv):
        report = Path(argv[argv.index("--out") + 1]) / "report.json"

        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if code in (0, 2):
                payload = {"exit": code,
                           "report": strip_timing(report.read_text())}
            else:
                payload = {"exit": code, "stderr": stderr.getvalue().strip()}
            return payload, {0: "ok", 2: "check"}.get(code, "error")
        return run

    def tails_op():
        acc = np.zeros(len(Ks))
        for child in tail_seeds:
            u = F.random_divfree(gt, p_tails, gt.n // 2 - 1,
                                 seed=np.random.default_rng(child))
            acc += E.tail_profile(E.Ensemble(gt, u.values[None]), Ks) ** 2
        tails = np.sqrt(acc / len(tail_seeds))
        slope = float(np.polyfit(np.log(Ks), np.log(tails), 1)[0])
        # crit03's check: the fitted slope is -s within 0.1
        ok = abs(slope + target) <= 0.1
        return {"tails": tails, "slope": slope}, "ok" if ok else "check"

    def before_pass():
        shutil.rmtree(out, ignore_errors=True)

    ops = [Op(f"lawbound {label}", cli_op(argv)) for label, argv in chain]
    ops.append(Op("random_divfree+tail_profile", tails_op))
    inputs = {"configs": configs, "seeds": (seed_a, seed_b, seed_c),
              "tail_seeds": [c.generate_state(1) for c in tail_seeds]}
    return Workload("cli-pipeline", ops, before_pass, inputs)


_BUILDERS = {
    "flow-coupling": _flow_coupling,
    "cli-pipeline": _cli_pipeline,
}


def build(name, seed, workdir, sizes=None) -> Workload:
    """Generate the inputs of workload `name` from `seed` (files go in `workdir`)."""
    return _BUILDERS[name](seed, workdir, {**SIZES[name], **(sizes or {})})
