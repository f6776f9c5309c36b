"""Command-line interface.

Exit codes: 0 all checks satisfied, 1 usage or I/O error, 2 at least one
check failed (falsification), 3 internal failure (a failed certificate, a
solver that did not converge, a NaN or a CFL guard trip).  Outputs are
deterministic for a fixed config and seed; `--seed` is mandatory on
stochastic commands.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import certify as C
from . import ensemble as E
from . import euler as EU
from . import fields as F
from . import rollout as R
from . import sampler as SA
from . import scores as SC
from . import transport as T
from .acceptance import pf_ode_checks, run_battery
from .reporting import (
    Check,
    Range,
    Report,
    manifest_kind,
    read_ensemble,
    read_lawcurve,
    validate_config,
    write_csv,
    write_ensemble,
    write_lawcurve,
    write_lawcurve_slices,
)
from .runtime import _single_blas_thread

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_POS, _NON_NEG, _ONE = Range(0, strict=True), Range(0), Range(1)

# Each command's config table, key -> (type, default[, range]) as read by
# `validate_config`, and NESTED, the field of a command that holds a nested
# table of the same name.
TABLES = {
    "gen": {"n": (int, 64, Range(8)), "members": (int, 16, _ONE),
            "structure_exponent": (float, 0.5, Range(-2)),
            "k_max": (int, 0, _NON_NEG), "normalize": (bool, True),
            "time": (float, 0.0), "structure_csv": (bool, False)},
    "evolve": {"dt": (float, 0.00625, _POS), "horizon": (float, 0.25, _POS),
               "checkpoints": (int, 8, _ONE)},
    "sample": {"dt_phys": (float, 0.05, _POS), "n_steps": (int, 4, _ONE),
               "reference_dt": (float, 0.00625, _POS),
               "store_paths": (bool, False)},
    "kernel": {"kind": (str, "perturbed-reference", SA._KINDS),
               "internal_steps": (int, 8, _ONE),
               "noise_scale": (float, 0.0, _NON_NEG),
               "perturbation": (float, 0.0),
               "init": (str, "delta", ("delta", "gaussian")),
               "noise_exponent": (float, 4.0, Range(-2)),
               "noise_k_max": (int, 0, _NON_NEG),
               "pf_sigma_max": (float, 1.0, _NON_NEG)},
    "metrics": {"K_list": (list, [4, 8, 16], _ONE)},
    "transport": {"epsilon": (float, 0.0, _NON_NEG),
                  "max_iter": (int, 5000, _ONE)},
    "stability": {"dt": (float, 0.015625, _POS),
                  "horizon": (float, 0.25, _POS),
                  "checkpoints": (int, 8, _ONE),
                  "tol": (float, 1e-3, _NON_NEG)},
    "rollout": {"dt": (float, 0.00625, _POS), "dt_phys": (float, 0.05, _POS),
                "n_steps": (int, 4, _ONE),
                "checkpoints_per_window": (int, 8, _ONE),
                "slack": (float, 5e-2, _NON_NEG)},
    "certify": {"n": (int, 32, Range(8)), "members": (int, 6, _ONE),
                "k": (int, 1, Range(1, hi=3)), "K": (float, 8.0, _ONE),
                "k_test": (int, 4, _ONE), "epsilon": (float, 1e-2),
                "n_steps": (int, 512, _ONE), "horizon": (float, 0.5, _POS),
                "rel_tol": (float, 1e-5, _NON_NEG)},
    "pfode": {"dim": (int, 4, _ONE), "c": (float, 0.2),
              "tau_nodes": (int, 33, Range(2)),
              "mc_size": (int, 4096, Range(2)),
              "sigma0": (float, 1.0, _POS), "sigma_slope": (float, 0.0)},
    "scores": {},
    "observable": {"kind": (str, "mollified", ("mollified",)),
                   "location": (list, [np.pi, np.pi]),
                   "component": (int, 0, _NON_NEG),
                   "width": (float, 0.5, _POS)},
}
NESTED = {"sample": "kernel", "rollout": "kernel", "scores": "observable"}


def _whole_steps(span, dt):
    def holds(c):
        try:
            return EU._steps_for(c[dt], c[span]) > 0
        except ValueError:
            return False
    return (span, holds, f"a whole multiple of {dt}")


def _divides_steps(key, span, dt):
    # listed after _whole_steps(span, dt), so the step count exists
    return (key, lambda c: EU._steps_for(c[dt], c[span]) % c[key] == 0,
            f"a divisor of the step count {span}/{dt}")


# Ranges that depend on other fields (a nested table's too), (key,
# holds(config), what), checked in order after the table's own; those that
# depend on an input's grid are checked before anything is written.
_POW2 = ("n", lambda c: c["n"] & (c["n"] - 1) == 0, "a power of two")
DEPENDENT = {
    "gen": [_POW2, ("k_max", lambda c: c["k_max"] <= c["n"] // 2 - 1,
                    "at most n/2-1")],
    "evolve": [_whole_steps("horizon", "dt"),
               _divides_steps("checkpoints", "horizon", "dt")],
    "sample": [_whole_steps("dt_phys", "reference_dt"), (
        "store_paths", lambda c: not c["store_paths"] or SA.KernelSpec(
            **c["kernel"]).starts_at_input, "false for a kernel of init "
        "'gaussian' or kind 'pf-ode' (its path does not start at its input)")],
    "kernel": [("noise_scale", lambda c: c["kind"] != "pf-ode"
                or c["noise_scale"] > 0, "positive for kind 'pf-ode'")],
    "metrics": [("K_list", lambda c: len({float(K) for K in c["K_list"]})
                 == len(c["K_list"]), "free of repeated values")],
    "stability": [_whole_steps("horizon", "dt"),
                  _divides_steps("checkpoints", "horizon", "dt")],
    "rollout": [_whole_steps("dt_phys", "dt"),
                _divides_steps("checkpoints_per_window", "dt_phys", "dt")],
    "certify": [_POW2, ("K", lambda c: c["K"] <= c["n"] / 3, "at most n/3"),
                ("k_test", lambda c: c["k_test"] <= c["n"] // 2 - 1,
                 "at most n/2-1")],
    "pfode": [("sigma_slope", lambda c: c["sigma0"] + c["sigma_slope"] > 0,
               "greater than -sigma0")],
}


def _validated(raw, table, nested):
    cfg = validate_config(raw, TABLES[table], table) | nested
    for key, holds, what in DEPENDENT.get(table, ()):
        if not holds(cfg):
            raise ValueError(f"{table}: field {key} must be {what}, "
                             f"got {cfg[key]!r}")
    return cfg


def _config(args, **flags):
    """The command's config, set flags and nested table included, validated."""
    try:
        raw = ({} if args.config is None
               else json.loads(Path(args.config).read_text()))
    except FileNotFoundError:
        raise _UsageError(f"config file not found: {args.config}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed config {args.config}: {exc}")
    if not isinstance(raw, dict):
        raise ValueError(f"{args.command}: config must be a JSON object")
    raw.update((k, v) for k, v in flags.items() if v is not None)
    name = NESTED.get(args.command)
    nested = {name: _validated(raw.pop(name, {}), name, {})} if name else {}
    return _validated(raw, args.command, nested)


def _finish(report: Report, out_dir: Path, started: float) -> int:
    for c in report.checks:
        if not np.isfinite([c.value, c.bound]).all():
            raise RuntimeError(f"{report.command}: check {c.name} is not "
                               f"finite: value={c.value} bound={c.bound}")
    report.wall_time_s = time.time() - started
    out_dir.mkdir(parents=True, exist_ok=True)
    report.write(out_dir / "report.json")
    for c in report.checks:
        print(c)
    passed = sum(c.satisfied for c in report.checks)
    print(f"{passed}/{len(report.checks)} checks satisfied")
    return 0 if passed == len(report.checks) else 2


# ------------------------------------------------------------- subcommands

def cmd_gen(args) -> int:
    cfg = _config(args)
    grid = F.Grid(2, cfg["n"])
    k_max = cfg["k_max"] or grid.n // 4
    p = F.spectrum_exponent_for_structure(cfg["structure_exponent"])
    e = E.Ensemble(grid, F.random_divfree_batch(grid, p, k_max, [
        np.random.SeedSequence([int(args.seed), i])
        for i in range(cfg["members"])]))
    if cfg["normalize"]:
        e = e.normalized()
    out = Path(args.out)
    manifest = write_ensemble(out, e, time=cfg["time"])
    report = Report("gen", cfg | {"seed": args.seed})
    report.extra = {"manifest": manifest.name, "members": e.size}
    if cfg["structure_csv"]:
        lo, hi = E.default_fit_range(grid)
        radii = np.geomspace(lo, hi, 8)
        sc = E.pointwise_modulus(e, radii)
        write_csv(out / "structure.csv", ["r", "value"],
                  list(zip(sc.radii.tolist(), sc.values.tolist())))
        c0, s_fit, resid = E.fit_power_modulus(sc)
        report.extra["structure_fit"] = {"C0": c0, "s": s_fit,
                                         "residual": resid}
        report.checks.append(Check("gen.structure_exponent", s_fit,
                                   cfg["structure_exponent"], 0.1, "within"))
    return _finish(report, out, args.started)


def _read_initial_ensemble(path) -> E.Ensemble:
    """Accept an ensemble manifest or a law-curve manifest, of which only
    the final slice's payload is read; the input's time is not kept."""
    if manifest_kind(path) == "lawcurve":
        return read_lawcurve(path).ensembles[-1]
    return read_ensemble(path)[0]


def cmd_evolve(args) -> int:
    cfg = _config(args, checkpoints=args.checkpoints)
    e = _read_initial_ensemble(args.ensemble)
    euler_cfg = EU.EulerConfig(e.grid, dt=cfg["dt"])
    times, ensembles = EU.evolve(e, euler_cfg, cfg["horizon"],
                                 checkpoints=cfg["checkpoints"])
    curve = E.LawCurve(times, ensembles)
    out = Path(args.out)
    write_lawcurve(out / "curve", curve)  # makes `out` too
    rows = []
    for c, ens in enumerate(ensembles):
        # one half spectrum per checkpoint serves both spectral columns
        spec = F._half_spectrum(ens.values, ens.grid)
        rows.append((float(times[c]), float(np.mean(ens.member_norms() ** 2)),
                     float(np.mean(F._parseval_sq(EU._curl_hat(spec),
                                                  ens.grid))),
                     float(np.max(F._divergence_norms(spec, ens.grid)))))
    write_csv(out / "conservation.csv",
              ["t", "energy", "enstrophy", "divergence"], rows)
    e0, eT = rows[0][1], rows[-1][1]
    drift = abs(eT - e0) / max(e0, 1e-300) / max(cfg["horizon"], 1e-300)
    report = Report("evolve", cfg, [
        Check("evolve.energy_drift_per_time", drift, 1e-6, 1e-6)])
    return _finish(report, out, args.started)


def cmd_sample(args) -> int:
    cfg = _config(args)
    spec = SA.KernelSpec(**cfg["kernel"])
    e, _ = read_ensemble(args.ensemble)
    SA._noise_band(spec, e.grid)  # the kernel band, before anything is written
    euler_cfg = EU.EulerConfig(e.grid, dt=cfg["reference_dt"])
    ref = EU.reference_step_map(euler_cfg, cfg["dt_phys"])
    out = Path(args.out)
    report = Report("sample", cfg | {"seed": args.seed})
    if cfg["store_paths"]:
        # the path array (N, C, m, *shape) is built only when it is stored
        bundle, curve = SA.rollout_paths(e, spec, ref, cfg["dt_phys"],
                                         cfg["n_steps"], int(args.seed))
        # the path marginals: one ensemble file per checkpoint
        write_lawcurve(out / "paths", E.LawCurve(
            bundle.times, [E.Ensemble(e.grid, bundle.states[:, c])
                           for c in range(len(bundle.times))]))
        write_lawcurve(out / "curve", curve)
    else:
        def endpoints():
            # each step's ensemble is written before the next is drawn
            u = e
            yield u
            for n in range(cfg["n_steps"]):
                u = SA._step_endpoints(u, spec, ref, int(args.seed), n)
                yield u

        write_lawcurve_slices(out / "curve", np.arange(cfg["n_steps"] + 1)
                              * cfg["dt_phys"], endpoints())
    report.extra = {"n_steps": cfg["n_steps"], "members": e.size}
    return _finish(report, out, args.started)


def cmd_metrics(args) -> int:
    cfg = _config(args)
    a, _ = read_ensemble(args.a)
    b, _ = read_ensemble(args.b)
    if a.grid != b.grid:
        raise _UsageError("metrics: ensembles live on different grids")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    report = Report("metrics", cfg)
    sweep = T.capacity_sweep(a, b, [float(K) for K in cfg["K_list"]])
    for K, rep in zip(cfg["K_list"], sweep):
        rows.append((float(K), rep.tail_a, rep.train_k, rep.bound, rep.w2))
        report.checks.append(Check(f"capacity.K{K}", rep.w2, rep.bound, 1e-9,
                                   "at_most_rel"))
        report.extra[f"K{K}"] = rep.as_dict()
    write_csv(out / "sweep.csv", ["K", "tail_a", "train", "bound", "w2"], rows)
    return _finish(report, out, args.started)


def cmd_transport(args) -> int:
    cfg = _config(args)
    report = Report("transport", cfg)
    if manifest_kind(args.a) == "lawcurve":
        ca = read_lawcurve(args.a)
        cb = read_lawcurve(args.b)
        d_t, w1s = T.time_integrated_w1(ca, cb)
        report.extra = {"d_T": d_t, "w1_per_time": w1s.tolist(),
                        "times": ca.times.tolist()}
        # d_T is bounded by the horizon times the worst per-time W1
        cap = float(ca.horizon * w1s.max()) if len(w1s) else 0.0
        report.checks.append(Check("transport.d_T", d_t, cap, 1e-12,
                                   "at_most_rel"))
    else:
        a, _ = read_ensemble(args.a)
        b, _ = read_ensemble(args.b)
        w1, w2, entropic = T.pair_costs(a, b, epsilon=cfg["epsilon"],
                                        max_iter=cfg["max_iter"])
        report.extra = {"w1": w1, "w2": w2}
        if entropic is not None:
            report.extra["sinkhorn"] = entropic
        report.checks.append(Check("transport.w1_le_w2", w1, w2, 1e-9,
                                   "at_most_rel"))
    return _finish(report, Path(args.out), args.started)


def cmd_stability(args) -> int:
    cfg = _config(args)
    a, _ = read_ensemble(args.a)
    b, _ = read_ensemble(args.b)
    euler_cfg = EU.EulerConfig(a.grid, dt=cfg["dt"])
    rep = EU.w2_strain_bound_check(a, b, euler_cfg, cfg["horizon"],
                                   checkpoints=cfg["checkpoints"],
                                   tol=cfg["tol"])
    report = Report("stability", cfg, [
        Check("stability.w2_growth", rep["w2_t"], rep["w2_bound"], cfg["tol"],
              "at_most_rel"),
        Check("stability.coupled_moment", rep["moment_t"],
              rep["moment_bound"], cfg["tol"], "at_most_rel"),
        Check("stability.avg_below_sup", rep["strain_integral"],
              rep["sup_strain_integral"], 1e-12, "at_most_rel")])
    report.extra = {k: rep[k] for k in ("times", "lambda_curve",
                                        "strain_integral",
                                        "sup_strain_integral")}
    return _finish(report, Path(args.out), args.started)


def cmd_rollout(args) -> int:
    cfg = _config(args)
    spec = SA.KernelSpec(**cfg["kernel"])
    a, _ = read_ensemble(args.a)
    b, _ = read_ensemble(args.b)
    euler_cfg = EU.EulerConfig(a.grid, dt=cfg["dt"])
    ledger, rep = R.run_rollout_experiment(
        a, b, euler_cfg, spec, n_steps=cfg["n_steps"],
        dt_phys=cfg["dt_phys"], master_seed=int(args.seed),
        checkpoints_per_window=cfg["checkpoints_per_window"],
        slack=cfg["slack"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "ledger.csv", ["n", "alpha", "eps", "delta", "bound"],
              [(r["n"], r["alpha"], r["eps"], r["delta"], r["bound"])
               for r in ledger.rows()])
    report = Report("rollout", cfg | {"seed": args.seed}, [
        Check("rollout.final", rep["delta_final"], rep["bound_final"],
              cfg["slack"], flag=rep["final_ok"]),
        Check.holds("rollout.per_step", rep["per_step_ok"], cfg["slack"]),
        Check.holds("rollout.horizon_complete", rep["horizon_complete"])])
    report.extra = {k: rep[k] for k in ("alpha_total", "max_defect",
                                        "violations", "guard_events")}
    return _finish(report, out, args.started)


def cmd_certify(args) -> int:
    cfg = _config(args)
    rep = C.certification_report(F.Grid(2, cfg["n"]), seed=int(args.seed),
                                 **{k: v for k, v in cfg.items() if k != "n"})
    report = Report("certify", cfg | {"seed": args.seed}, [
        Check("certify.cross_route", rep["rel_gap"], cfg["rel_tol"],
              cfg["rel_tol"]),
        Check("certify.regression_bound", abs(rep["residual_defect"]),
              rep["bound"], 1e-9, "at_most_rel")])
    report.extra = {k: rep[k] for k in
                    ("residual_direct", "residual_defect", "rel_gap",
                     "l_drift", "m_2k", "bound")}
    return _finish(report, Path(args.out), args.started)


def cmd_pfode(args) -> int:
    cfg = _config(args)
    rep, checks = pf_ode_checks(int(args.seed), **cfg)
    report = Report("pfode", cfg | {"seed": args.seed}, checks)
    report.extra = {"taus": rep["taus"], "lhs": rep["lhs_curve"],
                    "rhs": rep["rhs_curve"]}
    return _finish(report, Path(args.out), args.started)


def cmd_scores(args) -> int:
    cfg = _config(args)
    obs_cfg = cfg["observable"]
    ca = read_lawcurve(args.a)
    cb = read_lawcurve(args.b)
    obs = SC.mollified_point_observable(
        ca.grid, obs_cfg["location"], obs_cfg["component"], obs_cfg["width"],
        m=ca.m)
    rep = SC.crps_dT_check(ca, cb, obs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "scores.csv", ["t", "crps", "w1_pushforward", "bound"],
              [(r["t"], r["crps"], r["w1_pushforward"], r["bound"])
               for r in rep["rows"]])
    report = Report("scores", cfg, [
        Check("scores.crps_dT", rep["crps_integral"],
              2.0 * rep["lipschitz"] * rep["d_T"], 1e-9,
              flag=rep["integral_ok"]),
        Check.holds("scores.per_time_chain", rep["per_time_ok"], 1e-9)])
    report.extra = {"d_T": rep["d_T"], "lipschitz": rep["lipschitz"]}
    return _finish(report, out, args.started)


def cmd_verify_all(args) -> int:
    report = Report("verify-all", {"quick": bool(args.quick), "seed": args.seed},
                    run_battery(args.quick, int(args.seed), log=print))
    return _finish(report, Path(args.out), args.started)


# ------------------------------------------------------------------ parser

def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="lawbound", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seed=False, ensemble=False, pair=False):
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", required=True)
        if seed:
            sp.add_argument("--seed", required=True, type=_seed)
        if ensemble:
            sp.add_argument("--ensemble", required=True)
        if pair:
            sp.add_argument("--a", required=True)
            sp.add_argument("--b", required=True)
        sp.set_defaults(fn=fn)
        return sp

    add("gen", cmd_gen, seed=True)
    evp = add("evolve", cmd_evolve, ensemble=True)
    evp.description = ("Push an ensemble, or the final slice of a law curve, "
                       "through the Euler flow. The times written are "
                       "relative to the input's time: they start at 0.")
    evp.add_argument("--checkpoints", type=int, default=None)
    add("sample", cmd_sample, seed=True, ensemble=True)
    add("metrics", cmd_metrics, pair=True)
    add("transport", cmd_transport, pair=True)
    add("stability", cmd_stability, pair=True)
    add("rollout", cmd_rollout, seed=True, pair=True)
    add("certify", cmd_certify, seed=True)
    add("pfode", cmd_pfode, seed=True)
    add("scores", cmd_scores, pair=True)
    va = sub.add_parser("verify-all")
    va.add_argument("--quick", action="store_true")
    va.add_argument("--seed", required=True, type=_seed)
    va.add_argument("--out", required=True)
    va.set_defaults(fn=cmd_verify_all)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.started = time.time()
        with _single_blas_thread():
            return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
