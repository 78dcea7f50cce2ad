"""Command-line front end.

Subcommands: ``price`` (one-shot or whole-horizon signal price), ``rates``
(indifference/limiting rate curves as CSV), ``simulate`` (path dumps plus a
Monte-Carlo-vs-closed-form summary), ``subscribe`` (optimal purchase window
for a rate schedule), ``verify`` (numerical oracle suite).

Every command is a pure function of (config file, flags, schedule file):
all randomness flows from the config seed, floats serialize with 17
significant digits, and identical inputs give byte-identical outputs.
Exit codes: 0 success, 1 failed verification checks, 2 bad config/schedule/IO.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import closed_form, path_sim, subscription_timing, verify_oracles
from .model_core import (
    DomainError,
    INFORMED_FROM_START,
    McSettings,
    ModelParams,
    TimeGrid,
    UNINFORMED,
    load_config,
    make_grid,
    subscribe_at,
    write_csv,
)
from .subscription_timing import RateSchedule


def _to_json(obj) -> str:
    """JSON text with floats at 17 significant digits, stable key order.

    JSON has no inf or nan, so non-finite floats are written as null.
    """
    if isinstance(obj, dict):
        items = ", ".join(f'"{k}": {_to_json(v)}' for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run setup: config file values plus flag overrides."""

    params: ModelParams
    grid: TimeGrid
    mc: McSettings
    out_dir: str


def _resolve_config(args) -> RunConfig:
    params, grid, mc = load_config(args.config)
    if getattr(args, "steps", None) is not None:
        grid = make_grid(params.t_end, args.steps)
    n_paths = args.paths if getattr(args, "paths", None) is not None else mc.n_paths
    seed = args.seed if getattr(args, "seed", None) is not None else mc.seed
    return RunConfig(
        params=params,
        grid=grid,
        mc=McSettings(n_paths=n_paths, seed=seed),
        out_dir=getattr(args, "out", "./out"),
    )


def cmd_price(cfg: RunConfig, mode: str) -> int:
    if mode == "single":
        solution = closed_form.single_period_solve(cfg.params)
        print(_to_json({"c_hat": solution.c_hat}))
    else:
        result = closed_form.continuous_price(cfg.params)
        print(_to_json({
            "c_hat": result.c_hat_0T,
            "c_bar": result.c_bar,
            "c_bar_bound": result.c_bar_bound,
        }))
    return 0


def cmd_rates(cfg: RunConfig, n_points: int) -> int:
    """Rate curves CSV plus a two-column schedule file that feeds back in."""
    if n_points < 2:
        raise DomainError(f"--points must be >= 2, got {n_points}")
    p = cfg.params
    t = np.linspace(0.0, p.t_end, n_points)
    c_hat_t = np.asarray(subscription_timing.indifference_rate(p, t))
    ell_t = np.asarray(subscription_timing.ell(p, t))
    c_bar = closed_form.continuous_price(p).c_bar

    os.makedirs(cfg.out_dir, exist_ok=True)
    rates_path = os.path.join(cfg.out_dir, "rates.csv")
    write_csv(rates_path, "t,c_hat_t,c_bar,ell_t", [t, c_hat_t, [c_bar] * n_points, ell_t])

    schedule_path = os.path.join(cfg.out_dir, "c_hat_schedule.csv")
    RateSchedule(t, c_hat_t).to_csv(schedule_path)
    print(_to_json({"rates_csv": rates_path, "schedule_csv": schedule_path}))
    return 0


def _closed_form_reference(cfg: RunConfig, mode_name, charge, schedule, t_star):
    """Closed-form t = 0 value of the strategy the run simulates.

    In subscribe mode that is the committed purchase at the grid point
    nearest ``t_star``.
    """
    p, grid = cfg.params, cfg.grid
    if mode_name == "uninformed":
        return float(closed_form.value_uninformed(p, 0.0, p.x0, p.y0))
    if mode_name == "informed":
        return float(closed_form.value_informed(p, 0.0, p.x0, p.y0, charge))
    return subscription_timing.value_committed(p, t_star, schedule, grid)


def cmd_simulate(
    cfg: RunConfig,
    mode_name: str,
    charge: float,
    schedule: RateSchedule | None,
    t_star: float | None,
    dump_paths: int,
    antithetic: bool,
) -> int:
    p, grid = cfg.params, cfg.grid
    if dump_paths < 0:
        raise DomainError(f"--dump-paths must be >= 0, got {dump_paths}")
    if not math.isfinite(charge):
        raise DomainError(f"--charge must be finite, got {charge!r}")
    if mode_name == "uninformed":
        mode, mode_charge = UNINFORMED, 0.0
    elif mode_name == "informed":
        mode, mode_charge = INFORMED_FROM_START, charge
    else:
        if schedule is None or t_star is None:
            raise DomainError("simulate --mode subscribe needs --schedule and --t-star")
        mode, mode_charge = subscribe_at(t_star), schedule

    est = path_sim.mc_multi(
        p, grid, cfg.mc.n_paths, cfg.mc.seed, [path_sim.Arm(mode, mode_charge)],
        antithetic=antithetic,
    )[0].estimate()
    closed = _closed_form_reference(cfg, mode_name, charge, schedule, t_star)
    z = path_sim.z_score(est.mean, est.std_err, closed)

    os.makedirs(cfg.out_dir, exist_ok=True)
    for index, bundle in enumerate(path_sim.simulate_paths(p, grid, dump_paths, cfg.mc.seed)):
        wealth = {
            "informed": path_sim.run_strategy(
                p, grid, bundle, INFORMED_FROM_START,
                charge=charge if mode_name == "informed" else 0.0,
            ),
            "uninformed": path_sim.run_strategy(p, grid, bundle, UNINFORMED),
        }
        if mode_name == "subscribe":
            wealth["subscribe"] = path_sim.run_strategy(
                p, grid, bundle, mode, charge=schedule
            )
        path_sim.write_path_csv(
            os.path.join(cfg.out_dir, f"path_{index:05d}.csv"),
            grid.t, bundle.y, bundle.y_hat, bundle.s, wealth,
        )
        _write_value_csv(cfg, index, bundle, wealth, schedule)

    print(_to_json({
        "mc_mean": est.mean,
        "std_err": est.std_err,
        "closed_form": closed,
        "z_score": z,
    }))
    return 0


def _write_value_csv(cfg, index, bundle, wealth, schedule) -> None:
    """Closed-form value functions along one path (value-comparison figure data).

    With a schedule, the flexible value runs up to the latest purchase time
    and its later cells are empty.
    """
    p, grid, y_hat = cfg.params, cfg.grid, bundle.y_hat
    columns = {
        "v_uninformed": closed_form.value_uninformed(p, grid.t, wealth["uninformed"], y_hat),
        "v_informed": closed_form.value_informed(p, grid.t, wealth["informed"], bundle.y),
    }
    if schedule is not None:
        head = slice(grid.index_of(subscription_timing.latest_time(p, schedule, grid)) + 1)
        columns["v_flexible"] = subscription_timing.value_flexible(
            p, grid.t[head], wealth["uninformed"][head], y_hat[head], schedule, grid,
        )
    path = os.path.join(cfg.out_dir, f"values_{index:05d}.csv")
    write_csv(path, "t," + ",".join(columns), [grid.t, *columns.values()])


def cmd_subscribe(cfg: RunConfig, schedule: RateSchedule, tol: float) -> int:
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"--tol must be finite and >= 0, got {tol!r}")
    result = subscription_timing.earliest_time(cfg.params, schedule, cfg.grid, tol)
    print(_to_json({
        "tau_e": result.tau_e,
        "tau_l": result.tau_l,
        "indifference_set": list(result.indifference_set),
        "tol": result.tol,
        "grid_dt": cfg.grid.dt,
    }))
    return 0


def cmd_verify(cfg: RunConfig, suite: str) -> int:
    p = cfg.params
    reports = []
    reports += verify_oracles.report_ode(p)
    reports += verify_oracles.report_single_period(p)
    reports.append(verify_oracles.report_kernel(p))
    if suite == "all":
        reports += verify_oracles.mc_reports(p, cfg.grid, cfg.mc.n_paths, cfg.mc.seed)
    print(_to_json([r.as_dict() for r in reports]))
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalprice",
        description="Price a trading-signal feed and solve when to subscribe to it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mc_flags=True):
        sp.add_argument("--config", required=True, help="run configuration file (INI)")
        sp.add_argument("--out", default="./out", help="output directory")
        if mc_flags:
            sp.add_argument("--paths", type=int, help="override [mc] paths")
            sp.add_argument("--seed", type=int, help="override [mc] seed")
        sp.add_argument("--steps", type=int, help="override [horizon] steps")

    sp = sub.add_parser("price", help="signal price in closed form")
    common(sp, mc_flags=False)
    sp.add_argument("--mode", choices=("single", "continuous"), default="continuous")

    sp = sub.add_parser("rates", help="indifference/limiting rate curves as CSV")
    common(sp, mc_flags=False)
    sp.add_argument("--points", type=int, default=101)

    sp = sub.add_parser("simulate", help="simulate paths and compare MC vs closed form")
    common(sp)
    sp.add_argument("--mode", choices=("uninformed", "informed", "subscribe"),
                    default="uninformed")
    sp.add_argument("--charge", type=float, default=0.0, help="lump fee paid at t=0")
    sp.add_argument("--schedule", help="rate-schedule CSV (t,c)")
    sp.add_argument("--t-star", type=float, dest="t_star", help="purchase time")
    sp.add_argument("--dump-paths", type=int, default=1, dest="dump_paths",
                    help="number of per-path CSV files to write")
    sp.add_argument("--antithetic", action="store_true")

    sp = sub.add_parser("subscribe", help="optimal purchase window for a rate schedule")
    common(sp, mc_flags=False)
    sp.add_argument("--schedule", required=True, help="rate-schedule CSV (t,c)")
    sp.add_argument("--tol", type=float, default=1e-9)

    sp = sub.add_parser("verify", help="run the numerical oracle suite")
    common(sp)
    sp.add_argument("--suite", choices=("fast", "all"), default="fast")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "price":
            return cmd_price(cfg, args.mode)
        if args.command == "rates":
            return cmd_rates(cfg, args.points)
        if args.command == "simulate":
            schedule = RateSchedule.from_csv(args.schedule) if args.schedule else None
            return cmd_simulate(
                cfg, args.mode, args.charge, schedule, args.t_star,
                args.dump_paths, args.antithetic,
            )
        if args.command == "subscribe":
            return cmd_subscribe(cfg, RateSchedule.from_csv(args.schedule), args.tol)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, MemoryError, OSError) as exc:
        hint = "; lower --paths, --steps or --points" if isinstance(exc, MemoryError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
