"""The layered benchmark's one command.

``python3 benchmarks/layers/run.py --workload W --seed N --seconds T
--trace 0|1`` measures one workload and prints, as the last line, the
result object the root ``BENCHMARK.json`` contract asks for.  Without
``--workload`` / ``--trace`` (``PYTHONPATH=src python -m
benchmarks.layers``) it measures every workload both ways and prints
every metric by name.

This process stays small and never imports ``repro``: each measurement
runs in a single-threaded child (``child.py``), one at a time, with
``REPRO_*`` stripped from its environment.  A child's ``ru_maxrss``
starts from its parent's, so a lean parent keeps ``peak_rss_mb`` honest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__" and not __package__:
    # run as a script: come back in as a module of the package
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.layers.run import main

    sys.exit(main())

from .timing import CALIB_REF_S, HostTimer, summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
PINNED_PATH = HERE / "pinned.json"

#: set-up is measured this many times per run (fresh process each)
N_SETUP = 3
QUICK_SCALE = 10
#: hard cap on time-boxed repeats
MAX_REPEATS = 32
CHILD_TIMEOUT_S = 170


class Unmeasured(Exception):
    """A workload could not be measured at all."""


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> tuple[dict, list[str]]:
    """The children's environment and the names stripped from ours.

    ``REPRO_ENGINE`` / ``REPRO_PREFETCH`` / ``REPRO_WORKERS`` would change
    what is measured; ``PYTHONDONTWRITEBYTECODE`` would put a compile of
    every module into each ``setup_s`` sample.
    """
    stripped = sorted(
        k for k in os.environ
        if k.startswith("REPRO_") or k == "PYTHONDONTWRITEBYTECODE"
    )
    env = {k: v for k, v in os.environ.items() if k not in stripped}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env, stripped


class Runner:
    def __init__(self, seed: int, scale: int, seconds: float, repeats: int):
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.repeats = repeats
        self.timer = HostTimer()
        self.env, self.stripped = child_env()

    def warm_imports(self) -> None:
        """One throw-away import so no set-up sample pays for ``.pyc``
        compilation or a cold file cache."""
        self._run([sys.executable, "-c", "import benchmarks.layers.workloads"])

    def _run(self, argv: list[str]) -> str:
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise Unmeasured(f"child timed out after {CHILD_TIMEOUT_S} s") from None
        if proc.returncode:
            raise Unmeasured(f"child exited with code {proc.returncode}")
        return proc.stdout

    def child(self, workload: str, mode: str) -> dict:
        calib0 = self.timer.sample()
        argv = [
            sys.executable, "-m", "benchmarks.layers.child",
            "--workload", workload, "--mode", mode,
            "--seed", str(self.seed), "--scale", str(self.scale),
            "--seconds", repr(self.seconds), "--repeats", str(self.repeats),
            "--calib0", repr(calib0), "--t0", repr(time.perf_counter()),
        ]
        return json.loads(self._run(argv).strip().splitlines()[-1])

    # -- end to end ------------------------------------------------------

    def end_to_end(self, workload: str, n_setup: int) -> dict:
        setups = [self.child(workload, "setup") for _ in range(n_setup - 1)]
        run = self.child(workload, "measure")
        setups.append(run)
        good = [r for r in run["repeats"] if not r["failed"]]
        problems = [p for r in run["repeats"] for p in r["problems"]]
        if not good:
            raise Unmeasured(f"every repeat failed: {problems[:1]}")
        attempted = sum(r["attempted"] for r in run["repeats"])
        failed = sum(r["failed"] for r in run["repeats"])
        virtual = sorted({r["virtual_ns"] for r in good})
        if len(virtual) > 1:
            problems.append(f"virtual_ns differs across repeats: {virtual}")
            failed = attempted
        virtual_ns = good[-1]["virtual_ns"]
        # the timed region of ir_native is itself the native run
        native_ns = virtual_ns if run["native_ns"] is None else run["native_ns"]
        raw = summary([r["raw_wall_s"] for r in good])
        events = good[-1]["events"]
        return {
            "metrics": {
                "setup_s": summary([c["setup"]["s"] for c in setups]),
                "wall_s": summary([r["wall_s"] for r in good]),
                "virtual_ns": summary([virtual_ns]),
                "norm_perf": summary([native_ns / virtual_ns]),
                "peak_rss_mb": summary([run["peak_rss_kb"] / 1024.0]),
            },
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "diagnostics": {
                "raw_wall_s": raw,
                "raw_setup_s": summary([c["setup"]["raw_s"] for c in setups]),
                "calib_s": summary(run["calib_samples"]),
                "events": events,
                "events_per_s": events / raw["median"],
                "host_ns_per_event": raw["median"] * 1e9 / events,
            },
            "sim": run["sim"],
            "sim_digest": run["sim_digest"],
            "resolved": run["resolved"],
            "spans": run["spans"],
            "repeats": run["repeats"],
            "calib_samples": run["calib_samples"],
        }

    # -- per layer -------------------------------------------------------

    def per_layer(self, workload: str) -> dict:
        run = self.child(workload, "trace")
        if "layers" not in run:
            problems = [p for r in run["repeats"] for p in r["problems"]]
            raise Unmeasured(f"the untraced repeat failed: {problems[:1]}")
        metrics = dict(run["layers"]["metrics"])
        metrics.update(run["sim"])
        # the digest's leading 48 bits: exact in a JSON number
        metrics["sim.digest48"] = int(run["sim_digest"][:12], 16)
        repeat = run["repeats"][0]
        return {
            "metrics": metrics,
            "attempted": 2 * repeat["attempted"],
            "failed": repeat["failed"] + run["layers"]["failed"],
            "problems": repeat["problems"] + run["layers"]["problems"],
            "sim_digest": run["sim_digest"],
            "resolved": run["resolved"],
            "spans": run["spans"],
            "calib_samples": run["calib_samples"],
        }


def digest_status(workload: str, digest: str, seed: int, scale: int) -> str:
    """``pinned_ok`` / ``digest_changed`` against ``pinned.json`` (default
    seed and sizes only); a change is a note, not a failure: a
    modelled-design PR re-pins it in its own benchmark change."""
    if seed != 0 or scale != 1:
        return "unpinned"
    with open(PINNED_PATH) as fh:
        pinned = json.load(fh).get(workload)
    if pinned is None:
        return "unpinned"
    return "pinned_ok" if pinned == digest else "digest_changed"


def host_info(runner: Runner) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "calib_ref_s": CALIB_REF_S,
        "parent_calib_s": summary(runner.timer.calib_samples),
        "stripped_env": runner.stripped,
    }


# -- printing ----------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    return f"{x:.10g}"


def print_end_to_end(name: str, res: dict, units: dict) -> None:
    print(f"\n== {name}: end to end (engine {res['resolved']['engine']}, "
          f"leap policy {res['resolved']['leap_policy']}) ==")
    print(f"{'metric':<14}{'unit':<8}{'median':>18}{'q1':>18}{'q3':>18}"
          f"{'min':>18}{'max':>18}{'n':>4}")
    for metric, s in res["metrics"].items():
        print(f"{metric:<14}{units[metric]:<8}{_fmt(s['median']):>18}"
              f"{_fmt(s['q1']):>18}{_fmt(s['q3']):>18}{_fmt(s['min']):>18}"
              f"{_fmt(s['max']):>18}{s['n']:>4}")
    frac = res["failed"] / res["attempted"]
    print(f"failed_frac   ratio   {_fmt(frac):>18}   "
          f"({res['failed']} failed / {res['attempted']} attempted)")
    d = res["diagnostics"]
    print(f"diagnostics (raw host time, not gated): raw_wall_s "
          f"{_fmt(d['raw_wall_s']['median'])} s, events_per_s "
          f"{_fmt(d['events_per_s'])} 1/s, host_ns_per_event "
          f"{_fmt(d['host_ns_per_event'])} ns over {d['events']} events; "
          f"calib_s min/median/max {_fmt(d['calib_s']['min'])}/"
          f"{_fmt(d['calib_s']['median'])}/{_fmt(d['calib_s']['max'])}")
    print(f"sim_digest {res['sim_digest']} [{res['digest_status']}]")
    for problem in res["problems"]:
        print(f"PROBLEM: {problem.strip().splitlines()[-1]}")


def print_per_layer(name: str, res: dict, units: dict) -> None:
    print(f"\n== {name}: per layer (host times in calibrated units) ==")
    for metric in sorted(res["metrics"]):
        unit = units.get(metric, "")
        print(f"  {metric:<40}{_fmt(res['metrics'][metric]):>18} {unit}")
    for problem in res["problems"]:
        print(f"PROBLEM: {problem.strip().splitlines()[-1]}")


def contract_line(res: dict, declared: list[dict], values: dict) -> str:
    """The result object of the BENCHMARK.json contract: exactly the
    declared metrics (a per-layer metric that does not apply to this
    workload reads 0)."""
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return json.dumps({
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    })


# -- entry -------------------------------------------------------------------


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print("benchmarks.layers: src/repro not found; nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(prog="benchmarks.layers", description=__doc__)
    ap.add_argument("--workload", choices=names, help="default: all of them")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="time budget of the measured repeats")
    ap.add_argument("--trace", type=int, choices=(0, 1),
                    help="0 end-to-end only, 1 per-layer only; default both")
    ap.add_argument("--repeats", type=int, default=MAX_REPEATS,
                    help="cap on repeats within the time budget")
    ap.add_argument("--quick", action="store_true",
                    help="1 repeat, 1/10 event counts, no traced run")
    ap.add_argument("--out", help="write the full result (spans included) here")
    args = ap.parse_args(argv)
    if args.quick and args.trace == 1:
        ap.error("--quick has no traced run")
    if int(os.environ.get("REPRO_WORKERS", "1") or "1") > 1:
        print("benchmarks.layers: refusing to run with REPRO_WORKERS > 1; "
              "each workload is one single-threaded process", file=sys.stderr)
        return 2

    runner = Runner(
        seed=args.seed,
        scale=QUICK_SCALE if args.quick else 1,
        seconds=args.seconds,
        repeats=1 if args.quick else args.repeats,
    )
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1) and not args.quick
    selected = [args.workload] if args.workload else names

    print("model unvalidated against hardware: the repo holds only shape "
          "comparisons with the paper, so no error figure is given")
    result: dict = {"schema": "benchmarks.layers/1", "seed": args.seed,
                    "scale": runner.scale, "workloads": {}}
    status = 0
    last = None
    runner.warm_imports()
    for name in selected:
        entry = result["workloads"].setdefault(name, {})
        try:
            if want_e2e:
                res = runner.end_to_end(name, 1 if args.quick else N_SETUP)
                res["digest_status"] = digest_status(
                    name, res["sim_digest"], args.seed, runner.scale
                )
                print_end_to_end(name, res, e2e_units)
                entry["end_to_end"] = last = res
            if want_layers:
                res = runner.per_layer(name)
                print_per_layer(name, res, layer_units)
                entry["per_layer"] = last = res
        except Unmeasured as exc:
            print(f"UNMEASURED {name}: {exc}", file=sys.stderr)
            status = 1
    result["host"] = host_info(runner)
    print(f"\nhost: {json.dumps(result['host'])}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    if status == 0 and args.workload and args.trace is not None:
        if args.trace == 0:
            medians = {k: s["median"] for k, s in last["metrics"].items()}
            print(contract_line(last, spec["end_to_end"], medians))
        else:
            print(contract_line(last, spec["per_layer"], last["metrics"]))
    return status


if __name__ == "__main__":
    sys.exit(main())
