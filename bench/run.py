"""gnpb benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload verify_mixed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; gnpb is imported from ``src/``.
With ``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, PINNED_ENV, ROOT, child_env

WORKLOADS = ("classify_builtin", "classify_rotated", "verify_mixed", "cli")
SETUP_SAMPLES = 5  # set-up is measured in this many fresh processes; median reported
DEADLINE_S = 170   # the whole run must end within 180 s


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def worker(cfg, timeout):
    """Run one worker process; on timeout kill it with every gnpb child."""
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(cfg)],
                            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {cfg['mode']} for {cfg['workload']} timed out") from None
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        raise SystemExit(f"worker {cfg['mode']} for {cfg['workload']} failed "
                         f"(exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gnpb" / "__init__.py").is_file():
        sys.exit(f"no gnpb sources under {ROOT / 'src'}; run from a source checkout")

    start = time.perf_counter()
    cfg = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    setups = []
    if not args.trace:
        setups = [worker({**cfg, "mode": "setup"}, 60)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    mode = "traced" if args.trace else "timed"
    res = worker({**cfg, "mode": mode}, DEADLINE_S - (time.perf_counter() - start))
    setups.append(res["setup_s"])

    lat_ms = [[s * 1000 for s in lat] for lat in res["latency_s"]]
    pooled = [s for lat in lat_ms for s in lat]
    units = {m["name"]: m["unit"] for m in spec()["end_to_end" if not args.trace else "per_layer"]}
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "batch_s": statistics.median(res["pass_s"]),
            "request_ms.p90": statistics.quantiles(pooled, n=10)[-1],
            "peak_rss_mb": res["peak_rss_mb"],
        }
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"workload {args.workload} produced no value for {missing}")
    attempted, failed = res["attempted"], res["failed"]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
        "environment": res["environment"],
        "passes": len(res["pass_s"]),
        "requests": len(pooled),
        # not an end-to-end metric: see bench/README.md
        "request_ms.p50": {"value": statistics.median(statistics.median(lat) for lat in lat_ms),
                           "unit": "ms", "samples": len(lat_ms)},
        "batch_s.min": min(res["pass_s"]),
        "pass_s": res["pass_s"],
        "setup_samples": len(setups),
        "error_rate": failed / attempted,
        "errors": res["errors"],
    }
    if args.trace:
        info["trace"] = res["trace"]
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
