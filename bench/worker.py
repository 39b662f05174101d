"""One workload process.  Started by run.py; prints one JSON line.

    python3 bench/worker.py '{"workload": ..., "seed": ..., "seconds": ..., "mode": ...}'

``mode`` is ``setup`` (set up once and report the time), ``timed``
(untraced passes) or ``traced`` (untraced passes, then traced set-up and
passes, giving per-layer figures and the tracing overhead).
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

T0 = perf_counter()

import tracing  # noqa: E402  (stdlib only; set-up starts at T0)
import workloads  # noqa: E402

CLI_ROUNDS = 3  # samples of each process timed for the cli.* layer figures


def attempt(req, run=None):
    """Run one request; a raised exception is an answer that fails its check."""
    try:
        return (run or req.run)(), None
    except Exception as exc:  # noqa: BLE001 - every request error is counted, not fatal
        return None, f"{req.label}: raised {type(exc).__name__}: {exc}"


def judge(req, answer):
    """Mismatch text for one (answer, error) pair, or None."""
    ans, err = answer
    if err:
        return err
    try:
        return req.check(ans)
    except Exception as exc:  # noqa: BLE001 - an answer the key cannot read is wrong
        return f"{req.label}: unreadable answer ({type(exc).__name__}: {exc})"


def run_passes(wl, seconds, runner=None):
    """Whole passes over the request list for about ``seconds``.

    Another pass starts while at least half a median pass fits before the
    deadline, so a run lasts ``seconds`` give or take half a pass.
    Returns (pass times, per-pass lists of (label, latency s), errors).
    Answers are checked after each pass, outside the timed region.
    """
    runner = runner or (lambda pass_idx, req: attempt(req))
    deadline = perf_counter() + seconds
    pass_s, latencies, errors = [], [], []
    while not pass_s or perf_counter() + statistics.median(pass_s) / 2 < deadline:
        answers, lat = [], []
        start = perf_counter()
        for req in wl.requests:
            t = perf_counter()
            answers.append(runner(len(pass_s), req))
            lat.append((req.label, perf_counter() - t))
        pass_s.append(perf_counter() - start)
        latencies.append(lat)
        errors.extend(judge(req, ans) for req, ans in zip(wl.requests, answers))
    return pass_s, latencies, errors


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
    }


def subcommand(label):
    return next(a for a in label.split() if not a.startswith("--"))


def cli_layers(latencies, errors):
    """cli.interpreter_s, cli.import_s and cli.command_s.<subcommand>.

    On the cli workload the command times are its own untraced requests;
    elsewhere the cheap ``CLI_PROBE`` commands are timed, interleaved with
    the interpreter and import baselines so that drift hits all alike.
    """
    rounds = {"pass": [], "import gnpb": []}
    probe = [] if latencies else workloads.CLI_PROBE
    for _ in range(CLI_ROUNDS):
        for code, times in rounds.items():
            t = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=workloads.ROOT,
                           env=workloads.child_env(), capture_output=True, timeout=60, check=True)
            times.append(perf_counter() - t)
        for argv in probe:
            t = perf_counter()
            code, _ = workloads.run_gnpb(argv)
            latencies.append((" ".join(argv), perf_counter() - t))
            if code != 0:
                errors.append(f"probe gnpb {' '.join(argv)}: exit {code}")
    interp = statistics.median(rounds["pass"])
    imp = statistics.median(rounds["import gnpb"]) - interp
    by_sub = {}
    for label, s in latencies:
        by_sub.setdefault(subcommand(label), []).append(s)
    out = {"cli.interpreter_s": interp, "cli.import_s": imp}
    for sub, times in sorted(by_sub.items()):
        out[f"cli.command_s.{sub}"] = statistics.median(times) - interp - imp
    return out


def traced_layers(cfg, wl, untraced, errors):
    """Per-layer figures from a traced set-up and traced passes.

    Returns (layers, notes, requests attempted).  ``untraced`` is the
    (pass times, latencies) of the untraced passes run just before.
    """
    tracer = tracing.Tracer()
    span_dir = workloads.ROOT / ".bench_trace"
    span_dir.mkdir(exist_ok=True)
    cli_files = []

    def traced_runner(pass_idx, req):
        if req.traced_run is None:
            with tracer.request_span((pass_idx, req.label)):
                return attempt(req)
        path = span_dir / f"cli-{pass_idx}-{len(cli_files)}.jsonl"
        cli_files.append((pass_idx, req.label, path))
        return attempt(req, lambda: req.traced_run(path))

    with tracer.installed():
        with tracer.request_span("setup"):
            traced_wl = workloads.SETUP[cfg["workload"]](cfg["seed"])
        errors.extend(traced_wl.setup_errors)
        pass_s, latencies, errs = run_passes(traced_wl, cfg["seconds"] / 2, traced_runner)
        errors.extend(errs)
        with tracer.request_span("probe"):
            probe = workloads.probe_requests()
        for req in probe:
            with tracer.request_span(("probe", req.label)):
                errors.append(judge(req, attempt(req)))
    tracer.dump(span_dir / f"{cfg['workload']}-seed{cfg['seed']}.jsonl")

    by_request = tracing.layer_metrics(tracer.spans)
    for pass_idx, label, path in cli_files:
        if not path.exists():  # the process failed; its check already counted it
            continue
        by_request[(pass_idx, label)] = tracing.layer_metrics(tracing.load_spans(path)).get(0, {})
        path.unlink()
    groups = {}
    for key, metrics in by_request.items():
        group = groups.setdefault(key if isinstance(key, str) else key[0], Counter())
        group.update(metrics)

    setup, probe_m = groups.get("setup", Counter()), groups.get("probe", Counter())
    passes = [groups.get(i, Counter()) for i in range(len(pass_s))]
    layers, from_probe = {}, []
    for metric, unit in tracing.SPAN_METRICS.items():
        vals = [p[metric] for p in passes]
        if unit != "s" and len(set(vals)) > 1:
            errors.append(f"{metric} differs between traced passes: {vals}")
        value = setup[metric] + (statistics.median(vals) if unit == "s" else vals[0])
        if value == 0:
            value = probe_m[metric]
            from_probe.append(metric)
        layers[metric] = value

    cli = cli_layers([x for lat in untraced[1] for x in lat] if wl.name == "cli" else [], errors)
    if wl.name != "cli":
        from_probe.extend(cli)
    layers.update(cli)
    untraced_batch, traced_batch = statistics.median(untraced[0]), statistics.median(pass_s)
    layers["trace.overhead_s"] = traced_batch - untraced_batch
    notes = {
        "traced_batch_s": traced_batch,
        "traced_passes": len(pass_s),
        "overhead_share": layers["trace.overhead_s"] / untraced_batch,
        "probe_filled": from_probe,
        "opm_solution_space_calls_per_request": {
            key[1]: m.get("opm.opm_solution_space.calls", 0)
            for key, m in by_request.items()
            if isinstance(key, tuple) and key[0] == 0 and "opm.opm_solution_space.calls" in m},
    }
    return layers, notes, sum(map(len, latencies)) + traced_wl.setup_checks + len(probe)


def main():
    cfg = json.loads(sys.argv[1])
    wl = workloads.SETUP[cfg["workload"]](cfg["seed"])
    attempt(wl.warmup)
    setup_s = perf_counter() - T0
    if cfg["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    seconds = cfg["seconds"] / (2 if cfg["mode"] == "traced" else 1)
    pass_s, latencies, errors = run_passes(wl, seconds)
    errors.extend(wl.setup_errors)
    out = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "latency_s": [[s for _, s in lat] for lat in latencies],
        "attempted": sum(map(len, latencies)) + wl.setup_checks,
        "environment": environment(),
    }
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    if cfg["mode"] == "traced":
        out["layers"], out["trace"], extra = traced_layers(
            cfg, wl, (pass_s, latencies), errors)
        out["attempted"] += extra
    errors = [e for e in errors if e]
    out["failed"] = len(errors)
    out["errors"] = errors[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
