#!/usr/bin/env python3
"""silentcert benchmark: one command, four workloads, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `repro` (the program under
test) and `perfbench` (the harness in perfbench/harness) into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks the
program's outputs, prints a table of every metric with its unit and the
workload's input properties, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(a separate traced run). Workloads, metric definitions and bounds are in
BENCHMARK.json; perfbench/README.md explains each.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# A workload whose path skips a layer reports 0 for it.
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Measured and printed every run, but not bounded: on a shared 2-core
# machine their run-to-run spread exceeds the largest bound BENCHMARK.json
# allows (see README.md).
UNBOUNDED_UNITS = {
    "p50_ms": "ms",
    "p99_ms": "ms",
    "sustained_rps": "1/s",
}

# Share of wall_s the traced pipeline stages must account for.
PIPELINE_TOLERANCE = 0.15


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(code)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for args in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "silentcert-repro"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")],
    ):
        if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
            fail("no Cargo.toml at the checkout root: nothing to build")
        r = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(args)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "repro"), os.path.join(release, "perfbench")


def run_timed(args, stdout):
    """Run a command; return (exit code, wall s, CPU s, peak RSS MiB, stderr)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(args, stdout=stdout, stderr=subprocess.PIPE, cwd=ROOT)
    err = p.stderr.read()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    cpu = usage.ru_utime + usage.ru_stime
    return p.returncode, wall, cpu, usage.ru_maxrss / 1024.0, err.decode(errors="replace")


def digest_corpus(d):
    """SHA-256 over the corpus files, and the observation count (the
    non-comment lines of scans.csv)."""
    h = hashlib.sha256()
    observations = 0
    for n in ("certs.pem", "scans.csv", "roots.pem"):
        with open(os.path.join(d, n), "rb") as f:
            for line in f:
                h.update(line)
                if n == "scans.csv" and not line.startswith(b"#"):
                    observations += 1
    return h.hexdigest(), observations


def pipeline_pass(repro, seed, corpus):
    """repro scan + repro all --corpus: (wall, scan wall, CPU, rss,
    stdout digest, corpus digest, observations, problems)."""
    shutil.rmtree(corpus, ignore_errors=True)
    problems = []
    code, t_scan, cpu_scan, rss_scan, err = run_timed(
        [repro, "scan", corpus, "--scale", "small", "--seed", str(seed)], subprocess.DEVNULL)
    if code != 0:
        problems.append(f"repro scan exited {code}: {err[-300:]}")
    out_path = corpus + ".stdout"
    with open(out_path, "wb") as out:
        code, t_all, cpu_all, rss_all, err = run_timed([repro, "all", "--corpus", corpus], out)
    if code != 0:
        problems.append(f"repro all exited {code}: {err[-300:]}")
    with open(out_path, "rb") as f:
        out_digest = hashlib.sha256(f.read()).hexdigest()
    corpus_digest, observations = digest_corpus(corpus) if not problems else ("", 0)
    return (t_scan + t_all, t_scan, cpu_scan + cpu_all, max(rss_scan, rss_all), out_digest,
            corpus_digest, observations, problems)


def run_pipeline(repro, perfbench, seed, seconds, trace, workdir):
    # The pipeline's set-up is its `repro scan`: building the world, the
    # corpus and the trust store. setup_s is its median over the passes;
    # wall_s covers scan and analysis together.
    walls, setups, cpus, rss, outs, corpora, problems = [], [], [], [], set(), set(), []
    observations = 0
    t_start = time.perf_counter()
    reps = 1 if trace else 2
    while len(walls) < reps or (not trace and time.perf_counter() - t_start < seconds):
        wall, scan, cpu, peak, out_d, corpus_d, obs, probs = pipeline_pass(
            repro, seed, os.path.join(workdir, "corpus"))
        walls.append(wall)
        setups.append(scan)
        cpus.append(cpu)
        rss.append(peak)
        outs.add(out_d)
        corpora.add(corpus_d)
        observations = obs
        problems += probs
    if len(outs) != 1:
        problems.append("repro all stdout differs between runs of one seed")
    if len(corpora) != 1:
        problems.append("repro scan corpus differs between runs of one seed")
    if observations == 0:
        problems.append("repro scan reported no observations")
    wall = statistics.median(walls)
    report = {
        "samples": f"{len(walls)} passes, wall_s each {[round(w, 3) for w in walls]}, "
                   f"setup_s each {[round(t, 3) for t in setups]}, "
                   f"repro all stdout sha256 {sorted(outs)[0][:16]}",
        "properties": {"why": WHY["pipeline"], "scale": "small", "observations": observations},
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "p50_ms": wall * 1e3,
        "p99_ms": max(walls) * 1e3,
        "sustained_rps": observations / wall,
        "cpu_us_per_op": statistics.median(cpus) * 1e6 / max(observations, 1),
        "peak_rss_mb": max(rss),
    }
    layer = {name: 0.0 for name in LAYER_UNITS}
    if trace:
        spans = os.path.join(workdir, "spans.jsonl")
        traced_dir = os.path.join(workdir, "traced")
        r = subprocess.run(
            [perfbench, "pipeline-layers", "--seed", str(seed), "--dir", traced_dir, "--spans", spans],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if r.returncode != 0:
            fail("traced pipeline run failed", 1)
        shutil.rmtree(traced_dir, ignore_errors=True)
        pl = json.loads(r.stdout.strip().splitlines()[-1])
        for name, s in pl["stages"].items():
            layer[f"{name}_s"] = s
        attributed = pl["attributed_s"]
        layer["pipeline.unattributed_s"] = wall - attributed
        layer["trace.overhead_pct"] = (pl["traced_s"] - wall) / wall * 100.0
        report["layers_account_share"] = attributed / wall
        report["layers_within_tolerance"] = abs(wall - attributed) <= PIPELINE_TOLERANCE * wall
        report["spans"] = os.path.relpath(spans, ROOT)
    return metrics, layer, report, len(walls), len(problems), problems


def run_serve(repro, perfbench, name, seed, seconds, trace, workdir):
    r = subprocess.run(
        [perfbench, "serve", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1" if trace else "0", "--repro", repro, "--workdir", workdir],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"{name} run failed", 1)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    fixed = out["fixed"]
    metrics = {
        "setup_s": statistics.median(out["setup_s"]),
        "wall_s": fixed["span_s"],
        "p50_ms": fixed["p50_ms"],
        "p99_ms": fixed["p99_window_median_ms"],
        "sustained_rps": out["sustained_rps"],
        "cpu_us_per_op": out["cpu_us_per_op"],
        "peak_rss_mb": out["peak_rss_mb"],
    }
    layer = {n: out["layer"].get(n, 0.0) for n in LAYER_UNITS}
    props = dict(out["properties"], why=WHY[name])
    report = {
        "fixed": fixed,
        "error_share": fixed["errors"] / max(fixed["attempted"], 1),
        "rungs": [dict(r["stats"], pass_=r["pass"]) for r in out["rungs"]],
        "samples": f"setup_s each {[round(t, 3) for t in out['setup_s']]}",
        "notes": out["notes"],
        "properties": props,
    }
    if trace:
        report["spans"] = os.path.relpath(os.path.join(workdir, "spans.jsonl"), ROOT)
    problems = list(out["problems"])
    if out["wrong_answers"]:
        problems.append(f"{out['wrong_answers']} answers differ from in-process classify")
    return metrics, layer, report, out["attempted"], out["failed"], problems


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    repro, perfbench = build()
    workdir = os.path.join(ROOT, ".perfbench", f"{a.workload}-{a.seed}-{a.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if a.workload == "pipeline":
        res = run_pipeline(repro, perfbench, a.seed, a.seconds, a.trace, workdir)
    else:
        res = run_serve(repro, perfbench, a.workload, a.seed, a.seconds, a.trace, workdir)
    metrics, layer, report, attempted, failed, problems = res
    # Keep only the spans; drop corpora, journals and daemon logs.
    for entry in os.listdir(workdir):
        path = os.path.join(workdir, entry)
        if entry != "spans.jsonl":
            shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    if not os.listdir(workdir):
        os.rmdir(workdir)

    print(f"# workload {a.workload}  seed {a.seed}  trace {a.trace}: {WHY[a.workload]}")
    print("# properties: " + json.dumps(report.pop("properties")))
    if a.trace:
        chosen = {n: (layer[n], LAYER_UNITS[n]) for n in LAYER_UNITS}
    else:
        chosen = {n: (metrics[n], E2E_UNITS[n]) for n in E2E_UNITS}
        if "fixed" in report:
            f = report["fixed"]
            print(f"# fixed rate {f['offered_rps']:.0f}/s: {f['attempted']} requests, "
                  f"p50 from {f['ok']} answers; p99 the median of window p99s {[round(v, 3) for v in f['window_p99_ms']]} "
                  f"(overall p99 {f['p99_ms']:.3f} ms, {f['beyond_p99']} beyond it), "
                  f"error_share {report['error_share']:.4g}, lag p99 {f['lag_p99_ms']:.3f} ms, "
                  f"Little ratio {f['little_ratio']:.2f}")
            for r in report["rungs"]:
                print(f"#   rung {r['offered_rps']:.0f}/s: achieved {r['achieved_rps']:.0f}/s, "
                      f"p99 {fmt(r['p99_ms'])} ms, errors {r['errors']}, "
                      f"{'pass' if r['pass_'] else 'fail'} {'; '.join(r['invalid'])}")
    for note in report.get("notes", []):
        print(f"# note: {note}")
    for k in ("samples", "layers_account_share", "layers_within_tolerance", "spans"):
        if k in report:
            print(f"# {k}: {report[k]}")
    if not a.trace:
        for name, unit in UNBOUNDED_UNITS.items():
            print(f"# {name:32s} {fmt(metrics[name]):>14s} {unit}  (not bounded)")
    for name, (value, unit) in chosen.items():
        print(f"{name:34s} {fmt(value):>14s} {unit}")
    for p in problems:
        print(f"# INCORRECT: {p}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
