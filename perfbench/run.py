"""unitforge benchmark: one workload, one seed, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload speech_train --seed 1 --seconds 30 --trace 0

The stack is imported from ``src/`` next to this directory; nothing is
installed. With ``--trace 0`` the run measures the end-to-end metrics
with no wrapper installed. With ``--trace 1`` it alternates untraced and
traced episodes of the same work, reports the per-layer metrics, checks
that tracing changed no loss or unit, and writes the spans to
``.perfbench/``. Either way the second-to-last line of standard output
is a JSON report of every metric named in ``perfbench/maps.json``, and
the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set up at least 3 times and for at least 1 s, and report the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("speech_train", "align_train", "speech_generate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the measured loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_stack():
    """Import unitforge from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "unitforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no unitforge sources under {SRC}")
    # one caller on a small machine: pin BLAS to one thread before numpy loads
    if "numpy" in sys.modules:
        raise SystemExit("perfbench: numpy was loaded before BLAS was pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import unitforge
    if Path(unitforge.__file__).resolve().parent != SRC / "unitforge":
        raise SystemExit(f"perfbench: imported unitforge from "
                         f"{unitforge.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = None
    sha = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "unitforge").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine": platform.machine(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


class Run:
    """Counts every checked operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok, cause):
        self.attempted += 1
        if not ok:
            self.failures.append(cause)

    def absorb(self, ep):
        self.attempted += ep.attempted
        self.failures.extend(ep.failures)


def timed_setup(wl, run):
    """One set-up. Only ``wl.setup()`` is timed; the digest of its inputs
    and its checks (``wl.inspect``) run after the clock stops."""
    t0 = perf_counter()
    st = wl.setup()
    dt = perf_counter() - t0
    digest, checks = wl.inspect(st)
    for ok, cause in checks:
        run.check(ok, cause)
    return st, dt, digest


def measure(wl, seconds, run):
    """Untraced run: repeated set-up, a warm-up, then whole episodes until
    ``seconds`` have passed (at least two, for the repeat check). The host
    kernel is timed around each set-up and each phase."""
    import hostspeed
    from workloads import Episode

    setups, first = [], None  # (set-up seconds, kernel ms, shaping stats)
    while (len(setups) < SETUP_REPEATS
           or sum(s[0] for s in setups) < SETUP_MIN_S and len(setups) < 20):
        k = hostspeed.sample()
        st, dt, digest = timed_setup(wl, run)
        setups.append((dt, (k + hostspeed.sample()) / 2, st["stats"]))
        first = first or digest
        run.check(digest == first, "setup: inputs differ between "
                  "set-ups with the same seed")
    warm = Episode()
    wl.episode(st, warm, small=True)
    run.absorb(warm)
    eps = []
    t0 = perf_counter()
    while len(eps) < 2 or perf_counter() - t0 < seconds:
        ep = Episode(host=hostspeed.sample)
        wl.episode(st, ep)
        run.absorb(ep)
        if eps:
            run.check(ep.digest() == eps[0].digest(),
                      "episode: losses or units differ from the first episode")
        eps.append(ep)
    return eps, setups


def measure_traced(wl, seconds, run):
    """Traced run: one traced set-up, then pairs of untraced and traced
    episodes of the same work until ``seconds`` have passed."""
    import hostspeed
    from tracing import Tracer
    from workloads import Episode

    st, _, digest = timed_setup(wl, run)
    setup_tracer = Tracer()
    with setup_tracer.installed():
        traced_st = wl.setup()
    run.check(wl.inspect(traced_st)[0] == digest,
              "trace: traced set-up produced different inputs")
    warm = Episode()
    wl.episode(st, warm, small=True)
    run.absorb(warm)

    eps, layers, first, log_shares = [], [], None, []
    t0 = perf_counter()
    while not layers or perf_counter() - t0 < seconds:
        plain = Episode()
        k0 = hostspeed.sample()
        w0 = perf_counter()
        wl.episode(st, plain)
        w0 = perf_counter() - w0
        k0 = (k0 + hostspeed.sample()) / 2
        run.absorb(plain)

        tracer, traced = Tracer(), Episode()
        k1 = hostspeed.sample()
        with tracer.installed():
            w1 = perf_counter()
            wl.episode(st, traced)
            w1 = perf_counter() - w1
        k1 = (k1 + hostspeed.sample()) / 2
        run.absorb(traced)
        run.check(traced.digest() == plain.digest(),
                  "trace: traced episode changed a loss or unit")
        if eps:
            run.check(plain.digest() == eps[0].digest(),
                      "episode: losses or units differ from the first episode")
        eps.append(plain)
        layer = tracer.layer_metrics(w1)
        # both walls scaled by the host speed measured around them
        layer["trace.overhead_frac"] = (w1 / k1) / (w0 / k0) - 1.0
        layers.append(layer)
        first = first or tracer
        if "dpo" in traced.phase_s:
            # train_dpo's margin/accuracy logging passes, inside the phase
            log_shares.append(layer["preference.eval_s"]
                              / traced.phase_s["dpo"])

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(setup_tracer.setup_metrics())
    extra = ({"dpo_logging_share": statistics.median(log_shares)}
             if log_shares else {})
    return eps, metrics, {"setup": setup_tracer, "episode": first}, extra


def gated_timings(wl, eps, setups, report) -> dict:
    """The end-to-end metrics of BENCHMARK.json, scaled to the reference
    host speed (hostspeed.py); the raw times go to the report."""
    import hostspeed
    from workloads import phase_ms_per_item

    values = {"setup_s": statistics.median(
        dt * hostspeed.REFERENCE_MS / k for dt, k, _ in setups)}
    for k, phase in enumerate(wl.phases, 1):
        values[f"phase{k}_ms"] = phase_ms_per_item(eps, phase)
    report["phases_raw_ms"] = {p: phase_ms_per_item(eps, p, scaled=False)
                               for p in wl.phases}
    # records that shaped() generated and the workload did not keep
    report["setup_shaping"] = {
        "generated": setups[0][2]["generated"],
        "kept": setups[0][2]["kept"],
        "discarded_share_of_setup": statistics.median(
            stats["generate_s"] * (1 - stats["kept"] / stats["generated"]) / dt
            for dt, _, stats in setups),
    }
    kernels = [k for ep in eps for k in ep.host_ms.values()]
    report["host_kernel_ms"] = {"min": min(kernels),
                                "median": statistics.median(kernels),
                                "n": len(kernels)}
    return values


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_stack()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "maps.json") as fh:
        maps = json.load(fh)

    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    run = Run()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        cls = WORKLOADS[args.workload]
        wl = (cls(args.seed, workdir) if args.workload == "speech_generate"
              else cls(args.seed))
        if args.trace:
            eps, layer, tracers, extra = measure_traced(wl, args.seconds,
                                                        run)
        else:
            eps, setups = measure(wl, args.seconds, run)

    failed = len(run.failures)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "episodes": len(eps),
        "digest": eps[0].digest(),
        "env": environment(),
        "failures": run.failures[:20],
        "quality": eps[0].quality,
        "metrics": {},
    }
    named = dict(wl.report(eps))
    named["fail_frac"] = (failed / run.attempted, run.attempted)
    if not args.trace:
        named["setup_s"] = (statistics.median(s[0] for s in setups),
                            len(setups))
    for name, (value, n) in named.items():
        spec = maps["end_to_end"][name]
        report["metrics"][name] = {"value": value, "unit": spec["unit"],
                                   "better": spec["better"], "n": n}

    if args.trace:
        values, wanted = layer, bench["per_layer"]
        path = OUT / f"trace-{args.workload}-seed{args.seed}"
        for region, tracer in tracers.items():
            tracer.dump(f"{path}.{region}.json", workload=args.workload,
                        seed=args.seed, region=region)
        report["trace_files"] = [f"{path.relative_to(ROOT)}.{r}.json"
                                 for r in tracers]
        report.update(extra)
    else:
        values = gated_timings(wl, eps, setups, report)
        wanted = bench["end_to_end"]

    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
