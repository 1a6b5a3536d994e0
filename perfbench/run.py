"""Benchmark of rm2cover: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload {verify,scan7,search,equiv} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
Operations run back to back in one thread, in whole rounds (see
``workloads.py``), until the timed operations add up to ``--seconds``.
Each output is checked outside the timed region against
``reference.json`` and the workload's own checks.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics from the
traced ones, and writes the spans to ``perfbench/out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
run manifest and a readable report.  The exit code is 1 when any output
was wrong or an operation raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from paths import BENCH, OUT, REFERENCE, ROOT, SPEC, SRC, use_source_tree

SETUP_PROBES = 31
TAIL_BEYOND = 10  # a tail percentile needs this many operations beyond it
RANGE_REPEATS = 15
CHECKS = (
    "verify_nl2_values",
    "verify_observation_1",
    "verify_profile_claims",
    "verify_remark_1",
    "lemma2_conclusion_check",
    "proposition_spot_checks",
)


def spec_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least TAIL_BEYOND operations beyond it."""
    rank = len(values) - TAIL_BEYOND
    if rank < 1:
        return None
    return {"value": sorted(values)[rank - 1], "rank": rank, "of": len(values), "percentile": 100 * rank / len(values)}


class SetupProbes:
    """Set-up time in fresh processes (``setup_probe.py``), taken between
    operations and spread over the run, so that their median sees the
    same host load as the operations."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.samples: list[float] = []

    def until(self, share: float) -> None:
        """Take probes until ``share`` of the SETUP_PROBES have been taken."""
        while len(self.samples) < math.ceil(SETUP_PROBES * min(share, 1.0)):
            done = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py")],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
            )
            if done.returncode:
                raise SystemExit(f"benchmark: set-up process failed:\n{done.stderr}")
            self.samples.append(float(done.stdout.split()[-1]))


def manifest(args, w, keys: list[tuple]) -> dict:
    import numpy
    import workloads

    sources = sorted(SRC.rglob("*.py"))
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "work_unit": w.unit,
        "inputs": [{"key": workloads.key_text(k), **w.params(k)} for k in keys],
    }


class Run:
    """The operations of one run, their times and their failures."""

    def __init__(self, w, reference: dict[str, str]):
        self.w = w
        self.reference = reference
        self.keys: list[tuple] = []
        self.times: list[float] = []
        self.work: list[int] = []
        self.traced: list[bool] = []
        self.outputs: list = []  # (input, output) of the traced operations
        self.failures: list[str] = []
        self.round_ends: list[int] = []  # operation count at the end of each round
        self.extra_checks = 0  # checks that are not timed operations

    def op(self, key: tuple, tracer=None) -> None:
        import workloads

        w = self.w
        inp = w.make_input(key)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = w.run(inp)
                elapsed = time.perf_counter() - start
            else:
                with tracer.installed():
                    start = time.perf_counter()
                    out = w.run(inp)
                    elapsed = time.perf_counter() - start
        except Exception as exc:  # a raising operation is a failed operation; the run goes on
            self.record(key, time.perf_counter() - start, 0, tracer is not None)
            self.failures.append(f"{workloads.key_text(key)}: raised {type(exc).__name__}: {exc}")
            return
        try:
            work = w.work(out)
            problems = w.check(inp, out)
            got = workloads.digest(w.canonical(out))
        except Exception as exc:  # output too malformed to check
            self.record(key, elapsed, 0, tracer is not None)
            self.failures.append(f"{workloads.key_text(key)}: checking raised {type(exc).__name__}: {exc}")
            return
        self.record(key, elapsed, work, tracer is not None)
        want = self.reference.get(workloads.key_text(key))
        if got != want:
            problems.append(f"output digest {got}, reference {want}")
        if problems:
            self.failures.append(f"{workloads.key_text(key)}: {'; '.join(problems)}")
        elif tracer is not None:
            self.outputs.append((inp, out))

    def record(self, key: tuple, seconds: float, work: int, traced: bool) -> None:
        self.keys.append(key)
        self.times.append(seconds)
        self.work.append(work)
        self.traced.append(traced)

    def rate(self, traced: bool) -> float:
        times = [t for t, tr in zip(self.times, self.traced) if tr == traced]
        work = [k for k, tr in zip(self.work, self.traced) if tr == traced]
        return sum(work) / sum(times) if times else 0.0

    def round_rates(self) -> list[float]:
        """Work per second of each whole round; every round has the same mix."""
        bounds = [0, *self.round_ends]
        return [sum(self.work[a:b]) / sum(self.times[a:b]) for a, b in zip(bounds, bounds[1:])]


def run_rounds(run: Run, seed: int, seconds: float, tracer=None, setup: SetupProbes | None = None) -> None:
    """Whole rounds until the timed operations reach ``seconds``; with a
    tracer, every second round is traced, so both halves have the same mix.
    Set-up probes run between operations and keep pace with the timed
    share of the run."""
    for keys in run.w.rounds(seed):
        for key in keys:
            traced = tracer is not None and len(run.round_ends) % 2 == 1
            run.op(key, tracer if traced else None)
            if setup is not None and seconds > 0:
                setup.until(sum(run.times) / seconds)
        run.round_ends.append(len(run.times))
        if sum(run.times) >= seconds and (tracer is None or tracer.ops):
            if setup is not None:
                setup.until(1.0)
            return


def range_times(n: int) -> float:
    """Warm, isolated time of one 2048-coset range at n, median of repeats."""
    from rm2cover import catalog, core, quadratic

    six = catalog.catalog_function("fun_6")
    f = six if n == 6 else core.concatenate(catalog.catalog_function("fun_4"), six)
    blocks = (1 << (n * (n - 1) // 2)) // 2048
    quadratic.coset_nonlinearities(f, 0, 2048)
    samples = []
    for i in range(RANGE_REPEATS):
        s = 2048 * (i % blocks)
        start = time.perf_counter()
        quadratic.coset_nonlinearities(f, s, s + 2048)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def search_extras(run: Run) -> dict[str, float]:
    """Orbit membership of the first candidate half of each traced
    operation, and the threads=2 speed-up on the run's first input, whose
    record stream must equal the one-thread stream."""
    import dataclasses

    import numpy as np
    import workloads
    from rm2cover import affine, catalog, core, quadratic

    members = []
    for cfg, (_, records) in run.outputs:
        rec = records[0]
        fun = catalog.catalog_function(f"fun_{cfg.i2}")
        x = (np.arange(64)[:, None] >> np.arange(6)) & 1
        linear = core.TruthTable(6, ((x @ [(rec.linear_mask >> v) & 1 for v in range(6)]) & 1).astype(np.uint8))
        half = affine.apply_affine(fun, rec.map) ^ quadratic.QuadraticForm(6, rec.quad_index).truth_table() ^ linear
        members.append(affine.equivalence_search(fun, half).status == affine.FOUND)

    cfg = run.w.make_input(run.keys[0])
    streams, times = [], []
    for threads in (1, 2):
        start = time.perf_counter()
        out = run.w.run(dataclasses.replace(cfg, threads=threads))
        times.append(time.perf_counter() - start)
        streams.append(workloads.digest(run.w.canonical(out)))
    run.extra_checks += 1
    if streams[0] != streams[1]:
        run.failures.append(f"threads=2 record stream {streams[1]} differs from threads=1 {streams[0]}")
    return {
        "search.orbit_member_share": sum(members) / len(members) if members else 0.0,
        "search.threads2_speedup": times[0] / times[1],
    }


def layer_metrics(run: Run, tracer) -> dict[str, float]:
    from spans import ROOT as ROOT_SPAN

    self_s, wall_s, calls = tracer.self_times()
    ops = max(tracer.ops, 1)
    counts = tracer.counts
    values = dict.fromkeys(spec_units("per_layer"), 0.0)
    for name in calls:
        if name != ROOT_SPAN:
            values[f"{name}.calls"] = calls[name] / ops
            values[f"{name}.self_s"] = self_s[name] / ops
    for check in CHECKS:
        values[f"claims.{check}.wall_s"] = wall_s.get(f"claims.{check}", 0.0) / ops
    for name, count in counts.items():
        if name in values:
            values[name] = count / ops
    values["quadratic.repeat_input_share"] = counts["quadratic.repeat_inputs"] / max(counts["quadratic.scan_calls"], 1)
    values["search.cond2_pass_rate"] = counts["search.cond2_passes"] / max(counts["search.candidates"], 1)
    for n in (7, 6):
        points = 2048 << n
        values[f"quadratic.range2048_n{n}_s"] = range_times(n)
        values[f"quadratic.range2048_n{n}_butterflies_computed"] = points * n
        # every butterfly stage reads and writes the whole int16 block
        values[f"quadratic.range2048_n{n}_int16_bytes_computed"] = n * 2 * points * 2
    values["trace.ops"] = tracer.ops
    traced_rate = run.rate(True)
    values["trace.overhead"] = run.rate(False) / traced_rate - 1 if traced_rate else 0.0
    root = wall_s[ROOT_SPAN]
    values["trace.layer_share"] = (sum(self_s.values()) - self_s[ROOT_SPAN]) / root if root else 0.0
    if run.w.name == "search":
        values.update(search_extras(run))
    return values


def write_spans(tracer, workload: str, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": tracer.spans}))


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "scan7", "search", "equiv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    import workloads
    from setup_probe import lazy_setup
    from spans import ROOT as ROOT_SPAN
    from spans import Tracer

    with open(REFERENCE) as handle:
        reference = json.load(handle)[args.workload]
    w = workloads.WORKLOADS[args.workload]
    lazy_setup()

    run = Run(w, reference)
    tracer = Tracer() if args.trace else None
    setup = None if args.trace else SetupProbes()
    run_rounds(run, args.seed, args.seconds, tracer, setup)
    print("manifest " + json.dumps(manifest(args, w, run.keys)))

    if args.trace:
        values = layer_metrics(run, tracer)
        units = spec_units("per_layer")
        write_spans(tracer, w.name, args.seed)
        for name, value in values.items():
            print(f"{name:58s} {fmt(value)} {units[name]}")
        untraced = [t for t, traced in zip(run.times, run.traced) if not traced]
        if untraced:
            self_s, _, _ = tracer.self_times()
            layers = (sum(self_s.values()) - self_s[ROOT_SPAN]) / tracer.ops
            plain = sum(untraced) / len(untraced)
            print(
                f"accounting   wrapped-layer self time {fmt(layers)} s per traced operation, untraced operation"
                f" {fmt(plain)} s: {layers / plain - 1:+.2%} (trace.overhead {values['trace.overhead']:+.2%})"
            )
    else:
        q1, p50, q3 = quartiles(run.times)
        s1, s50, s3 = quartiles(setup.samples)
        op_tail = tail(run.times)
        values = {
            "setup_s": s50,
            "work_per_s": statistics.median(run.round_rates()),
            "op_p50_s": p50,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = spec_units("end_to_end")
        print(
            f"setup_s      {fmt(s50)} s  (median of {len(setup.samples)} fresh processes spread over the run;"
            f" quartiles {fmt(s1)} .. {fmt(s3)})"
        )
        r1, _, r3 = quartiles(run.round_rates())
        print(
            f"work_per_s   {fmt(values['work_per_s'])} 1/s  ({w.unit}/s, median of {len(run.round_ends)} rounds"
            f" of {len(run.times)} operations; quartiles {fmt(r1)} .. {fmt(r3)})"
        )
        print(f"op_p50_s     {fmt(p50)} s  (n={len(run.times)}; quartiles {fmt(q1)} .. {fmt(q3)})")
        if op_tail:
            print(f"op_tail_s    {fmt(op_tail['value'])} s  (p{op_tail['percentile']:.1f}: rank {op_tail['rank']} of {op_tail['of']})")
        else:
            print(f"op_tail_s    undefined  (needs more than {TAIL_BEYOND} operations, ran {len(run.times)})")
        print(f"peak_rss_mb  {fmt(values['peak_rss_mb'])} MB")
    attempted = len(run.times) + run.extra_checks
    failed = len(run.failures)
    print(f"error_rate   {fmt(failed / attempted)}  ({failed} of {attempted} operations failed a check or raised)")
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
