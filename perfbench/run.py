"""Seeded end-to-end benchmark of projdiff's constrained sampling.

Run from the repository root:

    python3 perfbench/run.py --workload linear --seed 0 --seconds 20 --trace 0

One process, one caller, closed loop: each call into the sampling API
starts after the previous one returns.  The run repeats whole rounds of
its workload's calls until --seconds have passed, checks every output
with code of its own (see checks.py) and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  An
operation is one requested sample; a call that raises fails all of its
samples, and an emitted sample that fails a check fails itself.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs the same kind of rounds with per-layer spans around the
calls into each module (tracer.py), each followed by the same round
untraced to measure the tracing overhead, and reports the per-layer
metrics.  Per-layer counts and times are given per requested sample so
that runs of different speed compare.  Full details of each run go to
perfbench/results/.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread: the matrices here are tiny, and a fixed thread
# count keeps runs comparable across machines with different core counts.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import Bigram, as_ids, sample_ok  # noqa: E402
from workloads import WORKLOADS, Program  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Set-up is timed in fresh processes, since importing is what dominates
# it and a module imports once per process.  The probes are spread over
# the run, between calls, so that their median covers the machine's
# slow and fast spells rather than the few seconds one batch would take.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
PPL_RTOL = 1e-12

# Machine-speed calibration.  On a shared machine the same code runs up
# to ~40% slower for tens of seconds at a time while other tenants load
# the cores, and neither CPU time nor steal time shows it.  Right after
# each timed call the benchmark runs fixed blocks of interpreter and
# small-array work for CALIB_SHARE of the call's time (CALIB_MIN_S at
# least), and rescales the call's time by CALIB_REF_S / (mean block
# time): the time the call would have taken at the speed at which a
# block takes CALIB_REF_S, about its time on an idle 2-core x86 VM.
# Set-up is not rescaled: its probes are too short for the blocks that
# follow them to tell their speed.
CALIB_SHARE = 0.05
CALIB_MIN_S = 0.05
CALIB_REF_S = 0.0002
_CALIB_ROWS = np.random.default_rng(0).random((16, 13))


def calibration_block() -> float:
    """Fixed work of the kind the program does: small sorts, gathers, tuples."""
    acc = 0.0
    for i in range(24):
        row = _CALIB_ROWS[i % 16]
        order = np.argsort(-row, kind="stable")
        key = tuple(int(v) for v in order[:8])
        acc += float(row[order[0]]) + len({key: i})
    return acc


def speed_scale(seconds: float) -> float:
    """Run calibration blocks for about `seconds`; returns CALIB_REF_S / mean block time."""
    seconds = max(seconds, CALIB_MIN_S)
    spent = 0.0
    blocks = 0
    while spent < seconds:
        start = time.perf_counter()
        calibration_block()
        spent += time.perf_counter() - start
        blocks += 1
    return CALIB_REF_S * blocks / spent


END_TO_END_UNITS = {"samples_per_s": "samples/s", "setup_s": "s", "peak_rss_mb": "MB", "mean_perplexity": "perplexity"}


def import_program():
    """Import projdiff from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "projdiff" / "__init__.py").is_file():
        sys.exit(f"perfbench: no projdiff sources under {src}")
    sys.path.insert(0, str(src))
    import projdiff

    if Path(projdiff.__file__).resolve().parent != (src / "projdiff").resolve():
        sys.exit(f"perfbench: imported projdiff from {projdiff.__file__}, not from {src}")
    return projdiff


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a process until it could begin sampling."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()}")
    return elapsed


class Pass:
    """Accumulated outcome of the rounds of one measuring pass."""

    def __init__(self, pd, program: Program, seed: int):
        self.pd = pd
        self.program = program
        self.seed = seed
        self.bigrams = {k: Bigram(s.entries(), s.vocab_size) for k, s in program.workload.corpora.items()}
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.sampling_s = 0.0
        self.ppl_sum = 0.0
        self.ppl_count = 0
        self.ppl_mismatches = 0
        self.claims = 0
        self.claim_samples = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.call_s: list[float] = []
        self.scaled_s = 0.0
        self.call_scale: list[float] = []
        self.started = time.perf_counter()
        self.between_calls = None  # called with the seconds since run_for began

    def run_round(self) -> None:
        workload = self.program.workload
        for index, rng_seed in enumerate(workload.call_seeds(self.seed, self.rounds)):
            call = workload.calls[index]
            start = time.perf_counter()
            try:
                seqs, db = self.program.run_call(index, rng_seed)
            except Exception as exc:  # a raising call fails all its samples
                seqs, db = None, None
                self.errors.append(f"round {self.rounds} {call.label}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
            self.sampling_s += elapsed
            self.call_s.append(elapsed)
            scale = speed_scale(CALIB_SHARE * elapsed)
            self.scaled_s += elapsed * scale
            self.call_scale.append(scale)
            self.attempted += call.num_samples
            self._check(call, seqs, db)
            if self.between_calls is not None:
                self.between_calls(time.perf_counter() - self.started)
        self.rounds += 1

    def _check(self, call, seqs, db) -> None:
        spec = self.program.workload.corpora[call.corpus]
        ids = as_ids(seqs, spec.length) if seqs is not None else None
        if ids is None or ids.shape[0] != call.num_samples:
            self.failed += call.num_samples
            self.digests.append("failed")
            return
        self.digests.append(hashlib.sha256(ids.tobytes()).hexdigest())
        ok = sample_ok(self.program.workload, call, ids)
        self.failed += int((~ok).sum())
        if db is not None:
            self.claims += len(db) - spec.n_entries
            self.claim_samples += call.num_samples
        if not ok.any():
            return
        ppl = self.bigrams[call.corpus].perplexities(ids[ok])
        kept = [s for s, good in zip(seqs, ok) if good]
        ref = self.pd.summarize(kept, self.program.corpora[call.corpus])["mean_perplexity"]
        if abs(float(ppl.mean()) - ref) > PPL_RTOL * abs(ref):
            self.ppl_mismatches += 1
        self.ppl_sum += float(ppl.sum())
        self.ppl_count += ppl.shape[0]

    def run_for(self, seconds: float) -> None:
        self.started = time.perf_counter()
        self.run_round()
        while time.perf_counter() - self.started < seconds:
            self.run_round()

    def run_rounds(self, rounds: int) -> None:
        while self.rounds < rounds:
            self.run_round()

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    def summary(self) -> dict:
        return {
            "rounds": self.rounds,
            "attempted": self.attempted,
            "failed": self.failed,
            "sampling_s": self.sampling_s,
            "call_s": self.call_s,
            "call_speed_scale": self.call_scale,
            "scaled_sampling_s": self.scaled_s,
            "perplexity_mismatches": self.ppl_mismatches,
            "errors": self.errors,
        }


def end_to_end(pd, program: Program, args) -> tuple[Pass, dict, dict, bool]:
    setup: list[float] = []

    def probe_when_due(elapsed: float) -> None:
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(probe_setup(args.workload, args.seed))

    run = Pass(pd, program, args.seed)
    run.between_calls = probe_when_due
    run.run_for(args.seconds)
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup(args.workload, args.seed))
    values = {
        "samples_per_s": run.passed / run.scaled_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_perplexity": run.ppl_sum / run.ppl_count if run.ppl_count else float("nan"),
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {"pass": run.summary(), "setup_probes_s": setup}
    return run, metrics, detail, run.ppl_mismatches == 0


def projected_steps(call) -> int:
    """Projection calls one chain needs at one try per step.

    Every step projects in "alm" mode (project_every=1, project_start=0),
    only the final step in "novelty" mode, none with projection off.
    """
    return {"alm": call.steps, "novelty": 1, "none": 0}[call.mode]


def per_layer(pd, program: Program, args) -> tuple[Pass, dict, dict, bool]:
    from tracer import Tracer

    # Traced and untraced rounds alternate, each traced round followed by
    # the same round untraced, so that the overhead compares two passes
    # over the same work at nearly the same machine speed.
    tracer = Tracer(pd)
    traced = Pass(pd, program, args.seed)
    plain = Pass(pd, program, args.seed)
    fallbacks = 0
    start = time.perf_counter()
    while traced.rounds == 0 or time.perf_counter() - start < args.seconds:
        before = sum(d.fallback_count for d in program.denoisers.values())
        with tracer:
            traced.run_round()
        fallbacks += sum(d.fallback_count for d in program.denoisers.values()) - before
        plain.run_round()

    layers = tracer.layers
    counters = tracer.counters
    n = traced.attempted

    def calls(layer: str) -> float:
        return layers[layer].calls / n if layer in layers else 0.0

    def busy(layer: str) -> float:
        return layers[layer].busy_s / n if layer in layers else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    expected = traced.rounds * sum(c.num_samples * projected_steps(c) for c in program.workload.calls)
    values = {
        "denoiser.calls": calls("denoiser"),
        "denoiser.busy_s": busy("denoiser"),
        "denoiser.fallbacks": fallbacks / n,
        "denoiser.exact_frac": ratio(counters["states"] - fallbacks, counters["states"]),
        "noise.mixture_calls": calls("noise"),
        "noise.mixture_s": busy("noise"),
        "rowops.calls": calls("rowops"),
        "rowops.busy_s": busy("rowops"),
        "projection.calls": calls("projection"),
        "projection.busy_s": busy("projection"),
        "projection.unchanged": counters["unchanged"] / n,
        "projection.infeasible": counters["infeasible"] / n,
        "projection.kl_moved": ratio(counters["kl_moved"], layers["projection"].calls),
        "alm.outer_iters": counters["outer_iters"] / n,
        "alm.gradient_calls": calls("alm.gradient"),
        "alm.gradient_s": busy("alm.gradient"),
        "search.calls": calls("search"),
        "search.busy_s": busy("search"),
        "flipcost.busy_s": busy("flipcost"),
        "pooling.calls": calls("pooling"),
        "pooling.busy_s": busy("pooling"),
        "novelty.calls": calls("novelty"),
        "novelty.busy_s": busy("novelty"),
        "novelty.claims_per_sample": ratio(traced.claims, traced.claim_samples),
        "constraints.hard_evals": calls("constraints.hard"),
        "constraints.hard_eval_s": busy("constraints.hard"),
        "constraints.relaxed_evals": counters["relaxed_evals"] / n,
        "sampler.retries": (layers["projection"].calls - expected) / n,
        "sampler.self_s": (traced.sampling_s - tracer.outer_s) / n,
        "trace.wall_s": traced.sampling_s / n,
        "trace.overhead_s": (traced.sampling_s - plain.sampling_s) / n,
    }
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}

    self_total = sum(s.self_s for s in layers.values()) + (traced.sampling_s - tracer.outer_s)
    identity_error = abs(self_total - traced.sampling_s)
    same_outputs = traced.digests == plain.digests
    detail = {
        "traced": traced.summary(),
        "untraced_replay": plain.summary(),
        "absent": tracer.absent,
        "layers": {k: vars(v) for k, v in sorted(layers.items())},
        "counters": counters,
        "denoiser_fallbacks": fallbacks,
        "self_time_identity_error_s": identity_error,
        "replay_outputs_identical": same_outputs,
    }
    correct = traced.ppl_mismatches == 0 and same_outputs and identity_error <= 1e-6 * traced.sampling_s
    return traced, metrics, detail, correct


PER_SAMPLE = "count/sample"
SECONDS = "s/sample"
LAYER_UNITS = {
    "denoiser.calls": PER_SAMPLE,
    "denoiser.busy_s": SECONDS,
    "denoiser.fallbacks": PER_SAMPLE,
    "denoiser.exact_frac": "ratio",
    "noise.mixture_calls": PER_SAMPLE,
    "noise.mixture_s": SECONDS,
    "rowops.calls": PER_SAMPLE,
    "rowops.busy_s": SECONDS,
    "projection.calls": PER_SAMPLE,
    "projection.busy_s": SECONDS,
    "projection.unchanged": PER_SAMPLE,
    "projection.infeasible": PER_SAMPLE,
    "projection.kl_moved": "nats/call",
    "alm.outer_iters": PER_SAMPLE,
    "alm.gradient_calls": PER_SAMPLE,
    "alm.gradient_s": SECONDS,
    "search.calls": PER_SAMPLE,
    "search.busy_s": SECONDS,
    "flipcost.busy_s": SECONDS,
    "pooling.calls": PER_SAMPLE,
    "pooling.busy_s": SECONDS,
    "novelty.calls": PER_SAMPLE,
    "novelty.busy_s": SECONDS,
    "novelty.claims_per_sample": "ratio",
    "constraints.hard_evals": PER_SAMPLE,
    "constraints.hard_eval_s": SECONDS,
    "constraints.relaxed_evals": PER_SAMPLE,
    "sampler.retries": PER_SAMPLE,
    "sampler.self_s": SECONDS,
    "trace.wall_s": SECONDS,
    "trace.overhead_s": SECONDS,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pd = import_program()
    program = Program(pd, WORKLOADS[args.workload])
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    measure = per_layer if args.trace else end_to_end
    run, metrics, detail, correct = measure(pd, program, args)
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    record.update(detail, backend=pd.backend.active_name, threads=THREADS, nproc=os.cpu_count())
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"backend.active_name: {pd.backend.active_name}")
    if args.trace and detail["absent"]:
        print(f"absent (reported as 0): {', '.join(detail['absent'])}")
    for error in run.errors:
        print(f"failed call: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
