"""Serving benchmark: TTFT, inter-token latency, throughput and answer
quality of the packed+paged SampleAttention engine, plus a traced
per-layer breakdown.

Run from the repository root::

    python3 servebench/run.py --workload longctx_needle --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` serves the
same rounds untraced and then traced, and prints every per-layer metric
plus ``trace.overhead_frac``.  Each metric is printed as one line with
its unit and sample count; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is non-zero when a request is left unterminated, a completed request
generated the wrong number of tokens, a metric is not finite, or the
dense reference misses a planted answer.  See ``servebench/NOTES.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402

#: Where span dumps of ``--trace 1`` runs go, relative to the checkout.
SPANS_DIR = env.ROOT / ".bench_out"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingSourceError as exc:
        print(f"servebench: {exc}", file=sys.stderr)
        return 2

    import runner  # noqa: PLC0415 - after the thread caps
    from tracer import Tracer  # noqa: PLC0415

    if args.workload not in runner.WORKLOADS:
        print(
            f"servebench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(runner.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = runner.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _T0
    engine, book, setup_med = runner.setup(workload)
    setup_s = import_s + setup_med
    t_measure = time.perf_counter()

    if args.trace:
        # Half the budget untraced, half traced: each round untraced and
        # then again traced, so host speed drift falls on both sides of
        # trace.overhead_frac alike.
        n = runner.rounds_for(workload, args.seconds / 2, 0)
        tracer = Tracer()
        plain, rounds = [], []
        for r in range(n):
            plain += runner.serve_rounds(engine, book, workload, args.seed, 1, r)
            with tracer:
                rounds += runner.serve_rounds(engine, book, workload, args.seed, 1, r)
        layers = runner.per_layer(
            rounds, tracer, sum(rr.wall_s for rr in plain), engine
        )
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{workload.name}-{args.seed}.json")
        metrics = {k: (v, u, len(rounds)) for k, (v, u) in layers.items()}
    else:
        n = runner.rounds_for(workload, args.seconds, runner.MIN_REQUESTS)
        rounds = runner.serve_rounds(engine, book, workload, args.seed, n)
    e2e = runner.end_to_end(rounds, workload)
    if not args.trace:
        metrics = {**e2e, "setup_s": (setup_s, "s", runner.SETUP_REPS)}

    sent = [tm for rr in rounds for tm in rr.result.requests]
    wedged = runner.unterminated(rounds)
    short = sum(
        1 for tm in sent
        if tm.outcome == "completed" and len(tm.generated) != workload.decode_tokens
    )
    t_check = time.perf_counter()
    ref_right, ref_n = runner.reference_check(workload, args.seed)
    finite = all(math.isfinite(v) for v, _u, _n in metrics.values())
    correct = wedged == 0 and short == 0 and ref_right == ref_n and finite
    t_end = time.perf_counter()

    print(f"# host {json.dumps(env.host_stamp(), sort_keys=True)}")
    print(
        f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(rounds)} rounds, {len(sent)} requests sent, "
        f"{sum(1 for t in sent if t.outcome == 'completed')} completed"
    )
    print(
        f"# phases: imports {import_s:.2f}s, set-up {t_measure - _T0 - import_s:.2f}s, "
        f"serving {t_check - t_measure:.2f}s, reference check {t_end - t_check:.2f}s"
    )
    print(
        f"# checks: unterminated {wedged}, wrong decode length {short}, "
        f"dense reference {ref_right}/{ref_n} planted answers"
    )
    for name, (value, unit, n) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit} (n={n})")
    if args.trace:
        print(f"{'needle_accuracy':32s} {e2e['needle_accuracy'][0]:.6g} fraction")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(sent),
                "failed": sum(
                    1 for tm in sent if tm.outcome in runner.FAILED_OUTCOMES
                ) + wedged,
                "metrics": {
                    k: {"value": v, "unit": u}
                    for k, (v, u, _n) in metrics.items()
                    if k != "failed_frac"
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
