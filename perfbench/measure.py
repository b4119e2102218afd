"""Timed and traced registration solves, output checks, and the metrics.

One run repeats rounds until the time budget is spent (the last round may
run past it); a round times one set-up call and one solve (with ``trace``,
an untraced and a traced solve, so the tracing overhead is measured on the
same inputs). Every figure is the median over the run's rounds.

Rounds cycle through ``REALIZATIONS`` noise draws of the run's seed, and
an untraced run makes at least that many rounds. The quality metrics are
the median over the draws: at a fixed iteration count the Armijo path,
and with it the result, shifts with the noise draw (on wheel2d by several
percent), and one draw per run would make them too seed-dependent to
compare two commits.
"""
from __future__ import annotations

import contextlib
import itertools
import resource
import statistics
import time

import numpy as np

from slidereg import registration as reg
from slidereg.momenta import TimeMomenta, control_lattice

import quality
from tracer import ENTRIES, Tracer

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ssd_ratio": "ratio",
    "map_err_px": "px",
    "jac_det_p1": "ratio",
    "transition_width_rows": "rows",
}

# each span yields <span>_s (self-seconds per solve) and <span>_calls;
# flow.integrate_s is inclusive instead, because the integration's own
# work is the assembler build, synthesis and interpolation it calls
SPANS = (
    "momenta.gram_apply",
    "momenta.build",
    "momenta.synth",
    "momenta.synth_adjoint",
    "kernels.eval_many",
    "geometry.interp",
    "geometry.interp_grad",
    "geometry.splat",
    "flow.integrate",
)

PER_LAYER = {
    **{f"{span}_s": "s" for span in SPANS},
    **{f"{span}_calls": "count" for span in SPANS},
    "momenta.gram_bytes": "B",
    "registration.forward_evals": "count",
    "registration.grad_evals": "count",
    "registration.ls_candidates_per_step": "count",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}

GRAD_RTOL = 1e-4  # central difference vs exact adjoint, relative
REALIZATIONS = 3


def time_setup(cfg, pair) -> float:
    """Seconds for one ``total_energy`` call at zero momenta.

    It builds every operator ``optimize`` builds and runs one forward pass.
    """
    tm = TimeMomenta.zeros(control_lattice(pair.template.geometry, cfg.control_stride), cfg.T)
    t0 = time.perf_counter()
    reg.total_energy(cfg, tm, pair.template, pair.reference)
    return time.perf_counter() - t0


def layer_metrics(summary: dict, traced_s: float) -> dict:
    """Per-layer figures of one traced solve from the tracer's summary."""
    def row(span):
        return summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "tagged": 0})

    out = {}
    for span in SPANS:
        out[f"{span}_s"] = row(span)["total_s" if span == "flow.integrate" else "self_s"]
        out[f"{span}_calls"] = row(span)["calls"]
    # each forward pass samples the scalar template once, each gradient
    # pass differentiates that sample once; the descent starts with one
    # forward pass and every gradient pass runs its own forward pass
    fwd = row("geometry.interp")["tagged"]
    grad = row("geometry.interp_grad")["tagged"]
    out["registration.forward_evals"] = fwd
    out["registration.grad_evals"] = grad
    out["registration.ls_candidates_per_step"] = (fwd - grad - 1) / grad if grad else 0.0
    covered = sum(r["self_s"] for name, r in summary.items() if name != "registration.optimize")
    out["trace.covered_frac"] = covered / traced_s
    return out


def _solve(cfg, pair, tracer: Tracer | None):
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        result = reg.optimize(cfg, pair.template, pair.reference)
        elapsed = time.perf_counter() - t0
    return result, elapsed


def _quality(result, pair, workload, ratio) -> dict:
    inv = result.flow.final_inverse
    dets = quality.interior_jacobian_dets(inv)
    return {
        "ssd_ratio": ratio,
        "map_err_px": quality.map_err_px(inv, pair.true_map, pair.foreground),
        "jac_det_p1": float(np.percentile(dets, 1.0)),
        "jac_det_min": float(dets.min()),
        "fold_frac": quality.fold_frac(dets),
        "transition_width_rows": workload.width(inv),
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (full record, result line)."""
    cfg = workload.config
    pairs = [workload.pair(seed, j) for j in range(REALIZATIONS)]
    failures = []  # {"op": operation number, "reason": ...}
    attempted = 1
    try:
        grad_errs = quality.gradient_check(cfg, pairs[0], seed, GRAD_RTOL)
    except Exception as exc:  # counted as a failed operation like a solve
        grad_errs = [f"{type(exc).__name__}: {exc}"]
        failures.append({"op": 0, "reason": f"gradient check raised {grad_errs[0]}"})
    else:
        if not grad_errs[-1] <= GRAD_RTOL:
            failures.append({"op": 0, "reason": f"gradient check: relative errors {grad_errs} exceed {GRAD_RTOL}"})

    samples = {"setup_s": [], "solve_s": [], "traced_solve_s": []}
    qualities, layers, absent = {}, [], set()
    peak_rss_mb = None
    min_rounds = 1 if trace else REALIZATIONS
    deadline = time.perf_counter() + seconds
    for rounds in itertools.count(1):
        draw = (rounds - 1) % REALIZATIONS
        pair = pairs[draw]
        samples["setup_s"].append(time_setup(cfg, pair))
        for traced in (False, True) if trace else (False,):
            op = attempted
            attempted += 1
            tracer = Tracer() if traced else None
            try:
                result, elapsed = _solve(cfg, pair, tracer)
            except Exception as exc:  # a failed solve is counted, the run goes on
                failures.append({"op": op, "reason": f"solve raised {type(exc).__name__}: {exc}"})
                continue
            finally:
                absent.update(tracer.absent if tracer else ())
            reasons, ratio = quality.solve_failures(result, pair, cfg, workload.ssd_ratio_max)
            failures.extend({"op": op, "reason": r} for r in reasons)
            if reasons:
                continue
            if draw not in qualities:
                qualities[draw] = _quality(result, pair, workload, ratio)
            if traced:
                samples["traced_solve_s"].append(elapsed)
                layers.append(layer_metrics(tracer.summary(), elapsed))
            else:
                samples["solve_s"].append(elapsed)
        if peak_rss_mb is None:
            # later rounds repeat the same work and only add allocator
            # fragmentation, which grows with the number of rounds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rounds >= min_rounds and time.perf_counter() >= deadline:
            break

    draws = list(qualities.values())
    quality_medians = {k: _median([q[k] for q in draws]) for k in (draws[0] if draws else ())}
    if trace:
        metrics = {k: _median([m[k] for m in layers]) for k in PER_LAYER if layers and k in layers[0]}
        n, d = control_lattice(pairs[0].template.geometry, cfg.control_stride).shape
        metrics["momenta.gram_bytes"] = (d + 1) * n * n * 8
        if samples["solve_s"] and samples["traced_solve_s"]:
            metrics["trace.overhead_frac"] = (
                statistics.median(samples["traced_solve_s"]) / statistics.median(samples["solve_s"]) - 1.0
            )
        # a span none of whose entry points exists any more reads null
        gone = {e.span for e in absent} - {e.span for e in ENTRIES if e not in absent}
        if gone & {"geometry.interp", "geometry.interp_grad"}:
            gone |= {"registration.forward_evals", "registration.grad_evals", "registration.ls_candidates_per_step"}
        for span in gone:
            for key in (span, f"{span}_s", f"{span}_calls"):
                if key in metrics:
                    metrics[key] = None
        units = PER_LAYER
    else:
        metrics = {
            "solve_s": _median(samples["solve_s"]),
            "setup_s": _median(samples["setup_s"]),
            "peak_rss_mb": peak_rss_mb,
            **{k: quality_medians.get(k) for k in END_TO_END if k in quality_medians},
        }
        units = END_TO_END
    result_line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f["op"] for f in failures}),
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": reg.config_to_dict(cfg),
        "gradient_check_rel_errs": grad_errs,
        "samples": samples,
        "quality": quality_medians,
        "failures": failures,
        "absent_entry_points": sorted(f"{e.module}.{e.attr}" for e in absent),
    }
    return record, result_line
