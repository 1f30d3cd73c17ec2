#!/usr/bin/env python3
"""Gate fresh bench records against the committed baseline.

    python3 tools/bench_compare.py BASELINE FRESH [FRESH ...]

BASELINE (the committed BENCH_BASELINE.json) is a JSON array of flat
records. A record with a "gate" field
is gated: the field maps each gated metric to its direction and
tolerance,

    "gate": {"images_per_s": {"better": "higher", "tolerance": 0.35}}

and that metric regresses when its fresh value falls below
baseline * (1 - tolerance) (higher is better) or rises above
baseline * (1 + tolerance) (lower is better). Records without a gate
are the trajectory record; the gate ignores them.

Each FRESH file is either a VIBNN_BENCH_JSON array (bench/bench_util.hh)
or a bench_e2e --json result object, read as the one record
{"bench": "bench_e2e", "section": <workload>, <its metrics>}. A traced
bench_e2e result carries per-layer metrics only, so it cannot satisfy
an end-to-end row. bench_e2e records no smoke flag; the committed
bench_e2e row was measured with `--smoke --seed 1`, as CI runs it.

Records match on their identity fields (bench, section, backend,
kernel, T, ...). The kernel tier is part of the identity, so a run on
another tier is reported as unmatched, never judged against an avx2
row. The gate fails when a gated value regresses, when a bench_e2e
result says "correct": false (its own guards rejected the run), or
when a bench named by a gated row has no compared row at all. A gated
row with no fresh counterpart is reported as unmatched; that alone
does not fail the gate.
"""

import json
import sys

IDENTITY_KEYS = ("bench", "section", "backend", "schedule", "style",
                 "kernel", "tier", "generator", "estimator", "bits", "T",
                 "batch", "requests", "confidence", "budget", "conns",
                 "rate", "profile")


def identity(record):
    return tuple((key, record[key]) for key in IDENTITY_KEYS
                 if key in record)


def load(path, failures):
    """The records of one file; a rejected bench_e2e run adds to
    failures."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        return data
    if isinstance(data, dict) and isinstance(data.get("metrics"), dict):
        if data.get("correct") is not True:
            failures.append(f"{path}: bench_e2e {data.get('workload')} "
                            "was not correct")
        return [{"bench": "bench_e2e", "section": data.get("workload"),
                 **data["metrics"]}]
    raise SystemExit(f"{path}: expected a VIBNN_BENCH_JSON array or a "
                     "bench_e2e result object")


def main(argv):
    if len(argv) < 2 or any(arg.startswith("-") for arg in argv):
        print("usage:" + __doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    failures = []
    baseline = load(argv[0], failures)
    fresh = {}
    for path in argv[1:]:
        for record in load(path, failures):
            key = identity(record)
            for field, value in record.items():
                fresh.setdefault((key, field), value)

    gated = set()
    compared = set()
    for row in baseline:
        if "gate" not in row:
            continue
        key = identity(row)
        label = " ".join(f"{k}={v}" for k, v in key)
        gated.add(row["bench"])
        for metric, rule in row["gate"].items():
            value = fresh.get((key, metric))
            if value is None:
                print(f"unmatched  {label} {metric}: no fresh value")
                continue
            compared.add(row["bench"])
            base = float(row[metric])
            value = float(value)
            tolerance = float(rule["tolerance"])
            if rule["better"] == "higher":
                bound = base * (1.0 - tolerance)
                regressed = value < bound
                note = "floor"
            elif rule["better"] == "lower":
                bound = base * (1.0 + tolerance)
                regressed = value > bound
                note = "ceiling"
            else:
                raise SystemExit(f"{label}: 'better' must be higher or "
                                 f"lower, got {rule['better']!r}")
            verdict = "REGRESSION" if regressed else "ok"
            print(f"{verdict:10s} {label}: baseline {base:.6g} -> fresh "
                  f"{value:.6g} {metric} ({note} {bound:.6g}, "
                  f"tolerance {tolerance:g})")
            if regressed:
                failures.append(f"{label} {metric}")

    for bench in sorted(gated - compared):
        failures.append(f"bench {bench}: no gated row was compared")
    if failures:
        print(f"\nFAIL: {len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nOK: every compared value of {len(compared)} bench(es) is "
          "within its tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
