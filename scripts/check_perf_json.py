#!/usr/bin/env python3
"""Validate a BENCH_perf.json emitted by bench/perf_suite.

Schema version 4 — documented in docs/PERF.md. Stdlib only, so CI can
run it on a bare runner. Exit 0 when valid, 1 with a pointed message
when not. v4 has three sections: router_micro, mapper_suite and
serve_hit (v4 added serve_hit; the route_fanout section of v2 went
with the batched routing API it measured).

With --compare the file is additionally gated against a committed
baseline (bench/baselines/) of the same preset: router_micro rows are
matched on (scenario, heuristic) and their queries_per_sec must not
fall more than --tolerance-pct below the baseline; mapper_suite rows
are matched on (fabric, mapper, kernel) and their wall_seconds, and
serve_hit rows on the same key and their hit_seconds, must not rise
more than --tolerance-pct above it. Rows present in the baseline but
absent from the candidate are failures (a silently dropped benchmark
is a regression too); new candidate rows are fine. Only rows ok in
both files race the clock.

The digests and the search counters are the contract that perf work
does not change results (docs/PERF.md), so --compare also fails when
a router_micro route_digest, or the mapping_digest of a mapper_suite
or serve_hit row ok on both sides, differs from the baseline's; and
when a search counter (GATED_COUNTERS) of a router_micro row, or of a
mapper_suite row ok on both sides (its totals and each attempt, whose
(ii, ok) must match too), differs. Every differing field is reported.
A change that moves them on purpose re-pins the baseline and says why.

usage: check_perf_json.py BENCH_perf.json
       check_perf_json.py BENCH_perf.json --compare BASELINE \
           [--tolerance-pct 75]
"""
import argparse
import json
import sys

COUNTER_KEYS = {
    "router_queries": int,
    "router_routed": int,
    "router_queries_per_sec": (int, float),
    "router_pushes": int,
    "router_pops": int,
    "router_expansions": int,
    "arena_reuses": int,
    "arena_grows": int,
    "tracker_checks": int,
    "tracker_check_hits": int,
    "tracker_hit_rate": (int, float),
    "tracker_occupies": int,
    "tracker_releases": int,
}

# The counters a search reproduces exactly. arena_reuses/arena_grows
# depend on what the thread ran before, and rates on the clock.
GATED_COUNTERS = (
    "router_queries", "router_routed", "router_pushes", "router_pops",
    "router_expansions", "tracker_checks", "tracker_check_hits",
    "tracker_occupies", "tracker_releases",
)

errors = []


def fail(where, msg):
    errors.append(f"{where}: {msg}")


def check_counters(where, obj):
    if not isinstance(obj, dict):
        fail(where, "counters must be an object")
        return
    for key, types in COUNTER_KEYS.items():
        if key not in obj:
            fail(where, f"missing counter '{key}'")
        elif not isinstance(obj[key], types) or isinstance(obj[key], bool):
            fail(where, f"counter '{key}' has type {type(obj[key]).__name__}")
    for key in obj:
        if key not in COUNTER_KEYS:
            fail(where, f"unknown counter '{key}'")
    if isinstance(obj.get("tracker_hit_rate"), (int, float)):
        if not 0.0 <= obj["tracker_hit_rate"] <= 1.0:
            fail(where, f"tracker_hit_rate {obj['tracker_hit_rate']} not in [0,1]")
    qs, rt = obj.get("router_queries"), obj.get("router_routed")
    if isinstance(qs, int) and isinstance(rt, int) and rt > qs:
        fail(where, f"router_routed {rt} > router_queries {qs}")


def check_field(where, obj, key, types, predicate=None, describe=""):
    if key not in obj:
        fail(where, f"missing '{key}'")
        return None
    value = obj[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        fail(where, f"'{key}' has type {type(value).__name__}")
        return None
    if predicate and not predicate(value):
        fail(where, f"'{key}'={value!r} {describe}")
    return value


def is_hex_digest(s):
    return len(s) == 16 and all(c in "0123456789abcdef" for c in s)


def compare_to_baseline(path, doc, base_path, baseline, tolerance_pct):
    """Appends to `errors` for every perf regression beyond tolerance and
    every digest that differs from the baseline's."""
    slack = tolerance_pct / 100.0

    def rate_floor(v):
        return v * (1.0 - slack)

    def time_ceiling(v):
        return v * (1.0 + slack)

    if doc.get("preset") != baseline.get("preset"):
        fail("top", f"preset {doc.get('preset')!r} differs from the "
             f"baseline's {baseline.get('preset')!r}; digests and rates "
             "are only comparable within one preset")
        return

    def same_digest(where, key, brow, crow):
        if crow.get(key) != brow.get(key):
            fail(where, f"{key} {crow.get(key)} differs from the baseline's "
                 f"{brow.get(key)}: the change moved results")

    def same_counters(where, bcounters, ccounters):
        for key in GATED_COUNTERS:
            if ccounters.get(key) != bcounters.get(key):
                fail(where, f"{key} {ccounters.get(key)} differs from the "
                     f"baseline's {bcounters.get(key)}")

    def same_attempts(where, battempts, cattempts):
        if len(cattempts) != len(battempts):
            fail(where, f"{len(cattempts)} attempts differ from the "
                 f"baseline's {len(battempts)}")
        for j, (ba, ca) in enumerate(zip(battempts, cattempts)):
            awhere = f"{where}.attempts[{j}]"
            for key in ("ii", "ok"):
                if ca.get(key) != ba.get(key):
                    fail(awhere, f"{key} {ca.get(key)} differs from the "
                         f"baseline's {ba.get(key)}")
            same_counters(awhere + ".perf", ba["perf"], ca["perf"])

    base_micro = {(r["scenario"], r["heuristic"]): r
                  for r in baseline.get("router_micro", [])}
    cand_micro = {(r.get("scenario"), r.get("heuristic")): r
                  for r in doc.get("router_micro", [])}
    for key, brow in sorted(base_micro.items()):
        where = f"router_micro[scenario={key[0]!r}, heuristic={key[1]}]"
        crow = cand_micro.get(key)
        if crow is None:
            fail(where, f"present in baseline {base_path} but missing here")
            continue
        same_digest(where, "route_digest", brow, crow)
        same_counters(where + ".counters", brow["counters"], crow["counters"])
        base_qps, qps = brow["queries_per_sec"], crow.get("queries_per_sec")
        if isinstance(qps, (int, float)) and qps < rate_floor(base_qps):
            fail(where,
                 f"queries_per_sec regressed: {qps:.0f} < {base_qps:.0f} "
                 f"- {tolerance_pct}% (floor {rate_floor(base_qps):.0f})")

    base_suite = {(r["fabric"], r["mapper"], r["kernel"]): r
                  for r in baseline.get("mapper_suite", [])}
    cand_suite = {(r.get("fabric"), r.get("mapper"), r.get("kernel")): r
                  for r in doc.get("mapper_suite", [])}
    for key, brow in sorted(base_suite.items()):
        where = f"mapper_suite[{'/'.join(map(str, key))}]"
        crow = cand_suite.get(key)
        if crow is None:
            fail(where, f"present in baseline {base_path} but missing here")
            continue
        if not brow.get("ok"):
            continue  # a baseline failure cannot gate anything
        if not crow.get("ok"):
            fail(where, "ok in baseline but failed here")
            continue
        same_digest(where, "mapping_digest", brow, crow)
        same_attempts(where, brow["attempts"], crow["attempts"])
        same_counters(where + ".totals", brow["totals"], crow["totals"])
        base_wall, wall = brow["wall_seconds"], crow.get("wall_seconds")
        if isinstance(wall, (int, float)) and wall > time_ceiling(base_wall):
            fail(where,
                 f"wall_seconds regressed: {wall:.4f} > {base_wall:.4f} "
                 f"+ {tolerance_pct}% (ceiling {time_ceiling(base_wall):.4f})")

    base_hits = {(r["fabric"], r["mapper"], r["kernel"]): r
                 for r in baseline.get("serve_hit", [])}
    cand_hits = {(r.get("fabric"), r.get("mapper"), r.get("kernel")): r
                 for r in doc.get("serve_hit", [])}
    for key, brow in sorted(base_hits.items()):
        where = f"serve_hit[{'/'.join(map(str, key))}]"
        crow = cand_hits.get(key)
        if crow is None:
            fail(where, f"present in baseline {base_path} but missing here")
            continue
        if not brow.get("ok"):
            continue
        if not crow.get("ok"):
            fail(where, "ok in baseline but failed here")
            continue
        same_digest(where, "mapping_digest", brow, crow)
        base_hit, hit = brow["hit_seconds"], crow.get("hit_seconds")
        if isinstance(hit, (int, float)) and hit > time_ceiling(base_hit):
            fail(where,
                 f"hit_seconds regressed: {hit * 1e6:.1f} us > "
                 f"{base_hit * 1e6:.1f} us + {tolerance_pct}% (ceiling "
                 f"{time_ceiling(base_hit) * 1e6:.1f} us)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("path", help="BENCH_perf.json to validate")
    ap.add_argument("--compare", metavar="BASELINE", default=None,
                    help="baseline BENCH_perf.json to gate against")
    ap.add_argument("--tolerance-pct", type=float, default=75.0,
                    help="allowed regression before failing (default 75; "
                    "generous because CI runners are noisy)")
    args = ap.parse_args()
    path = args.path
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: {e}", file=sys.stderr)
        return 1

    check_field("top", doc, "schema_version", int, lambda v: v == 4, "!= 4")
    check_field("top", doc, "preset", str, lambda v: v in ("full", "small"),
                "not 'full'/'small'")
    micro = check_field("top", doc, "router_micro", list, lambda v: v,
                        "is empty")
    suite = check_field("top", doc, "mapper_suite", list, lambda v: v,
                        "is empty")
    hits = check_field("top", doc, "serve_hit", list, lambda v: v, "is empty")
    for key in doc:
        if key not in ("schema_version", "preset", "router_micro",
                       "mapper_suite", "serve_hit"):
            fail("top", f"unknown key '{key}'")

    for i, row in enumerate(micro or []):
        where = f"router_micro[{i}]"
        check_field(where, row, "scenario", str, lambda v: v, "is empty")
        check_field(where, row, "heuristic", bool)
        check_field(where, row, "queries", int, lambda v: v > 0, "<= 0")
        check_field(where, row, "routed", int, lambda v: v >= 0, "< 0")
        check_field(where, row, "seconds", (int, float), lambda v: v > 0,
                    "<= 0")
        check_field(where, row, "queries_per_sec", (int, float),
                    lambda v: v > 0, "<= 0")
        check_field(where, row, "route_digest", str, is_hex_digest,
                    "is not a 16-hex-digit digest")
        if "counters" in row:
            check_counters(where + ".counters", row["counters"])
        else:
            fail(where, "missing 'counters'")

    for i, row in enumerate(suite or []):
        where = f"mapper_suite[{i}]"
        check_field(where, row, "fabric", str, lambda v: v, "is empty")
        check_field(where, row, "mapper", str, lambda v: v, "is empty")
        check_field(where, row, "kernel", str, lambda v: v, "is empty")
        ok = check_field(where, row, "ok", bool)
        check_field(where, row, "ii", int)
        check_field(where, row, "wall_seconds", (int, float),
                    lambda v: v >= 0, "< 0")
        digest = check_field(where, row, "mapping_digest", str)
        if ok and isinstance(digest, str) and not is_hex_digest(digest):
            fail(where, f"ok row has bad mapping_digest {digest!r}")
        attempts = check_field(where, row, "attempts", list)
        for j, a in enumerate(attempts or []):
            awhere = f"{where}.attempts[{j}]"
            check_field(awhere, a, "ii", int, lambda v: v >= 1, "< 1")
            check_field(awhere, a, "ok", bool)
            check_field(awhere, a, "seconds", (int, float), lambda v: v >= 0,
                        "< 0")
            if "perf" in a:
                check_counters(awhere + ".perf", a["perf"])
            else:
                fail(awhere, "missing 'perf'")
        if "totals" in row:
            check_counters(where + ".totals", row["totals"])
        else:
            fail(where, "missing 'totals'")

    for i, row in enumerate(hits or []):
        where = f"serve_hit[{i}]"
        check_field(where, row, "fabric", str, lambda v: v, "is empty")
        check_field(where, row, "mapper", str, lambda v: v, "is empty")
        check_field(where, row, "kernel", str, lambda v: v, "is empty")
        ok = check_field(where, row, "ok", bool)
        check_field(where, row, "ii", int)
        check_field(where, row, "calls", int, lambda v: v > 0, "<= 0")
        check_field(where, row, "hit_seconds", (int, float), lambda v: v >= 0,
                    "< 0")
        digest = check_field(where, row, "mapping_digest", str)
        if ok and isinstance(digest, str) and not is_hex_digest(digest):
            fail(where, f"ok row has bad mapping_digest {digest!r}")

    compared = ""
    if args.compare and not errors:
        try:
            with open(args.compare) as f:
                baseline = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"{args.compare}: {e}", file=sys.stderr)
            return 1
        compare_to_baseline(path, doc, args.compare, baseline,
                            args.tolerance_pct)
        compared = (f", same digests and counters and within "
                    f"{args.tolerance_pct:g}% of {args.compare}")

    if errors:
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        print(f"{path}: INVALID ({len(errors)} problem(s))", file=sys.stderr)
        return 1
    n_micro = len(micro or [])
    n_suite = len(suite or [])
    n_hits = len(hits or [])
    print(f"{path}: valid (schema 4, {n_micro} micro rows, "
          f"{n_suite} suite rows, {n_hits} serve-hit rows{compared})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
