#!/usr/bin/env python3
"""Replay every benchmark pool job through cgra_batch and gate its digest.

e2ebench/pools.json records, per (mapper, kernel, fabric) triple of the
exact_mix and heuristic_mix workloads, the verdict and mapping digest a
probe run produced, and the same for the triple's dead-cell variant.
This script turns each of those jobs into one cgra_batch manifest entry
(the pool's mapper alone, its deadline, request seed, 16 iterations and
the variant's dead cells), runs cgra_batch with the cache off, and
checks that every job is `ok` exactly when its pool verdict is mapped or
undeployable, with the pool's mapping digest. A mapper change that moves
any pool digest fails here without running the benchmark itself.

It reads the pool file and writes only to a temporary directory.

usage: check_pool_digests.py --batch BUILD/tools/cgra_batch
           [--pools e2ebench/pools.json] [--threads N]
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile

ITERATIONS = 16
WORKLOADS = ("exact_mix", "heuristic_mix")


def pool_jobs(pools):
    """(manifest entry, expected ok, expected digest) per pool job."""
    seed = pools["request_seed"]
    jobs = []
    for workload in WORKLOADS:
        for i, e in enumerate(pools["pools"][workload]):
            variants = [("", e, [])]
            if e.get("dead"):
                variants.append(("-dead", e["dead"], e["dead"]["cells"]))
            for suffix, v, cells in variants:
                entry = {"name": f"{workload}-{i}{suffix}",
                         "fabric": e["fabric"], "kernel": e["kernel"],
                         "mappers": [e["mapper"]],
                         "deadline_seconds": e["deadline_s"], "seed": seed,
                         "iterations": ITERATIONS}
                if cells:
                    entry["dead_cells"] = list(cells)
                ok = v["verdict"] in ("mapped", "undeployable")
                jobs.append((entry, ok, v["digest"]))
    return jobs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch", required=True, help="path to cgra_batch")
    ap.add_argument("--pools", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "e2ebench",
        "pools.json"))
    ap.add_argument("--threads", type=int, default=0,
                    help="cgra_batch worker threads (0: one per core)")
    args = ap.parse_args()

    with open(args.pools) as f:
        jobs = pool_jobs(json.load(f))
    with tempfile.TemporaryDirectory(prefix="pool-digests-") as tmp:
        manifest = os.path.join(tmp, "manifest.json")
        report = os.path.join(tmp, "report.json")
        with open(manifest, "w") as f:
            json.dump({"jobs": [j[0] for j in jobs]}, f)
        cmd = [args.batch, "--manifest", manifest, "--out", report,
               "--no-cache", "--quiet"]
        if args.threads > 0:
            cmd += ["--threads", str(args.threads)]
        # cgra_batch exits 1 when any job fails, and unmappable pool jobs
        # are expected to; only a missing report is an error here.
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode not in (0, 1) or not os.path.exists(report):
            print(f"FAIL: cgra_batch exited {proc.returncode}")
            return 1
        with open(report) as f:
            rows = json.load(f)["jobs"]

    if len(rows) != len(jobs):
        print(f"FAIL: {len(rows)} report rows for {len(jobs)} jobs")
        return 1
    mismatches = 0
    for (entry, ok, digest), row in zip(jobs, rows):
        if row.get("name") != entry["name"]:
            print(f"FAIL: row {row.get('name')!r} where {entry['name']!r} "
                  "was expected")
            return 1
        if row["ok"] != ok or row["mapping_digest"] != digest:
            mismatches += 1
            print(f"mismatch {entry['name']} {entry['mappers'][0]} "
                  f"{entry['kernel']} {entry['fabric']} "
                  f"dead={entry.get('dead_cells', [])}: expected ok={ok} "
                  f"digest={digest!r}, got ok={row['ok']} "
                  f"digest={row['mapping_digest']!r} "
                  f"({row.get('error', '')}: {row.get('message', '')})")
    counts = {w: sum(1 for j in jobs if j[0]["name"].startswith(w + "-")
                     and not j[0]["name"].endswith("-dead"))
              for w in WORKLOADS}
    dead = sum(1 for j in jobs if j[0]["name"].endswith("-dead"))
    print(f"{len(jobs)} jobs ({counts['exact_mix']} exact_mix, "
          f"{counts['heuristic_mix']} heuristic_mix, {dead} dead-cell "
          f"variants): {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
