"""``jrpm`` command-line interface.

Usage::

    jrpm list                     # show the 26 paper workloads
    jrpm run huffman              # full pipeline on one workload
    jrpm run huffman --json       # machine-readable report
    jrpm run huffman --models     # per-loop execution-model argmax
    jrpm run path/to/file.mj      # any minijava source file
    jrpm models                   # list the registered execution models
    jrpm fleet                    # Table 6 over every workload
    jrpm fleet --jobs 4 --cache-dir .jrpm-cache --workloads IDEA,euler
    jrpm serve --port 8731        # long-lived analysis daemon
    jrpm serve --shards 4 --replicas 2   # sharded serving tier
    jrpm cache stats --cache-dir .jrpm-cache
    jrpm cache verify --cache-dir .jrpm-cache   # fsck the blobs
    jrpm cache purge --cache-dir .jrpm-cache
    jrpm cache purge --cache-dir .jrpm-cache --corrupt-only
    jrpm conform                  # estimator-vs-simulator oracle gate
    jrpm conform --fuzz 200 --seed 1000 --jobs 2
    jrpm conform --synth 3        # synthetic label + error-atlas gate
    jrpm conform --update-goldens # regenerate tests/goldens*.json
    jrpm synth --list             # the synthesizer's families
    jrpm synth --families chase --per-family 5 --seed 7
    jrpm synth --out /tmp/corpus  # write .mj sources + labels.json
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.jit.annotate import AnnotationLevel
from repro.jrpm.pipeline import Jrpm
from repro.jrpm.report import (
    render_engine_stats,
    render_predicted_vs_actual,
    render_selection,
    render_summary,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jrpm",
        description="Dynamic parallelization pipeline (TEST / Jrpm "
                    "reproduction, Chen & Olukotun, CGO 2003)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline")
    run.add_argument("target",
                     help="workload name (see 'jrpm list') or a "
                          "minijava source file path")
    run.add_argument("--base", action="store_true",
                     help="use base (unoptimized) annotations")
    run.add_argument("--no-tls", action="store_true",
                     help="skip the TLS timing simulation")
    run.add_argument("--json", action="store_true",
                     help="emit the machine-readable report (same "
                          "schema and bytes as the analysis service)")
    run.add_argument("--trace-jit", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="run the interpreter's trace-recording "
                          "superblock JIT (default on)")
    run.add_argument("--optimize", action="store_true",
                     help="run the LVN/LICM/DCE pass pipeline on the "
                          "bytecode before annotation")
    run.add_argument("--models", nargs="?", const="all",
                     metavar="A,B,...",
                     help="let each loop pick its execution model by "
                          "estimate argmax and print the per-loop "
                          "table; bare flag compares all registered "
                          "models (see 'jrpm models'), or give a "
                          "comma-separated subset (default: hydra-tls "
                          "alone)")

    fleet = sub.add_parser(
        "fleet", help="run the pipeline over many workloads")
    fleet.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default 1 = serial)")
    fleet.add_argument("--workloads", metavar="A,B,...",
                       help="comma-separated workload names "
                            "(default: all)")
    fleet.add_argument("--base", action="store_true",
                       help="use base (unoptimized) annotations")
    fleet.add_argument("--no-tls", action="store_true",
                       help="skip the TLS timing simulation")
    fleet.add_argument("--cache-dir", metavar="DIR",
                       help="artifact cache directory (reused across "
                            "invocations and shared by parallel jobs)")
    fleet.add_argument("--timeout", type=float, default=None,
                       metavar="SEC",
                       help="wall-clock limit per workload attempt; "
                            "hung workers are killed and the workload "
                            "retried or failed (parallel runs only)")
    fleet.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-run a failed, crashed, or timed-out "
                            "workload up to N extra times with "
                            "exponential backoff (default 0)")
    fleet.add_argument("--json", action="store_true",
                       help="emit machine-readable per-workload "
                            "reports (one shared schema with "
                            "'jrpm run --json' and the service)")
    fleet.add_argument("--trace-jit",
                       action=argparse.BooleanOptionalAction,
                       default=True,
                       help="trace-recording superblock JIT in every "
                            "worker (default on)")
    fleet.add_argument("--optimize", action="store_true",
                       help="run the LVN/LICM/DCE pass pipeline in "
                            "every worker before annotation")
    fleet.add_argument("--models", nargs="?", const="all",
                       metavar="A,B,...",
                       help="per-loop execution-model argmax in every "
                            "worker (bare flag = all registered "
                            "models; default: hydra-tls alone)")

    serve = sub.add_parser(
        "serve", help="run the long-lived analysis service")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8731, metavar="N",
                       help="listen port; 0 picks an ephemeral port "
                            "(default 8731)")
    serve.add_argument("--shards", type=int, default=1, metavar="N",
                       help="shard processes behind a consistent-hash "
                            "routing frontend; each shard keeps its "
                            "own warm caches on a stable key range "
                            "(default 1 = the single in-process "
                            "daemon)")
    serve.add_argument("--replicas", type=int, default=2, metavar="K",
                       help="replica shards per key: the primary "
                            "serves and pushes each fresh result to "
                            "the others, which are tried on failover "
                            "(default 2; capped at --shards)")
    serve.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="resident worker processes (default 1 = "
                            "in-process execution)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       metavar="N",
                       help="bounded admission queue; beyond it "
                            "requests are shed with HTTP 429 "
                            "(default 64)")
    serve.add_argument("--max-batch", type=int, default=8, metavar="N",
                       help="max compatible requests dispatched as "
                            "one fleet submission (default 8)")
    serve.add_argument("--result-cache", type=int, default=256,
                       metavar="N",
                       help="completed results memoized for repeat "
                            "traffic (default 256; 0 disables)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="persistent artifact cache directory "
                            "(default: in-memory, lives as long as "
                            "the daemon)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SEC",
                       help="wall-clock limit per workload attempt "
                            "(parallel jobs only)")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="retry failed/crashed/timed-out workloads "
                            "up to N times (default 0)")
    serve.add_argument("--max-body-bytes", type=int,
                       default=1 << 20, metavar="N",
                       help="largest accepted request body; bigger "
                            "Content-Lengths get 413 instead of an "
                            "allocation (default 1 MiB)")
    serve.add_argument("--metrics-dump", metavar="PATH",
                       help="write the final metrics snapshot to PATH "
                            "on shutdown")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request to stderr")
    serve.add_argument("--trace-jit",
                       action=argparse.BooleanOptionalAction,
                       default=True,
                       help="trace-recording superblock JIT for all "
                            "analyses (default on)")

    cache = sub.add_parser(
        "cache", help="inspect or maintain an artifact cache directory")
    cache.add_argument("action", choices=("stats", "verify", "purge"),
                       help="stats: per-stage blob counts/bytes; "
                            "verify: checksum every blob, quarantine "
                            "corrupt ones; purge: delete all blobs")
    cache.add_argument("--cache-dir", required=True, metavar="DIR",
                       help="the cache directory to operate on")
    cache.add_argument("--no-quarantine", action="store_true",
                       help="verify only reports corruption, leaving "
                            "bad blobs in place")
    cache.add_argument("--keep-quarantined", action="store_true",
                       help="purge leaves *.corrupt evidence files")
    cache.add_argument("--corrupt-only", action="store_true",
                       help="purge deletes only quarantined *.corrupt "
                            "files, keeping healthy blobs")
    cache.add_argument("--json", action="store_true",
                       help="emit the result as JSON")

    conform = sub.add_parser(
        "conform",
        help="differential conformance: estimator-vs-simulator "
             "oracle, fuzz campaigns, golden corpus")
    conform.add_argument("--workloads", metavar="A,B,...",
                         help="restrict the oracle to these workloads "
                              "(default: all)")
    conform.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for the oracle fleet "
                              "and the fuzz campaign (default 1)")
    conform.add_argument("--cache-dir", metavar="DIR",
                         help="artifact cache for the oracle's "
                              "pipeline runs")
    conform.add_argument("--skip-oracle", action="store_true",
                         help="don't run the workload oracle (fuzz or "
                              "goldens only)")
    conform.add_argument("--error-bound", type=float, default=None,
                         metavar="F",
                         help="override the workload-level relative "
                              "prediction-error ceiling")
    conform.add_argument("--fuzz", type=int, default=0, metavar="N",
                         help="fuzz N consecutive seeds through the "
                              "six-path differential checker "
                              "(default 0 = skip)")
    conform.add_argument("--seed", type=int, default=None, metavar="N",
                         help="base fuzz seed (default: "
                              "$JRPM_TEST_SEED or the built-in "
                              "campaign seed); with --fuzz 1 this "
                              "replays exactly one program")
    conform.add_argument("--no-shrink", action="store_true",
                         help="keep failing programs full-size "
                              "instead of delta-debugging them")
    conform.add_argument("--repro-dir", metavar="DIR",
                         default=None,
                         help="where shrunk reproducers are written "
                              "(default conformance/repros)")
    conform.add_argument("--update-goldens", action="store_true",
                         help="regenerate the golden corpus from the "
                              "current interpreter and exit")
    conform.add_argument("--goldens", metavar="PATH",
                         default=os.path.join("tests", "goldens.json"),
                         help="golden corpus path (default "
                              "tests/goldens.json)")
    conform.add_argument("--report", metavar="PATH",
                         help="write the machine-readable conformance "
                              "report to PATH")
    conform.add_argument("--json", action="store_true",
                         help="print the machine-readable report to "
                              "stdout")
    conform.add_argument("--models", nargs="?", const="all",
                         metavar="A,B,...",
                         help="run the oracle with per-loop model "
                              "argmax and gate predicted-vs-actual "
                              "error per execution model (hydra-tls "
                              "alone keeps the per-workload gate)")
    conform.add_argument("--synth", type=int, default=0, metavar="N",
                         help="gate N synthetic instances per family: "
                              "parallelism labels must hold and "
                              "estimator errors must stay within the "
                              "measured per-family atlas bounds "
                              "(default 0 = skip)")
    conform.add_argument("--synth-goldens", metavar="PATH",
                         default=os.path.join("tests",
                                              "goldens_synth.json"),
                         help="pinned per-family golden programs "
                              "(default tests/goldens_synth.json); "
                              "regenerated by --update-goldens")

    synth = sub.add_parser(
        "synth",
        help="generate labelled synthetic workloads (see 'jrpm synth "
             "--list' for the families)")
    synth.add_argument("--list", action="store_true", dest="list_families",
                       help="list the families and their labels")
    synth.add_argument("--families", metavar="A,B,...",
                       help="comma-separated family subset "
                            "(default: all)")
    synth.add_argument("--per-family", type=int, default=None,
                       metavar="N",
                       help="instances per family (default %d)"
                            % 20)
    synth.add_argument("--seed", type=int, default=None, metavar="N",
                       help="base seed; instance i of family F depends "
                            "only on (seed, F, i), so any subset "
                            "regenerates byte-identically (default: "
                            "the registry's pinned corpus seed)")
    synth.add_argument("--json", action="store_true",
                       help="emit instances with labels and source as "
                            "JSON")
    synth.add_argument("--source", action="store_true",
                       help="print each instance's minijava source")
    synth.add_argument("--out", metavar="DIR",
                       help="write one .mj file per instance plus "
                            "labels.json to DIR")

    list_cmd = sub.add_parser(
        "list", help="list the bundled paper workloads")
    list_cmd.add_argument("--synthetic", action="store_true",
                          help="include the registered synthetic "
                               "corpus (labelled generated workloads)")
    sub.add_parser("models",
                   help="list the registered execution models")
    return parser


def _run_fleet_command(args) -> int:
    import time

    from repro.jrpm.batch import run_fleet
    from repro.jrpm.cache import ArtifactCache

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1, got %d" % args.jobs)
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit("--timeout must be positive, got %r"
                         % args.timeout)
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0, got %d" % args.retries)
    workloads = None
    if args.workloads:
        from repro.workloads.registry import get_workload, workload_names
        names = [n.strip() for n in args.workloads.split(",") if n.strip()]
        try:
            workloads = [get_workload(n) for n in names]
        except KeyError as exc:
            raise SystemExit(
                "unknown workload %s; choose from: %s"
                % (exc, ", ".join(workload_names())))
    cache = None
    if args.cache_dir:
        cache = ArtifactCache(directory=args.cache_dir)
    elif args.jobs > 1:
        # parallel workers need a shared medium; give them a private
        # disk cache so artifacts still flow between sweeps in-run
        import tempfile
        cache = ArtifactCache(
            directory=tempfile.mkdtemp(prefix="jrpm-cache-"))
    level = AnnotationLevel.BASE if args.base \
        else AnnotationLevel.OPTIMIZED
    start = time.perf_counter()
    result = run_fleet(workloads=workloads, jobs=args.jobs,
                       cache=cache, on_error="row", level=level,
                       timeout=args.timeout, retries=args.retries,
                       simulate_tls=not args.no_tls,
                       trace_jit=args.trace_jit,
                       optimize=args.optimize,
                       models=args.models)
    elapsed = time.perf_counter() - start

    if args.json:
        from repro.jrpm.report import dumps_canonical, fleet_to_dict
        print(dumps_canonical(fleet_to_dict(
            result, elapsed=elapsed, jobs=args.jobs)))
        return 1 if result.errors else 0

    print(result.render())
    print()
    print("%d workloads in %.1fs (jobs=%d)  median slowdown %.2fx  "
          "geomean actual/predicted %.2f"
          % (len(result), elapsed, args.jobs, result.median_slowdown,
             result.geomean_prediction_ratio))
    if cache is not None:
        print("cache: %d hits, %d misses, %d corrupt"
              % (result.cache_hits, result.cache_misses,
                 result.cache_corrupt))
    if result.retry_count or result.timeout_count or result.crash_count:
        print("faults survived: %d retries, %d timeouts, "
              "%d worker crashes"
              % (result.retry_count, result.timeout_count,
                 result.crash_count))
    failures = result.errors
    if failures:
        print()
        for row in failures:
            print("FAILED %s: %s" % (row.name, row.error))
            if row.trace:
                print(row.trace)
        return 1
    return 0


def _run_serve_command(args) -> int:
    from repro.jrpm.cache import ArtifactCache
    from repro.service.server import AnalysisService

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1, got %d" % args.shards)
    if args.replicas < 1:
        raise SystemExit("--replicas must be >= 1, got %d"
                         % args.replicas)
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1, got %d" % args.jobs)
    if args.queue_depth < 1:
        raise SystemExit("--queue-depth must be >= 1, got %d"
                         % args.queue_depth)
    if args.timeout is not None and args.timeout <= 0:
        raise SystemExit("--timeout must be positive, got %r"
                         % args.timeout)
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0, got %d" % args.retries)
    if args.max_body_bytes < 1:
        raise SystemExit("--max-body-bytes must be >= 1, got %d"
                         % args.max_body_bytes)

    if args.shards > 1:
        return _serve_sharded(args)

    cache = None
    if args.cache_dir:
        cache = ArtifactCache(directory=args.cache_dir)
    elif args.jobs > 1:
        import tempfile
        cache = ArtifactCache(
            directory=tempfile.mkdtemp(prefix="jrpm-serve-cache-"))
    service = AnalysisService(
        host=args.host, port=args.port, cache=cache,
        jobs=args.jobs, queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        result_cache_size=args.result_cache,
        timeout=args.timeout, retries=args.retries,
        max_body_bytes=args.max_body_bytes,
        metrics_dump=args.metrics_dump, verbose=args.verbose,
        trace_jit=args.trace_jit)
    service.install_signal_handlers()
    service.start()
    print("jrpm-serve listening on http://%s:%d "
          "(jobs=%d, queue-depth=%d, max-batch=%d, cache=%s)"
          % (service.host, service.port, args.jobs, args.queue_depth,
             args.max_batch, args.cache_dir or "memory"), flush=True)
    service.serve_until_signal()
    snapshot = service.metrics.to_dict()
    print("jrpm-serve drained and stopped after %.1fs: "
          "%d analyses, %d coalesced, %d cached, %d shed"
          % (snapshot["uptime_s"],
             snapshot["counters"].get("analyze_completed", 0),
             snapshot["counters"].get("coalesced", 0),
             snapshot["counters"].get("result_cache_hits", 0),
             snapshot["counters"].get("load_shed", 0)), flush=True)
    return 0


def _serve_sharded(args) -> int:
    from repro.service.router import ShardedFrontend

    frontend = ShardedFrontend(
        host=args.host, port=args.port,
        shards=args.shards, replicas=args.replicas,
        max_body_bytes=args.max_body_bytes,
        metrics_dump=args.metrics_dump, verbose=args.verbose,
        shard_options={
            "jobs": args.jobs,
            "queue_depth": args.queue_depth,
            "max_batch": args.max_batch,
            "result_cache": args.result_cache,
            "cache_dir": args.cache_dir,
            "timeout": args.timeout,
            "retries": args.retries,
            "max_body_bytes": args.max_body_bytes,
            "trace_jit": args.trace_jit,
            "verbose": args.verbose,
        })
    frontend.install_signal_handlers()
    frontend.start()
    print("jrpm-serve listening on http://%s:%d "
          "(shards=%d, replicas=%d, jobs=%d/shard, queue-depth=%d, "
          "cache=%s)"
          % (frontend.host, frontend.port, args.shards,
             frontend.replica_count, args.jobs, args.queue_depth,
             args.cache_dir or "memory"), flush=True)
    frontend.serve_until_signal()
    snapshot = frontend._final_snapshot or frontend.metrics_snapshot()
    counters = snapshot.get("aggregate", {}).get("counters", {})
    print("jrpm-serve drained and stopped after %.1fs: "
          "%d analyses, %d coalesced, %d cached, %d shed"
          % (snapshot.get("frontend", {}).get("uptime_s", 0.0),
             counters.get("analyze_completed", 0),
             counters.get("coalesced", 0),
             counters.get("result_cache_hits", 0),
             counters.get("load_shed", 0)), flush=True)
    return 0


def _run_cache_command(args) -> int:
    import json

    from repro.jrpm.cache import (
        directory_stats,
        purge_directory,
        verify_directory,
    )

    if not os.path.isdir(args.cache_dir):
        raise SystemExit("jrpm cache: not a directory: %s"
                         % args.cache_dir)

    if args.action == "stats":
        report = directory_stats(args.cache_dir)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        print("cache %s: %d blobs, %d bytes"
              % (report["directory"], report["blobs"], report["bytes"]))
        for stage, counts in sorted(report["stages"].items()):
            print("  %-12s %6d blobs %12d bytes"
                  % (stage, counts["blobs"], counts["bytes"]))
        if report["quarantined"]:
            print("  %d quarantined .corrupt file(s)"
                  % report["quarantined"])
        if report["unreadable"]:
            print("  %d unreadable/unframed file(s)"
                  % report["unreadable"])
        return 0

    if args.action == "verify":
        report = verify_directory(args.cache_dir,
                                  quarantine=not args.no_quarantine)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("verified %d blob(s): %d ok, %d corrupt"
                  % (report["checked"], report["ok"],
                     len(report["corrupt"])))
            for entry in report["corrupt"]:
                print("  CORRUPT %s (stage %s): %s%s"
                      % (entry["file"], entry["stage"], entry["error"],
                         " [quarantined]"
                         if entry.get("quarantined") == "yes" else ""))
            for entry in report["quarantined"]:
                print("  quarantined %s (stage %s, %d bytes) from an "
                      "earlier verify"
                      % (entry["file"], entry["stage"], entry["bytes"]))
        return 1 if report["corrupt"] else 0

    report = purge_directory(
        args.cache_dir,
        include_quarantined=not args.keep_quarantined,
        corrupt_only=args.corrupt_only)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        what = "quarantined file(s)" if args.corrupt_only else "file(s)"
        print("purged %d %s, %d bytes freed"
              % (report["files"], what, report["bytes"]))
    return 0


def _run_conform_command(args) -> int:
    import json

    from repro.conformance.campaign import (
        DEFAULT_FUZZ_SEED,
        DEFAULT_REPRO_DIR,
        run_campaign,
    )
    from repro.conformance.goldens import update_goldens
    from repro.conformance.oracle import (
        DEFAULT_ERROR_BOUND,
        run_oracle,
    )
    from repro.jrpm.cache import ArtifactCache

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1, got %d" % args.jobs)
    if args.fuzz < 0:
        raise SystemExit("--fuzz must be >= 0, got %d" % args.fuzz)

    if args.update_goldens:
        from repro.synth.goldens import update_synth_goldens

        payload = update_goldens(args.goldens)
        meta = payload["_meta"]
        print("regenerated %s: %d workloads, corpus version %d"
              % (args.goldens, meta["workloads"], meta["version"]))
        payload = update_synth_goldens(args.synth_goldens)
        meta = payload["_meta"]
        print("regenerated %s: %d pinned family programs, corpus "
              "version %d, seed %d"
              % (args.synth_goldens, meta["families"], meta["version"],
                 meta["base_seed"]))
        return 0

    workloads = None
    if args.workloads:
        from repro.workloads.registry import get_workload, workload_names
        names = [n.strip() for n in args.workloads.split(",")
                 if n.strip()]
        try:
            workloads = [get_workload(n) for n in names]
        except KeyError as exc:
            raise SystemExit(
                "unknown workload %s; choose from: %s"
                % (exc, ", ".join(workload_names())))

    document = {"kind": "conformance"}
    problems = []

    if not args.skip_oracle:
        cache = None
        if args.cache_dir:
            cache = ArtifactCache(directory=args.cache_dir)
        elif args.jobs > 1:
            import tempfile
            cache = ArtifactCache(
                directory=tempfile.mkdtemp(prefix="jrpm-conform-"))
        bound = args.error_bound if args.error_bound is not None \
            else DEFAULT_ERROR_BOUND
        # an explicit --error-bound is a uniform override: it replaces
        # the measured per-workload table, not just the fallback
        workload_bounds = {} if args.error_bound is not None else None
        oracle = run_oracle(workloads=workloads, jobs=args.jobs,
                            cache=cache, error_bound=bound,
                            workload_bounds=workload_bounds,
                            models=args.models)
        document["oracle"] = oracle.to_dict()
        problems.extend(oracle.violations())
        if not args.json:
            print(oracle.render())

    if args.synth > 0:
        from repro.synth.atlas import build_atlas
        from repro.workloads.registry import SYNTHETIC, by_category

        # first N registered (default-seed) instances per family, so
        # the gate exercises exactly the corpus the bounds were
        # measured on
        subset = []
        per_family = {}
        for w in by_category(SYNTHETIC):
            family = w.label.family
            if per_family.get(family, 0) < args.synth:
                per_family[family] = per_family.get(family, 0) + 1
                subset.append(w)
        atlas = build_atlas(instances=subset, jobs=args.jobs)
        document["synth"] = atlas.to_dict()
        problems.extend(atlas.violations())
        if not args.json:
            if not args.skip_oracle:
                print()
            print(atlas.render())

    if args.fuzz > 0:
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("JRPM_TEST_SEED",
                                      DEFAULT_FUZZ_SEED))
        repro_dir = args.repro_dir if args.repro_dir is not None \
            else DEFAULT_REPRO_DIR
        campaign = run_campaign(count=args.fuzz, base_seed=seed,
                                jobs=args.jobs,
                                shrink=not args.no_shrink,
                                repro_dir=repro_dir)
        document["campaign"] = campaign.to_dict()
        for f in campaign.failures:
            problems.append("fuzz seed %d: %s" % (f.seed, f.kind))
        for r in campaign.fleet_errors:
            problems.append("fuzz %s: worker failed: %s"
                            % (r.name, getattr(r, "error", "?")))
        if not args.json:
            if not args.skip_oracle:
                print()
            print(campaign.render())

    document["violations"] = problems
    text = json.dumps(document, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(text)
    if args.json:
        print(text)
    elif problems:
        print()
        for p in problems:
            print("VIOLATION %s" % p)
    return 1 if problems else 0


def _run_synth_command(args) -> int:
    import json

    from repro.synth.families import (
        DEFAULT_PER_FAMILY,
        DEFAULT_SYNTH_SEED,
        FAMILIES,
        family_names,
        generate_corpus,
    )

    if args.list_families:
        for name in family_names():
            family = FAMILIES[name]
            print("%-10s %-9s %s" % (name, family.expected_class,
                                     family.description))
        return 0

    names = None
    if args.families:
        names = [n.strip() for n in args.families.split(",")
                 if n.strip()]
        unknown = [n for n in names if n not in FAMILIES]
        if unknown:
            raise SystemExit(
                "unknown family %s; choose from: %s"
                % (", ".join(unknown), ", ".join(family_names())))
    per_family = args.per_family if args.per_family is not None \
        else DEFAULT_PER_FAMILY
    if per_family < 1:
        raise SystemExit("--per-family must be >= 1, got %d"
                         % per_family)
    seed = args.seed if args.seed is not None else DEFAULT_SYNTH_SEED
    corpus = generate_corpus(families=names, per_family=per_family,
                             base_seed=seed)

    if args.json:
        print(json.dumps(
            [{"name": w.name, "source": w.source(),
              "label": w.label.to_dict()} for w in corpus],
            indent=1, sort_keys=True))
        return 0

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        labels = {}
        for w in corpus:
            with open(os.path.join(args.out, w.name + ".mj"),
                      "w") as handle:
                handle.write(w.source())
            labels[w.name] = w.label.to_dict()
        with open(os.path.join(args.out, "labels.json"), "w") as handle:
            handle.write(json.dumps(labels, indent=1, sort_keys=True))
        print("wrote %d instance(s) + labels.json to %s"
              % (len(corpus), args.out))
        return 0

    for w in corpus:
        label = w.label
        print("%-22s %-10s %-9s %s"
              % (w.name, label.family, label.expected_class,
                 "; ".join(label.carried) or "no carried dependence"))
        if args.source:
            print(w.source())
    print("%d instance(s), %d per family, seed %d"
          % (len(corpus), per_family, seed))
    return 0


def _resolve_source(target: str) -> tuple:
    """Return (name, minijava source) for a workload name or file."""
    if os.path.exists(target):
        with open(target) as handle:
            return os.path.basename(target), handle.read()
    from repro.workloads.registry import get_workload, workload_names
    try:
        workload = get_workload(target)
    except KeyError:
        raise SystemExit(
            "unknown workload %r; choose from: %s"
            % (target, ", ".join(workload_names())))
    return workload.name, workload.source()


def main(argv=None) -> int:
    """Entry point for the ``jrpm`` console script."""
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.workloads.registry import all_workloads
        for w in all_workloads(include_synthetic=args.synthetic):
            print("%-16s %-14s %s" % (w.name, w.category, w.description))
        return 0

    if args.command == "synth":
        return _run_synth_command(args)

    if args.command == "models":
        from repro.models import get_model, model_names
        for name in model_names():
            print("%-12s %s" % (name, get_model(name).description))
        return 0

    if args.command == "fleet":
        return _run_fleet_command(args)

    if args.command == "serve":
        return _run_serve_command(args)

    if args.command == "cache":
        return _run_cache_command(args)

    if args.command == "conform":
        return _run_conform_command(args)

    name, source = _resolve_source(args.target)
    level = AnnotationLevel.BASE if args.base \
        else AnnotationLevel.OPTIMIZED
    jrpm = Jrpm(source=source, name=name, level=level,
                trace_jit=args.trace_jit, optimize=args.optimize,
                models=args.models)
    report = jrpm.run(simulate_tls=not args.no_tls)
    if args.json:
        from repro.jrpm.report import report_json
        print(report_json(report))
        return 0
    print(render_summary(report))
    print()
    print(render_selection(report))
    if args.models:
        from repro.jrpm.report import render_models
        print()
        print(render_models(report))
    if report.outcome is not None:
        print()
        print(render_predicted_vs_actual(report))
    if report.engine is not None:
        print()
        print(render_engine_stats(report))
    if jrpm.trace_jit:
        from repro.jrpm.report import render_trace_jit
        print()
        print(render_trace_jit(report))
    if args.optimize:
        from repro.jrpm.report import render_optimize_stats
        print()
        print(render_optimize_stats(report))
    print()
    for sel in report.selection.selected[:3]:
        print(report.device.report(sel.loop_id))
        print()
    from repro.tracer import OptimizationAdvisor
    print(OptimizationAdvisor(report).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
