"""Command-line front end for the optimisation service.

Examples::

    python -m repro.service squeezenet bert --optimiser taso --workers 4
    python -m repro.service squeezenet --repeat 2 --cache-dir /tmp/repro-cache
    python -m repro.service --list-optimisers
    python -m repro.service vit -o tensat --config round_limit=3

    # serving-layer hardening knobs
    python -m repro.service bert --workers 4 --max-pending 64
    python -m repro.service squeezenet --cache-dir /var/cache/repro \\
        --cache-max-entries 512 --cache-ttl 86400

    # follow a long search live (one progress line per optimiser iteration)
    python -m repro.service bert -o xrlflow --follow

    # maintain a cache directory
    python -m repro.service --prune-cache --cache-dir /var/cache/repro \\
        --cache-max-bytes 100000000

Repeated rounds (``--repeat``) re-submit the same batch and therefore hit the
warm fingerprint cache — the printed per-job times show the cold/warm gap.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from typing import Any, Dict, List, Optional, Sequence

from ..search.result import Progress
from .api import OptimisationService
from .cache import EvictionPolicy, FingerprintCache
from .registry import default_config, list_optimisers, optimiser_spec

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``python -m repro.service`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Optimise model-zoo graphs through the serving layer.")
    parser.add_argument("models", nargs="*", default=[],
                        help="model-zoo names to optimise (default: squeezenet; "
                             "a foreign model enters through --import)")
    parser.add_argument("-o", "--optimiser", default="taso",
                        help="registered optimiser name (default: taso)")
    parser.add_argument("--config", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="optimiser config override (repeatable)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker pool size (default: 4)")
    parser.add_argument("--follow", action="store_true",
                        help="print one progress line per search iteration "
                             "while each search runs")
    parser.add_argument("--max-pending", type=int, default=256,
                        help="bounded admission queue size (default: 256)")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for the persistent cache tier "
                             "(safe to share between service processes)")
    parser.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N",
                        help="evict disk entries beyond N, cheapest miss "
                             "first (GreedyDual)")
    parser.add_argument("--cache-max-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="evict disk entries beyond BYTES total, "
                             "cheapest miss first (GreedyDual)")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="expire disk entries not accessed for SECONDS")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the fingerprint cache entirely")
    parser.add_argument("--repeat", type=int, default=1,
                        help="submit the batch N times (warm rounds hit the cache)")
    parser.add_argument("--import", action="append", default=[],
                        metavar="PATH", dest="imports",
                        help="optimise a foreign model imported from an ONNX "
                             "protobuf file (repeatable)")
    parser.add_argument("--strict-import", action="store_true",
                        help="fail --import models containing unbridged ops "
                             "instead of degrading them to Custom fallbacks")
    parser.add_argument("--full", action="store_true",
                        help="build full-size models instead of the reduced "
                             "experiment sizes")
    parser.add_argument("--list-optimisers", action="store_true",
                        help="print the optimiser registry and exit")
    parser.add_argument("--list-models", action="store_true",
                        help="print the model zoo and exit")
    parser.add_argument("--prune-cache", action="store_true",
                        help="apply the eviction policy to --cache-dir and "
                             "exit (use with --cache-max-*/--cache-ttl)")
    return parser


def _parse_config(pairs: Sequence[str]) -> Dict[str, Any]:
    config: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--config expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            config[key.strip()] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            config[key.strip()] = raw
    return config


def _eviction_policy(args: argparse.Namespace) -> Optional[EvictionPolicy]:
    if (args.cache_max_entries is None and args.cache_max_bytes is None
            and args.cache_ttl is None):
        return None
    return EvictionPolicy(max_entries=args.cache_max_entries,
                          max_bytes=args.cache_max_bytes,
                          ttl_s=args.cache_ttl)


def _print_optimisers() -> None:
    for name in list_optimisers():
        spec = optimiser_spec(name)
        print(f"{name:10s} {spec.description}")
        print(f"{'':10s}   defaults: {default_config(name)}")


def _print_models() -> None:
    from ..models.registry import MODEL_REGISTRY
    for name, info in sorted(MODEL_REGISTRY.items()):
        print(f"{name:14s} [{info.family}] {info.description}")


def _run_prune(args: argparse.Namespace) -> int:
    if args.cache_dir is None:
        raise SystemExit("--prune-cache requires --cache-dir")
    policy = _eviction_policy(args)
    if policy is None:
        raise SystemExit("--prune-cache needs at least one bound "
                         "(--cache-max-entries / --cache-max-bytes / "
                         "--cache-ttl)")
    cache = FingerprintCache(cache_dir=args.cache_dir, policy=policy)
    before = cache.persistent_usage()
    removed = cache.prune_persistent()
    after = cache.persistent_usage()
    print(f"pruned {args.cache_dir}: {removed['expired']} expired, "
          f"{removed['evicted']} evicted; "
          f"{before['entries']} -> {after['entries']} entries, "
          f"{before['bytes']} -> {after['bytes']} bytes")
    return 0


#: Serialises lines written while searches run: ``--follow`` lines come from
#: the pool's threads, ``[round N]`` lines from the main thread.
_OUTPUT_LOCK = threading.Lock()


def _write_line(line: str) -> None:
    """Write ``line`` and its newline as one write, whole among threads."""
    with _OUTPUT_LOCK:
        sys.stdout.write(line + "\n")


def _follow(name: str) -> Progress:
    """``--follow``'s progress callable: one line per search iteration."""
    def show(iteration: int, best_cost: float, best_graph_fp: str) -> None:
        _write_line(f"[follow] {name:14s} iter {iteration:4d}  "
                    f"best {best_cost:10.4f}  graph {best_graph_fp[:12]}")
    return show


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_optimisers:
        _print_optimisers()
        return 0
    if args.list_models:
        _print_models()
        return 0
    if args.prune_cache:
        return _run_prune(args)

    from pathlib import Path

    from ..experiments.common import small_model_kwargs
    from ..frontend import ImportError_, import_model
    from ..models.registry import build_model

    config = _parse_config(args.config)
    names: List[str] = args.models or ([] if args.imports else ["squeezenet"])
    try:
        optimiser_spec(args.optimiser).check_config(config)
        graphs = []
        for name in names:
            kwargs = {} if args.full else small_model_kwargs(name)
            graphs.append((build_model(name, **kwargs), name))
        for path in args.imports:
            graph, report = import_model(path, strict=args.strict_import)
            print(f"[import] {report.summary()}")
            graphs.append((graph, f"onnx:{Path(path).stem}"))
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    except (OSError, ValueError, ImportError_) as exc:
        raise SystemExit(f"error: {exc}")

    with OptimisationService(num_workers=args.workers,
                             cache_dir=args.cache_dir,
                             cache_policy=_eviction_policy(args),
                             max_pending=args.max_pending) as service:
        for round_no in range(1, max(1, args.repeat) + 1):
            jobs = [{"graph": graph, "model_name": name,
                     "progress": _follow(name) if args.follow else None}
                    for graph, name in graphs]
            job_ids = service.submit_batch(jobs, optimiser=args.optimiser,
                                           config=config,
                                           use_cache=not args.no_cache)
            for result in service.gather(job_ids):
                origin = ("cache-hit" if result.cache_hit
                          else "coalesced" if result.coalesced else "searched")
                search = result.search
                _write_line(f"[round {round_no}] {search.optimiser:8s} "
                            f"{search.model:14s} "
                            f"{search.initial_latency_ms:8.3f} ms -> "
                            f"{search.final_latency_ms:8.3f} ms "
                            f"({search.speedup_percent:+6.2f}%)  "
                            f"{search.optimisation_time_s:8.4f}s  {origin}")
        stats = service.stats()
    cache = stats["cache"]
    print(f"workers: {stats['workers']}")
    print(f"jobs: {stats['jobs']}")
    print(f"cache: {cache['memory_hits']} memory + {cache['persistent_hits']} "
          f"persistent hits, {cache['misses']} misses "
          f"({100.0 * cache['hit_rate']:.1f}% hit rate), "
          f"{stats['cache_entries']} entries resident")
    if cache["evictions"]:
        print(f"cache memory tier: {cache['evictions']} evicted")
    if cache["disk_evictions"] or cache["disk_expirations"]:
        print(f"cache disk policy: {cache['disk_evictions']} evicted, "
              f"{cache['disk_expirations']} expired")
    if cache["corrupt_entries"] or cache["stale_version_entries"]:
        print(f"cache entries refused: {cache['corrupt_entries']} corrupt, "
              f"{cache['stale_version_entries']} of another entry version")
    print(f"dedup: {stats['dedup']['coalesced']} coalesced submissions")
    return 0
