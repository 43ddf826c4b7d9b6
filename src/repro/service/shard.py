"""One shard of the sharded serving tier.

A shard is a full :class:`~repro.service.server.AnalysisService` — the
scheduler, the resident executor pool, the artifact cache, and the
result LRU — running in its own process on its own port.  The
frontend (:class:`~repro.service.router.ShardedFrontend`) routes each
content-addressed request key to one shard, so a shard's caches stay
warm on a stable slice of the key space.

Run directly (the frontend does this via :class:`ShardProcess`)::

    python -m repro.service.shard --port 0 --index 0 [serve options]

The process prints one banner line naming its bound port, serves until
SIGTERM/SIGINT, drains, prints a summary, and exits 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Any, Dict, Optional, Tuple

#: banner prefix the frontend parses to learn the shard's port
BANNER = "jrpm-shard"


class ShardError(RuntimeError):
    """A shard process failed to start or died unexpectedly."""


class ShardProcess:
    """Owns one shard subprocess: spawn, address discovery, shutdown.

    ``options`` maps serve-option names (``jobs``, ``queue_depth``,
    ``max_batch``, ``result_cache``, ``cache_dir``, ``timeout``,
    ``retries``, ``max_body_bytes``, ``trace_jit``, ``verbose``) to
    values; None values are omitted (shard defaults apply), and
    ``trace_jit`` (default True) is always passed as ``--trace-jit``
    or ``--no-trace-jit``.
    """

    def __init__(self, index: int,
                 options: Optional[Dict[str, Any]] = None,
                 host: str = "127.0.0.1"):
        self.index = index
        self.host = host
        self.options = dict(options or {})
        self.port: Optional[int] = None
        self._proc: Optional[subprocess.Popen] = None

    def _argv(self) -> list:
        # -c, not -m: runpy would re-execute a module the package
        # __init__ already imported and warn about the double import
        argv = [sys.executable, "-c",
                "import sys; from repro.service.shard import main; "
                "sys.exit(main())",
                "--index", str(self.index),
                "--host", self.host, "--port", "0"]
        options = dict(self.options)
        # each shard gets its own artifact-cache subdirectory: the
        # ring already partitions keys, so sharing one directory would
        # only contend on writes without improving hit rates
        cache_dir = options.pop("cache_dir", None)
        if cache_dir:
            argv += ["--cache-dir",
                     os.path.join(cache_dir, "shard-%d" % self.index)]
        argv.append("--trace-jit" if options.pop("trace_jit", True)
                    else "--no-trace-jit")
        if options.pop("verbose", False):
            argv.append("--verbose")
        for name, value in sorted(options.items()):
            if value is not None:
                argv += ["--" + name.replace("_", "-"), str(value)]
        return argv

    def spawn(self) -> Tuple[str, int]:
        """Start the subprocess; returns ``(host, port)`` once the
        shard's banner names its bound port."""
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        # stdout carries only the banner and the shutdown summary;
        # shard stderr (tracebacks, --verbose logs) stays on ours
        self._proc = subprocess.Popen(
            self._argv(), stdout=subprocess.PIPE, env=env, text=True)
        banner = self._proc.stdout.readline()
        if not banner.startswith(BANNER):
            self._proc.kill()
            self._proc.wait(timeout=10)
            raise ShardError(
                "shard %d failed to start (got %r)"
                % (self.index, banner))
        self.port = int(banner.rsplit(":", 1)[1])
        return self.host, self.port

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def request_stop(self) -> None:
        """SIGTERM: the shard drains and exits on its own."""
        if self.alive:
            self._proc.terminate()

    def wait(self, timeout: float = 30.0) -> Optional[int]:
        """Exit code, killing the shard if the drain exceeds
        ``timeout``."""
        if self._proc is None:
            return None
        try:
            self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(timeout=10)
        finally:
            if self._proc.stdout is not None:
                self._proc.stdout.close()
        return self._proc.returncode


def main(argv=None) -> int:
    """Entry point of one shard process."""
    from repro.jrpm.cache import ArtifactCache
    from repro.service.server import (
        DEFAULT_MAX_BODY_BYTES,
        AnalysisService,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.shard",
        description="one shard of the jrpm sharded serving tier")
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=8)
    parser.add_argument("--result-cache", type=int, default=256)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument("--max-body-bytes", type=int,
                        default=DEFAULT_MAX_BODY_BYTES)
    parser.add_argument("--trace-jit",
                        action=argparse.BooleanOptionalAction,
                        default=True)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    cache = None
    if args.cache_dir:
        cache = ArtifactCache(directory=args.cache_dir)
    service = AnalysisService(
        host=args.host, port=args.port, cache=cache,
        jobs=args.jobs, queue_depth=args.queue_depth,
        max_batch=args.max_batch,
        result_cache_size=args.result_cache,
        timeout=args.timeout, retries=args.retries,
        max_body_bytes=args.max_body_bytes,
        verbose=args.verbose, trace_jit=args.trace_jit)
    service.install_signal_handlers()
    service.start()
    print("%s %d listening on http://%s:%d"
          % (BANNER, args.index, service.host, service.port),
          flush=True)
    service.serve_until_signal()
    snapshot = service.metrics.to_dict()
    print("%s %d drained: %d analyses, %d cached"
          % (BANNER, args.index,
             snapshot["counters"].get("analyze_completed", 0),
             snapshot["counters"].get("result_cache_hits", 0)),
          flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
