"""Per-layer attribution for the traced repetition: profile buckets and call counters.

Layers are the packages under ``src/repro/``.  Both tools look from outside:
the profile is bucketed by *file path* (``repro/<package>/``), so moving code
between modules of one package cannot break it, and the call counters replace
module globals found by identity, so ``from x import f`` call sites count too.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import sys
from typing import Any, Callable, Dict, List, Tuple

from perf_child import load

LAYERS = (
    "sim", "network", "core", "protocols", "pacemaker", "quorum", "forest",
    "mempool", "executor", "client", "crypto", "types", "transport", "sync",
    "checkpoint", "scenario", "experiments", "bench", "fuzz", "obs", "election",
)

#: Substring of a profile entry's file path or C-function name -> stdlib bucket.
#: First match wins; C functions have no file, only a name such as
#: ``<built-in method _heapq.heappush>``.
STDLIB_BUCKETS = (
    ("heapq", "stdlib.heapq"),
    ("/random.py", "stdlib.random"), ("_random", "stdlib.random"),
    ("hashlib", "stdlib.hashlib"), ("/hmac.py", "stdlib.hashlib"),
    ("_hmac", "stdlib.hashlib"), ("_sha", "stdlib.hashlib"), ("_blake2", "stdlib.hashlib"),
    ("/json/", "stdlib.json"), ("_json", "stdlib.json"),
    ("/asyncio/", "stdlib.asyncio"), ("_asyncio", "stdlib.asyncio"),
    ("/selectors.py", "stdlib.asyncio"), ("select.", "stdlib.asyncio"),
    ("_socket", "stdlib.asyncio"), ("/socket.py", "stdlib.asyncio"),
)


def new_profiler() -> cProfile.Profile:
    return cProfile.Profile()


def bucket_of(filename: str, function: str) -> str:
    """The layer, ``stdlib.*`` bucket or ``other`` one profile entry belongs to.

    A C function has no file (``~``), only a name such as ``<built-in method
    _heapq.heappush>``; unless that name places it in a tracked stdlib module
    it is a generic built-in, which :func:`attribute` bills to its callers.
    """
    marker = filename.rfind("/repro/")
    if marker >= 0:
        package = filename[marker + len("/repro/"):].partition("/")[0]
        return package if package in LAYERS else "other"
    for needle, bucket in STDLIB_BUCKETS:
        if needle in (function if filename == "~" else filename):
            return bucket
    return "stdlib.builtins" if filename == "~" else "other"


def attribute(profiler: cProfile.Profile, top: int = 12) -> Dict[str, Any]:
    """Self time and call count per bucket; every profiled call is a span.

    ``len``, ``pow``, ``dict.get`` and the like are part of whoever calls them:
    the time of a generic C built-in is split over its callers' buckets (the
    profile records it per caller), so ``crypto.self_s`` includes the ``pow``
    calls of the ed25519 code and ``stdlib.builtins`` keeps only built-ins
    called from outside any layer.
    """
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    hottest: List[Tuple[float, str]] = []
    idle = 0.0

    def bill(bucket: str, seconds: float, ncalls: int) -> None:
        self_s[bucket] = self_s.get(bucket, 0.0) + seconds
        calls[bucket] = calls.get(bucket, 0) + ncalls

    for (filename, line, function), (_, ncalls, tottime, _, callers) in pstats.Stats(profiler).stats.items():
        if filename == "~" and "select.epoll" in function and "poll" in function:
            idle += tottime  # waiting for a socket is not work
            continue
        bucket = bucket_of(filename, function)
        hottest.append((tottime, f"{bucket}  {filename.rpartition('/repro/')[2]}:{line} {function}"))
        if bucket == "stdlib.builtins" and callers:
            for (caller_file, _, caller_name), (caller_calls, _, caller_self, _) in callers.items():
                bill(bucket_of(caller_file, caller_name), caller_self, caller_calls)
        else:
            bill(bucket, tottime, ncalls)
    total = sum(self_s.values())
    metrics: Dict[str, float] = {"profile.total_s": total, "profile.idle_s": idle}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    for bucket in sorted({b for _, b in STDLIB_BUCKETS} | {"stdlib.builtins", "other"}):
        metrics[f"{bucket}.self_s"] = self_s.get(bucket, 0.0)
    metrics["profile.attributed_share"] = 1.0 - self_s.get("other", 0.0) / total if total else 0.0
    hottest.sort(reverse=True)
    return {"metrics": metrics,
            "hottest": [f"{t:.3f}s  {label}" for t, label in hottest[:top]]}


class CallCounters:
    """Counts calls to a few public functions for the length of a traced repetition.

    Targets are resolved by dotted name when the block is entered; a missing or
    renamed one is recorded in :attr:`unavailable` and counts as zero instead of
    failing the repetition.
    """

    SIGN = "repro.crypto.signatures:sign"
    VERIFY = "repro.crypto.signatures:verify"
    ENCODE = "repro.transport.codec:encode_message"
    DECODE = "repro.transport.codec:decode_message"

    def __init__(self, deploy: bool) -> None:
        # The simulator never serialises; importing the codec there would only
        # drag asyncio into a process that does not otherwise load it.
        self.targets = [self.SIGN, self.VERIFY] + ([self.ENCODE, self.DECODE] if deploy else [])
        self.calls = {target: 0 for target in (self.SIGN, self.VERIFY, self.ENCODE, self.DECODE)}
        self.encoded_bytes = 0
        self.duplicate_verifies = 0
        self._verified: set = set()
        self.unavailable: Dict[str, str] = {}
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrapper(self, target: str, original: Callable) -> Callable:
        counters = self
        if target == self.VERIFY:
            def verify(registry: Any, signature: Any) -> Any:
                counters.calls[target] += 1
                key = (signature.signer, signature.digest, signature.tag)
                if key in counters._verified:
                    counters.duplicate_verifies += 1
                else:
                    counters._verified.add(key)
                return original(registry, signature)
            return verify
        if target == self.ENCODE:
            def encode(message: Any) -> bytes:
                counters.calls[target] += 1
                payload = original(message)
                counters.encoded_bytes += len(payload)
                return payload
            return encode

        def counted(*args: Any, **kwargs: Any) -> Any:
            counters.calls[target] += 1
            return original(*args, **kwargs)
        return counted

    def __enter__(self) -> "CallCounters":
        if "repro.api" not in sys.modules:
            importlib.import_module("repro.api")
        if self.ENCODE in self.targets:
            importlib.import_module("repro.transport.runtime")
        for target in self.targets:
            try:
                original = load(target)
            except (ImportError, AttributeError) as exc:
                self.unavailable[target] = repr(exc)
                continue
            wrapper = self._wrapper(target, original)
            # Call sites hold the function under their own global name
            # (``from repro.crypto.signatures import verify``): replace each.
            for name, module in list(sys.modules.items()):
                if not name.startswith("repro") or module is None:
                    continue
                for global_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, global_name, wrapper)
                        self._patched.append((module, global_name, original))
        return self

    def __exit__(self, *exc: Any) -> None:
        for module, global_name, original in self._patched:
            setattr(module, global_name, original)
        self._patched.clear()

    def per_tx(self, tx: int) -> Dict[str, Any]:
        verifies = self.calls[self.VERIFY]
        return {
            "metrics": {
                "crypto.sign_calls_per_tx": self.calls[self.SIGN] / tx,
                "crypto.verify_calls_per_tx": verifies / tx,
                "crypto.verify_dup_share": self.duplicate_verifies / verifies if verifies else 0.0,
                "transport.encode_calls_per_tx": self.calls[self.ENCODE] / tx,
                "transport.decode_calls_per_tx": self.calls[self.DECODE] / tx,
                "transport.encoded_bytes_per_tx": self.encoded_bytes / tx,
            },
            "unavailable": self.unavailable,
        }

