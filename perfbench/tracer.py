"""Run the ``jensenpoly`` CLI in-process with timing wrappers around its layers.

    python3 perfbench/tracer.py OUT.json ARGS...

runs ``jensenpoly.cli.main(ARGS)`` after wrapping every public function of
``zeta_core``, ``sequences``, ``asymptotics`` and ``jensen``.  A wrapper
replaces the function under every name a ``jensenpoly`` module holds it by,
since ``cli`` and ``sequences`` import some of them by name.  Three kinds of
callable are not module functions and get wrapped where they are made:

* the providers' ``value_at`` (span ``sequences.value_at``);
* the growth callables ``A_of_n`` / ``delta_of_n`` that ``zeta_params`` and
  friends return (span ``asymptotics.growth``);
* ``GammaCache.get`` / ``put`` (spans ``sequences.cache.get`` / ``.put``; the
  first ``get`` on each cache, which parses the file, is also counted as
  ``sequences.cache.load``).

``is_hyperbolic`` is recorded as ``jensen.interval_cert`` on a floating
``Poly`` and ``jensen.exact_cert`` on a ``RationalPoly``; ``cli.main`` is the
root span ``cli``.  For each span name the tracer keeps the call count, the
total time and the self time (total minus the time of spans nested inside).
It writes them to OUT.json when the command ends.  A forked pool worker
starts its own tally and rewrites ``OUT.json.<pid>`` after each top-level
span, since pool workers leave through ``os._exit``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List

LAYER_MODULES = ("zeta_core", "sequences", "asymptotics", "jensen")
_PARAM_FACTORIES = ("zeta_params", "partition_params", "modular_params")
_PROVIDER_FACTORIES = ("zeta_gamma_provider", "partition_provider", "load_sequence")


class Tracer:
    def __init__(self, out_path: str) -> None:
        self.out_path = out_path
        self.pid = os.getpid()
        self.worker = False
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.stack: List[float] = []  # time of child spans, per open span
        self.caches: list = []

    def _enter(self) -> None:
        if os.getpid() != self.pid:  # first span in a forked pool worker
            self.pid = os.getpid()
            self.worker = True
            self.stats, self.stack, self.caches = {}, [], []
        self.stack.append(0.0)

    def _leave(self, name: str, elapsed: float) -> None:
        child = self.stack.pop()
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if self.stack:
            self.stack[-1] += elapsed
        elif self.worker:
            self.dump()

    def wrap(self, name, fn: Callable) -> Callable:
        """``name`` is a span name, or a function of the call's arguments giving one."""
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name_of(*args, **kwargs), time.perf_counter() - start)

        return traced

    def record(self, name: str, elapsed: float) -> None:
        """Count a measured interval without opening a span."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed

    def dump(self) -> None:
        stats = dict(self.stats)
        if self.caches:
            stats["sequences.cache.hits"] = [sum(c.hits for c in self.caches), 0.0, 0.0]
            stats["sequences.cache.misses"] = [sum(c.misses for c in self.caches), 0.0, 0.0]
        path = self.out_path if not self.worker else f"{self.out_path}.{self.pid}"
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(stats, fh)
        os.replace(tmp, path)


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``jensenpoly`` module attribute that holds ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "jensenpoly" or mod_name.startswith("jensenpoly.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import jensenpoly.cli as cli
    from jensenpoly import asymptotics, jensen, sequences

    def params_factory(fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            params = fn(*args, **kwargs)
            for field in ("A_of_n", "delta_of_n"):
                object.__setattr__(params, field,
                                   tracer.wrap("asymptotics.growth", getattr(params, field)))
            return params
        return make

    def provider_factory(fn):
        @functools.wraps(fn)
        def make(*args, **kwargs):
            provider = fn(*args, **kwargs)
            object.__setattr__(provider, "value_at",
                               tracer.wrap("sequences.value_at", provider.value_at))
            return provider
        return make

    def cert_name(poly, *args, **kwargs):
        return "jensen.exact_cert" if isinstance(poly, jensen.RationalPoly) else "jensen.interval_cert"

    for mod_name in LAYER_MODULES:
        module = sys.modules[f"jensenpoly.{mod_name}"]
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapped = fn
            if attr in _PARAM_FACTORIES:
                wrapped = params_factory(fn)
            elif attr in _PROVIDER_FACTORIES:
                wrapped = provider_factory(fn)
            name = cert_name if attr == "is_hyperbolic" else f"{mod_name}.{attr}"
            _replace_everywhere(fn, tracer.wrap(name, wrapped))

    cache_cls = sequences.GammaCache
    timed_get = tracer.wrap("sequences.cache.get", cache_cls.get)

    def get(self, n, prec):
        if any(cache is self for cache in tracer.caches):
            return timed_get(self, n, prec)
        tracer.caches.append(self)
        start = time.perf_counter()
        try:
            return timed_get(self, n, prec)
        finally:
            tracer.record("sequences.cache.load", time.perf_counter() - start)

    cache_cls.get = get
    cache_cls.put = tracer.wrap("sequences.cache.put", cache_cls.put)
    cli.main = tracer.wrap("cli", cli.main)


def main(argv: List[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer(out_path)
    install(tracer)
    import jensenpoly.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
