"""Per-layer spans, recorded from outside the program.

:func:`install` replaces the public functions and methods listed in
:data:`TARGETS` with wrappers that open a span on entry and close it on
exit.  A module-level function is also replaced at every ``repro`` module
that imported it by name (``from repro.coding.linear import
best_effort_linear_code``), each import site with its own wrapper, so
calls through the importing module are timed too and can be told apart.
:meth:`Installation.restore` puts every original object back.

A span's *self time* is its duration minus the time its child spans
cover.  Summed per layer, the self times and the ``unattributed`` rest
(wall time outside every span) add up to the traced wall time exactly.
Wrapper overhead lands in the self time of the enclosing span.

Counts are taken at the same boundaries, on the outermost span of a layer
only, so a call that recurses into its own layer (a padded code decoding
through its inner code) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

#: layer vocabulary, named after ``repro`` modules
LAYERS = ("experiments", "core", "routing", "cliquesim", "coding.construct",
          "coding.encode", "coding.decode", "coding.ldc", "fields", "sketch",
          "adversary")

#: (layer, module, "function" or "Class.method") — everything the traced
#: run wraps; missing targets are an error so a rename cannot silently
#: zero a layer
TARGETS = (
    ("experiments", "repro.experiments.runner", "run_campaign"),
    ("experiments", "repro.experiments.store", "TrialStore.append"),
    ("core", "repro.core.alltoall", "run_protocol"),
    ("core", "repro.core.vmapped", "run_protocol_many"),
    ("core", "repro.core.det_sqrt", "DetSqrtAllToAll.run"),
    ("core", "repro.core.det_logn", "DetLogAllToAll.run"),
    ("core", "repro.core.nonadaptive", "NonAdaptiveAllToAll.run"),
    ("core", "repro.core.adaptive", "AdaptiveAllToAll.run"),
    ("core", "repro.core.vmapped", "BatchedDetSqrtAllToAll.run_many"),
    ("core", "repro.core.vmapped", "BatchedDetLogAllToAll.run_many"),
    ("core", "repro.core.vmapped", "BatchedNonAdaptiveAllToAll.run_many"),
    ("core", "repro.core.vmapped", "BatchedAdaptiveAllToAll.run_many"),
    ("routing", "repro.core.routing", "SuperMessageRouter.route"),
    ("routing", "repro.core.batched_routing", "BatchedRouter.route"),
    ("routing", "repro.core.batched_routing", "BatchedRouter.route_shared"),
    ("routing", "repro.core.batched_routing", "BatchedRouter.route_grouped"),
    ("cliquesim", "repro.cliquesim.network", "CongestedClique.round"),
    ("cliquesim", "repro.cliquesim.network", "CongestedClique.round_many"),
    ("cliquesim", "repro.cliquesim.network",
     "CongestedClique.exchange_words"),
    ("cliquesim", "repro.cliquesim.network", "CongestedClique.exchange_bits"),
    ("cliquesim", "repro.cliquesim.batched", "BatchedClique.round"),
    ("cliquesim", "repro.cliquesim.batched", "BatchedClique.round_many"),
    ("cliquesim", "repro.cliquesim.batched", "BatchedClique.exchange_words"),
    ("cliquesim", "repro.cliquesim.batched",
     "BatchedClique.exchange_words_ragged"),
    ("cliquesim", "repro.cliquesim.batched", "BatchedClique.exchange_bits"),
    ("coding.construct", "repro.coding.linear", "best_effort_linear_code"),
    ("coding.construct", "repro.coding.linear", "search_linear_code"),
    ("coding.construct", "repro.coding.justesen", "make_justesen_code"),
    ("coding.construct", "repro.coding.reed_muller", "cached_reed_muller"),
    ("coding.construct", "repro.core.profiles",
     "ProtocolProfile.select_routing_code"),
    ("coding.encode", "repro.coding.linear", "LinearBlockCode.encode_many"),
    ("coding.encode", "repro.coding.justesen", "ConcatenatedCode.encode_many"),
    ("coding.encode", "repro.coding.justesen", "PaddedCode.encode_many"),
    ("coding.encode", "repro.coding.reed_solomon",
     "ReedSolomonCodec.encode_many"),
    ("coding.encode", "repro.coding.reed_solomon",
     "ReedSolomonBinaryCode.encode_many"),
    ("coding.decode", "repro.coding.linear",
     "LinearBlockCode.decode_many_flagged"),
    ("coding.decode", "repro.coding.linear", "LinearBlockCode.decode_blocks"),
    ("coding.decode", "repro.coding.justesen",
     "ConcatenatedCode.decode_many_flagged"),
    ("coding.decode", "repro.coding.justesen",
     "PaddedCode.decode_many_flagged"),
    ("coding.decode", "repro.coding.reed_solomon",
     "ReedSolomonCodec.correct_many"),
    ("coding.decode", "repro.coding.reed_solomon",
     "ReedSolomonCodec.decode_many_flagged"),
    ("coding.decode", "repro.coding.reed_solomon",
     "ReedSolomonBinaryCode.decode_many_flagged"),
    ("coding.ldc", "repro.coding.reed_muller", "ReedMullerLDC.encode_many"),
    ("coding.ldc", "repro.coding.reed_muller",
     "ReedMullerLDC.local_decode_many"),
    ("coding.ldc", "repro.coding.reed_muller", "ReedMullerLDC.local_decode"),
    ("coding.ldc", "repro.coding.reed_muller", "berlekamp_welch"),
    ("fields", "repro.fields.gfp", "PrimeField.solve"),
    ("fields", "repro.fields.gf2m", "GF2m.matmul"),
    ("sketch", "repro.sketch.ksparse", "SketchPlanes.add_many"),
    ("sketch", "repro.sketch.ksparse", "SketchPlaneStack.add_many"),
    ("sketch", "repro.sketch.ksparse", "SketchPlaneStack.add_many_lockstep"),
    ("sketch", "repro.sketch.ksparse", "SketchPlaneStack.merge_many"),
    ("sketch", "repro.sketch.ksparse", "SketchPlaneStack.recover_many"),
    ("sketch", "repro.sketch.ksparse", "KSparseSketch.recover"),
    ("adversary", "repro.adversary.adaptive", "AdaptiveAdversary.select_edges"),
    ("adversary", "repro.adversary.adaptive", "AdaptiveAdversary.corrupt"),
    ("adversary", "repro.adversary.batched",
     "PerTrialAdversaryBatch.select_edges_many"),
    ("adversary", "repro.adversary.batched",
     "PerTrialAdversaryBatch.corrupt_many"),
    ("adversary", "repro.faults.channels",
     "StochasticEdgeChannel.select_edges"),
    ("adversary", "repro.faults.channels", "StochasticEdgeChannel.corrupt"),
    ("adversary", "repro.faults.channels",
     "BatchedIIDEdgeChannel.select_edges_many"),
    ("adversary", "repro.faults.channels", "_BatchedChannelBase.corrupt_many"),
    ("adversary", "repro.adversary.budget", "greedy_symmetric_selection"),
    ("adversary", "repro.adversary.budget", "validate_fault_sets"),
    ("adversary", "repro.adversary.budget", "validate_fault_set"),
)

#: import sites the traced run must find, one per by-name import of a
#: wrapped function; a refactor that drops one shows up as an error
REQUIRED_IMPORT_SITES = (
    "repro.core.profiles:best_effort_linear_code",
    "repro.core.nonadaptive:best_effort_linear_code",
    "repro.core.vmapped:best_effort_linear_code",
    "repro.coding.justesen:best_effort_linear_code",
    "repro.adversary.adaptive:greedy_symmetric_selection",
)

#: construction functions keyed by a process-wide cache dict:
#: site function name -> (module, cache attribute, key parameters)
CONSTRUCTION_CACHES = {
    "search_linear_code": ("repro.coding.linear", "_SEARCH_CACHE",
                           ("k", "n", "target_distance", "seed")),
    "make_justesen_code": ("repro.coding.justesen", "_FACTORY_CACHE",
                           ("n_bits", "rate", "seed")),
    "cached_reed_muller": ("repro.coding.reed_muller", "_LDC_CACHE",
                           ("p", "m", "degree")),
}


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: closed spans: (site, layer, start, end, parent index, context)
        self.spans: List[Tuple] = []
        #: open spans: [site, layer, start, child seconds, index, parent]
        self._open: List[List] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.layer_calls: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.depth: Counter = Counter()
        #: cell or trial id of the work in flight
        self.context: Optional[str] = None

    def open(self, site: str, layer: str) -> None:
        parent = self._open[-1][4] if self._open else -1
        index = len(self.spans)
        self.spans.append(None)  # reserved so children point at it
        self._open.append([site, layer, self.clock(), 0.0, index, parent])
        self.depth[layer] += 1
        self.layer_calls[layer] += 1
        self.site_calls[site] += 1

    def close(self) -> None:
        end = self.clock()
        site, layer, start, child_s, index, parent = self._open.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if self._open:
            self._open[-1][3] += duration
        self.depth[layer] -= 1
        self.spans[index] = (site, layer, start, end, parent, self.context)

    def wrap(self, site: str, layer: str, fn: Callable,
             hook: Optional["Hook"] = None) -> Callable:
        """``fn`` inside a span, with ``hook`` counting at its boundary."""
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counted = hook is not None and (hook.every_call
                                            or self.depth[layer] == 0)
            state = (hook.before(self, args, kwargs)
                     if counted and hook.before is not None else None)
            self.open(site, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close()
                if counted:
                    hook.after(self, (args, kwargs, state), None, exc)
                raise
            self.close()
            if counted:
                hook.after(self, (args, kwargs, state), result, None)
            return result
        return spanned

    def context_wrap(self, fn: Callable, label: Callable) -> Callable:
        """``fn`` with :attr:`context` set to ``label(*args)`` meanwhile."""
        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            saved, self.context = self.context, label(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.context = saved
        return scoped

    # -- results -------------------------------------------------------------
    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """``<layer>.self_s``/``.calls`` for every layer, the counts and
        ratios (each with its base), and the unattributed remainder."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(self.self_s.get(layer, 0.0))
            out[f"{layer}.calls"] = int(self.layer_calls.get(layer, 0))
        counts = self.counts
        for name in COUNT_NAMES:
            out[name] = int(counts.get(name, 0))
        for ratio, (numerator, base) in RATIOS.items():
            out[ratio] = (counts[numerator] / counts[base]
                          if counts[base] else 0.0)
        out["unattributed.self_s"] = wall_s - sum(self.self_s.values())
        return out

    def span_records(self):
        for index, span in enumerate(self.spans):
            if span is None:
                continue  # still open: cannot happen after a clean run
            site, layer, start, end, parent, context = span
            yield {"id": index, "name": site, "layer": layer,
                   "start": start, "end": end, "parent": parent,
                   "context": context}


#: every count a traced run reports (also the bases of the ratios)
COUNT_NAMES = (
    "experiments.rows_written", "experiments.fallback_rows",
    "routing.messages", "routing.decoded_rows", "routing.decode_failures",
    "cliquesim.rounds", "cliquesim.bits",
    "coding.construct.lookups", "coding.construct.cache_hits",
    "coding.decode.words", "coding.decode.flagged",
    "coding.ldc.lines", "coding.ldc.dirty_lines", "coding.ldc.failed_lines",
    "sketch.recoveries", "sketch.recovery_failures",
    "adversary.edges_selected",
)

#: ratio name -> (numerator count, base count)
RATIOS = {
    "routing.decode_failure_ratio": ("routing.decode_failures",
                                     "routing.decoded_rows"),
    "coding.construct.cache_hit_ratio": ("coding.construct.cache_hits",
                                         "coding.construct.lookups"),
    "coding.decode.flagged_ratio": ("coding.decode.flagged",
                                    "coding.decode.words"),
    "coding.ldc.dirty_line_ratio": ("coding.ldc.dirty_lines",
                                    "coding.ldc.lines"),
    "coding.ldc.failed_ratio": ("coding.ldc.failed_lines",
                                "coding.ldc.lines"),
    "sketch.recovery_failure_ratio": ("sketch.recovery_failures",
                                      "sketch.recoveries"),
}


# -- count hooks ---------------------------------------------------------------
class Hook(NamedTuple):
    """Counting at a wrapped call.  ``before(tracer, args, kwargs)`` runs on
    entry; ``after(tracer, (args, kwargs, before's value), result, error)``
    runs once the span has closed.  Both run on the outermost span of the
    layer only, unless ``every_call`` is set."""

    after: Callable
    before: Optional[Callable] = None
    every_call: bool = False


def _store_rows(tracer, call, row, error):
    stored = call[0][1]
    if "status" in stored:  # trial rows, not campaign headers
        tracer.counts["experiments.rows_written"] += 1
        tracer.counts["experiments.fallback_rows"] += "fallback" in stored


def _messages(count_of):
    def hook(tracer, call, result, error):
        tracer.counts["routing.messages"] += count_of(*call[0], **call[1])
    return hook


def _net_totals(net) -> Tuple[int, int]:
    rounds = net.rounds_by_trial if hasattr(net, "rounds_by_trial") \
        else net.rounds_used
    return int(np.sum(rounds)), int(np.sum(net.bits_sent))


def _net_delta(tracer, call, result, error):
    (net, *_), _, before = call
    rounds, bits = _net_totals(net)
    tracer.counts["cliquesim.rounds"] += rounds - before[0]
    tracer.counts["cliquesim.bits"] += bits - before[1]


def _cache_lookup(name):
    module, attribute, params = CONSTRUCTION_CACHES[name]
    cache = getattr(importlib.import_module(module), attribute)
    signature = inspect.signature(
        getattr(importlib.import_module(module), name))

    def before(tracer, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments[p] for p in params)
        tracer.counts["coding.construct.lookups"] += 1
        tracer.counts["coding.construct.cache_hits"] += key in cache
    return before


def _decoded(tracer, call, result, error):
    if error is not None:
        return
    failed = np.asarray(result[1])
    words, flagged = int(failed.size), int(np.count_nonzero(failed))
    tracer.counts["coding.decode.words"] += words
    tracer.counts["coding.decode.flagged"] += flagged
    if tracer.depth["routing"]:
        tracer.counts["routing.decoded_rows"] += words
        tracer.counts["routing.decode_failures"] += flagged


def _ldc_lines(tracer, call, result, error):
    if error is None:
        tracer.counts["coding.ldc.lines"] += int(np.shape(call[0][2])[0])
        tracer.counts["coding.ldc.failed_lines"] += int(
            np.count_nonzero(np.asarray(result) == -1))


def _no_count(tracer, call, result, error):
    pass


def _dirty_line(tracer, call, result, error):
    tracer.counts["coding.ldc.dirty_lines"] += 1


def _recover_many(tracer, call, result, error):
    if error is None:
        from repro.sketch.ksparse import SketchRecoveryError
        tracer.counts["sketch.recoveries"] += len(result)
        tracer.counts["sketch.recovery_failures"] += sum(
            isinstance(outcome, SketchRecoveryError) for outcome in result)


def _recover_one(tracer, call, result, error):
    from repro.sketch.ksparse import SketchRecoveryError
    tracer.counts["sketch.recoveries"] += 1
    tracer.counts["sketch.recovery_failures"] += isinstance(
        error, SketchRecoveryError)


def _edges(tracer, call, result, error):
    if error is None:
        tracer.counts["adversary.edges_selected"] += int(
            np.count_nonzero(result))


_CLIQUE_HOOK = Hook(_net_delta, lambda t, args, kw: _net_totals(args[0]))

#: attribute (the method or function name) -> count hook
HOOKS = {
    "TrialStore.append": Hook(_store_rows, every_call=True),
    "SuperMessageRouter.route": Hook(_messages(
        lambda self, messages, *a, **k: len(messages))),
    "BatchedRouter.route": Hook(_messages(
        lambda self, trials_messages, *a, **k: sum(map(len, trials_messages)))),
    "BatchedRouter.route_shared": Hook(_messages(
        lambda self, messages, *a, **k: len(messages) * self.net.trials)),
    "BatchedRouter.route_grouped": Hook(_messages(
        lambda self, sources, slots, sizes, *a, **k:
        int(np.asarray(sizes).size) * self.net.trials)),
    "ReedMullerLDC.local_decode_many": Hook(_ldc_lines),
    "ReedMullerLDC.local_decode": Hook(_dirty_line, every_call=True),
    "SketchPlaneStack.recover_many": Hook(_recover_many),
    "KSparseSketch.recover": Hook(_recover_one),
}
for _name in ("decode_many_flagged", "correct_many"):
    for _cls in ("LinearBlockCode", "ConcatenatedCode", "PaddedCode",
                 "ReedSolomonCodec", "ReedSolomonBinaryCode"):
        HOOKS[f"{_cls}.{_name}"] = Hook(_decoded)
for _cls in ("CongestedClique", "BatchedClique"):
    for _name in ("round", "round_many", "exchange_words",
                  "exchange_words_ragged", "exchange_bits"):
        HOOKS[f"{_cls}.{_name}"] = _CLIQUE_HOOK
for _name in ("AdaptiveAdversary.select_edges",
              "PerTrialAdversaryBatch.select_edges_many",
              "StochasticEdgeChannel.select_edges",
              "BatchedIIDEdgeChannel.select_edges_many"):
    HOOKS[_name] = Hook(_edges)


# -- installation ---------------------------------------------------------------
class Installation:
    """The wrappers in place; :meth:`restore` puts every original back."""

    def __init__(self):
        self._saved: List[Tuple[object, str, object]] = []
        #: every wrapped site, ``module:attribute``
        self.sites: List[str] = []

    def replace(self, owner, attribute: str, new, site: str) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, new)
        self.sites.append(site)

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def _trial_label(trial, *args, **kwargs) -> str:
    return f"trial:{trial.content_hash()}"


def _cell_label(trials, *args, **kwargs) -> str:
    head = trials[0]
    return (f"cell:{head.protocol}/{head.adversary}/n{head.n}"
            f"/a{head.alpha:g}x{len(trials)}")


def install(tracer: Tracer) -> Installation:
    """Wrap every target (and every by-name import site of a wrapped
    function) so calls record spans into ``tracer``.  On any error the
    wrappers already in place are removed again."""
    done = Installation()
    try:
        _wrap_all(tracer, done)
    except BaseException:
        done.restore()
        raise
    return done


def _wrap_all(tracer: Tracer, done: Installation) -> None:
    for _, module_name, _ in TARGETS:
        importlib.import_module(module_name)  # so every import site exists
    for layer, module_name, path in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attribute = path.rpartition(".")
        hook = HOOKS.get(path)
        if owner_name:
            owner = getattr(module, owner_name)
            if attribute not in owner.__dict__:
                raise LookupError(f"{module_name}:{path} is not defined there")
            site = f"{module_name}:{path}"
            done.replace(owner, attribute, tracer.wrap(
                site, layer, owner.__dict__[attribute], hook), site)
            continue
        original = getattr(module, attribute)
        if attribute in CONSTRUCTION_CACHES:
            hook = Hook(_no_count, _cache_lookup(attribute), every_call=True)
        # the defining module plus every repro module importing it by name
        for importer in sorted(name for name in sys.modules
                               if name.split(".")[0] == "repro"):
            importer_module = sys.modules[importer]
            if importer_module.__dict__.get(attribute) is original:
                site = f"{importer}:{attribute}"
                done.replace(importer_module, attribute,
                             tracer.wrap(site, layer, original, hook), site)
    missing = [site for site in REQUIRED_IMPORT_SITES
               if site not in done.sites]
    if missing:
        raise LookupError(f"import sites not found: {missing}")
    runner = sys.modules["repro.experiments.runner"]
    vmap = importlib.import_module("repro.experiments.vmap")
    done.replace(runner, "run_single",
                 tracer.context_wrap(runner.run_single, _trial_label),
                 "context:run_single")
    done.replace(vmap, "run_cell_batched",
                 tracer.context_wrap(vmap.run_cell_batched, _cell_label),
                 "context:run_cell_batched")
