"""Resilient trial execution: timeouts, retries, and chaos injection.

Long heavy-traffic campaigns die for boring reasons — one wedged trial, a
transient allocation failure, an operator SIGKILL.  This module wraps the
per-trial execution path so campaigns survive all three:

* :class:`ResiliencePolicy` — per-trial wall-clock timeout (SIGALRM-based,
  active on the main thread of POSIX workers; elsewhere trials simply run
  unguarded) and bounded retries with exponential backoff;
* retries re-run the *same* trial dict, so every derived seed is identical
  and a retry that succeeds produces the exact row an undisturbed run
  would have produced (bit-identical modulo wall-clock fields);
* ``REPRO_CHAOS_TIMEOUT=<p>`` injects a deterministic synthetic timeout
  into the first attempt of a ``p``-fraction of trials (keyed on the trial
  hash) — the chaos hook the CI chaos-smoke job uses to prove the retry
  and resume machinery actually heals.

Rows that needed more than one attempt carry an ``attempts`` field and
(on the attempt that failed) the usual ``error`` bookkeeping; rows that
succeed first try are byte-identical to rows from the plain path, which
is what keeps the backend parity contract intact.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

#: environment hook: fraction of trials whose first attempt fails with a
#: synthetic TrialTimeout (deterministic per trial hash)
CHAOS_TIMEOUT_ENV = "REPRO_CHAOS_TIMEOUT"


class TrialTimeout(Exception):
    """A trial exceeded its wall-clock budget (or a chaos-injected one)."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the runner fights for each trial.

    ``timeout_seconds=None`` disables the per-trial alarm; ``retries=0``
    disables re-execution.  The default policy is a no-op, so existing
    callers keep the exact legacy behaviour.
    """

    timeout_seconds: Optional[float] = None
    retries: int = 0
    backoff_seconds: float = 0.25

    def __post_init__(self):
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return self.timeout_seconds is not None or self.retries > 0


#: the no-op policy (legacy behaviour)
NO_POLICY = ResiliencePolicy()


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def trial_alarm(seconds: Optional[float]):
    """Raise :class:`TrialTimeout` inside the block after ``seconds``.

    Uses ``setitimer``/SIGALRM, which can interrupt pure-numpy trial code
    between bytecodes; silently a no-op where SIGALRM cannot be armed
    (non-POSIX, or off the main thread) — the policy degrades to
    retries-only rather than refusing to run.
    """
    if seconds is None or not _alarm_available():
        yield
        return

    def _on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def chaos_timeout_fraction() -> float:
    """The configured chaos-injection probability (0.0 when disabled).

    A value that is not a number in [0, 1] raises :class:`ValueError`: read
    as 0.0 it would turn chaos off, and a chaos run would then pass without
    injecting anything."""
    raw = os.environ.get(CHAOS_TIMEOUT_ENV)
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{CHAOS_TIMEOUT_ENV}={raw!r} is not a probability "
                         f"in [0, 1]")
    return value


def _chaos_hits(trial_hash: str, fraction: float) -> bool:
    """Deterministic per-trial chaos decision: the same trial is hit in
    every process and on every resume, so chaos runs are reproducible."""
    if fraction <= 0.0:
        return False
    digest = hashlib.sha256(f"chaos:{trial_hash}".encode()).hexdigest()
    return int(digest[:8], 16) / float(1 << 32) < fraction


def execute_trial_resilient(trial_dict: Dict,
                            policy: Optional[ResiliencePolicy] = None) -> Dict:
    """Picklable worker unit with timeout/retry/chaos semantics.

    Every attempt re-runs the identical trial dict, so derived seeds — and
    therefore any successful row's payload — match a plain
    :func:`~repro.experiments.runner.execute_trial` run exactly.  The
    returned row gains an ``attempts`` field only when recovery actually
    happened (first-try rows stay byte-identical to the legacy path).
    """
    from repro.experiments.runner import (
        STATUS_ERROR,
        execute_trial,
        run_single,
    )
    from repro.experiments.spec import TrialSpec

    policy = policy or NO_POLICY
    chaos = chaos_timeout_fraction()
    if not policy.active and chaos <= 0.0:
        return execute_trial(trial_dict)

    trial = TrialSpec.from_dict(trial_dict)
    trial_hash = trial.content_hash()
    attempts = 0
    while True:
        attempts += 1
        start = time.perf_counter()
        try:
            if attempts == 1 and _chaos_hits(trial_hash, chaos):
                raise TrialTimeout(
                    f"chaos-injected worker timeout "
                    f"({CHAOS_TIMEOUT_ENV}={chaos})")
            with trial_alarm(policy.timeout_seconds):
                row, _ = run_single(trial)
        except TrialTimeout as exc:
            # either the chaos hook, or an alarm that fired outside
            # run_single's own containment window
            row = {
                "hash": trial_hash,
                "trial": trial.to_dict(),
                "status": STATUS_ERROR,
                "reason": repr(exc),
                "traceback": traceback.format_exc(),
                "wall_seconds": round(time.perf_counter() - start, 6),
                "recorded_unix": round(time.time(), 6),
            }
        if row["status"] != STATUS_ERROR or attempts > policy.retries:
            break
        # exponential backoff before the next attempt
        delay = policy.backoff_seconds * (2 ** (attempts - 1))
        if delay > 0:
            time.sleep(delay)
    if attempts > 1:
        row["attempts"] = attempts
    return row
