"""Trace capture and comparison, for every workload.

The paper validates each refinement by trace-file comparison: *"Match of
results consists of trace files comparison as the TL model captures data
consistently to the reference one"*, and levels 2/3 are each "fully
verified matching the results against the previous level's ones".

A :class:`Trace` is an ordered multiset of ``(task, index, channel,
digest)`` records; comparison is per-channel and order-preserving within
a channel, but insensitive to global interleaving (levels schedule tasks
differently while producing the same data).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np


def digest_token(token: Any) -> str:
    """Stable content digest of a token (arrays, scalars, tuples...)."""
    hasher = hashlib.sha256()
    _feed(hasher, token)
    return hasher.hexdigest()[:16]


def _feed(hasher, token: Any) -> None:
    if isinstance(token, np.ndarray):
        hasher.update(b"ndarray")
        hasher.update(str(token.shape).encode())
        hasher.update(np.ascontiguousarray(token).tobytes())
    elif isinstance(token, (tuple, list)):
        hasher.update(b"seq")
        for item in token:
            _feed(hasher, item)
    elif isinstance(token, (int, np.integer)):
        hasher.update(f"int:{int(token)}".encode())
    elif isinstance(token, (float, np.floating)):
        hasher.update(f"float:{float(token)!r}".encode())
    elif isinstance(token, str):
        hasher.update(f"str:{token}".encode())
    elif token is None:
        hasher.update(b"none")
    else:
        hasher.update(f"obj:{token!r}".encode())


@dataclass(frozen=True)
class TraceMismatch:
    """One divergence between two traces."""

    channel: str
    index: int
    left: str | None
    right: str | None

    def __str__(self) -> str:
        return (
            f"channel {self.channel!r} token #{self.index}: "
            f"{self.left or '<missing>'} != {self.right or '<missing>'}"
        )


@dataclass
class Trace:
    """A captured simulation trace (digest form)."""

    name: str
    #: per channel, the ordered list of token digests
    channels: dict[str, list[str]] = field(default_factory=dict)

    def record(self, channel: str, token: Any) -> None:
        self.channels.setdefault(channel, []).append(digest_token(token))

    @classmethod
    def from_events(cls, name: str, events: list) -> "Trace":
        """Build from ``(task, index, channel, token)`` event tuples."""
        trace = cls(name)
        for __, __, channel, token in events:
            trace.record(channel, token)
        return trace

    @classmethod
    def from_reference_events(cls, name: str, events: list) -> "Trace":
        """Build from reference-model ``(stage, channel, token)`` tuples."""
        trace = cls(name)
        for __, channel, token in events:
            trace.record(channel, token)
        return trace

    def token_count(self) -> int:
        return sum(len(v) for v in self.channels.values())


def compare_traces(left: Trace, right: Trace,
                   channels: list[str] | None = None) -> list[TraceMismatch]:
    """Per-channel comparison; an empty result means the traces match.

    ``channels`` restricts the comparison (the reference model does not
    trace internal trigger channels, for example).
    """
    names = channels if channels is not None else sorted(
        set(left.channels) | set(right.channels)
    )
    mismatches: list[TraceMismatch] = []
    for channel in names:
        a = left.channels.get(channel, [])
        b = right.channels.get(channel, [])
        for i in range(max(len(a), len(b))):
            da = a[i] if i < len(a) else None
            db = b[i] if i < len(b) else None
            if da != db:
                mismatches.append(TraceMismatch(channel, i, da, db))
    return mismatches
