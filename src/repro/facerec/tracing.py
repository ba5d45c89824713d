"""Trace capture and comparison: :mod:`repro.traces`, under its older name."""

from repro.traces import Trace, TraceMismatch, compare_traces, digest_token

__all__ = ["Trace", "TraceMismatch", "compare_traces", "digest_token"]
