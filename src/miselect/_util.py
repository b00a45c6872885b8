"""Small shared helpers: number checks, rounding, apportioning, atomic JSON writes."""

import json
import numbers
import os
import sys

import numpy as np


def is_number(v):
    """A number, not a bool (JSON true/false), that converts to a finite
    float64: JSON NaN and Infinity parse but are rejected."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def is_int(v, least=0):
    """An integer of at least ``least``, not a bool; numpy integers count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= least


def round_half_even(x):
    """Round a real to the nearest integer, ties to even (banker's rounding)."""
    return int(np.rint(x))


def largest_remainder_quotas(m, counts):
    """Apportion ``m`` items across groups proportionally to ``counts``.

    Uses the largest-remainder method: every group gets the floor of its
    exact share, then the leftover items go to the groups with the largest
    fractional remainders (ties broken by lower group id). Quotas sum to
    exactly ``m`` and never exceed the group counts when ``m <= sum(counts)``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if m < 0 or m > total:
        raise ValueError(f"cannot apportion {m} items across {total}")
    shares = m * counts / total
    quotas = np.floor(shares).astype(np.int64)
    remainder = m - int(quotas.sum())
    if remainder > 0:
        frac = shares - quotas
        order = np.lexsort((np.arange(len(counts)), -frac))
        quotas[order[:remainder]] += 1
    return quotas


def write_json_atomic(path, payload):
    """Write ``payload`` to ``path`` as sorted-key JSON plus a newline.

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so an interrupted write never leaves a
    partial file at ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as f:
            # dumps runs the C encoder; dump always runs the Python one
            f.write(json.dumps(payload, sort_keys=True))
            f.write("\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
