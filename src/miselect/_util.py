"""Small shared helpers: number checks, frozen arrays, rounding, apportioning, atomic writes."""

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


def frozen(arr):
    """``arr`` C-contiguous and read-only, as every container holds an array: a
    read-only array as itself, a writeable one as a read-only view of it. The
    caller's array keeps its flags, so changing it changes the container."""
    arr = np.ascontiguousarray(arr)
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


def round_half_even(x):
    """Round a real to the nearest integer, ties to even (banker's rounding)."""
    return int(np.rint(x))


def class_shares(labels, num_classes, m):
    """Apportion ``m`` of the samples across their classes in proportion to
    the class sizes: (ascending member indices, quota) of each class whose
    quota is positive, in class order.

    Uses the largest-remainder method: every class gets the floor of its
    exact share m * count / N, then the leftover samples go to the classes
    with the largest remainders, ties to the lower class id. The remainders
    are exact integers, so equal fractions tie however large the shares.
    Quotas sum to exactly ``m`` and never exceed the class sizes.
    """
    counts = np.bincount(labels, minlength=num_classes)
    total = int(counts.sum())
    if m < 0 or m > total:
        raise ValueError(f"cannot apportion {m} items across {total}")
    quotas, remainders = np.divmod(m * counts, total)
    # whole shares, as equal class sizes give, need no ranking; ranking them
    # anyway raised score_scale's peak RSS by 0.2 MiB through heap layout
    extra = m - int(quotas.sum())
    if extra:
        quotas[np.lexsort((np.arange(len(counts)), -remainders))[:extra]] += 1
    return [(np.flatnonzero(labels == c), quota)
            for c, quota in enumerate(quotas.tolist()) if quota > 0]


def json_text(payload, indent=None):
    """``payload`` as sorted-key JSON plus a newline; without an indent,
    dumps runs the C encoder, where dump always runs the Python one."""
    return json.dumps(payload, sort_keys=True, indent=indent) + "\n"


def write_atomic(path, text):
    """Write ``text`` to ``path``, the one way this package writes a file.

    The text goes to a temporary name in the same directory, which is then
    renamed over ``path``, so an interrupted write never leaves a partial
    file at ``path``, nor the temporary file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json_atomic(path, payload, indent=None):
    """Write ``payload`` to ``path`` as json_text, by write_atomic."""
    write_atomic(path, json_text(payload, indent))
