"""numpy's own LAPACK ``dsyevd``, run in the caller's buffer.

``np.linalg.eigh`` copies its input into a Fortran-ordered buffer and writes
the eigenvectors to a third array. Calling the ``dsyevd`` of the OpenBLAS
that numpy's wheels bundle in ``numpy.libs`` on the matrix itself gives the
same bits without either copy: a C-contiguous buffer read in Fortran order
is the transpose, which for an exactly symmetric matrix is the matrix, and
``uplo='L'`` then reads the same triangle with the same reduction that numpy
runs. Both symbol names below are ILP64 builds (64-bit integers) that take
the Fortran string lengths after the last argument. The library is looked up
at the first call, not at import.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

# numpy >= 2 bundles scipy-openblas, the 1.2x wheels openblas64_
SYMBOLS = ("scipy_dsyevd_64_", "dsyevd_64_")

_INT = ctypes.POINTER(ctypes.c_int64)
# jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, len(jobz), len(uplo)
_ARGTYPES = (ctypes.c_char_p, ctypes.c_char_p, _INT, ctypes.c_void_p, _INT, ctypes.c_void_p,
             ctypes.c_void_p, _INT, ctypes.c_void_p, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t)


@functools.cache
def _bundled_dsyevd():
    """(name, function) of the first ``dsyevd`` in numpy's bundled OpenBLAS,
    or (None, None)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in SYMBOLS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = _ARGTYPES, None
                return name, fn
    return None, None


def dsyevd_symbol():
    """The name of the ``dsyevd`` that ``eigh`` runs in place, or None when
    it falls back to ``np.linalg.eigh``."""
    return _bundled_dsyevd()[0]


def eigh(a):
    """``np.linalg.eigh(a)``, bit for bit, computed in ``a``'s own buffer.

    ``a`` is an (n, n) float64 matrix that the caller no longer reads: when
    it is C-contiguous, writable and exactly symmetric, and numpy's
    ``dsyevd`` resolves, the eigenvectors overwrite it and the returned
    ``eigvecs`` (columns, as numpy returns them) is a view of it. Otherwise
    this is ``np.linalg.eigh``, which reads ``a``'s lower triangle and
    leaves it as it was.
    """
    dsyevd = _bundled_dsyevd()[1]
    n = a.shape[0]
    if (dsyevd is None or a.shape != (n, n) or a.dtype != np.float64
            or not a.flags.c_contiguous or not a.flags.writeable or not np.array_equal(a, a.T)):
        return np.linalg.eigh(a)
    w = np.empty(n)
    info = ctypes.c_int64(0)

    def call(work, lwork, iwork, liwork):
        dsyevd(b"V", b"L", ctypes.byref(ctypes.c_int64(n)), a.ctypes.data,
               ctypes.byref(ctypes.c_int64(n)), w.ctypes.data, work.ctypes.data,
               ctypes.byref(ctypes.c_int64(lwork)), iwork.ctypes.data,
               ctypes.byref(ctypes.c_int64(liwork)), ctypes.byref(info), 1, 1)

    # sizes of -1 ask for the workspace sizes, which numpy's eigh also uses
    work, iwork = np.empty(1), np.empty(1, dtype=np.int64)
    call(work, -1, iwork, -1)
    if info.value == 0:
        lwork, liwork = int(work[0]), int(iwork[0])
        call(np.empty(lwork), lwork, np.empty(liwork, dtype=np.int64), liwork)
    if info.value != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    # LAPACK wrote eigenvector j to column j in Fortran order: row j of a
    return w, a.T
