"""Miniature direct speech-to-speech translation pipeline on numpy.

Semantic tokenizer (VQ split encoder), decoder-only translation LM over an
augmented text+audio vocabulary with grouped audio emission, timbre-conditioned
vocoder, and the training/evaluation machinery to run the whole thing on a
synthetic bilingual corpus in CPU minutes.

The package root defines no names: import each from the module that defines
it.  Its one job is to pin BLAS before any NumPy product runs.
"""


def _pin_blas_to_one_thread():
    """One thread for NumPy's bundled OpenBLAS: how BLAS splits a product sets its rounding."""
    import ctypes
    from pathlib import Path
    import numpy as np
    for lib in Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"):
        set_threads = ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


_pin_blas_to_one_thread()
