"""Race-directed testing of *real* Python threads.

:func:`native_program` turns ordinary ``threading``-style code, written
against a :class:`NativeRuntime` handle, into an engine
:class:`~repro.runtime.program.Program`; every real thread runs as one
kind of :class:`~repro.runtime.interpreter.Execution` thread.  The whole
pipeline (``detect_races``, ``fuzz_pair``, ``race_directed_test``) then
serves it unchanged.  See :mod:`repro.native.runtime`.
"""

from .runtime import NativeRuntime, native_program

__all__ = ["NativeRuntime", "native_program"]
