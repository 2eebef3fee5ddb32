"""MiniJ virtual machine: heap, frames, natives, interpreter.

Execution tiers: the reference interpreter loop (``exec_mode="interp"``)
and the template-compiled dispatch tier (``exec_mode="compiled"``, the
default — see :mod:`repro.vm.compiled`).
"""

from .. import _lazy_surface

#: Execution tiers (``--exec-mode``); defined here so naming one costs
#: no interpreter import.
EXEC_INTERP = "interp"
EXEC_COMPILED = "compiled"
EXEC_MODES = (EXEC_INTERP, EXEC_COMPILED)

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "errors": ("VMArithmeticError", "VMBoundsError", "VMError",
               "VMLimitError", "VMNullError", "VMTypestateError"),
    "frames": ("Frame",),
    "heap": ("Heap",),
    "interpreter": ("VM", "resolve_exec_mode"),
    "values": ("ArrayObject", "HeapObject", "default_value",
               "render_value"),
    "compiled": (), "natives": (),
})
__all__ += ["EXEC_COMPILED", "EXEC_INTERP", "EXEC_MODES"]
