"""Binary-level analyses used by the ROP rewriter.

These play the role of the off-the-shelf tools in the paper's pipeline
(Figure 2): CFG reconstruction (Ghidra/angr/radare2), liveness analysis and
the data-flow analysis that identifies input-derived ("symbolic") registers
for the P3 predicate.  Both passes read what each instruction reads and
writes from the one effect table, :data:`repro.isa.effects.EFFECTS`, which
gadget side effects and the semantics registry read too.
"""

from repro.analysis.cfg_recovery import BasicBlock, FunctionCFG, recover_cfg, CFGError
from repro.analysis.liveness import LivenessResult, compute_liveness
from repro.analysis.dataflow import compute_symbolic_registers

__all__ = [
    "BasicBlock",
    "FunctionCFG",
    "CFGError",
    "recover_cfg",
    "LivenessResult",
    "compute_liveness",
    "compute_symbolic_registers",
]
