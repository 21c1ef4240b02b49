"""Code generation: normalized mini-C functions to ISA instruction listings.

The generated code follows ordinary compiled-code conventions:

* frame pointer based stack frames (``push rbp; mov rbp, rsp; sub rsp, N``),
* parameters spilled to the frame at entry,
* expressions evaluated through a small register operand stack,
* comparisons driving ``cmp``/``jcc`` pairs (the flag-based branches the
  paper's ROP branch encoding and the ROP-aware attacks both key on),
* the System-V-like calling convention of :mod:`repro.isa.registers`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.compiler.errors import CompileError
from repro.compiler.frame import Frame
from repro.cpu.host import HOST_FUNCTION_NAMES, host_function_address
from repro.isa.instructions import NEGATED_CONDITION, Instruction, make
from repro.isa.operands import Imm, Label, Mem, Reg
from repro.isa.registers import ARG_REGISTERS, Register
from repro.lang.ast import (
    Assign,
    BinOp,
    Break,
    Call,
    Const,
    Continue,
    Expr,
    ExprStmt,
    Function,
    If,
    Load,
    Probe,
    Return,
    Stmt,
    Store,
    Switch,
    UnOp,
    Var,
    While,
)

#: Registers used as the expression operand stack, in stack order.
OPERAND_STACK = (
    Register.RAX,
    Register.RCX,
    Register.RSI,
    Register.RDI,
    Register.R8,
    Register.R9,
    Register.R10,
    Register.R11,
)

_COMPARISONS = {"==": "e", "!=": "ne", "<": "l", "<=": "le", ">": "g", ">=": "ge"}
_MASK64 = (1 << 64) - 1

#: An item of a code listing: an instruction or a label name.
ListingItem = Union[Instruction, str]


def function_label(name: str) -> str:
    """The assembler label marking the entry of function ``name``."""
    return f"__func_{name}"


def function_end_label(name: str) -> str:
    """The assembler label marking one past the end of function ``name``."""
    return f"__funcend_{name}"


class FunctionCodegen:
    """Generates the instruction listing of a single normalized function."""

    def __init__(self, function: Function, global_addresses: Dict[str, int],
                 known_functions: Optional[set] = None) -> None:
        self.function = function
        self.globals = global_addresses
        self.known_functions = known_functions or set()
        self.frame = Frame()
        self.items: List[ListingItem] = []
        self._label_counter = 0
        self._loop_stack: List[tuple] = []
        if len(function.params) > len(ARG_REGISTERS):
            raise CompileError(
                f"{function.name}: at most {len(ARG_REGISTERS)} parameters supported"
            )
        # reserve slots for parameters and local arrays up front so the
        # prologue knows where to spill arguments
        for param in function.params:
            self.frame.slot(param)
        for array, size in function.local_arrays.items():
            self.frame.array(array, size)

    # -- helpers -------------------------------------------------------------
    def _emit(self, instruction: Instruction) -> None:
        self.items.append(instruction)

    def _label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{self.function.name}__{hint}_{self._label_counter}"

    def _place(self, label: str) -> None:
        self.items.append(label)

    def _slot_operand(self, name: str, size: int = 8) -> Mem:
        return Mem(base=Register.RBP, disp=-self.frame.slot(name), size=size)

    def _reg(self, depth: int) -> Register:
        if depth >= len(OPERAND_STACK):
            raise CompileError(
                f"{self.function.name}: expression too deep for operand stack"
            )
        return OPERAND_STACK[depth]

    # -- expressions ---------------------------------------------------------
    def _gen_expr(self, expr: Expr, depth: int) -> None:
        """Evaluate ``expr`` into ``OPERAND_STACK[depth]``."""
        target = Reg(self._reg(depth))
        if isinstance(expr, Const):
            self._emit(make("mov", target, Imm(expr.value & _MASK64)))
            return
        if isinstance(expr, Var):
            name = expr.name
            if name in self.function.local_arrays:
                offset = self.frame.array(name, self.function.local_arrays[name])
                self._emit(make("lea", target, Mem(base=Register.RBP, disp=-offset)))
            elif name in self.globals:
                self._emit(make("mov", target, Imm(self.globals[name])))
            else:
                self._emit(make("mov", target, self._slot_operand(name)))
            return
        if isinstance(expr, UnOp):
            self._gen_expr(expr.operand, depth)
            if expr.op == "-":
                self._emit(make("neg", target))
            elif expr.op == "~":
                self._emit(make("not", target))
            elif expr.op == "!":
                self._emit(make("cmp", target, Imm(0, 4)))
                self._emit(make("sete", Reg(target.reg, 1)))
                self._emit(make("movzx", target, Reg(target.reg, 1)))
            else:
                raise CompileError(f"unknown unary operator {expr.op!r}")
            return
        if isinstance(expr, Load):
            self._gen_expr(expr.address, depth)
            source = Mem(base=target.reg, size=expr.size)
            if expr.size < 8:
                self._emit(make("movzx", target, source))
            else:
                self._emit(make("mov", target, source))
            return
        if isinstance(expr, BinOp):
            self._gen_binop(expr, depth)
            return
        if isinstance(expr, Call):
            raise CompileError(
                "calls must be hoisted to statement level before code generation"
            )
        raise CompileError(f"unknown expression {expr!r}")

    def _gen_binop(self, expr: BinOp, depth: int) -> None:
        left = Reg(self._reg(depth))
        right = Reg(self._reg(depth + 1))
        self._gen_expr(expr.left, depth)
        self._gen_expr(expr.right, depth + 1)
        op = expr.op
        if op in ("+", "-", "&", "|", "^"):
            mnemonic = {"+": "add", "-": "sub", "&": "and", "|": "or", "^": "xor"}[op]
            self._emit(make(mnemonic, left, right))
        elif op == "*":
            self._emit(make("imul", left, right))
        elif op in ("<<", ">>"):
            self._emit(make("shl" if op == "<<" else "sar", left, right))
        elif op in ("/", "%"):
            self._gen_division(left.reg, right.reg, op)
        elif op in _COMPARISONS:
            self._emit(make("cmp", left, right))
            self._emit(make(f"set{_COMPARISONS[op]}", Reg(left.reg, 1)))
            self._emit(make("movzx", left, Reg(left.reg, 1)))
        else:
            raise CompileError(f"unknown binary operator {op!r}")

    def _gen_division(self, left: Register, right: Register, op: str) -> None:
        save_rax = left is not Register.RAX
        if save_rax:
            self._emit(make("push", Reg(Register.RAX)))
            self._emit(make("mov", Reg(Register.RAX), Reg(left)))
        self._emit(make("cqo"))
        self._emit(make("idiv", Reg(right)))
        result = Register.RAX if op == "/" else Register.RDX
        if save_rax:
            self._emit(make("mov", Reg(left), Reg(result)))
            self._emit(make("pop", Reg(Register.RAX)))
        elif op == "%":
            self._emit(make("mov", Reg(Register.RAX), Reg(Register.RDX)))

    # -- calls ---------------------------------------------------------------
    def _call_target(self, name: str):
        if name in HOST_FUNCTION_NAMES:
            return Imm(host_function_address(name))
        if name == self.function.name or name in self.known_functions or not self.known_functions:
            return Label(function_label(name))
        raise CompileError(f"call to unknown function {name!r}")

    def _gen_call(self, call: Call) -> None:
        """Generate a call; the return value is left in ``rax``."""
        if len(call.args) > len(ARG_REGISTERS):
            raise CompileError(f"too many arguments in call to {call.name!r}")
        for arg in call.args:
            self._gen_expr(arg, 0)
            self._emit(make("push", Reg(Register.RAX)))
        for index in reversed(range(len(call.args))):
            self._emit(make("pop", Reg(ARG_REGISTERS[index])))
        self._emit(make("call", self._call_target(call.name)))

    # -- statements ----------------------------------------------------------
    def _gen_condition(self, condition: Expr, false_label: str) -> None:
        """Evaluate ``condition`` and jump to ``false_label`` when it is false."""
        if isinstance(condition, BinOp) and condition.op in _COMPARISONS:
            left = Reg(self._reg(0))
            right = Reg(self._reg(1))
            self._gen_expr(condition.left, 0)
            self._gen_expr(condition.right, 1)
            self._emit(make("cmp", left, right))
            negated = NEGATED_CONDITION[_COMPARISONS[condition.op]]
            self._emit(make(f"j{negated}", Label(false_label)))
            return
        self._gen_expr(condition, 0)
        self._emit(make("test", Reg(Register.RAX), Reg(Register.RAX)))
        self._emit(make("je", Label(false_label)))

    def _gen_statement(self, statement: Stmt) -> None:
        if isinstance(statement, Assign):
            if isinstance(statement.value, Call):
                self._gen_call(statement.value)
            else:
                self._gen_expr(statement.value, 0)
            self._emit(make("mov", self._slot_operand(statement.name), Reg(Register.RAX)))
            return
        if isinstance(statement, Store):
            self._gen_expr(statement.address, 0)
            self._gen_expr(statement.value, 1)
            destination = Mem(base=Register.RAX, size=statement.size)
            self._emit(make("mov", destination, Reg(Register.RCX, statement.size)))
            return
        if isinstance(statement, ExprStmt):
            if isinstance(statement.expr, Call):
                self._gen_call(statement.expr)
            else:
                self._gen_expr(statement.expr, 0)
            return
        if isinstance(statement, Probe):
            self._emit(make("mov", Reg(Register.RDI), Imm(statement.probe_id)))
            self._emit(make("call", Imm(host_function_address("__probe"))))
            return
        if isinstance(statement, Return):
            if statement.value is None:
                self._emit(make("xor", Reg(Register.RAX), Reg(Register.RAX)))
            else:
                self._gen_expr(statement.value, 0)
            self._emit(make("leave"))
            self._emit(make("ret"))
            return
        if isinstance(statement, If):
            else_label = self._label("else")
            end_label = self._label("endif")
            self._gen_condition(statement.condition, else_label if statement.else_body else end_label)
            for inner in statement.then_body:
                self._gen_statement(inner)
            if statement.else_body:
                self._emit(make("jmp", Label(end_label)))
                self._place(else_label)
                for inner in statement.else_body:
                    self._gen_statement(inner)
            self._place(end_label)
            return
        if isinstance(statement, While):
            head_label = self._label("loop")
            end_label = self._label("endloop")
            self._place(head_label)
            self._gen_condition(statement.condition, end_label)
            self._loop_stack.append((head_label, end_label))
            for inner in statement.body:
                self._gen_statement(inner)
            self._loop_stack.pop()
            self._emit(make("jmp", Label(head_label)))
            self._place(end_label)
            return
        if isinstance(statement, Break):
            if not self._loop_stack:
                raise CompileError("break outside of a loop")
            self._emit(make("jmp", Label(self._loop_stack[-1][1])))
            return
        if isinstance(statement, Continue):
            if not self._loop_stack:
                raise CompileError("continue outside of a loop")
            self._emit(make("jmp", Label(self._loop_stack[-1][0])))
            return
        if isinstance(statement, Switch):
            self._gen_switch(statement)
            return
        raise CompileError(f"unknown statement {statement!r}")

    def _gen_switch(self, statement: Switch) -> None:
        selector_slot = self._slot_operand(self._label("switch_sel"))
        self._gen_expr(statement.selector, 0)
        self._emit(make("mov", selector_slot, Reg(Register.RAX)))
        end_label = self._label("endswitch")
        case_labels = {value: self._label(f"case_{value}") for value in statement.cases}
        default_label = self._label("default")
        for value, label in case_labels.items():
            self._emit(make("mov", Reg(Register.RAX), selector_slot))
            self._emit(make("cmp", Reg(Register.RAX), Imm(value & _MASK64)))
            self._emit(make("je", Label(label)))
        self._emit(make("jmp", Label(default_label)))
        for value, body in statement.cases.items():
            self._place(case_labels[value])
            for inner in body:
                self._gen_statement(inner)
            self._emit(make("jmp", Label(end_label)))
        self._place(default_label)
        for inner in statement.default:
            self._gen_statement(inner)
        self._place(end_label)

    # -- entry point ---------------------------------------------------------
    def generate(self) -> List[ListingItem]:
        """Generate the full listing: label, prologue, body, epilogue."""
        body_items: List[ListingItem] = []
        self.items = body_items
        for statement in self.function.body:
            self._gen_statement(statement)
        # implicit "return 0" when control may fall off the end
        if not self.function.body or not isinstance(self.function.body[-1], Return):
            self._emit(make("xor", Reg(Register.RAX), Reg(Register.RAX)))
            self._emit(make("leave"))
            self._emit(make("ret"))
        prologue: List[ListingItem] = [
            function_label(self.function.name),
            make("push", Reg(Register.RBP)),
            make("mov", Reg(Register.RBP), Reg(Register.RSP)),
            make("sub", Reg(Register.RSP), Imm(self.frame.size)),
        ]
        for index, param in enumerate(self.function.params):
            prologue.append(
                make("mov", self._slot_operand(param), Reg(ARG_REGISTERS[index]))
            )
        return prologue + body_items + [function_end_label(self.function.name)]
