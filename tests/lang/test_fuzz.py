"""Property-based fuzz of the mini-Constantine pipeline.

Generates random (well-formed) IR programs mixing arithmetic, selects,
secret-indexed loads/stores, secret branches and public loops, then
checks the two theorems the toolchain must uphold:

1. **Transformation soundness** — the transformed program computes
   exactly what the native program computes, on every context.
2. **Transformation security** — under the BIA context, the
   observable trace is identical across secrets.

Accesses are kept in-bounds by construction (every generated access is
preceded by a ``mod`` of its index register), mirroring how real
linearizable code is written.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize
from repro.core.machine import Machine, MachineConfig
from repro.ct.bia_ops import BIAContext
from repro.ct.context import InsecureContext
from repro.lang.ir import ArrayDecl, BinOp, Const, For, If, Load, Program, Select, Store
from repro.lang.executor import run_program

ARRAY_WORDS = 32
REGS = ["r0", "r1", "r2", "r3"]

_reg = st.sampled_from(REGS)
_operand = st.one_of(_reg, st.integers(min_value=0, max_value=255))
_op = st.sampled_from(["add", "sub", "xor", "and", "or", "lt", "eq", "mul"])

_simple = st.one_of(
    st.builds(Const, dst=_reg, value=st.integers(0, 1000)),
    st.builds(BinOp, dst=_reg, op=_op, a=_operand, b=_operand),
    st.builds(
        Select, dst=_reg, cond=_operand, if_true=_operand, if_false=_operand
    ),
)


def _access(kind_reg_pair):
    kind, reg, payload = kind_reg_pair
    idx = f"{reg}_idx"
    prefix = (BinOp(idx, "mod", reg, ARRAY_WORDS),)
    if kind == "load":
        return prefix + (Load(reg, "a", idx),)
    return prefix + (Store("a", idx, payload),)


_access_block = st.builds(
    _access,
    st.tuples(st.sampled_from(["load", "store"]), _reg, _operand),
)

_leaf_block = st.one_of(_simple.map(lambda s: (s,)), _access_block)


def _flatten(blocks):
    out = []
    for block in blocks:
        out.extend(block)
    return tuple(out)


_leaf_body = st.lists(_leaf_block, min_size=1, max_size=4).map(_flatten)

_branch = st.builds(
    lambda cond, then_body, else_body: (If(cond, then_body, else_body),),
    cond=_reg,
    then_body=_leaf_body,
    else_body=_leaf_body,
)

_loop = st.builds(
    lambda count, body: (For("i", count, (BinOp("r0", "add", "r0", "i"),) + body),),
    count=st.integers(min_value=1, max_value=3),
    body=_leaf_body,
)

_block = st.one_of(_leaf_block, _branch, _loop)

_body = st.lists(_block, min_size=1, max_size=6).map(_flatten)


def build_program(body):
    # Seed every register from the secret so taint reaches everywhere.
    prelude = tuple(
        BinOp(reg, "add", "k", i) for i, reg in enumerate(REGS)
    )
    return Program(
        name="fuzz",
        secret_inputs=("k",),
        arrays=(ArrayDecl("a", ARRAY_WORDS),),
        body=prelude + body,
        outputs=tuple(REGS),
        output_arrays=("a",),
    )


def run(body, secret, kind, mitigate):
    machine = Machine(MachineConfig())
    ctx = (
        InsecureContext(machine) if kind == "insecure" else BIAContext(machine)
    )
    program = build_program(body)
    return run_program(
        program,
        ctx,
        {"k": secret},
        {"a": list(range(ARRAY_WORDS))},
        mitigate=mitigate,
    )


class TestTransformationSoundness:
    @given(_body, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_transformed_equals_native(self, body, secret):
        native = run(body, secret, "insecure", mitigate=False)
        transformed = run(body, secret, "bia", mitigate=True)
        assert native == transformed

    @given(_body, st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_contexts_agree(self, body, secret):
        insecure = run(body, secret, "insecure", mitigate=True)
        bia = run(body, secret, "bia", mitigate=True)
        assert insecure == bia


class TestTransformationSecurity:
    @given(_body)
    @settings(max_examples=25, deadline=None)
    def test_trace_equivalent_across_secrets(self, body):
        program = build_program(body)
        report = sanitize(
            lambda: BIAContext(Machine(MachineConfig())),
            lambda ctx, secret: run_program(
                program,
                ctx,
                {"k": secret},
                {"a": list(range(ARRAY_WORDS))},
                mitigate=True,
            ),
            secrets=(0, 7, 9999),
        )
        assert report.clean, report.describe()
