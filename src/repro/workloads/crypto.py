"""Cryptography-library workloads (Fig. 9; Sec. 6.3, 7.3.3).

The paper's point about crypto libraries is that their dataflow
linearization sets are *tiny* (AES: one 1 KiB T-table = 16 lines, at
most one BIA entry), so software constant-time programming is already
cheap and the BIA's per-call/per-page preprocessing makes it slightly
slower — except for Blowfish, whose expensive self-modifying key
schedule issues many secret-dependent accesses **including stores**
over a 4 KiB S-box state, where the dirtiness bitmap pays off.

What is real vs modelled here:

* **AES** — a real AES-128 implementation in the one-T-table
  formulation (tables generated from GF(2^8) arithmetic; validated
  against the FIPS-197 test vector in the test suite).  Every T-table
  and S-box lookup is a secret-indexed load through the context.
* **ARC4** — real RC4 (KSA + PRGA); ``S[j]`` accesses (``j`` secret)
  go through the context, ``S[i]`` accesses (``i`` public) do not.
* **XOR** — a real XOR stream cipher: no table, no secret-dependent
  addresses; both mitigations should cost ~nothing (the paper's
  sanity row).
* **DES / DES3** — real FIPS 46-3 DES and Triple-DES (EDE), validated
  against the classic test vector; each round's eight S-box lookups
  are the secret-indexed accesses.
* **ARC2 / Blowfish / CAST** — structurally faithful Feistel kernels:
  real data flow (each lookup index derives from previous lookup
  results), the real algorithms' table geometry and read/write mix,
  but synthetic round constants.  The paper's Fig. 9 depends only on
  DS size, visit count, and read-vs-write mix, which these preserve
  (see DESIGN.md's substitution table).

Tables are stored as u32 words, so a 256-entry byte table occupies
1 KiB; DS sizes in lines: AES 16+16, ARC2 4, ARC4 16, Blowfish 64+
(4 KiB S-box state), CAST 16, DES 4, DES3 4.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro import params
from repro.ct.context import MitigationContext
from repro.params import WORD_MASK
from repro.workloads.base import make_rng


def _rotl32(x: int, n: int) -> int:
    return ((x << n) | (x >> (32 - n))) & WORD_MASK


def _rotr32(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & WORD_MASK


# ---------------------------------------------------------------------------
# AES-128 (real): table generation + one-T-table encryption core
# ---------------------------------------------------------------------------


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


def generate_sbox() -> List[int]:
    """The AES S-box from GF(2^8) inversion + affine transform."""
    # Build inverses via exp/log tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inv(a: int) -> int:
        return 0 if a == 0 else exp[255 - log[a]]

    sbox = []
    for a in range(256):
        b = inv(a)
        res = 0x63
        for shift in (0, 1, 2, 3, 4):
            res ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        sbox.append(res & 0xFF)
    return sbox


SBOX = generate_sbox()

#: The single T-table Te0: Te0[x] = (2s, s, s, 3s) with s = SBOX[x],
#: packed big-endian; Te1..Te3 are byte rotations of Te0.
TE0 = [
    (
        (_gf_mul(s, 2) << 24)
        | (s << 16)
        | (s << 8)
        | _gf_mul(s, 3)
    )
    & WORD_MASK
    for s in SBOX
]

RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def aes_expand_key(key: bytes, sbox_at: Callable[[int], int]) -> List[int]:
    """AES-128 key schedule; S-box reads go through ``sbox_at``."""
    rk = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(4)]
    for rnd in range(10):
        t = rk[-1]
        t = (
            (sbox_at((t >> 16) & 0xFF) << 24)
            | (sbox_at((t >> 8) & 0xFF) << 16)
            | (sbox_at(t & 0xFF) << 8)
            | sbox_at((t >> 24) & 0xFF)
        )
        t ^= RCON[rnd] << 24
        for i in range(4):
            t ^= rk[-4]
            rk.append(t & WORD_MASK)
            t = rk[-1]
    return rk[: 44]


def aes_encrypt_block(
    block: bytes,
    rk: Sequence[int],
    te0_at: Callable[[int], int],
    sbox_at: Callable[[int], int],
    alu: Callable[[int], None] = lambda n: None,
) -> bytes:
    """AES-128 encryption, one-T-table formulation.

    ``te0_at``/``sbox_at`` perform the (secret-indexed) table reads;
    ``alu`` charges bookkeeping instructions when running simulated.
    """
    s = [
        int.from_bytes(block[4 * i : 4 * i + 4], "big") ^ rk[i]
        for i in range(4)
    ]
    for rnd in range(1, 10):
        t = []
        for i in range(4):
            alu(6)  # byte extraction, xors, rotations
            t.append(
                te0_at((s[i] >> 24) & 0xFF)
                ^ _rotr32(te0_at((s[(i + 1) % 4] >> 16) & 0xFF), 8)
                ^ _rotr32(te0_at((s[(i + 2) % 4] >> 8) & 0xFF), 16)
                ^ _rotr32(te0_at(s[(i + 3) % 4] & 0xFF), 24)
                ^ rk[4 * rnd + i]
            )
        s = t
    out = []
    for i in range(4):
        alu(6)
        out.append(
            (sbox_at((s[i] >> 24) & 0xFF) << 24)
            ^ (sbox_at((s[(i + 1) % 4] >> 16) & 0xFF) << 16)
            ^ (sbox_at((s[(i + 2) % 4] >> 8) & 0xFF) << 8)
            ^ sbox_at(s[(i + 3) % 4] & 0xFF)
            ^ rk[40 + i]
        )
    return b"".join(w.to_bytes(4, "big") for w in out)


def aes_encrypt_reference(key: bytes, blocks: Sequence[bytes]) -> bytes:
    """Pure-Python AES-128 ECB (no simulator): the golden model."""
    rk = aes_expand_key(key, SBOX.__getitem__)
    return b"".join(
        aes_encrypt_block(b, rk, TE0.__getitem__, SBOX.__getitem__)
        for b in blocks
    )


# ---------------------------------------------------------------------------
# Table plumbing on the simulated machine
# ---------------------------------------------------------------------------


class _SimTable:
    """A u32 table resident in simulated memory with a registered DS."""

    def __init__(
        self, ctx: MitigationContext, words: Sequence[int], name: str
    ) -> None:
        self.ctx = ctx
        machine = ctx.machine
        self.base = machine.allocator.alloc_words(len(words), name)
        for i, w in enumerate(words):
            machine.memory.write_word(self.base + 4 * i, w & WORD_MASK)
        self.ds = ctx.register_ds(self.base, len(words) * params.WORD_SIZE, name)

    def load(self, index: int) -> int:
        """Secret-indexed read (goes through the mitigation)."""
        return self.ctx.load(self.ds, self.base + 4 * index)

    def store(self, index: int, value: int) -> None:
        """Secret-indexed write (goes through the mitigation)."""
        self.ctx.store(self.ds, self.base + 4 * index, value & WORD_MASK)

    def plain_load(self, index: int) -> int:
        """Public-indexed read (no mitigation needed)."""
        return self.ctx.plain_load(self.base + 4 * index)

    def plain_store(self, index: int, value: int) -> None:
        """Public-indexed write (no mitigation needed)."""
        self.ctx.plain_store(self.base + 4 * index, value & WORD_MASK)


# ---------------------------------------------------------------------------
# The eight Fig. 9 ciphers
# ---------------------------------------------------------------------------

AES_BLOCKS = 2
RC4_KEYSTREAM = 48


def _secret_key(seed: int) -> bytes:
    """A 16-byte (128-bit) key, the size every cipher here takes."""
    rng = make_rng(16, seed)
    return bytes(rng.randrange(256) for _ in range(16))


def run_aes(ctx: MitigationContext, seed: int) -> bytes:
    """Real AES-128 over :data:`AES_BLOCKS` blocks, tables in sim memory."""
    key = _secret_key(seed)
    rng = make_rng(17, seed)
    blocks = [bytes(rng.randrange(256) for _ in range(16)) for _ in range(AES_BLOCKS)]
    te0 = _SimTable(ctx, TE0, "aes_te0")
    sbox = _SimTable(ctx, SBOX, "aes_sbox")
    alu = ctx.execute
    rk = aes_expand_key(key, sbox.load)
    out = b"".join(
        aes_encrypt_block(b, rk, te0.load, sbox.load, alu) for b in blocks
    )
    return out


def run_arc4(ctx: MitigationContext, seed: int) -> bytes:
    """Real RC4: S[i] public-indexed, S[j] secret-indexed."""
    key = _secret_key(seed)
    state = _SimTable(ctx, list(range(256)), "rc4_state")
    j = 0
    for i in range(256):
        ctx.execute(4)
        si = state.plain_load(i)
        j = (j + si + key[i % len(key)]) & 0xFF
        sj = state.load(j)
        state.plain_store(i, sj)
        state.store(j, si)
    out = bytearray()
    i = j = 0
    for _ in range(RC4_KEYSTREAM):
        ctx.execute(5)
        i = (i + 1) & 0xFF
        si = state.plain_load(i)
        j = (j + si) & 0xFF
        sj = state.load(j)
        state.plain_store(i, sj)
        state.store(j, si)
        t = (si + sj) & 0xFF
        out.append(state.load(t) & 0xFF)
    return bytes(out)


def rc4_reference(seed: int) -> bytes:
    """Golden RC4 keystream."""
    key = _secret_key(seed)
    s = list(range(256))
    j = 0
    for i in range(256):
        j = (j + s[i] + key[i % len(key)]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray()
    i = j = 0
    for _ in range(RC4_KEYSTREAM):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out.append(s[(s[i] + s[j]) & 0xFF])
    return bytes(out)


def run_xor(ctx: MitigationContext, seed: int) -> bytes:
    """Real XOR stream cipher: no secret-dependent addresses at all."""
    key = _secret_key(seed)
    rng = make_rng(19, seed)
    data = [rng.randrange(256) for _ in range(64)]
    machine = ctx.machine
    base = machine.allocator.alloc_words(len(data), "xor_buf")
    for i, b in enumerate(data):
        machine.memory.write_word(base + 4 * i, b)
    out = bytearray()
    for i in range(len(data)):
        ctx.execute(3)
        v = ctx.plain_load(base + 4 * i)
        out.append((v ^ key[i % len(key)]) & 0xFF)
    return bytes(out)


def _feistel_kernel(
    ctx: MitigationContext,
    name: str,
    table_words: int,
    rounds: int,
    lookups_per_round: int,
    stores_per_round: int,
    seed: int,
) -> Tuple[int, int]:
    """Structurally faithful Feistel loop over a secret-indexed table.

    Each lookup index derives from the running state (so the access
    chain is genuinely data-dependent), and ``stores_per_round``
    models self-modifying key schedules (Blowfish).  Returns the final
    (x, y) state, identical across mitigation contexts.
    """
    rng = make_rng(table_words, seed)
    table = _SimTable(
        ctx, [rng.getrandbits(32) for _ in range(table_words)], name
    )
    mask = table_words - 1
    x = rng.getrandbits(32)
    y = rng.getrandbits(32)
    for _ in range(rounds):
        for _look in range(lookups_per_round):
            ctx.execute(4)
            v = table.load(x & mask)
            x, y = y, (x ^ _rotl32(v + y, 3)) & WORD_MASK
        for _st in range(stores_per_round):
            ctx.execute(3)
            table.store(y & mask, (x ^ y) & WORD_MASK)
            x = _rotl32(x, 7) ^ (y & WORD_MASK)
    return x, y


def run_arc2(ctx: MitigationContext, seed: int) -> Tuple[int, int]:
    """RC2-like: 256-byte PITABLE (4 lines), read-only key expansion."""
    return _feistel_kernel(ctx, "arc2_pitable", 64, 36, 4, 0, seed)


def run_blowfish(ctx: MitigationContext, seed: int) -> Tuple[int, int]:
    """Blowfish-like: 4 KiB S-box state, write-heavy key schedule.

    The real key schedule runs the cipher ~521 times and *rewrites*
    the S-boxes with the outputs — secret-derived indices feed both
    loads and stores.  This is the workload where the dirtiness
    bitmaps shine (Sec. 7.3.3's outlier).
    """
    return _feistel_kernel(ctx, "blowfish_sbox", 1024, 48, 2, 2, seed)


def run_cast(ctx: MitigationContext, seed: int) -> Tuple[int, int]:
    """CAST-128-like: 1 KiB S-box, read-only rounds."""
    return _feistel_kernel(ctx, "cast_sbox", 256, 48, 3, 0, seed)


class _DESBoxes:
    """The eight DES S-boxes in simulated memory, one DS per box."""

    def __init__(self, ctx: MitigationContext, name: str) -> None:
        from repro.workloads.des import SBOXES

        self.tables = [
            _SimTable(ctx, SBOXES[i], f"{name}_s{i + 1}") for i in range(8)
        ]

    def at(self, box: int, index: int) -> int:
        """Secret-indexed S-box lookup through the mitigation."""
        return self.tables[box].load(index)


def run_des(ctx: MitigationContext, seed: int) -> int:
    """Real DES-56: one block, all 128 S-box lookups secret-indexed.

    Bit-accurate FIPS 46-3 (validated against the classic test vector
    in the test suite); only the S-box reads touch memory with secret
    indices, exactly like a real table-based implementation.
    """
    from repro.workloads.des import des_encrypt

    rng = make_rng(23, seed)
    key = rng.getrandbits(64)
    block = rng.getrandbits(64)
    boxes = _DESBoxes(ctx, "des")
    return des_encrypt(block, key, sbox_at=boxes.at, alu=ctx.execute)


def run_des3(ctx: MitigationContext, seed: int) -> int:
    """Real Triple-DES (EDE, three keys): 384 S-box lookups."""
    from repro.workloads.des import des3_encrypt

    rng = make_rng(29, seed)
    keys = tuple(rng.getrandbits(64) for _ in range(3))
    block = rng.getrandbits(64)
    boxes = _DESBoxes(ctx, "des3")
    return des3_encrypt(block, keys, sbox_at=boxes.at, alu=ctx.execute)


#: name -> runner; the Fig. 9 x-axis order.
CIPHERS: Dict[str, Callable[[MitigationContext, int], object]] = {
    "AES": run_aes,
    "ARC2": run_arc2,
    "ARC4": run_arc4,
    "Blowfish": run_blowfish,
    "CAST": run_cast,
    "DES": run_des,
    "DES3": run_des3,
    "XOR": run_xor,
}


def run_cipher(name: str, ctx: MitigationContext, seed: int = 1):
    """Run one Fig. 9 cipher under the given mitigation context."""
    return CIPHERS[name](ctx, seed)
