"""Exact symplectic algebra of N-qubit Pauli strings.

A string is stored as X/Z bitmasks plus an integer power of i, so products
and commutation tests are pure bit arithmetic and the tracked phase makes
``matrix_of(product(p, q))`` agree with the dense matrix product exactly.

Bitmask convention: bit 0 (the most significant qubit, qubit index 0) is
the highest bit of the mask, i.e. qubit r occupies bit ``n_qubits-1-r``.
Quaternary digits map 0, 1, 2, 3 to I, Z, X, Y: a factor with x bit x and
z bit z has digit d = 2·x + z.  Digit 3 is the hermitian Y (the family's
hermiticity and square-to-one properties require it).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError, ShapeError, ValidationError

_I2 = np.eye(2, dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

# indexed by digit d = 2·x + z; the hermitian factor for x = z = 1 is Y = i·X·Z
_LETTERS = "IZXY"
_FACTORS = (_I2, _Z, _X, _Y)
_PHASE_PREFIX = {0: "", 1: "i·", 2: "-", 3: "-i·"}

FAMILY_EXHAUSTIVE_MAX_QUBITS = 3


def _split(alpha, n: int):
    """X and Z masks of the label ``alpha``, an int or an int array.

    Base-4 digit k from the right, d = 2·x + z, is qubit n-1-k: mask bit k.
    """
    x = z = 0
    for k in range(n):
        x = x | (((alpha >> (2 * k + 1)) & 1) << k)
        z = z | (((alpha >> (2 * k)) & 1) << k)
    return x, z


@dataclass(frozen=True)
class PauliString:
    """i^phase_power times a tensor product of I/Z/X/Y factors."""

    n_qubits: int
    x_bits: int
    z_bits: int
    phase_power: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        mask = (1 << self.n_qubits) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValidationError("bitmask does not fit the qubit count")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def digit(self, qubit: int) -> int:
        """Quaternary digit of the factor on 0-based qubit index."""
        shift = self.n_qubits - 1 - qubit
        return 2 * ((self.x_bits >> shift) & 1) + ((self.z_bits >> shift) & 1)

    def digits(self) -> tuple[int, ...]:
        return tuple(self.digit(q) for q in range(self.n_qubits))

    @property
    def quaternary_index(self) -> int:
        """Decimal alpha whose base-4 digits name the factors, phase ignored."""
        alpha = 0
        for d in self.digits():
            alpha = 4 * alpha + d
        return alpha

    def __str__(self) -> str:
        return render(self)


def identity(n_qubits: int) -> PauliString:
    return PauliString(n_qubits, 0, 0, 0)


def pauli_from_digits(digits, phase_power: int = 0) -> PauliString:
    digits = tuple(digits)
    n = len(digits)
    alpha = 0
    for d in digits:
        if d not in range(4):
            raise DomainError(f"quaternary digit out of range: {d}")
        alpha = 4 * alpha + int(d)
    return PauliString(n, *_split(alpha, n), phase_power)


def pauli_from_quaternary(alpha: int, n_qubits: int) -> PauliString:
    """The alpha-th family element, alpha read in base 4 (qubit 1 = leading digit)."""
    if not 0 <= alpha < 4**n_qubits:
        raise DomainError(f"alpha={alpha} out of range for {n_qubits} qubits")
    return PauliString(n_qubits, *map(int, _split(alpha, n_qubits)))


def _bit_count(a: np.ndarray, n_bits: int) -> np.ndarray:
    """Set bits of each entry (a per-bit loop: numpy < 2.0 has no bitwise_count)."""
    count = np.zeros_like(a)
    for k in range(n_bits):
        count += (a >> k) & 1
    return count


@functools.lru_cache(maxsize=None)
def action_tables(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed-permutation form of every family element P_α, α = 0 .. 4^n - 1.

    Returns read-only ``(perm, phase)`` of shape (4^n, 2^n) with
    ``(P_α v)[r] = phase[α, r] · v[perm[α, r]]``: each string permutes basis
    indices by XOR with its X mask and multiplies them by a power of i, so
    ``matrix_of(pauli_from_quaternary(α, n))`` is never needed to apply it.
    """
    if n_qubits < 1:
        raise ValidationError(f"n_qubits must be >= 1, got {n_qubits}")
    x, z = _split(np.arange(4**n_qubits), n_qubits)
    perm = x[:, None] ^ np.arange(2**n_qubits)[None, :]
    # P_α = i^{|x & z|} X^x Z^z, and X^x Z^z |s> = (-1)^{z·s} |s ^ x> with s = r ^ x
    powers = 2 * _bit_count(z[:, None] & perm, n_qubits) + _bit_count(x & z, n_qubits)[:, None]
    phase = np.array([1, 1j, -1, -1j])[powers % 4]
    perm.flags.writeable = False
    phase.flags.writeable = False
    return perm, phase


def product(p: PauliString, q: PauliString) -> PauliString:
    """Matrix product p·q with exact phase tracking."""
    if p.n_qubits != q.n_qubits:
        raise ShapeError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    # work in the X^x Z^z canonical form, where each Y contributes a factor i
    phase = (
        p.phase_power
        + (p.x_bits & p.z_bits).bit_count()
        + q.phase_power
        + (q.x_bits & q.z_bits).bit_count()
        + 2 * (p.z_bits & q.x_bits).bit_count()  # Z^b X^c = (-1)^{bc} X^c Z^b
    )
    x = p.x_bits ^ q.x_bits
    z = p.z_bits ^ q.z_bits
    phase -= (x & z).bit_count()  # convert back to the hermitian-Y form
    return PauliString(p.n_qubits, x, z, phase % 4)


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic-form parity: commute iff <p.x,q.z> + <p.z,q.x> is even."""
    if p.n_qubits != q.n_qubits:
        raise ShapeError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    return ((p.x_bits & q.z_bits).bit_count() + (p.z_bits & q.x_bits).bit_count()) % 2 == 0


def matrix_of(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n realization, i^phase_power times the factor product."""
    m = np.array([[1.0 + 0j]])
    for d in p.digits():
        m = np.kron(m, _FACTORS[d])
    return (1j**p.phase_power) * m


def render(p: PauliString, separator: str = "") -> str:
    """Text form like "i·ZX" or, with separator "⊗", "Y⊗I"."""
    letters = separator.join(_LETTERS[d] for d in p.digits())
    return _PHASE_PREFIX[p.phase_power] + letters


_PARSE_RE = re.compile(r"^(?P<phase>-i·?|i·?|-)?(?P<letters>[IZXY](?:⊗?[IZXY])*)$")


def parse(text: str) -> PauliString:
    """Parse the `render` grammar: optional phase prefix then I/Z/X/Y letters."""
    m = _PARSE_RE.match(text.strip())
    if m is None:
        raise ValidationError(f"cannot parse Pauli string: {text!r}")
    phase_text = m.group("phase") or ""
    phase = {"": 0, "i": 1, "i·": 1, "-": 2, "-i": 3, "-i·": 3}[phase_text]
    letters = m.group("letters").replace("⊗", "")
    digits = [_LETTERS.index(c) for c in letters]
    return pauli_from_digits(digits, phase_power=phase)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class FamilyPropertyReport:
    """Exhaustive verification of the eight family properties for one n."""

    n_qubits: int
    checks: tuple[PropertyCheck, ...]
    anticommute_counts: dict[int, int] = field(default_factory=dict)
    all_nonidentity_anticommute: bool = False

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def family_property_report(n: int) -> FamilyPropertyReport:
    """Brute-force check of the operator-family properties over all 4^n strings.

    Verified per element/pair: unit square, hermiticity, closure (each dense
    product equals the i^k·P that `product` returns), commute-or-anticommute
    dichotomy (against dense matrices), existence of an anticommuting partner,
    zero trace off the identity, linear independence, and spanning of all
    2^n x 2^n matrices.
    Also records whether every non-identity pair anticommutes (it cannot,
    for n > 1).
    """
    if n > FAMILY_EXHAUSTIVE_MAX_QUBITS:
        raise ResourceLimitError(
            f"exhaustive family check supports n <= {FAMILY_EXHAUSTIVE_MAX_QUBITS}, got {n}"
        )
    family = [pauli_from_quaternary(a, n) for a in range(4**n)]
    mats = np.array([matrix_of(p) for p in family])
    index_of = {(p.x_bits, p.z_bits): a for a, p in enumerate(family)}
    dim = 2**n
    eye = np.eye(dim)
    checks: list[PropertyCheck] = []

    def check(name, failures):
        checks.append(
            PropertyCheck(name, not failures, "; ".join(failures[:3]))
        )

    def worst(a):  # largest entry modulus of each matrix in a stack
        return np.max(np.abs(a), axis=(-2, -1))

    fails = [str(p) for p, dev in zip(family, worst(mats @ mats - eye)) if dev > 1e-12]
    check("square is identity", fails)

    adjoints = mats.conj().swapaxes(-1, -2)
    fails = [str(p) for p, dev in zip(family, worst(mats - adjoints)) if dev > 1e-12]
    check("hermitian", fails)

    closure_index = np.empty((4**n, 4**n), dtype=int)
    closure_phase = np.empty((4**n, 4**n), dtype=np.complex128)
    for a, p in enumerate(family):
        for b, q in enumerate(family):
            r = product(p, q)
            closure_index[a, b] = index_of[r.x_bits, r.z_bits]
            closure_phase[a, b] = 1j**r.phase_power
    # entry [a, b] compares mats[a] @ mats[b] with the product's i^k·P and
    # with mats[b] @ mats[a]; one row of products at a time keeps memory small
    closure, comm, anti = (np.empty((4**n, 4**n)) for _ in range(3))
    for a in range(4**n):
        prods, flipped = mats[a] @ mats, mats @ mats[a]
        closure[a] = worst(prods - closure_phase[a, :, None, None] * mats[closure_index[a]])
        comm[a] = worst(prods - flipped)
        anti[a] = worst(prods + flipped)
    fails = [f"{family[a]}·{family[b]}" for a, b in zip(*np.nonzero(closure > 1e-12))]
    check("products close up to ±1, ±i", fails)

    fails = []
    counts: dict[int, int] = {}
    for a in range(1, 4**n):
        counts[a] = 0
        for b in range(1, 4**n):
            if a == b:
                continue
            if comm[a, b] > 1e-12 and anti[a, b] > 1e-12:
                fails.append(f"{family[a]},{family[b]}")
            dense_anticommutes = anti[a, b] <= 1e-12
            if dense_anticommutes != (not commutes(family[a], family[b])):
                fails.append(f"symplectic mismatch {family[a]},{family[b]}")
            if dense_anticommutes:
                counts[a] += 1
    check("commute-or-anticommute dichotomy", fails)

    fails = [str(family[a]) for a in range(1, 4**n) if counts[a] == 0]
    check("anticommuting partner exists", fails)

    traces = np.abs(np.trace(mats, axis1=-2, axis2=-1))
    fails = [str(p) for a, p in enumerate(family) if a != 0 and traces[a] > 1e-12]
    check("zero trace off identity", fails)

    stacked = mats.reshape(4**n, -1)
    gram = stacked.conj() @ stacked.T
    independent = np.linalg.matrix_rank(gram) == 4**n
    check("linearly independent", [] if independent else ["Gram matrix singular"])

    spanning = np.linalg.matrix_rank(stacked) == dim * dim
    check("spans all matrices", [] if spanning else [f"rank < {dim * dim}"])

    all_anti = all(counts[a] == 4**n - 2 for a in counts)
    return FamilyPropertyReport(n, tuple(checks), counts, all_anti)
