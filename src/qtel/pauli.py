"""Exact symplectic algebra of N-qubit Pauli strings.

A string is stored as its label α plus an integer power of i.  `_split`
gives the X/Z masks the symplectic product reads, so products and
commutation tests are pure bit arithmetic and the tracked phase makes
``matrix_of(product(p, q))`` agree with the dense matrix product exactly.
The symplectic product is written once (`_multiply`), for ints or int
arrays: `product_table` applies it to every pair of family elements at once.
A string acts on a vector in one form: an entry of the (4^n, 2^n) action table
points into the four signed copies i^k·v that `signed_copies` builds.  The
table is held whole only for n <= 4 (`action_index`); `action_rows` forms
the rows a caller reads from two such factors.

Label convention: qubit r (qubit 0 leading) is base-4 digit ``n_qubits-1-r``
of α from the right, and bit ``n_qubits-1-r`` of each mask.  Digits 0, 1, 2, 3
map to I, Z, X, Y: a factor with x bit x and z bit z has digit d = 2·x + z.
Digit 3 is the hermitian Y (the family's hermiticity and square-to-one
properties require it).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ResourceLimitError, ShapeError, ValidationError, excerpt

_I2 = np.eye(2, dtype=np.complex128)
_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)

# indexed by digit d = 2·x + z; the hermitian factor for x = z = 1 is Y = i·X·Z
_LETTERS = "IZXY"
_FACTORS = np.array([_I2, _Z, _X, _Y])
_PHASE_PREFIX = {0: "", 1: "i·", 2: "-", 3: "-i·"}
POWERS_OF_I = np.array([1, 1j, -1, -1j])  # i^k at index k
POWERS_OF_I.flags.writeable = False

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
    """i^phase_power times the tensor product of I/Z/X/Y factors labelled α."""

    n_qubits: int
    quaternary_index: int  # α, whose base-4 digits name the factors, qubit 0 leading
    phase_power: int = 0

    def __post_init__(self):
        alpha = self.quaternary_index
        if alpha < 0 or alpha.bit_length() > 2 * self.n_qubits:  # alpha < 4^n, without 4^n
            raise DomainError(f"alpha={excerpt(alpha)} out of range for {self.n_qubits} qubits")
        if self.n_qubits < 1:
            raise ValidationError(f"n_qubits must be >= 1, got {self.n_qubits}")
        object.__setattr__(self, "phase_power", self.phase_power % 4)

    @property
    def is_identity(self) -> bool:
        return self.quaternary_index == 0

    def digits(self) -> tuple[int, ...]:
        """Quaternary digit of the factor on each qubit, qubit 0 first."""
        return tuple((self.quaternary_index >> 2 * k) & 3 for k in reversed(range(self.n_qubits)))

    def __str__(self) -> str:
        return render(self)


def pauli_from_digits(digits, phase_power: int = 0) -> PauliString:
    digits = tuple(digits)
    alpha = 0
    for d in digits:
        if d not in range(4):
            raise DomainError(f"quaternary digit out of range: {d}")
        alpha = 4 * alpha + int(d)
    return PauliString(len(digits), alpha, phase_power)


def pauli_from_quaternary(alpha: int, n_qubits: int) -> PauliString:
    """The alpha-th family element, alpha read in base 4 (qubit 1 = leading digit)."""
    return PauliString(n_qubits, int(alpha))  # a numpy integer has no bit_length


def _bit_count(a, n_bits: int):
    """Set bits of an int, or of each int-array entry (numpy < 2.0 has no bitwise_count)."""
    if isinstance(a, int):
        return a.bit_count()
    count = np.zeros_like(a)
    for k in range(n_bits):
        count += (a >> k) & 1
    return count


@functools.lru_cache(maxsize=None)
def action_index(n_qubits: int) -> np.ndarray:
    """Every family element P_α, α = 0 .. 4^n - 1, as positions in `signed_copies`, for n <= 4.

    Returns a read-only (4^n, 2^n) int32 array with entries k·2^n + (r ^ x_α):
    ``(P_α v)[r] = signed_copies(v)[index[α, r]] = i^k · v[r ^ x_α]``.  Each string
    permutes basis indices by XOR with its X mask and multiplies them by a power
    of i, so ``matrix_of(pauli_from_quaternary(α, n))`` is never needed to apply it.
    It is at most 256 x 16, kept for the life of the process, and the factor from
    which `action_rows` forms the table of any larger n.
    """
    if not 1 <= n_qubits <= 4:
        raise ValidationError(f"the whole action table is kept for 1 <= n_qubits <= 4, "
                              f"got {excerpt(n_qubits)}")
    x, z = _split(np.arange(4**n_qubits, dtype=np.int32), n_qubits)
    perm = x[:, None] ^ np.arange(2**n_qubits, dtype=np.int32)[None, :]
    # P_α = i^{|x & z|} X^x Z^z, and X^x Z^z |s> = (-1)^{z·s} |s ^ x> with s = r ^ x
    powers = 2 * _bit_count(z[:, None] & perm, n_qubits) + _bit_count(x & z, n_qubits)[:, None]
    index = (powers % 4) * 2**n_qubits + perm
    index.flags.writeable = False
    return index


def _low_factor(n_qubits: int) -> np.ndarray:
    """`action_index(4)` with each phase k moved from 16·k to 2^n·k: (256, 16) int32."""
    low = action_index(4)
    return (low >> 4 << n_qubits) | (low & 15)


def action_rows(n_qubits: int, start: int, stop: int) -> np.ndarray:
    """Rows start .. stop - 1 (stop at most 4^n) of the (4^n, 2^n) `action_index` table of n qubits.

    For n <= 4 a view of the cached table.  Above, with α = h·256 + l and r = r_h·16 + r_l,
    P_α is P_h on the first n - 4 qubits times P_l on the last four, so
    index[α, r] = ((k_h + k_l) mod 4)·2^n + q_h·16 + q_l, where row h of the table of
    n - 4 qubits holds k_h·2^(n-4) + q_h at r_h and row l of `action_index(4)` holds
    k_l·16 + q_l at r_l: the same integers, formed in int32 from one row of each factor.
    """
    if n_qubits <= 4:
        return action_index(n_qubits)[start:stop]
    stop = min(stop, 4**n_qubits)
    alphas, first = np.arange(start, stop), start >> 8
    high = action_rows(n_qubits - 4, first, ((stop - 1) >> 8) + 1) << 4
    rows = high[(alphas >> 8) - first, :, None] + _low_factor(n_qubits)[alphas & 255, None, :]
    rows &= 4 * 2**n_qubits - 1  # k_h + k_l mod 4
    return rows.reshape(len(alphas), 2**n_qubits)


def signed_copies(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """i^k·v for k = 0 .. 3 joined along `axis`, where entry k·d + s is i^k·v[s] (d = len)."""
    axis %= v.ndim
    copies = POWERS_OF_I.reshape((4,) + (1,) * (v.ndim - axis)) * np.expand_dims(v, axis)
    return copies.reshape(v.shape[:axis] + (4 * v.shape[axis],) + v.shape[axis + 1:])


def _multiply(px, pz, qx, qz, n_bits: int):
    """The symplectic product of phase-free strings P, Q given by masks (ints or int arrays).

    Returns ``(x, z, k, anti)``: P·Q = i^k·R with R of masks (x, z), and anti = 1
    iff P and Q anticommute, the parity of the symplectic form <px,qz> + <pz,qx>.
    """
    x, z = px ^ qx, pz ^ qz
    zx = _bit_count(pz & qx, n_bits)
    # work in the X^x Z^z canonical form, where each Y contributes a factor i:
    # Z^b X^c = (-1)^{bc} X^c Z^b, and the product's own Y factors convert back
    k = _bit_count(px & pz, n_bits) + _bit_count(qx & qz, n_bits) + 2 * zx
    k = (k - _bit_count(x & z, n_bits)) % 4
    return x, z, k, (_bit_count(px & qz, n_bits) + zx) % 2


def _multiply_strings(p: PauliString, q: PauliString):
    """`_multiply` on the masks of two strings of one qubit count."""
    if p.n_qubits != q.n_qubits:
        raise ShapeError(f"qubit count mismatch: {p.n_qubits} vs {q.n_qubits}")
    n = p.n_qubits
    return _multiply(*_split(p.quaternary_index, n), *_split(q.quaternary_index, n), n)


def product(p: PauliString, q: PauliString) -> PauliString:
    """Matrix product p·q with exact phase tracking."""
    k = _multiply_strings(p, q)[2]
    return PauliString(p.n_qubits, p.quaternary_index ^ q.quaternary_index,
                       p.phase_power + q.phase_power + k)


def commutes(p: PauliString, q: PauliString) -> bool:
    """Symplectic-form parity: commute iff <p.x,q.z> + <p.z,q.x> is even."""
    return _multiply_strings(p, q)[3] == 0


def product_table(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`product` and `commutes` on every pair: ``(index, power, anticommutes)``, (4^n, 4^n).

    P_a·P_b = i^power[a, b]·P_index[a, b], with index[a, b] = a ^ b (digits d = 2·x + z).
    """
    alphas = np.arange(4**n_qubits)
    x, z = _split(alphas, n_qubits)
    _, _, power, anti = _multiply(x[:, None], z[:, None], x, z, n_qubits)
    return alphas[:, None] ^ alphas, power, anti == 1


def matrices_of(alphas: np.ndarray, n_qubits: int) -> np.ndarray:
    """Dense factor products of the phase-free strings labelled `alphas`: (len, 2^n, 2^n).

    One broadcast product per qubit, qubit 0 first, forms the elementwise products
    of the ``np.kron`` chain from [[1 + 0j]], so every entry has the same bits.
    """
    m = np.ones((len(alphas), 1, 1), dtype=np.complex128)
    for shift in range(2 * n_qubits - 2, -1, -2):
        factors = _FACTORS[(alphas >> shift) & 3]
        d = 2 * m.shape[-1]
        m = (m[:, :, None, :, None] * factors[:, None, :, None, :]).reshape(-1, d, d)
    return m


def matrix_of(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n realization, i^phase_power times the factor product."""
    return (1j**p.phase_power) * matrices_of(np.array([p.quaternary_index]), p.n_qubits)[0]


def render(p: PauliString) -> str:
    """Text form like "i·ZX"."""
    return _PHASE_PREFIX[p.phase_power] + "".join(_LETTERS[d] for d in p.digits())


_PARSE_RE = re.compile(r"^(?P<phase>-i·?|i·?|-)?(?P<letters>[IZXY](?:⊗?[IZXY])*)$")


def parse(text: str) -> PauliString:
    """Parse the `render` grammar, letters optionally split by "⊗" as in "Y⊗I"."""
    m = _PARSE_RE.match(text.strip())
    if m is None:
        raise ValidationError(f"cannot parse Pauli string: {excerpt(text)}")
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
    product equals the i^k·P of `product_table`), commute-or-anticommute
    dichotomy (dense matrices against `product_table`), existence of an
    anticommuting partner, zero trace off the identity, linear independence,
    and spanning of all 2^n x 2^n matrices (one rank decides both).
    Squares, adjoints, products and traces are compared exactly: their entries
    are sums of products of 0, ±1 and ±i, which floating point forms exactly.
    Also records whether every non-identity pair anticommutes (it cannot,
    for n > 1).
    """
    if not 1 <= n <= FAMILY_EXHAUSTIVE_MAX_QUBITS:
        raise ResourceLimitError(
            f"exhaustive family check supports 1 <= n <= {FAMILY_EXHAUSTIVE_MAX_QUBITS}, "
            f"got {excerpt(n)}"
        )
    family = [pauli_from_quaternary(a, n) for a in range(4**n)]
    mats = matrices_of(np.arange(4**n), n)
    index, power, anticommutes = product_table(n)
    dim = 2**n
    checks: list[PropertyCheck] = []

    def check(name, failures):
        checks.append(PropertyCheck(name, not failures, "; ".join(failures[:3])))

    def differs(a, b):  # which matrices of two stacks differ in some entry
        return (a != b).any(axis=(-2, -1))

    def failing(flags):
        return [str(family[a]) for a in np.flatnonzero(flags)]

    check("square is identity", failing(differs(mats @ mats, np.eye(dim))))
    check("hermitian", failing(differs(mats, mats.conj().swapaxes(-1, -2))))

    closure_phase = POWERS_OF_I[power]
    # entry [a, b] compares mats[a] @ mats[b] with the product's i^k·P and
    # with ±mats[b] @ mats[a]; one row of products at a time keeps memory small
    closure, comm, anti = (np.empty((4**n, 4**n), dtype=bool) for _ in range(3))
    for a in range(4**n):
        prods, flipped = mats[a] @ mats, mats @ mats[a]
        closure[a] = differs(prods, closure_phase[a, :, None, None] * mats[index[a]])
        comm[a] = differs(prods, flipped)
        anti[a] = differs(prods, -flipped)
    fails = [f"{family[a]}·{family[b]}" for a, b in zip(*np.nonzero(closure))]
    check("products close up to ±1, ±i", fails)

    # ordered pairs of distinct non-identity strings
    pairs = ~np.eye(4**n, dtype=bool)
    pairs[0] = pairs[:, 0] = False
    dense_anticommutes = ~anti
    neither = pairs & comm & anti
    mismatch = pairs & (dense_anticommutes != anticommutes)
    fails = []
    for a, b in zip(*np.nonzero(neither | mismatch)):
        if neither[a, b]:
            fails.append(f"{family[a]},{family[b]}")
        if mismatch[a, b]:
            fails.append(f"symplectic mismatch {family[a]},{family[b]}")
    check("commute-or-anticommute dichotomy", fails)

    counts = {a: int(c) for a, c in enumerate((pairs & dense_anticommutes).sum(1)) if a}
    check("anticommuting partner exists", [str(family[a]) for a in counts if counts[a] == 0])

    traces = np.trace(mats, axis1=-2, axis2=-1) != 0
    traces[0] = False  # the identity's trace is 2^n
    check("zero trace off identity", failing(traces))

    # 4^n matrices in the 4^n-dimensional matrix space: independent exactly when they span it
    rank = np.linalg.matrix_rank(mats.reshape(4**n, -1))
    check("linearly independent", [] if rank == 4**n else ["Gram matrix singular"])
    check("spans all matrices", [] if rank == dim * dim else [f"rank < {dim * dim}"])

    all_anti = all(counts[a] == 4**n - 2 for a in counts)
    return FamilyPropertyReport(n, tuple(checks), counts, all_anti)
