"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports qtel: every expected value is derived from the
definitions (Pauli strings as X/Z bit masks, basis members B^(a) = P_a B^(0),
outcome amplitudes E^T B^(a)dagger psi), so a defect in qtel cannot hide
behind the same defect in its checker.

Conventions match the README: qubit 1 is the most significant bit of a
basis index, and quaternary digits 0, 1, 2, 3 name I, Z, X, Y.
"""

from __future__ import annotations

import numpy as np

_DIGIT_MATRIX = (
    np.eye(2, dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
)


def pauli_masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """X and Z bit masks of all 4^n strings, indexed by alpha."""
    alphas = np.arange(4**n)
    x = np.zeros(4**n, dtype=np.int64)
    z = np.zeros(4**n, dtype=np.int64)
    for qubit in range(n):
        digit = (alphas >> (2 * (n - 1 - qubit))) & 3
        bit = 1 << (n - 1 - qubit)
        x |= np.where((digit == 2) | (digit == 3), bit, 0)
        z |= np.where((digit == 1) | (digit == 3), bit, 0)
    return x, z


def pauli_matrix(alpha: int, n: int) -> np.ndarray:
    m = np.ones((1, 1), dtype=np.complex128)
    for qubit in range(n):
        m = np.kron(m, _DIGIT_MATRIX[(alpha >> (2 * (n - 1 - qubit))) & 3])
    return m


def paulis_on_vector(psi: np.ndarray, n: int) -> np.ndarray:
    """Row alpha is P_alpha psi, from (P psi)_i = i^|x&z| (-1)^|z&(i^x)| psi_(i^x)."""
    x, z = pauli_masks(n)
    idx = np.arange(2**n)[None, :] ^ x[:, None]
    sign = 1 - 2 * (np.bitwise_count(z[:, None] & idx).astype(np.int64) & 1)
    phase = 1j ** np.bitwise_count(x & z).astype(np.int64)
    return phase[:, None] * sign * psi[idx]


def anticommute_matrix(n: int) -> np.ndarray:
    """Boolean (4^n, 4^n) table: entry [a, b] is True when P_a, P_b anticommute."""
    x, z = pauli_masks(n)
    parity = np.bitwise_count(x[:, None] & z[None, :]) ^ np.bitwise_count(z[:, None] & x[None, :])
    return (parity & 1).astype(bool)


def outcome_probabilities(info: np.ndarray, e: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """p_alpha = ||E^T B^(alpha)dagger psi||^2 for the basis generated from seed matrix b0."""
    n = int(info.size).bit_length() - 1
    bob = paulis_on_vector(info, n) @ (e.T @ b0.conj().T).T
    return np.sum(np.abs(bob) ** 2, axis=1)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def perfect_channel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Channel matrix 2^-n/2 U with U Haar-random, so E^dagger E = 2^-n 1."""
    return haar_unitary(2**n, rng) / np.sqrt(2**n)


def degenerate_channel(n: int, rng: np.random.Generator) -> np.ndarray:
    """GHZ-like rank-2 channel (rank 1 for n = 1): many outcomes have p = 0."""
    d = 2**n
    e = np.zeros((d, d), dtype=np.complex128)
    theta = rng.uniform(0.2, 0.6)
    if n == 1:
        e[0, 0] = 1.0
    else:
        e[0, 0], e[d - 1, d - 1] = np.cos(theta), np.sin(theta)
    return e


def schmidt_channel(lam: float) -> np.ndarray:
    """cos(lam)|00> + sin(lam)|11> as a 2 x 2 channel matrix."""
    return np.diag([np.cos(lam), np.sin(lam)]).astype(np.complex128)


def concurrence(e: np.ndarray) -> float:
    """2|ad - bc| for the 2-qubit state with amplitudes (a, b, c, d)."""
    return float(2 * abs(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]))


def maximal_cliques(n: int) -> list[tuple[int, ...]]:
    """Maximal anticommuting sets of non-identity strings, by plain Bron-Kerbosch."""
    adj = anticommute_matrix(n)
    neighbours = {v: {u for u in range(1, 4**n) if adj[v, u]} for v in range(1, 4**n)}
    found: list[tuple[int, ...]] = []

    def grow(r, p, x):
        if not p and not x:
            found.append(tuple(sorted(r)))
        for v in sorted(p):
            grow(r | {v}, p & neighbours[v], x & neighbours[v])
            p = p - {v}
            x = x | {v}

    grow(set(), set(range(1, 4**n)), set())
    return sorted(found)


def clique_problems(cliques, n: int) -> list[str]:
    """Every set must be pairwise anticommuting, maximal and listed once."""
    adj = anticommute_matrix(n)[1:, 1:].astype(np.int64)
    member = np.zeros((len(cliques), 4**n - 1), dtype=np.int64)
    for row, clique in enumerate(cliques):
        member[row, np.asarray(clique) - 1] = 1
    size = member.sum(axis=1)
    problems = []
    edges = np.einsum("ci,ij,cj->c", member, adj, member) // 2
    if np.any(edges != size * (size - 1) // 2):
        problems.append(f"n={n}: a listed set is not pairwise anticommuting")
    joinable = (member @ adj == size[:, None]) & (member == 0)
    if np.any(joinable):
        problems.append(f"n={n}: a listed set is not maximal")
    if len({tuple(sorted(c)) for c in cliques}) != len(cliques):
        problems.append(f"n={n}: a set is listed twice")
    return problems
