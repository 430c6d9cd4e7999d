"""Independent oracles used by the tests.

Everything here recomputes expected values from first principles (plain
numpy matrix arithmetic, single-qubit Bloch equations) so the tests never
assert an implementation against itself.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
SPLUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS = np.array([[0, 0], [1, 0]], dtype=complex)

_SITE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_word(word: str) -> np.ndarray:
    """Dense image of a Pauli word, built directly from single-site matrices."""
    out = _SITE[word[0]]
    for ch in word[1:]:
        out = np.kron(out, _SITE[ch])
    return out


def dense_operator(op) -> np.ndarray:
    """Dense image of a PauliOperator, independent of the package's converter."""
    dim = 2 ** op.n
    out = np.zeros((dim, dim), dtype=complex)
    for word, coeff in op.terms.items():
        out += coeff * dense_word(word)
    return out


def _generator_action(h_mat, lindblad_mats, rho):
    """-i[H, rho] + sum(2 L rho L+ - {L+L, rho}) by plain matrix products."""
    acc = -1j * (h_mat @ rho - rho @ h_mat)
    for lm in lindblad_mats:
        ldl = lm.conj().T @ lm
        acc += 2 * lm @ rho @ lm.conj().T - ldl @ rho - rho @ ldl
    return acc


def apply_generator(model, rho) -> np.ndarray:
    """The model's generator applied to rho, with dense images from dense_operator."""
    return _generator_action(
        dense_operator(model.hamiltonian),
        [dense_operator(lm) for lm in model.lindblads],
        np.asarray(rho, dtype=complex),
    )


def generator_matrix(h_mat, lindblad_mats):
    """Column-by-column generator matrix from plain matrix products.

    Applies the generator to every matrix unit E_ab and stacks the
    column-vectorized results.
    """
    dim = h_mat.shape[0]
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for col in range(dim * dim):
        unit = np.zeros((dim, dim), dtype=complex)
        unit[col % dim, col // dim] = 1.0  # column-stacked basis matrix
        out[:, col] = _generator_action(h_mat, lindblad_mats, unit).ravel(order="F")
    return out


def bloch_block(h: float, g: float) -> np.ndarray:
    """(y, z) block of the single-qubit Bloch generator for H = h X, L = g Z."""
    return np.array([[-4 * g * g, -2 * h], [2 * h, 0.0]])


def bloch_liouvillian_eigs(h: float, g: float) -> np.ndarray:
    """All four generator eigenvalues for H = h X, L = g Z.

    The Bloch equations decouple into x (rate -4g^2) and the (y, z) block;
    the trace mode contributes the stationary eigenvalue 0.
    """
    yz = np.linalg.eigvals(bloch_block(h, g))
    return np.concatenate([[0.0, -4 * g * g], yz]).astype(complex)


def bloch_transition_scale(h: float) -> float:
    """Noise scale where the (y, z) eigenvalues collide: g^2 = h."""
    return float(np.sqrt(h))


def assert_spectra_match(got, want, tol: float) -> None:
    """Order-free multiset comparison of two eigenvalue lists."""
    got = list(np.asarray(got, dtype=complex))
    want = list(np.asarray(want, dtype=complex))
    assert len(got) == len(want)
    for target in want:
        dists = [abs(g - target) for g in got]
        best = int(np.argmin(dists))
        assert dists[best] < tol, f"no eigenvalue within {tol} of {target}: {dists[best]}"
        got.pop(best)
